//===- tests/PruneDiffTest.cpp - Prove-and-prune differential soundness ---===//
//
// The prove-and-prune soundness contract, tested differentially: for
// every workload of every paper suite (table1/table2/sec73/fig1/
// predict), under multiple seeds and timeslice regimes, and under the
// chaos fault-plan matrix of PR 5, an OnlineSvd running with the static
// CU atomicity proofs wired in must produce a violation report stream
// BYTE-IDENTICAL to an unpruned OnlineSvd observing the very same
// execution. Both detectors ride one vm::Machine, so the interleaving
// is shared by construction and any divergence is the pruning's fault.
//
// Scope: violation reports (and their true/false classification) are
// compared field-by-field. The a-posteriori CU log is intentionally
// NOT compared — pruned units do not record their (provably benign)
// local communication, which is the documented report-equivalence
// boundary (DESIGN.md section 12).
//
//===----------------------------------------------------------------------===//

#include "analysis/AtomicProof.h"
#include "fault/Fault.h"
#include "harness/Suites.h"
#include "svd/OnlineSvd.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace svd;

namespace {

/// Field-by-field equality; Violation has no operator== of its own.
bool sameViolation(const detect::Violation &A, const detect::Violation &B) {
  return A.Seq == B.Seq && A.Tid == B.Tid && A.Pc == B.Pc &&
         A.OtherTid == B.OtherTid && A.OtherPc == B.OtherPc &&
         A.OtherSeq == B.OtherSeq && A.Address == B.Address;
}

struct DiffResult {
  uint64_t Events = 0;
  uint64_t Pruned = 0;
};

/// Runs \p W once under \p MC with a full and a pruned OnlineSvd on the
/// SAME machine and asserts report equivalence. Returns the pruned
/// detector's counters so callers can assert pruning actually engaged.
/// \p Proofs belongs to the caller (shared across runs); the pruned
/// detector also reads the access table the proofs classified with.
DiffResult runDiff(const workloads::Workload &W, vm::MachineConfig MC,
                   const analysis::CuProofs &Proofs,
                   const std::string &Ctx) {
  vm::Machine M(W.Program, MC);

  detect::OnlineSvdConfig FullCfg;
  detect::OnlineSvd Full(W.Program, FullCfg);

  detect::OnlineSvdConfig PrunedCfg;
  PrunedCfg.Access = &Proofs.accessTable();
  PrunedCfg.Proofs = &Proofs;
  detect::OnlineSvd Pruned(W.Program, PrunedCfg);

  M.addObserver(&Full);
  M.addObserver(&Pruned);
  // A fault plan may crash the run mid-sample; both observers saw the
  // same prefix, so the comparison below is still exact.
  try {
    M.run();
  } catch (const fault::InjectedCrash &) {
  }

  const std::vector<detect::Violation> &VF = Full.violations();
  const std::vector<detect::Violation> &VP = Pruned.violations();
  EXPECT_EQ(VF.size(), VP.size()) << Ctx;
  for (size_t I = 0; I < VF.size() && I < VP.size(); ++I) {
    EXPECT_TRUE(sameViolation(VF[I], VP[I]))
        << Ctx << ": violation " << I << " diverged: full {seq " << VF[I].Seq
        << " t" << unsigned(VF[I].Tid) << " pc " << VF[I].Pc << "} pruned {seq "
        << VP[I].Seq << " t" << unsigned(VP[I].Tid) << " pc " << VP[I].Pc
        << "}";
    // True-report classification is part of the contract: pruning must
    // not reclassify a finding.
    EXPECT_EQ(W.isTrueReport(VF[I]), W.isTrueReport(VP[I])) << Ctx;
  }
  DiffResult R;
  R.Pruned = Pruned.prunedAccesses();
  R.Events = M.steps();
  return R;
}

vm::MachineConfig configFor(uint64_t Seed, uint32_t MinTs, uint32_t MaxTs) {
  vm::MachineConfig MC;
  MC.SchedSeed = Seed;
  MC.MinTimeslice = MinTs;
  MC.MaxTimeslice = MaxTs;
  return MC;
}


} // namespace

// Every suite's workloads at the suite's REAL parameterization
// (harness::suiteWorkloads is the single source of truth the benches
// use), across seeds and two timeslice regimes. Each combination is a
// single sample, which keeps the sweep affordable.
TEST(PruneDiff, AllSuitesAllSeeds) {
  for (const char *Suite :
       {"table1", "table2", "sec73", "fig1", "predict", "interproc"}) {
    std::vector<workloads::Workload> Ws = harness::suiteWorkloads(Suite);
    ASSERT_FALSE(Ws.empty()) << Suite;
    for (const workloads::Workload &W : Ws) {
      analysis::CuProofs Proofs = analysis::proveAtomicCus(W.Program);
      for (uint64_t Seed : {1, 7, 23}) {
        for (auto [MinTs, MaxTs] : {std::pair<uint32_t, uint32_t>{1, 4},
                                    std::pair<uint32_t, uint32_t>{8, 32}}) {
          std::string Ctx = std::string(Suite) + "/" + W.Name + " seed " +
                            std::to_string(Seed) + " ts " +
                            std::to_string(MinTs) + ".." +
                            std::to_string(MaxTs);
          runDiff(W, configFor(Seed, MinTs, MaxTs), Proofs, Ctx);
        }
      }
    }
  }
}

// The same equivalence under PR 5's deterministic fault-plan matrix:
// stalls, spurious lock failures, preemption storms, and mid-run
// injected crashes must not open a gap between full and pruned runs.
TEST(PruneDiff, ChaosPlanMatrix) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 20;
  WP.WorkPadding = 8;
  WP.TouchOneIn = 2;
  std::vector<workloads::Workload> Ws = workloads::table1Workloads(WP);
  Ws.push_back(workloads::lockedCounters(WP));
  Ws.push_back(workloads::tidSlab(WP));

  std::vector<fault::FaultPlanConfig> Plans = fault::defaultPlanMatrix(5);
  for (const workloads::Workload &W : Ws) {
    analysis::CuProofs Proofs = analysis::proveAtomicCus(W.Program);
    for (const fault::FaultPlanConfig &PC : Plans) {
      for (uint64_t Seed : {1, 11}) {
        fault::FaultPlan Plan(PC, Seed);
        vm::MachineConfig MC = configFor(Seed, 1, 4);
        MC.Faults = &Plan;
        runDiff(W, MC, Proofs,
                W.Name + " plan " + PC.Name + " seed " +
                    std::to_string(Seed));
      }
    }
  }
}

// The showcase workloads must actually exercise the fast path: zero
// pruned events would make the whole differential vacuous.
TEST(PruneDiff, ShowcaseWorkloadsPruneNonzero) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 20;
  WP.WorkPadding = 8;
  uint64_t TotalPruned = 0;
  for (workloads::Workload W :
       {workloads::lockedCounters(WP), workloads::tidSlab(WP)}) {
    analysis::CuProofs Proofs = analysis::proveAtomicCus(W.Program);
    DiffResult R = runDiff(W, configFor(5, 1, 4), Proofs, W.Name);
    EXPECT_GT(R.Pruned, 0u) << W.Name;
    TotalPruned += R.Pruned;
  }
  EXPECT_GT(TotalPruned, 0u);
}

// The function-structured twin pair: procCache's cross-function CU
// (lock; call get; rmw; call put; unlock) is proven two-phase by the
// interprocedural AtomicProof, so its accesses must actually hit the
// pruned fast path — and the buggy procGap twin must stay
// report-identical under pruning (its gap CU is unprovable, so pruning
// must not eat the lost-update report).
TEST(PruneDiff, ProcWorkloadsPruneNonzeroAndStayEquivalent) {
  workloads::WorkloadParams WP;
  WP.Threads = 3;
  WP.Iterations = 20;
  WP.WorkPadding = 8;
  workloads::Workload Cache = workloads::procCache(WP);
  {
    analysis::CuProofs Proofs = analysis::proveAtomicCus(Cache.Program);
    DiffResult R =
        runDiff(Cache, configFor(3, 1, 4), Proofs, Cache.Name);
    EXPECT_GT(R.Pruned, 0u) << "cross-function proof never engaged";
  }
  workloads::Workload Gap = workloads::procGap(WP);
  analysis::CuProofs Proofs = analysis::proveAtomicCus(Gap.Program);
  for (uint64_t Seed : {1, 7, 23})
    runDiff(Gap, configFor(Seed, 1, 4), Proofs,
            Gap.Name + " seed " + std::to_string(Seed));
}

// PgSQL at table1 size prunes too (the paper workload the proofs were
// built to serve) — pins the end-to-end pipeline on a non-toy program.
TEST(PruneDiff, PgsqlPrunesAtTable1Size) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 150;
  WP.WorkPadding = 80;
  workloads::Workload W = workloads::pgsqlOltp(WP);
  analysis::CuProofs Proofs = analysis::proveAtomicCus(W.Program);
  DiffResult R = runDiff(W, configFor(1, 1, 4), Proofs, W.Name);
  EXPECT_GT(R.Pruned, 0u);
}
