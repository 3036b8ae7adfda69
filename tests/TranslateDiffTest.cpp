//===- tests/TranslateDiffTest.cpp - Interpreter vs translated engine -----===//
//
// The translation cache's whole contract is "bit-identical, only
// faster" (DESIGN.md section 16): a machine running through decoded
// blocks must produce the same schedule, counters, errors, prints,
// final memory, and detector verdicts as the per-step interpreter for
// every configuration. This suite enforces that differentially — two
// machines, identical configs except MachineConfig::Translate — over
// the paper suites, randomized programs, the chaos fault-plan matrix,
// replay, serial mode, migration, and checkpoint/restore mid-block.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "fault/Fault.h"
#include "harness/Harness.h"
#include "harness/Suites.h"
#include "svd/OnlineSvd.h"
#include "vm/Machine.h"
#include "vm/Translate.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace svd;

namespace {

/// Everything deterministic one run produces.
struct RunSnap {
  vm::StopReason Stop = vm::StopReason::AllHalted;
  uint64_t Steps = 0;
  std::vector<isa::ThreadId> Schedule;
  vm::ExecCounters C;
  std::vector<vm::ProgramError> Errors;
  std::vector<vm::PrintedValue> Prints;
  std::vector<isa::Word> Memory;
  std::vector<detect::Violation> Violations;
  uint64_t CusFormed = 0;
};

/// Runs \p P to completion under \p MC with a fresh OnlineSvd attached
/// and snapshots every deterministic output. An injected mid-run crash
/// is caught: both engines crash at the same step, so the prefix still
/// compares exactly.
RunSnap runOne(const isa::Program &P, const vm::MachineConfig &MC,
               const detect::OnlineSvdConfig &DC) {
  vm::Machine M(P, MC);
  detect::OnlineSvd D(P, DC);
  M.addObserver(&D);
  RunSnap S;
  try {
    S.Stop = M.run();
  } catch (const fault::InjectedCrash &) {
  }
  S.Steps = M.steps();
  S.Schedule = M.schedule();
  S.C = M.counters();
  S.Errors = M.errors();
  S.Prints = M.printed();
  S.Memory.reserve(P.MemoryWords);
  for (isa::Addr A = 0; A < P.MemoryWords; ++A)
    S.Memory.push_back(M.readMem(A));
  S.Violations = D.violations();
  S.CusFormed = D.numCusFormed();
  return S;
}

void expectSame(const RunSnap &I, const RunSnap &T, const std::string &Ctx) {
  EXPECT_EQ(I.Stop, T.Stop) << Ctx;
  EXPECT_EQ(I.Steps, T.Steps) << Ctx;
  EXPECT_EQ(I.Schedule, T.Schedule) << Ctx;

  EXPECT_EQ(I.C.Loads, T.C.Loads) << Ctx;
  EXPECT_EQ(I.C.Stores, T.C.Stores) << Ctx;
  EXPECT_EQ(I.C.Alu, T.C.Alu) << Ctx;
  EXPECT_EQ(I.C.Branches, T.C.Branches) << Ctx;
  EXPECT_EQ(I.C.LockAcquires, T.C.LockAcquires) << Ctx;
  EXPECT_EQ(I.C.LockSpins, T.C.LockSpins) << Ctx;
  EXPECT_EQ(I.C.Unlocks, T.C.Unlocks) << Ctx;
  EXPECT_EQ(I.C.ProgramErrors, T.C.ProgramErrors) << Ctx;
  EXPECT_EQ(I.C.FaultStalls, T.C.FaultStalls) << Ctx;
  EXPECT_EQ(I.C.FaultLockFailures, T.C.FaultLockFailures) << Ctx;
  EXPECT_EQ(I.C.FaultPreemptions, T.C.FaultPreemptions) << Ctx;

  ASSERT_EQ(I.Errors.size(), T.Errors.size()) << Ctx;
  for (size_t K = 0; K < I.Errors.size(); ++K) {
    EXPECT_EQ(I.Errors[K].Seq, T.Errors[K].Seq) << Ctx;
    EXPECT_EQ(I.Errors[K].Tid, T.Errors[K].Tid) << Ctx;
    EXPECT_EQ(I.Errors[K].Pc, T.Errors[K].Pc) << Ctx;
    EXPECT_EQ(I.Errors[K].Message, T.Errors[K].Message) << Ctx;
  }
  ASSERT_EQ(I.Prints.size(), T.Prints.size()) << Ctx;
  for (size_t K = 0; K < I.Prints.size(); ++K) {
    EXPECT_EQ(I.Prints[K].Seq, T.Prints[K].Seq) << Ctx;
    EXPECT_EQ(I.Prints[K].Tid, T.Prints[K].Tid) << Ctx;
    EXPECT_EQ(I.Prints[K].Value, T.Prints[K].Value) << Ctx;
  }
  EXPECT_EQ(I.Memory, T.Memory) << Ctx;

  ASSERT_EQ(I.Violations.size(), T.Violations.size()) << Ctx;
  for (size_t K = 0; K < I.Violations.size(); ++K) {
    const detect::Violation &A = I.Violations[K];
    const detect::Violation &B = T.Violations[K];
    EXPECT_TRUE(A.Seq == B.Seq && A.Tid == B.Tid && A.Pc == B.Pc &&
                A.OtherTid == B.OtherTid && A.OtherPc == B.OtherPc &&
                A.OtherSeq == B.OtherSeq && A.Address == B.Address)
        << Ctx << ": violation " << K << " diverged";
  }
  EXPECT_EQ(I.CusFormed, T.CusFormed) << Ctx;
}

/// Interpreter vs translated over \p P at \p MC (Translate forced off /
/// on respectively); plain detector config.
void diffProgram(const isa::Program &P, vm::MachineConfig MC,
                 const std::string &Ctx) {
  detect::OnlineSvdConfig DC;
  MC.Translate = false;
  RunSnap I = runOne(P, MC, DC);
  MC.Translate = true;
  RunSnap T = runOne(P, MC, DC);
  expectSame(I, T, Ctx);
}

vm::MachineConfig configFor(uint64_t Seed, uint32_t MinTs, uint32_t MaxTs) {
  harness::SampleConfig SC;
  SC.Seed = Seed;
  SC.MinTimeslice = MinTs;
  SC.MaxTimeslice = MaxTs;
  return harness::machineConfigFor(SC);
}

/// Every workload of \p Suite at the suite's real parameterization,
/// across seeds and three timeslice regimes including the table-1
/// per-instruction interleave. \p Thorough=false (the multi-megaword
/// shadow suite, where one run costs seconds) keeps one seed and the
/// two extreme regimes — still both engine paths, just fewer repeats.
void diffSuite(const char *Suite, bool Thorough = true) {
  std::vector<workloads::Workload> Ws = harness::suiteWorkloads(Suite);
  ASSERT_FALSE(Ws.empty()) << Suite;
  std::vector<uint64_t> Seeds = Thorough ? std::vector<uint64_t>{1, 7, 23}
                                         : std::vector<uint64_t>{1};
  std::vector<std::pair<uint32_t, uint32_t>> Regimes =
      Thorough ? std::vector<std::pair<uint32_t, uint32_t>>{{1, 1}, {1, 4},
                                                            {8, 32}}
               : std::vector<std::pair<uint32_t, uint32_t>>{{1, 1}, {8, 32}};
  for (const workloads::Workload &W : Ws) {
    for (uint64_t Seed : Seeds) {
      for (auto [MinTs, MaxTs] : Regimes) {
        diffProgram(W.Program, configFor(Seed, MinTs, MaxTs),
                    std::string(Suite) + "/" + W.Name + " seed " +
                        std::to_string(Seed) + " ts " +
                        std::to_string(MinTs) + ".." +
                        std::to_string(MaxTs));
      }
    }
  }
}

} // namespace

// Every paper suite, one test each so ctest runs them concurrently
// (predict is excluded: its bench drives private machines through a
// confirmation engine, not run()).
TEST(TranslateDiff, SuiteTable1) { diffSuite("table1"); }
TEST(TranslateDiff, SuiteTable2) { diffSuite("table2"); }
TEST(TranslateDiff, SuiteSec73) { diffSuite("sec73"); }
TEST(TranslateDiff, SuiteFig1) { diffSuite("fig1"); }
TEST(TranslateDiff, SuiteInterproc) { diffSuite("interproc"); }
TEST(TranslateDiff, SuiteShadow) { diffSuite("shadow", /*Thorough=*/false); }

// Randomized programs — correct and lock-omitting buggy ones — sweep
// opcode mixes and block shapes no curated workload pins down.
TEST(TranslateDiff, RandomPrograms) {
  for (uint64_t Gen = 1; Gen <= 6; ++Gen) {
    workloads::RandomParams RP;
    RP.Seed = Gen * 77;
    RP.Threads = 2 + Gen % 3;
    RP.Iterations = 15;
    RP.OmitLockProbability = (Gen % 2) ? 0.3 : 0.0;
    workloads::Workload W = workloads::randomWorkload(RP);
    for (uint64_t Seed : {3, 19}) {
      for (auto [MinTs, MaxTs] : {std::pair<uint32_t, uint32_t>{1, 1},
                                  std::pair<uint32_t, uint32_t>{2, 9}}) {
        diffProgram(W.Program, configFor(Seed, MinTs, MaxTs),
                    W.Name + " gen " + std::to_string(Gen) + " seed " +
                        std::to_string(Seed));
      }
    }
  }
}

// The chaos fault-plan matrix: stalls, lock failures, preemption
// storms, mid-run crashes. The translated engine serves these through
// its single-step fallback, and the prefix up to an injected crash
// must still match exactly.
TEST(TranslateDiff, ChaosPlanMatrix) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 20;
  WP.WorkPadding = 8;
  std::vector<workloads::Workload> Ws = workloads::table1Workloads(WP);

  std::vector<fault::FaultPlanConfig> Plans = fault::defaultPlanMatrix(5);
  for (const workloads::Workload &W : Ws) {
    for (const fault::FaultPlanConfig &PC : Plans) {
      for (uint64_t Seed : {1, 11}) {
        fault::FaultPlan Plan(PC, Seed);
        vm::MachineConfig MC = configFor(Seed, 1, 4);
        MC.Faults = &Plan;
        diffProgram(W.Program, MC,
                    W.Name + " plan " + PC.Name + " seed " +
                        std::to_string(Seed));
      }
    }
  }
}

// Serial mode and OS-style CPU migration (both served by dedicated
// scheduler paths) stay identical too.
TEST(TranslateDiff, SerialModeAndMigration) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 15;
  WP.WorkPadding = 6;
  for (workloads::Workload W : workloads::table1Workloads(WP)) {
    vm::MachineConfig Serial = configFor(5, 1, 4);
    Serial.SerialMode = true;
    diffProgram(W.Program, Serial, W.Name + " serial");

    vm::MachineConfig Migrate = configFor(5, 1, 4);
    Migrate.NumCpus = 2;
    Migrate.MigrationInterval = 16;
    diffProgram(W.Program, Migrate, W.Name + " migration");
  }
}

// Replaying a recorded schedule through a translated machine follows
// the recording exactly (the replay branch is pre-burst, so this rides
// the single-step fallback).
TEST(TranslateDiff, ReplayFollowsRecording) {
  workloads::WorkloadParams WP;
  WP.Threads = 3;
  WP.Iterations = 12;
  workloads::Workload W = workloads::pgsqlOltp(WP);

  vm::MachineConfig MC = configFor(99, 1, 4);
  MC.Translate = false; // the interpreter records
  vm::Machine Rec(W.Program, MC);
  Rec.run();

  vm::MachineConfig RMC = configFor(1234, 1, 4); // divergent sched seed
  RMC.RndSeed = MC.RndSeed; // same program inputs — replay's precondition
  RMC.Translate = true;
  vm::Machine Rep(W.Program, RMC);
  Rep.setReplaySchedule(Rec.schedule());
  EXPECT_EQ(Rep.run(), vm::StopReason::AllHalted);
  EXPECT_EQ(Rep.schedule(), Rec.schedule());
  EXPECT_EQ(Rep.steps(), Rec.steps());
}

// Checkpoint/restore across a translated run, with the checkpoint taken
// MID-BLOCK (a stepped prefix stops wherever it stops, not at a block
// boundary): the burst engine must resume from an arbitrary pc via the
// BlockOf map and still match the interpreter and its own first pass.
TEST(TranslateDiff, CheckpointRestoreMidBlock) {
  workloads::WorkloadParams WP;
  WP.Threads = 3;
  WP.Iterations = 12;
  WP.WorkPadding = 8; // straight-line padding makes multi-op blocks
  workloads::Workload W = workloads::mysqlPrepared(WP);

  vm::MachineConfig MC = configFor(7, 4, 9);
  RunSnap I = runOne(W.Program, [&] {
    vm::MachineConfig C = MC;
    C.Translate = false;
    return C;
  }(), detect::OnlineSvdConfig());

  MC.Translate = true;
  vm::Machine M(W.Program, MC);
  vm::StopReason R;
  // 13 single steps land mid-slice and mid-block for these timeslices.
  for (int K = 0; K < 13; ++K)
    ASSERT_TRUE(M.stepOnce(R));
  vm::Checkpoint C = M.checkpoint();
  EXPECT_EQ(M.run(), I.Stop);
  std::vector<isa::ThreadId> FirstPass = M.schedule();
  EXPECT_EQ(FirstPass, I.Schedule);
  EXPECT_EQ(M.steps(), I.Steps);

  // Roll back to the mid-block checkpoint and run the tail again: the
  // burst engine resumes at a non-leader pc and reproduces the run.
  M.restore(C);
  EXPECT_EQ(M.run(), I.Stop);
  EXPECT_EQ(M.schedule(), I.Schedule);
  EXPECT_EQ(M.steps(), I.Steps);
  for (isa::Addr A = 0; A < W.Program.MemoryWords; ++A)
    ASSERT_EQ(M.readMem(A), I.Memory[A]) << "addr " << A;
}

// Folded static hints: a translated machine running from a hint-stamped
// shared cache, with the detector trusting the hints, must match an
// interpreter machine whose detector does the per-event table lookups —
// same violations AND same filtered/pruned tallies. Also proves cache
// sharing across machines (two seeds, one cache). Inputs: two showcase
// workloads plus table1's PgSQL analog, the one Table 1 workload with
// both thread-local and proven-CU accesses.
TEST(TranslateDiff, StaticHintFoldMatchesTableLookups) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 20;
  WP.WorkPadding = 8;
  std::vector<workloads::Workload> Ws = {workloads::lockedCounters(WP),
                                         workloads::tidSlab(WP)};
  for (workloads::Workload &W : harness::suiteWorkloads("table1"))
    if (W.Name == "PgSQL")
      Ws.push_back(std::move(W));
  ASSERT_EQ(Ws.size(), 3u);
  for (const workloads::Workload &W : Ws) {
    analysis::CuProofs Proofs = analysis::proveAtomicCus(W.Program);
    const analysis::AccessTable &Table = Proofs.accessTable();
    vm::TransCache Hinted(W.Program, [&](isa::ThreadId Tid, uint32_t Pc) {
      uint8_t H = vm::HintClassified;
      if (Table.classify(Tid, Pc) == analysis::AccessClass::ThreadLocal)
        H |= vm::HintFilteredLocal;
      if (Proofs.provenAt(Tid, Pc))
        H |= vm::HintProvenCu;
      return H;
    });

    detect::OnlineSvdConfig Lookup;
    Lookup.Access = &Table;
    Lookup.Proofs = &Proofs;
    detect::OnlineSvdConfig Trusting = Lookup;
    Trusting.TrustStaticHints = true;

    for (uint64_t Seed : {2, 31}) {
      vm::MachineConfig MC = configFor(Seed, 1, 4);
      MC.Translate = false;
      RunSnap I = runOne(W.Program, MC, Lookup);

      MC.Translate = true;
      MC.Cache = &Hinted;
      vm::Machine M(W.Program, MC);
      detect::OnlineSvd D(W.Program, Trusting);
      M.addObserver(&D);
      vm::StopReason Stop = M.run();

      std::string Ctx = W.Name + " seed " + std::to_string(Seed);
      EXPECT_EQ(Stop, I.Stop) << Ctx;
      EXPECT_EQ(M.schedule(), I.Schedule) << Ctx;
      ASSERT_EQ(D.violations().size(), I.Violations.size()) << Ctx;
      EXPECT_EQ(D.numCusFormed(), I.CusFormed) << Ctx;
    }

    // The tallies themselves: one machine, trusted vs lookup detectors
    // side by side see identical filtered/pruned counts.
    vm::MachineConfig MC = configFor(2, 1, 4);
    MC.Translate = true;
    MC.Cache = &Hinted;
    vm::Machine M(W.Program, MC);
    detect::OnlineSvd Trusted(W.Program, Trusting);
    detect::OnlineSvd Looked(W.Program, Lookup);
    M.addObserver(&Trusted);
    M.addObserver(&Looked);
    M.run();
    EXPECT_EQ(Trusted.filteredAccesses(), Looked.filteredAccesses())
        << W.Name;
    EXPECT_EQ(Trusted.prunedAccesses(), Looked.prunedAccesses()) << W.Name;
    EXPECT_EQ(Trusted.violations().size(), Looked.violations().size())
        << W.Name;
    // And the showcase workloads actually exercise both fast paths.
    EXPECT_GT(Trusted.filteredAccesses() + Trusted.prunedAccesses(), 0u)
        << W.Name;
  }
}

// A translated machine must refuse a cache built over a different
// program (the harness shares caches across seeds, never programs).
TEST(TranslateDiff, BurstStopsAtStepBudget) {
  // MaxSteps truncation mid-slice: the budget must clamp the burst, the
  // stop reason must be StepBudget, and a continuation after raising
  // the budget is NOT part of the contract — instead compare against
  // the interpreter at the same tiny budget.
  workloads::WorkloadParams WP;
  WP.Threads = 2;
  WP.Iterations = 10;
  workloads::Workload W = workloads::apacheLog(WP);
  for (uint64_t Budget : {1, 7, 50}) {
    vm::MachineConfig MC = configFor(4, 8, 32);
    MC.MaxSteps = Budget;
    diffProgram(W.Program, MC, "budget " + std::to_string(Budget));
  }
}
