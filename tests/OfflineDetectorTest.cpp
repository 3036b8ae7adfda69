//===- tests/OfflineDetectorTest.cpp - Figure 6 offline algorithm tests ---===//

#include "TestUtil.h"
#include "fault/Fault.h"
#include "harness/Harness.h"
#include "harness/Suites.h"
#include "svd/OfflineDetector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace svd;
using namespace svd::detect;
using isa::assembleOrDie;
using testutil::recordRun;
using testutil::recordWithPrefix;
using testutil::sched;
using trace::ProgramTrace;

namespace {

/// The Figure 2 shape: an unlocked read-modify-write on a shared index.
const char *RmwSource = R"(
.global outcnt
.thread w x2
  ld r1, [@outcnt]
  addi r2, r1, 1
  st r2, [@outcnt]
  halt
)";

/// The whole offline pipeline's reports over \p T, which must validate.
std::vector<Violation> offlineReports(const ProgramTrace &T) {
  OfflineAnalysis A = runOfflinePipeline(T);
  EXPECT_EQ(A.Error, "");
  return A.Reports;
}

/// Expects runOfflinePipeline(T) to agree with the materialized path: an
/// invalid trace yields validate's diagnostic and nothing else; a valid
/// one yields CuPartition::compute(T)'s unit count and
/// detectOffline(T, compute(T))'s reports, every field, in order.
void expectPipelineMatchesPartition(const ProgramTrace &T,
                                    const std::string &What) {
  SCOPED_TRACE(What);
  OfflineAnalysis A = runOfflinePipeline(T);
  std::string Err;
  if (!trace::validate(T, Err)) {
    EXPECT_EQ(A.Error, "trace validation failed: " + Err);
    EXPECT_EQ(A.CusFormed, 0u);
    EXPECT_TRUE(A.Reports.empty());
    return;
  }
  EXPECT_EQ(A.Error, "");
  cu::CuPartition CUs = cu::CuPartition::compute(T);
  EXPECT_EQ(A.CusFormed, CUs.units().size());
  std::vector<Violation> Want = detectOffline(T, CUs);
  ASSERT_EQ(A.Reports.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    const Violation &Got = A.Reports[I], &W = Want[I];
    EXPECT_EQ(Got.Seq, W.Seq) << "report " << I;
    EXPECT_EQ(Got.Tid, W.Tid) << "report " << I;
    EXPECT_EQ(Got.Pc, W.Pc) << "report " << I;
    EXPECT_EQ(Got.OtherTid, W.OtherTid) << "report " << I;
    EXPECT_EQ(Got.OtherPc, W.OtherPc) << "report " << I;
    EXPECT_EQ(Got.OtherSeq, W.OtherSeq) << "report " << I;
    EXPECT_EQ(Got.Address, W.Address) << "report " << I;
  }
}

/// Checks \p T and its copies under every trace-perturbing plan of the
/// offline detector's fault matrix, plus a truncation that leaves a
/// valid prefix ending mid-CU.
void expectPipelineMatchesOnPerturbations(const ProgramTrace &T,
                                          uint64_t Seed,
                                          const std::string &What) {
  expectPipelineMatchesPartition(T, What);
  std::vector<fault::FaultPlanConfig> Plans = fault::defaultPlanMatrix(12);
  fault::FaultPlanConfig Truncate;
  Truncate.Name = "truncate-half";
  Truncate.TraceTruncateAt = std::max<uint64_t>(T.size() / 2, 1);
  Plans.push_back(Truncate);
  for (const fault::FaultPlanConfig &C : Plans) {
    fault::FaultPlan Plan(C, Seed);
    if (!Plan.perturbsTrace())
      continue;
    uint64_t Lost = 0;
    expectPipelineMatchesPartition(Plan.corruptedCopy(T, Lost),
                                   What + " plan " + C.Name);
  }
}

} // namespace

TEST(OfflineDetector, DetectsInterleavedRmw) {
  isa::Program P = assembleOrDie(RmwSource);
  // t0 reads; t1 runs its whole RMW; t0 finishes: t1's accesses land
  // inside t0's unfinished CU -> strict-2PL violation.
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  std::vector<Violation> V = offlineReports(T);
  EXPECT_FALSE(V.empty());
}

TEST(OfflineDetector, SilentOnSerializedRmw) {
  isa::Program P = assembleOrDie(RmwSource);
  ProgramTrace T = recordWithPrefix(P, sched({{0, 4}, {1, 4}}));
  std::vector<Violation> V = offlineReports(T);
  EXPECT_TRUE(V.empty());
}

TEST(OfflineDetector, SilentOnSingleThread) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t
  li r5, 10
loop:
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  ProgramTrace T = recordRun(P);
  EXPECT_TRUE(offlineReports(T).empty());
}

TEST(OfflineDetector, SilentOnDisjointData) {
  isa::Program P = assembleOrDie(R"(
.global a
.global b
.thread t1
  ld r1, [@a]
  addi r1, r1, 1
  st r1, [@a]
  halt
.thread t2
  ld r1, [@b]
  addi r1, r1, 1
  st r1, [@b]
  halt
)");
  // Fully interleaved but on different words: no conflicts at all.
  ProgramTrace T = recordWithPrefix(
      P, sched({{0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1}, {1, 1}}));
  EXPECT_TRUE(offlineReports(T).empty());
}

TEST(OfflineDetector, ViolationIdentifiesBothSides) {
  isa::Program P = assembleOrDie(RmwSource);
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  std::vector<Violation> V = offlineReports(T);
  ASSERT_FALSE(V.empty());
  for (const Violation &Viol : V) {
    EXPECT_NE(Viol.Tid, Viol.OtherTid);
    EXPECT_EQ(Viol.Address, P.addressOf("outcnt"));
    std::string D = Viol.describe(P);
    EXPECT_NE(D.find("outcnt"), std::string::npos);
  }
}

TEST(OfflineDetector, ReadReadOverlapIsNotAViolation) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread r x2
  ld r1, [@g]
  addi r2, r1, 1
  ld r3, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(
      P, sched({{0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}));
  EXPECT_TRUE(offlineReports(T).empty());
}

TEST(OfflineDetector, StaticKeyGroupsSameCodePair) {
  Violation A;
  A.Pc = 3;
  A.OtherPc = 7;
  Violation B;
  B.Pc = 7;
  B.OtherPc = 3;
  EXPECT_EQ(A.staticKey(), B.staticKey());
  Violation C;
  C.Pc = 3;
  C.OtherPc = 8;
  EXPECT_NE(A.staticKey(), C.staticKey());
}

// runOfflinePipeline reads the CU count and each access's CU end straight
// from Figure 5's final union-find; the materialized CuPartition is its
// oracle on every suite workload, every example program and the traces
// the offline detector's fault plans perturb. Each suite run stops at a
// step budget, so the shadow suite's multi-million-event heaps contribute
// a valid prefix rather than a whole trace.
TEST(OfflineDetector, PipelineMatchesMaterializedPartition) {
  const char *const Suites[] = {"table1", "table2",    "sec73",
                                "fig1",   "interproc", "predict",
                                "shadow", "serve"};
  for (const char *Suite : Suites) {
    std::vector<workloads::Workload> Ws = harness::suiteWorkloads(Suite);
    ASSERT_FALSE(Ws.empty()) << Suite;
    for (const workloads::Workload &W : Ws)
      for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
        harness::SampleConfig SC;
        SC.Seed = Seed;
        SC.MaxSteps = 200'000;
        vm::Machine M(W.Program, harness::machineConfigFor(SC));
        trace::TraceRecorder R(W.Program);
        M.addObserver(&R);
        M.run();
        expectPipelineMatchesOnPerturbations(
            R.trace(), Seed,
            std::string(Suite) + "/" + W.Name + " seed " +
                std::to_string(Seed));
      }
  }

  std::vector<std::filesystem::path> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(SVD_EXAMPLES_ASM_DIR))
    if (E.path().extension() == ".asm")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F);
    std::ostringstream SS;
    SS << In.rdbuf();
    isa::Program P;
    std::vector<isa::AsmError> Errors;
    ASSERT_TRUE(isa::assembleProgram(SS.str(), P, Errors)) << F;
    for (uint64_t Seed = 1; Seed <= 4; ++Seed)
      expectPipelineMatchesOnPerturbations(
          recordRun(P, Seed), Seed,
          F.filename().string() + " seed " + std::to_string(Seed));
  }
}
