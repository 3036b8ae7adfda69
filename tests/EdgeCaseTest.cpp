//===- tests/EdgeCaseTest.cpp - Edge cases across modules ------------------===//

#include "TestUtil.h"
#include "harness/Harness.h"
#include "support/StringUtils.h"
#include "svd/OnlineSvd.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::detect;
using isa::assembleOrDie;
using testutil::sched;
using vm::Machine;
using vm::MachineConfig;

namespace {

struct SvdRun {
  std::vector<Violation> Violations;
  std::vector<CuLogEntry> Log;
  uint64_t CusEnded = 0;
};

SvdRun runSvd(const isa::Program &P, const std::vector<isa::ThreadId> &S,
              OnlineSvdConfig Cfg = OnlineSvdConfig()) {
  Machine M(P);
  OnlineSvd Svd(P, Cfg);
  M.addObserver(&Svd);
  if (!S.empty()) {
    M.setReplaySchedule(S);
    M.run();
    M.clearReplaySchedule();
  }
  M.run();
  return {Svd.violations(), Svd.cuLog(), Svd.numCusEnded()};
}

} // namespace

//===----------------------------------------------------------------------===//
// Online SVD edge cases.
//===----------------------------------------------------------------------===//

TEST(OnlineSvdEdge, RepeatedLocalStoresKeepStoredSharedState) {
  // Store, remote read (-> StoredShared), store again, then the local
  // re-read must still cut the CU exactly once and not crash.
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 5
  st r1, [@g]        ; Stored
  nop                ; (remote read arrives here)
  st r1, [@g]        ; StoredShared stays
  ld r2, [@g]        ; cut
  st r2, [@g]        ; fresh CU
  halt
.thread b
  ld r3, [@g]        ; the remote read
  halt
)");
  SvdRun R = runSvd(P, sched({{0, 3}, {1, 2}, {0, 4}}));
  EXPECT_EQ(R.CusEnded, 1u);
  EXPECT_TRUE(R.Violations.empty()); // remote read vs local writes only
}

TEST(OnlineSvdEdge, StoreWithAliasedDataAndAddressRegister) {
  // st r1, [r1] — the same register supplies data and address; both
  // dependence paths must resolve without double-reporting.
  isa::Program P = assembleOrDie(R"(
.global base 16
.thread a
  ld r1, [@base]     ; r1 = 0 -> address 0 = base
  st r1, [r1]        ; aliased store
  halt
.thread b
  li r2, 3
  st r2, [@base]
  halt
)");
  // b's write lands between a's load and store.
  SvdRun R = runSvd(P, sched({{0, 1}, {1, 3}, {0, 2}}));
  EXPECT_EQ(R.Violations.size(), 1u);
}

TEST(OnlineSvdEdge, DeepNestedBranchesRespectStackCap) {
  // 300 nested ifs exceed the control-stack cap (256 frames); the
  // detector must drop old frames rather than grow unboundedly or crash.
  std::string Src = ".global g\n.thread t\n  li r1, 1\n";
  for (int I = 0; I < 300; ++I)
    Src += support::formatString("  bnez r1, l%d\nl%d:\n", I, I);
  Src += "  halt\n";
  isa::Program P = assembleOrDie(Src);
  SvdRun R = runSvd(P, {});
  EXPECT_TRUE(R.Violations.empty());
}

TEST(OnlineSvdEdge, BlockShiftReportsBlockBaseAddress) {
  isa::Program P = assembleOrDie(R"(
.global arr 4
.thread a
  ld r1, [@arr+3]
  addi r1, r1, 1
  st r1, [@arr+3]
  halt
.thread b
  li r2, 9
  st r2, [@arr+2]
  halt
)");
  OnlineSvdConfig Cfg;
  Cfg.BlockShift = 2; // 4-word blocks: arr+2 and arr+3 share block 0
  SvdRun R = runSvd(P, sched({{0, 1}, {1, 3}, {0, 3}}), Cfg);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Address % 4, 0u)
      << "address must be the block base";
}

TEST(OnlineSvdEdge, TwoIndependentConflictsReportTwice) {
  isa::Program P = assembleOrDie(R"(
.global x
.global y
.thread a
  ld r1, [@x]
  ld r2, [@y]
  add r3, r1, r2
  st r3, [@x]        ; checks both x and y inputs
  halt
.thread b
  li r4, 1
  st r4, [@x]
  st r4, [@y]
  halt
)");
  SvdRun R = runSvd(P, sched({{0, 2}, {1, 4}, {0, 3}}));
  // One store checks a CU whose inputs {x, y} both carry conflicts.
  EXPECT_EQ(R.Violations.size(), 2u);
}

TEST(OnlineSvdEdge, HaltedThreadStateDoesNotLeakIntoReports) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  ld r1, [@g]
  halt
.thread b
  li r2, 1
  st r2, [@g]
  halt
)");
  // a halts before b writes: a never stores, so no report.
  SvdRun R = runSvd(P, sched({{0, 2}, {1, 3}}));
  EXPECT_TRUE(R.Violations.empty());
}

//===----------------------------------------------------------------------===//
// Machine edge cases.
//===----------------------------------------------------------------------===//

TEST(MachineEdge, CheckpointWhileBlockedRestoresBlockedState) {
  isa::Program P = assembleOrDie(R"(
.lock m
.global g
.thread holder
  lock @m
  yield
  yield
  li r1, 1
  st r1, [@g]
  unlock @m
  halt
.thread waiter
  lock @m
  ld r2, [@g]
  unlock @m
  halt
)");
  Machine M(P);
  // holder acquires, waiter attempts and blocks.
  M.setReplaySchedule({0, 1});
  M.run();
  M.clearReplaySchedule();
  EXPECT_EQ(M.threadState(1), vm::ThreadState::Blocked);
  vm::Checkpoint C = M.checkpoint();
  EXPECT_EQ(M.run(), vm::StopReason::AllHalted);
  isa::Word Final = M.readMem(P.addressOf("g"));
  M.restore(C);
  EXPECT_EQ(M.threadState(1), vm::ThreadState::Blocked);
  EXPECT_EQ(M.run(), vm::StopReason::AllHalted);
  EXPECT_EQ(M.readMem(P.addressOf("g")), Final);
}

TEST(MachineEdge, ThreeWayLockContentionAllEventuallyAcquire) {
  isa::Program P = assembleOrDie(R"(
.global count
.lock m
.thread t x3
  lock @m
  ld r1, [@count]
  addi r1, r1, 1
  st r1, [@count]
  unlock @m
  halt
)");
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    MachineConfig MC;
    MC.SchedSeed = Seed;
    Machine M(P, MC);
    ASSERT_EQ(M.run(), vm::StopReason::AllHalted) << "seed " << Seed;
    EXPECT_EQ(M.readMem(P.addressOf("count")), 3) << "seed " << Seed;
  }
}

TEST(MachineEdge, ReplayOfContendedRunReproducesBlockedAttempts) {
  isa::Program P = assembleOrDie(R"(
.global count
.lock m
.thread t x3
  li r5, 8
loop:
  lock @m
  ld r1, [@count]
  addi r1, r1, 1
  st r1, [@count]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  MachineConfig MC;
  MC.SchedSeed = 9;
  MC.MinTimeslice = 1;
  MC.MaxTimeslice = 2; // heavy contention: blocked attempts happen
  Machine A(P, MC);
  A.run();

  MachineConfig MC2;
  MC2.SchedSeed = 1234;
  Machine B(P, MC2);
  B.setReplaySchedule(A.schedule());
  EXPECT_EQ(B.run(), vm::StopReason::AllHalted);
  EXPECT_EQ(B.steps(), A.steps());
  EXPECT_EQ(B.readMem(P.addressOf("count")),
            A.readMem(P.addressOf("count")));
}

//===----------------------------------------------------------------------===//
// Harness edge cases.
//===----------------------------------------------------------------------===//

TEST(HarnessEdge, LocksetKindRunsThroughHarness) {
  workloads::WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 10;
  workloads::Workload W = workloads::apacheLog(P);
  harness::SampleConfig C;
  C.Seed = 2;
  harness::SampleMetrics M = harness::runSample(W, "lockset", C);
  EXPECT_GT(M.Steps, 0u);
  EXPECT_GT(M.DynamicReports, 0u) << "the unlocked buffer must be flagged";
}

TEST(HarnessEdge, SvdConfigKnobsPropagateThroughHarness) {
  workloads::WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 10;
  workloads::Workload W = workloads::mysqlPrepared(P);
  harness::SampleConfig C;
  C.Seed = 2;
  harness::SampleMetrics Paper = harness::runSample(W, "svd", C);
  // Checking write sets too (not only a CU's input blocks) can only add
  // reports; this workload's remote writes hit CU outputs, so a strictly
  // larger count shows the knob arrived.
  detect::OnlineSvdConfig AllBlocks;
  AllBlocks.CheckInputBlocksOnly = false;
  C.Detector = std::make_shared<detect::OnlineSvdDetectorConfig>(AllBlocks);
  harness::SampleMetrics M = harness::runSample(W, "svd", C);
  EXPECT_EQ(M.Steps, Paper.Steps);
  EXPECT_GT(M.DynamicReports, Paper.DynamicReports);
}

//===----------------------------------------------------------------------===//
// Assembler edge cases.
//===----------------------------------------------------------------------===//

TEST(AssemblerEdge, RejectsZeroReplicaCount) {
  isa::Program P;
  std::vector<isa::AsmError> Errors;
  EXPECT_FALSE(
      isa::assembleProgram(".thread t x0\n  halt\n", P, Errors));
}

TEST(AssemblerEdge, RejectsNegativeAbsoluteAddress) {
  isa::Program P;
  std::vector<isa::AsmError> Errors;
  EXPECT_FALSE(isa::assembleProgram(
      ".global g\n.thread t\n  ld r1, [@g+-5]\n  halt\n", P, Errors));
}

TEST(AssemblerEdge, NegativeOffsetWithinRangeIsFine) {
  isa::Program P;
  std::vector<isa::AsmError> Errors;
  ASSERT_TRUE(isa::assembleProgram(
      ".global g 4\n.thread t\n  ld r1, [@g+3]\n  ld r2, [@g+3+-1]\n"
      "  halt\n",
      P, Errors));
  EXPECT_EQ(P.Threads[0].Code[1].Imm, 2);
}
