//===- tests/FaultTest.cpp - Fault injection and crash containment --------===//
//
// Covers the robustness layer end to end: FaultPlan's purity and
// determinism contract, the Machine's fault hooks, trace
// corruption/validation, detector degradation under state budgets, and
// the guarded runner's containment guarantees (invalid specs, injected
// crashes, step-budget retries) including jobs/shuffle invariance.
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "harness/Harness.h"
#include "harness/Runner.h"
#include "isa/Assembler.h"
#include "svd/HardwareSvd.h"
#include "svd/OfflineDetector.h"
#include "svd/OnlineSvd.h"
#include "trace/Trace.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

using namespace svd;
using harness::ParallelRunner;
using harness::RunnerConfig;
using harness::SampleOutcome;
using harness::SampleResult;
using harness::SampleSpec;
using workloads::Workload;
using workloads::WorkloadParams;

namespace {

Workload smallWorkload() {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 6;
  P.WorkPadding = 4;
  return workloads::pgsqlOltp(P);
}

/// A workload whose program never halts (for step-budget tests).
Workload spinningWorkload() {
  Workload W;
  W.Name = "spin";
  W.Program = isa::assembleOrDie(R"(
.thread t
  li r1, 1
loop:
  addi r2, r2, 1
  bnez r1, loop
  halt
)");
  W.Manifested = [](const vm::Machine &) { return false; };
  return W;
}

} // namespace

TEST(FaultPlan, DecisionsArePureFunctionsOfSeeds) {
  fault::FaultPlanConfig C;
  C.Name = "purity";
  C.PlanSeed = 7;
  C.StallRatePerMyriad = 2500;
  C.LockFailRatePerMyriad = 2500;

  fault::FaultPlan A(C, 1), B(C, 1), Other(C, 2);
  size_t Differences = 0, Fires = 0;
  for (uint64_t Step = 0; Step < 2000; ++Step) {
    // Identical (config, sample seed) answer identically, always.
    ASSERT_EQ(A.stallThread(Step, 0), B.stallThread(Step, 0));
    ASSERT_EQ(A.failLockAcquire(Step, 1, 0), B.failLockAcquire(Step, 1, 0));
    // Re-asking the same question gives the same answer (no hidden
    // PRNG state) — the checkpoint/replay guarantee.
    ASSERT_EQ(A.stallThread(Step, 0), A.stallThread(Step, 0));
    Fires += A.stallThread(Step, 0);
    Differences += A.stallThread(Step, 0) != Other.stallThread(Step, 0);
  }
  // ~25% fire rate, and a different sample seed decorrelates.
  EXPECT_GT(Fires, 300u);
  EXPECT_LT(Fires, 700u);
  EXPECT_GT(Differences, 100u);
}

TEST(FaultPlan, RateExtremesAreExact) {
  fault::FaultPlanConfig Never;
  Never.StallRatePerMyriad = 0;
  fault::FaultPlanConfig Always;
  Always.StallRatePerMyriad = 10000;
  fault::FaultPlan N(Never, 3), Y(Always, 3);
  for (uint64_t Step = 0; Step < 500; ++Step) {
    EXPECT_FALSE(N.stallThread(Step, 0));
    EXPECT_TRUE(Y.stallThread(Step, 0));
  }
}

TEST(FaultPlan, PreemptBurstsFollowTheConfiguredCadence) {
  fault::FaultPlanConfig C;
  C.PreemptBurstEvery = 64;
  C.PreemptBurstLen = 16;
  fault::FaultPlan P(C, 1);
  for (uint64_t Step = 0; Step < 256; ++Step)
    EXPECT_EQ(P.forcePreempt(Step, 0), Step % 64 < 16) << Step;
}

TEST(FaultPlan, MachineCountersReflectInjection) {
  Workload W = smallWorkload();
  fault::FaultPlanConfig C;
  C.Name = "mix";
  C.StallRatePerMyriad = 1000;
  C.LockFailRatePerMyriad = 1000;
  C.PreemptBurstEvery = 32;
  C.PreemptBurstLen = 8;
  fault::FaultPlan Plan(C, 1);

  harness::SampleConfig SC;
  SC.Seed = 1;
  SC.MaxTimeslice = 4; // bursts need slices longer than one step
  vm::MachineConfig MC = harness::machineConfigFor(SC);
  MC.Faults = &Plan;
  vm::Machine M(W.Program, MC);
  M.run();
  EXPECT_GT(M.counters().FaultStalls, 0u);
  EXPECT_GT(M.counters().FaultLockFailures, 0u);
  EXPECT_GT(M.counters().FaultPreemptions, 0u);

  // Same plan, same seed: the faulted execution itself is replayable.
  vm::Machine M2(W.Program, MC);
  M2.run();
  EXPECT_EQ(M.steps(), M2.steps());
  EXPECT_EQ(M.counters().FaultStalls, M2.counters().FaultStalls);

  // Fault-free control: the counters exist but stay zero.
  vm::Machine Bare(W.Program, harness::machineConfigFor(SC));
  Bare.run();
  EXPECT_EQ(Bare.counters().FaultStalls, 0u);
  EXPECT_EQ(Bare.counters().FaultLockFailures, 0u);
  EXPECT_EQ(Bare.counters().FaultPreemptions, 0u);
}

TEST(FaultPlan, CorruptedCopyFailsValidation) {
  Workload W = smallWorkload();
  trace::ProgramTrace T = [&] {
    vm::Machine M(W.Program, harness::machineConfigFor({}));
    trace::TraceRecorder R(W.Program);
    M.addObserver(&R);
    M.run();
    return R.takeTrace();
  }();
  ASSERT_GT(T.size(), 100u);

  fault::FaultPlanConfig C;
  C.TraceCorruptRatePerMyriad = 500;
  fault::FaultPlan Plan(C, 1);
  ASSERT_TRUE(Plan.perturbsTrace());
  uint64_t Corrupted = 0;
  trace::ProgramTrace Bad = Plan.corruptedCopy(T, Corrupted);
  EXPECT_EQ(Bad.size(), T.size());
  EXPECT_GT(Corrupted, 0u);
  std::string Err;
  EXPECT_FALSE(trace::validate(Bad, Err));
  EXPECT_FALSE(Err.empty());

  // Determinism: the same plan produces the identical corruption.
  uint64_t Corrupted2 = 0;
  trace::ProgramTrace Bad2 = Plan.corruptedCopy(T, Corrupted2);
  EXPECT_EQ(Corrupted, Corrupted2);

  // Truncation counts the dropped tail and leaves a valid prefix.
  fault::FaultPlanConfig TC;
  TC.TraceTruncateAt = 50;
  fault::FaultPlan TPlan(TC, 1);
  uint64_t Dropped = 0;
  trace::ProgramTrace Short = TPlan.corruptedCopy(T, Dropped);
  EXPECT_EQ(Short.size(), 50u);
  EXPECT_EQ(Dropped, T.size() - 50);
  EXPECT_TRUE(trace::validate(Short, Err)) << Err;
}

TEST(FaultPlan, DefaultMatrixCyclesWithFreshSeeds) {
  std::vector<fault::FaultPlanConfig> Five = fault::defaultPlanMatrix(5);
  std::vector<fault::FaultPlanConfig> Seven = fault::defaultPlanMatrix(7);
  ASSERT_EQ(Five.size(), 5u);
  ASSERT_EQ(Seven.size(), 7u);
  // The prefix is stable; cycled entries get distinct names and seeds.
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(Five[I].Name, Seven[I].Name);
  EXPECT_NE(Seven[5].Name, Seven[0].Name);
  EXPECT_NE(Seven[5].PlanSeed, Seven[0].PlanSeed);
}

// DetectorConfig::MaxStateEntries is the one budget knob: every
// budgeted detector must honour it through its registry factory.
TEST(DetectorBudget, EveryBudgetedDetectorDegradesGracefullyAndStays) {
  Workload W = smallWorkload();
  const std::pair<const char *, std::shared_ptr<detect::DetectorConfig>>
      Detectors[] = {
          {"svd", std::make_shared<detect::OnlineSvdDetectorConfig>()},
          {"hwsvd", std::make_shared<detect::HardwareSvdDetectorConfig>()},
          {"offline", std::make_shared<detect::OfflineDetectorConfig>()},
      };
  for (const auto &[Name, Cfg] : Detectors) {
    SCOPED_TRACE(Name);
    harness::SampleConfig Unbounded;
    harness::SampleMetrics Clean = harness::runSample(W, Name, Unbounded);
    EXPECT_FALSE(Clean.DetectorDegraded);
    EXPECT_GT(Clean.CusFormed, 4u);

    Cfg->MaxStateEntries = 2;
    harness::SampleConfig Budgeted;
    Budgeted.Detector = Cfg;
    harness::SampleMetrics M = harness::runSample(W, Name, Budgeted);
    EXPECT_TRUE(M.DetectorDegraded);
    EXPECT_GT(M.DetectorEvictions, 0u);
    EXPECT_FALSE(M.DegradedReason.empty());
    // The budget bounds live state, not the run: execution completes.
    EXPECT_EQ(M.Steps, Clean.Steps);
  }
}

TEST(GuardedRunner, InvalidSpecsAreClassifiedNotFatal) {
  Workload W = smallWorkload();
  std::vector<SampleSpec> Specs(5);
  Specs[0].Workload = nullptr; // the old fatalError path
  Specs[1].Workload = &W;
  Specs[1].Detector = "no-such-detector";
  Specs[2].Workload = &W;
  Specs[2].Config.MinTimeslice = 5;
  Specs[2].Config.MaxTimeslice = 2;
  Specs[3].Workload = &W;
  Specs[3].Detector = "frd";
  Specs[3].Config.Detector =
      std::make_shared<detect::OnlineSvdDetectorConfig>();
  Specs[4].Workload = &W; // control: valid
  Specs[4].Detector = "svd";

  std::vector<SampleResult> R = ParallelRunner().runGuarded(Specs);
  ASSERT_EQ(R.size(), 5u);
  EXPECT_EQ(R[0].Outcome, SampleOutcome::Failed);
  EXPECT_NE(R[0].Diagnostic.find("null workload"), std::string::npos);
  EXPECT_EQ(R[1].Outcome, SampleOutcome::Failed);
  EXPECT_NE(R[1].Diagnostic.find("unknown detector"), std::string::npos);
  EXPECT_EQ(R[2].Outcome, SampleOutcome::Failed);
  EXPECT_NE(R[2].Diagnostic.find("timeslice"), std::string::npos);
  EXPECT_EQ(R[3].Outcome, SampleOutcome::Failed);
  EXPECT_NE(R[3].Diagnostic.find("attached to sample"), std::string::npos);
  EXPECT_EQ(R[4].Outcome, SampleOutcome::Ok);
  EXPECT_TRUE(R[4].Diagnostic.empty());
  EXPECT_GT(R[4].Metrics.Steps, 0u);
}

TEST(GuardedRunner, HwsvdThreadOverflowIsFailed) {
  WorkloadParams P;
  P.Threads = 12; // more than the default 4-CPU cache model
  P.Iterations = 2;
  Workload W = workloads::pgsqlOltp(P);
  SampleSpec S;
  S.Workload = &W;
  S.Detector = "hwsvd";
  std::vector<SampleResult> R = ParallelRunner().runGuarded({S});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Outcome, SampleOutcome::Failed);
  EXPECT_NE(R[0].Diagnostic.find("hardware SVD"), std::string::npos);
}

TEST(GuardedRunner, InjectedCrashIsContained) {
  Workload W = smallWorkload();
  fault::FaultPlanConfig C;
  C.Name = "boom";
  C.CrashAtStep = 100;
  fault::FaultPlan Plan(C, 1);

  std::vector<SampleSpec> Specs(3);
  for (SampleSpec &S : Specs) {
    S.Workload = &W;
    S.Detector = "svd";
  }
  Specs[1].Config.Faults = &Plan;

  std::vector<SampleResult> R = ParallelRunner().runGuarded(Specs);
  ASSERT_EQ(R.size(), 3u);
  // Siblings are untouched by the middle sample's crash.
  EXPECT_EQ(R[0].Outcome, SampleOutcome::Ok);
  EXPECT_EQ(R[2].Outcome, SampleOutcome::Ok);
  EXPECT_EQ(R[0].Metrics.Steps, R[2].Metrics.Steps);
  EXPECT_EQ(R[1].Outcome, SampleOutcome::Failed);
  EXPECT_NE(R[1].Diagnostic.find("injected crash"), std::string::npos);
  EXPECT_NE(R[1].Diagnostic.find("boom"), std::string::npos);
}

TEST(GuardedRunner, StepBudgetRetriesThenSucceeds) {
  Workload W = smallWorkload();
  // Reference run for the true step count.
  harness::SampleMetrics Ref = harness::runSample(W, "none", {});
  ASSERT_GT(Ref.Steps, 10u);

  SampleSpec S;
  S.Workload = &W;
  S.Detector = "none";
  S.Config.MaxSteps = Ref.Steps / 2; // first attempt must hit the budget
  std::vector<SampleResult> R = ParallelRunner().runGuarded({S});
  ASSERT_EQ(R.size(), 1u);
  // The 4x escalated retry completes the run.
  EXPECT_EQ(R[0].Outcome, SampleOutcome::Ok);
  EXPECT_EQ(R[0].Attempts, 2u);
  EXPECT_EQ(R[0].Metrics.Steps, Ref.Steps);
  EXPECT_EQ(R[0].Metrics.Stop, vm::StopReason::AllHalted);
}

TEST(GuardedRunner, HopelessSpinIsTimedOut) {
  Workload W = spinningWorkload();
  SampleSpec S;
  S.Workload = &W;
  S.Detector = "none";
  S.Config.MaxSteps = 500;
  std::vector<SampleResult> R = ParallelRunner().runGuarded({S});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Outcome, SampleOutcome::TimedOut);
  EXPECT_EQ(R[0].Attempts, 2u);
  EXPECT_NE(R[0].Diagnostic.find("step budget exhausted"),
            std::string::npos);
  EXPECT_EQ(R[0].Metrics.Stop, vm::StopReason::StepBudget);
}

TEST(GuardedRunner, OutcomesAreJobsAndShuffleInvariant) {
  Workload W = smallWorkload();
  Workload Spin = spinningWorkload();
  fault::FaultPlanConfig C;
  C.Name = "boom";
  C.CrashAtStep = 64;
  fault::FaultPlan Plan(C, 1);
  auto Budget = std::make_shared<detect::OnlineSvdDetectorConfig>();
  Budget->MaxStateEntries = 2;

  std::vector<SampleSpec> Specs;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    SampleSpec S;
    S.Workload = &W;
    S.Detector = "svd";
    S.Config.Seed = Seed;
    Specs.push_back(S);       // Ok
    S.Config.Faults = &Plan;
    Specs.push_back(S);       // Failed (injected crash)
    S.Config.Faults = nullptr;
    S.Config.Detector = Budget;
    Specs.push_back(S);       // Degraded
  }
  SampleSpec T;
  T.Workload = &Spin;
  T.Detector = "none";
  T.Config.MaxSteps = 200;
  Specs.push_back(T);         // TimedOut

  RunnerConfig A;
  A.Jobs = 1;
  std::vector<SampleResult> RA = ParallelRunner(A).runGuarded(Specs);
  RunnerConfig B;
  B.Jobs = 4;
  B.PickupShuffleSeed = 0xfeed;
  std::vector<SampleResult> RB = ParallelRunner(B).runGuarded(Specs);
  ASSERT_EQ(RA.size(), RB.size());
  for (size_t I = 0; I < RA.size(); ++I) {
    EXPECT_EQ(RA[I].Outcome, RB[I].Outcome) << I;
    EXPECT_EQ(RA[I].Diagnostic, RB[I].Diagnostic) << I;
    EXPECT_EQ(RA[I].Attempts, RB[I].Attempts) << I;
    EXPECT_EQ(RA[I].Metrics.Steps, RB[I].Metrics.Steps) << I;
    EXPECT_EQ(RA[I].Metrics.DetectorEvictions,
              RB[I].Metrics.DetectorEvictions)
        << I;
  }
}

TEST(GuardedRunner, RunWrapperKeepsMetricsOnlySurface) {
  Workload W = smallWorkload();
  std::vector<SampleSpec> Specs(2);
  Specs[0].Workload = &W;
  Specs[0].Detector = "svd";
  Specs[1].Workload = nullptr; // must yield zeroed metrics, not abort
  std::vector<harness::SampleMetrics> Ms = ParallelRunner().run(Specs);
  ASSERT_EQ(Ms.size(), 2u);
  EXPECT_GT(Ms[0].Steps, 0u);
  EXPECT_EQ(Ms[1].Steps, 0u);
}

TEST(GuardedRunner, OutcomeNamesAreStable) {
  EXPECT_STREQ(harness::sampleOutcomeName(SampleOutcome::Ok), "ok");
  EXPECT_STREQ(harness::sampleOutcomeName(SampleOutcome::Degraded),
               "degraded");
  EXPECT_STREQ(harness::sampleOutcomeName(SampleOutcome::TimedOut),
               "timed-out");
  EXPECT_STREQ(harness::sampleOutcomeName(SampleOutcome::Failed),
               "failed");
}

TEST(FaultPlan, PreemptStormFiresOnEverySchedulingDecision) {
  // An always-on preempt plan (every step inside a burst) must charge
  // one preemption per scheduling decision — including fresh slice
  // draws. The old hook sat only on the slice-continuation path, so at
  // timeslice 1/1 (every decision fresh) it never fired at all and
  // fault.preemptions pinned to zero under a full storm.
  Workload W = smallWorkload();
  fault::FaultPlanConfig C;
  C.Name = "storm";
  C.PreemptBurstEvery = 1;
  C.PreemptBurstLen = 1;
  fault::FaultPlan Plan(C, 1);

  harness::SampleConfig SC;
  SC.Seed = 1;
  vm::MachineConfig MC = harness::machineConfigFor(SC); // timeslice 1/1
  MC.Faults = &Plan;
  vm::Machine M(W.Program, MC);
  EXPECT_EQ(M.run(), vm::StopReason::AllHalted);
  EXPECT_GT(M.steps(), 0u);
  EXPECT_EQ(M.counters().FaultPreemptions, M.steps());

  // With longer slices every continuation is also cut short, so the
  // storm still charges exactly one preemption per decision (= step):
  // a continuation preempt falls through to a fresh draw that is not
  // consulted a second time.
  SC.MaxTimeslice = 4;
  vm::MachineConfig MC2 = harness::machineConfigFor(SC);
  MC2.Faults = &Plan;
  vm::Machine M2(W.Program, MC2);
  EXPECT_EQ(M2.run(), vm::StopReason::AllHalted);
  EXPECT_EQ(M2.counters().FaultPreemptions, M2.steps());
}

TEST(FaultPlan, PreemptStormPerturbsSerialMode) {
  // Serial mode takes no PRNG draws, but it still makes a scheduling
  // decision per step — and the plan must be consulted there too. Under
  // an always-on storm the round-robin advances every step, so two
  // runnable threads strictly alternate; without the consult thread 0
  // would run to completion before thread 1 ever scheduled.
  isa::Program P = isa::assembleOrDie(R"(
.thread a
  li r1, 4
la:
  addi r1, r1, -1
  bnez r1, la
  halt
.thread b
  li r1, 4
lb:
  addi r1, r1, -1
  bnez r1, lb
  halt
)");
  fault::FaultPlanConfig C;
  C.Name = "serial-storm";
  C.PreemptBurstEvery = 1;
  C.PreemptBurstLen = 1;
  fault::FaultPlan Plan(C, 1);

  vm::MachineConfig MC;
  MC.SerialMode = true;
  MC.Faults = &Plan;
  vm::Machine M(P, MC);
  EXPECT_EQ(M.run(), vm::StopReason::AllHalted);
  // Every decision with a runnable current thread is charged. The one
  // exception: the switch after the first thread halts cuts nothing
  // short, so it is a plain round-robin advance, not a preemption.
  EXPECT_EQ(M.counters().FaultPreemptions, M.steps() - 1);
  const std::vector<isa::ThreadId> &S = M.schedule();
  ASSERT_GE(S.size(), 4u);
  size_t Switches = 0;
  for (size_t I = 1; I < S.size(); ++I)
    Switches += S[I] != S[I - 1];
  // Strict alternation while both threads live: at least one switch per
  // pair of steps over the shared prefix (both threads run 9 steps).
  EXPECT_GE(Switches, 9u);

  // Control: serial mode without the plan runs each thread to
  // completion — zero preemptions, exactly one context switch.
  vm::MachineConfig Plain;
  Plain.SerialMode = true;
  vm::Machine M2(P, Plain);
  EXPECT_EQ(M2.run(), vm::StopReason::AllHalted);
  EXPECT_EQ(M2.counters().FaultPreemptions, 0u);
  const std::vector<isa::ThreadId> &S2 = M2.schedule();
  size_t Switches2 = 0;
  for (size_t I = 1; I < S2.size(); ++I)
    Switches2 += S2[I] != S2[I - 1];
  EXPECT_EQ(Switches2, 1u);
}

//===----------------------------------------------------------------------===//
// Ingestion-stage frame faults (the serve daemon's fault surface)
//===----------------------------------------------------------------------===//

namespace {

/// The pinned ingestion-fault plan: every frame decision below is a
/// pure function of (PlanSeed 0xABC, SampleSeed 7, frame position).
fault::FaultPlanConfig framePinConfig() {
  fault::FaultPlanConfig C;
  C.Name = "pin";
  C.PlanSeed = 0xABC;
  C.FrameCorruptRatePerMyriad = 2500;
  C.FrameTruncateRatePerMyriad = 2500;
  C.FrameDuplicateRatePerMyriad = 2500;
  C.FrameReorderRatePerMyriad = 2500;
  C.FrameStallRatePerMyriad = 2500;
  C.ShardCrashRatePerMyriad = 2500;
  return C;
}

std::vector<uint64_t> firedBelow(uint64_t N,
                                 const std::function<bool(uint64_t)> &Fn) {
  std::vector<uint64_t> Out;
  for (uint64_t I = 0; I < N; ++I)
    if (Fn(I))
      Out.push_back(I);
  return Out;
}

} // namespace

TEST(FrameFaults, DecisionsArePureFunctionsOfSeeds) {
  fault::FaultPlanConfig C = framePinConfig();
  fault::FaultPlan A(C, 7), B(C, 7), Other(C, 8);
  ASSERT_TRUE(A.perturbsFrames());
  size_t Differences = 0, Fires = 0;
  for (uint64_t Pos = 0; Pos < 2000; ++Pos) {
    ASSERT_EQ(A.corruptFrame(Pos), B.corruptFrame(Pos));
    ASSERT_EQ(A.truncateFrame(Pos), B.truncateFrame(Pos));
    ASSERT_EQ(A.duplicateFrame(Pos), B.duplicateFrame(Pos));
    ASSERT_EQ(A.reorderFrame(Pos), B.reorderFrame(Pos));
    ASSERT_EQ(A.stallFrame(Pos), B.stallFrame(Pos));
    ASSERT_EQ(A.crashShard(Pos, 1), B.crashShard(Pos, 1));
    // Re-asking repeats the answer — no hidden PRNG state, which is
    // what lets a quarantined session replay its wire stream.
    ASSERT_EQ(A.corruptFrame(Pos), A.corruptFrame(Pos));
    Fires += A.corruptFrame(Pos);
    Differences += A.corruptFrame(Pos) != Other.corruptFrame(Pos);
  }
  EXPECT_GT(Fires, 300u);
  EXPECT_LT(Fires, 700u);
  EXPECT_GT(Differences, 100u);

  // The five frame streams and the crash stream are decorrelated: a
  // position firing in one says nothing about the others.
  EXPECT_NE(firedBelow(256, [&](uint64_t I) { return A.corruptFrame(I); }),
            firedBelow(256, [&](uint64_t I) { return A.truncateFrame(I); }));
  EXPECT_NE(firedBelow(256, [&](uint64_t I) { return A.duplicateFrame(I); }),
            firedBelow(256, [&](uint64_t I) { return A.reorderFrame(I); }));
  EXPECT_NE(firedBelow(256, [&](uint64_t I) { return A.stallFrame(I); }),
            firedBelow(256, [&](uint64_t I) { return A.crashShard(I, 1); }));
}

TEST(FrameFaults, DecisionPins) {
  // Golden decisions: any change to the mixing breaks recorded serve
  // goldens and chaos reports, so the exact positions are pinned.
  fault::FaultPlan P(framePinConfig(), 7);
  using V = std::vector<uint64_t>;
  EXPECT_EQ(firedBelow(32, [&](uint64_t I) { return P.corruptFrame(I); }),
            (V{0, 1, 3, 6, 11, 18, 22, 24, 29}));
  EXPECT_EQ(firedBelow(32, [&](uint64_t I) { return P.truncateFrame(I); }),
            (V{5, 6, 7, 11, 16, 18, 21, 22, 30}));
  EXPECT_EQ(firedBelow(32, [&](uint64_t I) { return P.duplicateFrame(I); }),
            (V{1, 2, 3, 19, 21, 27}));
  EXPECT_EQ(firedBelow(32, [&](uint64_t I) { return P.reorderFrame(I); }),
            (V{4, 5, 7, 8, 13, 15, 16, 22, 24, 25}));
  EXPECT_EQ(firedBelow(32, [&](uint64_t I) { return P.stallFrame(I); }),
            (V{1, 8, 9, 11, 12, 13, 19, 21, 31}));
}

TEST(FrameFaults, ShardCrashRerollsPerAttempt) {
  // Crash decisions key on (frame position, attempt): a re-admitted
  // session is not doomed to crash at the same frame forever.
  fault::FaultPlan P(framePinConfig(), 7);
  EXPECT_EQ(firedBelow(32, [&](uint64_t I) { return P.crashShard(I, 1); }),
            (std::vector<uint64_t>{0, 3, 7, 9, 10, 15, 18, 20, 22, 25}));
  EXPECT_EQ(firedBelow(32, [&](uint64_t I) { return P.crashShard(I, 2); }),
            (std::vector<uint64_t>{1, 3, 9, 15, 19, 20, 23, 25, 27, 29, 30,
                                   31}));
}

TEST(FrameFaults, MangleIsDeterministicAndBounded) {
  fault::FaultPlan P(framePinConfig(), 7);
  std::vector<uint8_t> Orig(16, 0);
  std::vector<uint8_t> A = Orig, B = Orig;
  P.mangleFrameBytes(A, 5);
  P.mangleFrameBytes(B, 5);
  EXPECT_EQ(A, B); // deterministic per (plan, sample, position)
  EXPECT_NE(A, Orig);
  size_t Flipped = 0;
  for (size_t I = 0; I < A.size(); ++I)
    Flipped += A[I] != Orig[I];
  EXPECT_GE(Flipped, 1u);
  EXPECT_LE(Flipped, 3u);
  // Pinned mangle: positions and xor masks are part of the contract.
  EXPECT_EQ(A[2], 27u);
  EXPECT_EQ(A[6], 23u);
  EXPECT_EQ(A[15], 167u);

  // Truncation is deterministic and strictly shortens the frame.
  EXPECT_EQ(P.truncatedFrameSize(100, 3), 16u);
  EXPECT_EQ(P.truncatedFrameSize(100, 9), 24u);
  for (uint64_t Pos = 0; Pos < 64; ++Pos)
    EXPECT_LT(P.truncatedFrameSize(100, Pos), 100u);
}

TEST(FrameFaults, StallTicksDefaultAndConfig) {
  fault::FaultPlanConfig C = framePinConfig();
  fault::FaultPlan Default(C, 7);
  EXPECT_EQ(Default.frameStallTicks(), 8u);
  C.FrameStallTicks = 6;
  fault::FaultPlan Configured(C, 7);
  EXPECT_EQ(Configured.frameStallTicks(), 6u);
}

TEST(FrameFaults, DefaultMatrixIncludesFrameMangle) {
  std::vector<fault::FaultPlanConfig> Six = fault::defaultPlanMatrix(6);
  ASSERT_EQ(Six.size(), 6u);
  EXPECT_EQ(Six[5].Name, "frame-mangle");
  fault::FaultPlan P(Six[5], 1);
  EXPECT_TRUE(P.perturbsFrames());
  // describe() names every ingestion fault class it carries.
  std::string D = Six[5].describe();
  EXPECT_NE(D.find("frame-corrupt=300/10k"), std::string::npos) << D;
  EXPECT_NE(D.find("frame-truncate=150/10k"), std::string::npos) << D;
  EXPECT_NE(D.find("frame-dup=400/10k"), std::string::npos) << D;
  EXPECT_NE(D.find("frame-reorder=400/10k"), std::string::npos) << D;
  EXPECT_NE(D.find("frame-stall=200/10k"), std::string::npos) << D;
  // The five preset plans ahead of it are untouched (their goldens
  // pin --plans 4/5 runs).
  std::vector<fault::FaultPlanConfig> Five = fault::defaultPlanMatrix(5);
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(Five[I].Name, Six[I].Name);
}
