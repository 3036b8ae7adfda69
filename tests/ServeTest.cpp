//===- tests/ServeTest.cpp - Streaming daemon robustness tests ------------===//
//
// End-to-end tests of the serve pipeline (serve/Serve.h) against its
// four contracts: hardened ingestion (malformed frames poison, never
// abort), backpressure with never-silent shedding, shard crash
// containment with budgeted re-admission, and deterministic mode —
// fault-free sessions match the batch pipeline byte-for-byte and the
// whole report is invariant under --jobs and shard shuffling.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "obs/Obs.h"
#include "serve/Serve.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <thread>

using namespace svd;
using namespace svd::serve;
using workloads::Workload;
using workloads::WorkloadParams;

namespace {

/// A small known-bug workload: fast enough for a unit test, racy
/// enough that detection produces a non-trivial signature to compare.
Workload testWorkload() {
  WorkloadParams P;
  P.Threads = 3;
  P.Iterations = 12;
  P.WorkPadding = 5;
  P.TouchOneIn = 1;
  return workloads::apacheLog(P);
}

/// Builds one session per seed, deriving the machine configuration the
/// same way every other execution path does (harness::machineConfigFor
/// — THE seed derivation).
std::vector<SessionInput> makeSessions(const Workload &W,
                                       std::initializer_list<uint64_t> Seeds) {
  std::vector<SessionInput> Sessions;
  uint32_t Id = 0;
  for (uint64_t Seed : Seeds) {
    SessionInput S;
    S.SessionId = Id++;
    S.Work = &W;
    S.Seed = Seed;
    harness::SampleConfig SC;
    SC.Seed = Seed;
    S.Machine = harness::machineConfigFor(SC);
    Sessions.push_back(S);
  }
  return Sessions;
}

/// Field-by-field equality of two session rows — the deterministic-mode
/// invariance comparisons need full rows, not just signatures.
void expectSameSession(const SessionReport &A, const SessionReport &B) {
  EXPECT_EQ(A.SessionId, B.SessionId);
  EXPECT_EQ(A.Outcome, B.Outcome) << "session " << A.SessionId;
  EXPECT_EQ(A.Diagnostic, B.Diagnostic) << "session " << A.SessionId;
  EXPECT_EQ(A.EventsStreamed, B.EventsStreamed);
  EXPECT_EQ(A.FramesSent, B.FramesSent);
  EXPECT_EQ(A.FramesDelivered, B.FramesDelivered);
  EXPECT_EQ(A.FramesRejected, B.FramesRejected);
  EXPECT_EQ(A.FramesDuplicated, B.FramesDuplicated);
  EXPECT_EQ(A.FramesReordered, B.FramesReordered);
  EXPECT_EQ(A.FramesLost, B.FramesLost);
  EXPECT_EQ(A.FramesShed, B.FramesShed);
  EXPECT_EQ(A.EventsIngested, B.EventsIngested);
  EXPECT_EQ(A.EventsShed, B.EventsShed);
  EXPECT_EQ(A.EventsBudgetDropped, B.EventsBudgetDropped);
  EXPECT_EQ(A.Rejects, B.Rejects);
  EXPECT_EQ(A.detectionSignature(), B.detectionSignature())
      << "session " << A.SessionId;
}

/// A plan whose first delivered frame stalls the consumer for longer
/// than the two-million-tick watchdog: a livelocked downstream.
fault::FaultPlanConfig livelockPlan() {
  fault::FaultPlanConfig Plan;
  Plan.Name = "stall-forever";
  Plan.FrameStallRatePerMyriad = 10000;
  Plan.FrameStallTicks = 3'000'000;
  return Plan;
}

} // namespace

//===----------------------------------------------------------------------===//
// Deterministic mode: fault-free parity with the batch pipeline and
// with runSample, invariance under jobs and shard shuffling.
//===----------------------------------------------------------------------===//

TEST(Serve, FaultFreeSessionsAreOkAndMatchBatch) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2, 3});
  ServeConfig Cfg;
  ServeReport Rep = runServe(Sessions, Cfg);

  ASSERT_EQ(Rep.Sessions.size(), 3u);
  for (size_t I = 0; I < Rep.Sessions.size(); ++I) {
    const SessionReport &S = Rep.Sessions[I];
    EXPECT_EQ(S.Outcome, SessionOutcome::Ok) << S.Diagnostic;
    EXPECT_TRUE(S.Diagnostic.empty()) << S.Diagnostic;
    EXPECT_EQ(S.FramesLost, 0u);
    EXPECT_EQ(S.EventsIngested, S.EventsStreamed);
    EXPECT_GT(S.FramesDelivered, 0u);
    // The tentpole parity invariant: a fault-free streamed session and
    // the frame-less batch pipeline produce byte-identical detection.
    SessionReport Batch = batchSessionReport(Sessions[I], Cfg);
    EXPECT_EQ(S.detectionSignature(), Batch.detectionSignature());
    // Fault-free ingestion loses nothing — shedding needs overload.
    EXPECT_EQ(S.EventsShed, 0u);
  }
  // Every session appears in exactly one shard.
  size_t Assigned = 0;
  for (const ShardReport &Sh : Rep.Shards)
    Assigned += Sh.Sessions.size();
  EXPECT_EQ(Assigned, Sessions.size());
}

TEST(Serve, BatchTwinMatchesRunSampleOffline) {
  // The batch twin is itself differentially pinned against the harness
  // sample runner under the offline detector: same seed derivation,
  // same trace, same detection passes.
  Workload W = testWorkload();
  for (uint64_t Seed : {1ull, 5ull}) {
    std::vector<SessionInput> Sessions = makeSessions(W, {Seed});
    ServeConfig Cfg;
    SessionReport B = batchSessionReport(Sessions[0], Cfg);

    harness::SampleConfig SC;
    SC.Seed = Seed;
    harness::SampleMetrics M = harness::runSample(W, "offline", SC);
    EXPECT_EQ(B.Steps, M.Steps) << "seed " << Seed;
    EXPECT_EQ(B.Manifested, M.Manifested) << "seed " << Seed;
    EXPECT_EQ(B.DetectedBug, M.DetectedBug) << "seed " << Seed;
    EXPECT_EQ(B.DynamicReports, M.DynamicReports) << "seed " << Seed;
    EXPECT_EQ(B.DynamicTrue, M.DynamicTrue) << "seed " << Seed;
    EXPECT_EQ(B.DynamicFalse, M.DynamicFalse) << "seed " << Seed;
    EXPECT_EQ(B.StaticReports, M.StaticReports) << "seed " << Seed;
    EXPECT_EQ(B.StaticTrueKeys, M.StaticTrueKeys) << "seed " << Seed;
    EXPECT_EQ(B.StaticFalseKeys, M.StaticFalseKeys) << "seed " << Seed;
  }
}

TEST(Serve, ReportInvariantUnderJobsAndShuffle) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2, 3, 4});
  // Run under the combined mangle plan so the invariance claim covers
  // the interesting (faulted, multi-outcome) paths, not just Ok rows.
  std::vector<fault::FaultPlanConfig> Plans = ingestionPlanMatrix();
  const fault::FaultPlanConfig &Mangle = Plans.back();
  ASSERT_EQ(Mangle.Name, "frame-mangle");

  ServeConfig Base;
  Base.Shards = 2;
  Base.FaultCfg = &Mangle;

  ServeConfig MoreJobs = Base;
  MoreJobs.Jobs = 4;
  ServeConfig Shuffled = Base;
  Shuffled.ShuffleSeed = 987654321;
  ServeConfig MoreShards = Base;
  MoreShards.Shards = 3;

  ServeReport R0 = runServe(Sessions, Base);
  for (const ServeReport &R :
       {runServe(Sessions, MoreJobs), runServe(Sessions, Shuffled),
        runServe(Sessions, MoreShards)}) {
    ASSERT_EQ(R.Sessions.size(), R0.Sessions.size());
    for (size_t I = 0; I < R.Sessions.size(); ++I)
      expectSameSession(R0.Sessions[I], R.Sessions[I]);
  }
}

//===----------------------------------------------------------------------===//
// Hardened ingestion: wire damage poisons the session, replay noise
// heals, and the process always survives with a classified report.
//===----------------------------------------------------------------------===//

TEST(Serve, CorruptFramesPoisonSessionsNotTheProcess) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2, 3});
  std::vector<fault::FaultPlanConfig> Plans = ingestionPlanMatrix();
  ASSERT_EQ(Plans[1].Name, "frame-corrupt");
  ServeConfig Cfg;
  Cfg.FaultCfg = &Plans[1];

  ServeReport Rep = runServe(Sessions, Cfg);
  ASSERT_EQ(Rep.Sessions.size(), 3u);
  size_t Poisoned = 0;
  for (const SessionReport &S : Rep.Sessions) {
    // Every outcome is classified — there is no unclassified exit.
    EXPECT_NE(sessionOutcomeName(S.Outcome), std::string("unknown"));
    if (S.Outcome == SessionOutcome::Poisoned) {
      ++Poisoned;
      EXPECT_FALSE(S.Diagnostic.empty());
      uint64_t TotalRejects = 0;
      for (uint64_t C : S.Rejects)
        TotalRejects += C;
      EXPECT_GT(TotalRejects, 0u);
      EXPECT_EQ(S.FramesRejected, TotalRejects);
    }
  }
  // At rate 500/10k over hundreds of frames, corruption always lands.
  EXPECT_GT(Poisoned, 0u);
}

TEST(Serve, DuplicateAndReorderDeliveriesHealToOk) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2});
  std::vector<fault::FaultPlanConfig> Plans = ingestionPlanMatrix();
  ASSERT_EQ(Plans[3].Name, "frame-duplicate");
  ASSERT_EQ(Plans[4].Name, "frame-reorder");

  for (size_t PlanIdx : {3u, 4u}) {
    ServeConfig Cfg;
    Cfg.FaultCfg = &Plans[PlanIdx];
    ServeReport Rep = runServe(Sessions, Cfg);
    bool AnyHealed = false;
    for (size_t I = 0; I < Rep.Sessions.size(); ++I) {
      const SessionReport &S = Rep.Sessions[I];
      // Duplicates and adjacent reorders are wire noise the
      // resequencer absorbs: the session still ends Ok and its
      // detection matches the batch pipeline exactly.
      EXPECT_EQ(S.Outcome, SessionOutcome::Ok)
          << Plans[PlanIdx].Name << ": " << S.Diagnostic;
      EXPECT_EQ(S.detectionSignature(),
                batchSessionReport(Sessions[I], Cfg).detectionSignature());
      AnyHealed |= S.FramesDuplicated > 0 || S.FramesReordered > 0;
    }
    EXPECT_TRUE(AnyHealed) << Plans[PlanIdx].Name
                           << " plan never perturbed the wire";
  }
}

//===----------------------------------------------------------------------===//
// Backpressure and load shedding: overload sheds behind explicit
// markers and degrades the session — never silently.
//===----------------------------------------------------------------------===//

TEST(Serve, SustainedStallShedsExplicitlyNeverSilently) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2});
  fault::FaultPlanConfig Stall;
  Stall.Name = "stall-hard";
  Stall.PlanSeed = 0x57a11;
  Stall.FrameStallRatePerMyriad = 6000;
  // Long enough for the producer, pushing two frames a tick into an
  // eight-frame ring, to run into the shedding trigger.
  Stall.FrameStallTicks = 256;

  ServeConfig Cfg;
  Cfg.FaultCfg = &Stall;

  ServeReport Rep = runServe(Sessions, Cfg);
  size_t ShedSessions = 0;
  for (const SessionReport &S : Rep.Sessions) {
    EXPECT_GT(S.StallTicks, 0u);
    if (S.EventsShed > 0) {
      ++ShedSessions;
      // Shed loss is never silent: an explicit marker crossed the
      // wire, the outcome says Shed, and the diagnostic says why.
      EXPECT_GT(S.FramesShed, 0u);
      EXPECT_EQ(S.Outcome, SessionOutcome::Shed);
      EXPECT_NE(S.Diagnostic.find("shed"), std::string::npos)
          << S.Diagnostic;
      // Accounting closes: every streamed event was either ingested
      // or declared shed.
      EXPECT_EQ(S.EventsIngested + S.EventsShed, S.EventsStreamed);
    }
  }
  EXPECT_EQ(ShedSessions, Sessions.size());
}

TEST(Serve, TenantBudgetDegradesStickyAndMatchesBatch) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1});
  // The tenant budget is the plan's detector state budget, as on every
  // other detector path.
  fault::FaultPlanConfig Budget;
  Budget.Name = "tenant-budget";
  Budget.DetectorEntryBudget = 500;
  ServeConfig Cfg;
  Cfg.FaultCfg = &Budget;

  ServeReport Rep = runServe(Sessions, Cfg);
  ASSERT_EQ(Rep.Sessions.size(), 1u);
  const SessionReport &S = Rep.Sessions[0];
  EXPECT_EQ(S.Outcome, SessionOutcome::Degraded) << S.Diagnostic;
  // Ingestion counts the full delivered stream; the budget cap is
  // accounted separately, never silently.
  EXPECT_EQ(S.EventsBudgetDropped, S.EventsStreamed - 500);
  EXPECT_NE(S.Diagnostic.find("tenant budget"), std::string::npos)
      << S.Diagnostic;
  // Budgeted parity: the batch twin caps its trace the same way, so
  // even the degraded signature is byte-identical.
  EXPECT_EQ(S.detectionSignature(),
            batchSessionReport(Sessions[0], Cfg).detectionSignature());
}

TEST(Serve, TenantBudgetAtFrameBoundariesMatchesBatch) {
  // Events frames carry 256 events, so these budgets run out one event
  // before, on, and one event after the first frame boundary, and on the
  // second: the kept prefix ends mid-frame or exactly at a frame's end.
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2});
  for (uint64_t Budget : {255u, 256u, 257u, 512u}) {
    SCOPED_TRACE(Budget);
    fault::FaultPlanConfig Plan;
    Plan.Name = "tenant-budget";
    Plan.DetectorEntryBudget = Budget;
    ServeConfig Cfg;
    Cfg.FaultCfg = &Plan;
    ServeReport Rep = runServe(Sessions, Cfg);
    ASSERT_EQ(Rep.Sessions.size(), Sessions.size());
    for (size_t I = 0; I < Sessions.size(); ++I) {
      const SessionReport &S = Rep.Sessions[I];
      SessionReport B = batchSessionReport(Sessions[I], Cfg);
      ASSERT_GT(S.EventsStreamed, Budget + FrameStreamer::EventsPerFrame);
      EXPECT_EQ(S.EventsIngested, B.EventsIngested) << "session " << I;
      EXPECT_EQ(S.EventsBudgetDropped, B.EventsBudgetDropped)
          << "session " << I;
      EXPECT_EQ(S.EventsBudgetDropped, S.EventsStreamed - Budget);
      EXPECT_EQ(S.DegradedReason, B.DegradedReason) << "session " << I;
      EXPECT_EQ(S.detectionSignature(), B.detectionSignature())
          << "session " << I;
    }
  }
}

TEST(Serve, IngestionPlansCarryNoDetectorBudget) {
  // The tenant budget comes from the session's plan, so a plan with a
  // detector state budget would cap ingestion. No plan of the svd-serve
  // --chaos matrix sets one, which is why that tool's output does not
  // depend on where the budget is read from.
  for (const fault::FaultPlanConfig &PC : ingestionPlanMatrix())
    EXPECT_EQ(PC.DetectorEntryBudget, 0u) << PC.Name;
}

//===----------------------------------------------------------------------===//
// Crash containment: quarantine, budgeted re-admission, escalation to
// Failed — and the tick watchdog as the livelock valve.
//===----------------------------------------------------------------------===//

TEST(Serve, ShardCrashQuarantinesAndRecovers) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2, 3, 4, 5, 6});
  // The matrix preset's rate is tuned for the long bench sessions;
  // these test sessions span only ~a dozen frames each, so a hotter
  // plan is needed for crashes (and recoveries) to land.
  fault::FaultPlanConfig Crash;
  Crash.Name = "crash-some";
  Crash.PlanSeed = 0x5e46;
  Crash.ShardCrashRatePerMyriad = 800;
  ServeConfig Cfg;
  Cfg.FaultCfg = &Crash;

  ServeReport Rep = runServe(Sessions, Cfg);
  size_t Quarantined = 0, Recovered = 0;
  for (size_t I = 0; I < Rep.Sessions.size(); ++I) {
    const SessionReport &S = Rep.Sessions[I];
    if (S.Quarantines == 0) {
      EXPECT_EQ(S.Outcome, SessionOutcome::Ok) << S.Diagnostic;
      continue;
    }
    ++Quarantined;
    if (S.Outcome == SessionOutcome::Failed) {
      EXPECT_EQ(S.Readmissions, 3u);
      EXPECT_FALSE(S.Diagnostic.empty());
      continue;
    }
    ++Recovered;
    // A recovered session re-ingested the stream from frame zero:
    // counters must reflect the final attempt only (no double
    // booking), so the end-marker accounting still closes and the
    // detection content matches the batch pipeline. (The signature
    // itself differs by design — recovery marks the session degraded
    // with the quarantine note, which the frame-less batch twin never
    // carries.)
    EXPECT_EQ(S.Outcome, SessionOutcome::Degraded) << S.Diagnostic;
    EXPECT_NE(S.Diagnostic.find("recovered from"), std::string::npos)
        << S.Diagnostic;
    EXPECT_EQ(S.EventsIngested, S.EventsStreamed);
    SessionReport B = batchSessionReport(Sessions[I], Cfg);
    EXPECT_EQ(S.Steps, B.Steps);
    EXPECT_EQ(S.DynamicReports, B.DynamicReports);
    EXPECT_EQ(S.DynamicTrue, B.DynamicTrue);
    EXPECT_EQ(S.CusFormed, B.CusFormed);
    EXPECT_EQ(S.StaticTrueKeys, B.StaticTrueKeys);
    EXPECT_EQ(S.StaticFalseKeys, B.StaticFalseKeys);
  }
  EXPECT_GT(Quarantined, 0u);
  EXPECT_GT(Recovered, 0u);
}

TEST(Serve, ReusedShardTraceBufferMatchesBatch) {
  // One shard assembles every session into one trace buffer. Its
  // largest session comes first and smaller sessions of other programs
  // follow, so each later session lands in a buffer that holds a bigger
  // session's capacity and was bound to another program; re-admissions
  // reset it again mid-session.
  WorkloadParams BigP;
  BigP.Threads = 3;
  BigP.Iterations = 48;
  BigP.WorkPadding = 5;
  BigP.TouchOneIn = 1;
  WorkloadParams SmallP;
  SmallP.Threads = 2;
  SmallP.Iterations = 6;
  Workload Big = workloads::apacheLog(BigP);
  Workload Small = testWorkload();
  Workload Other = workloads::mysqlPrepared(SmallP);
  std::vector<SessionInput> Sessions;
  for (const Workload *W : {&Big, &Other, &Small, &Other, &Small})
    for (SessionInput &S :
         makeSessions(*W, {static_cast<uint64_t>(Sessions.size() + 1)})) {
      S.SessionId = static_cast<uint32_t>(Sessions.size());
      Sessions.push_back(S);
    }
  ASSERT_NE(Big.Program.MemoryWords, Other.Program.MemoryWords);

  fault::FaultPlanConfig Crash;
  Crash.Name = "crash-some";
  Crash.PlanSeed = 0x5e47; // re-admits the largest session and a later one
  Crash.ShardCrashRatePerMyriad = 100;
  for (bool WithCrash : {false, true}) {
    ServeConfig Cfg;
    Cfg.Shards = 1;
    Cfg.FaultCfg = WithCrash ? &Crash : nullptr;
    ServeReport Rep = runServe(Sessions, Cfg);
    ASSERT_EQ(Rep.Sessions.size(), Sessions.size());
    size_t Ok = 0, Readmitted = 0;
    for (size_t I = 0; I < Rep.Sessions.size(); ++I) {
      const SessionReport &S = Rep.Sessions[I];
      if (I != 0) {
        EXPECT_LT(S.EventsStreamed, Rep.Sessions[0].EventsStreamed);
      }
      SessionReport B = batchSessionReport(Sessions[I], Cfg);
      if (S.Outcome == SessionOutcome::Ok) {
        ++Ok;
        EXPECT_EQ(S.detectionSignature(), B.detectionSignature())
            << "session " << I;
      } else if (S.Readmissions != 0 && S.Outcome != SessionOutcome::Failed) {
        // Recovered: degraded by the quarantine note, same detection.
        ++Readmitted;
        EXPECT_EQ(S.CusFormed, B.CusFormed) << "session " << I;
        EXPECT_EQ(S.DynamicReports, B.DynamicReports) << "session " << I;
        EXPECT_EQ(S.StaticTrueKeys, B.StaticTrueKeys) << "session " << I;
      }
    }
    EXPECT_GT(Ok, 0u);
    if (WithCrash) {
      EXPECT_GT(Readmitted, 0u);
    } else {
      EXPECT_EQ(Ok, Sessions.size());
    }
  }
}

TEST(Serve, TraceBufferPoolCarriesNoStateAcrossCalls) {
  // Trace buffers outlive runServe calls: each worker leases one from a
  // process-wide pool and returns it, emptied, when it ends. References
  // come from calls made before any large session has grown a pooled
  // buffer. Then come a large-session call whose workloads die before
  // the next call (so ASan flags any read through a pooled buffer that
  // still points at their program), a small call, a shard-crash call,
  // and two concurrent calls (so TSan sweeps the pool lock); each must
  // reproduce its reference.
  Workload Small = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(Small, {1, 2, 3, 4, 5, 6});
  fault::FaultPlanConfig Crash;
  Crash.Name = "crash-some";
  Crash.PlanSeed = 0x5e46;
  Crash.ShardCrashRatePerMyriad = 800;
  ServeConfig Cfg;
  Cfg.Shards = 2;
  Cfg.Jobs = 2;
  ServeConfig CrashCfg = Cfg;
  CrashCfg.FaultCfg = &Crash;
  const ServeReport SmallRef = runServe(Sessions, Cfg);
  const ServeReport CrashRef = runServe(Sessions, CrashCfg);

  auto ExpectMatches = [&](const ServeReport &Ref, const ServeReport &Rep) {
    ASSERT_EQ(Rep.Sessions.size(), Ref.Sessions.size());
    for (size_t I = 0; I < Rep.Sessions.size(); ++I) {
      const SessionReport &S = Rep.Sessions[I];
      expectSameSession(Ref.Sessions[I], S);
      if (S.Outcome == SessionOutcome::Ok) {
        EXPECT_EQ(S.detectionSignature(),
                  batchSessionReport(Sessions[I], Cfg).detectionSignature())
            << "session " << I;
      }
    }
  };

  {
    WorkloadParams BigP;
    BigP.Threads = 4;
    BigP.Iterations = 64;
    BigP.WorkPadding = 5;
    BigP.TouchOneIn = 1;
    Workload Big = workloads::apacheLog(BigP);
    std::vector<SessionInput> BigSessions = makeSessions(Big, {7, 8});
    ServeReport Rep = runServe(BigSessions, Cfg);
    ASSERT_EQ(Rep.Sessions.size(), 2u);
    for (size_t I = 0; I < Rep.Sessions.size(); ++I) {
      EXPECT_EQ(Rep.Sessions[I].Outcome, SessionOutcome::Ok);
      EXPECT_GT(Rep.Sessions[I].EventsStreamed,
                4 * SmallRef.Sessions[0].EventsStreamed);
      EXPECT_EQ(Rep.Sessions[I].detectionSignature(),
                batchSessionReport(BigSessions[I], Cfg).detectionSignature());
    }
  }

  ExpectMatches(SmallRef, runServe(Sessions, Cfg));
  ServeReport Crashed = runServe(Sessions, CrashCfg);
  ExpectMatches(CrashRef, Crashed);
  uint32_t Readmissions = 0;
  for (const SessionReport &S : Crashed.Sessions)
    Readmissions += S.Readmissions;
  EXPECT_GT(Readmissions, 0u);

  ServeReport Concurrent;
  std::thread Other([&] { Concurrent = runServe(Sessions, CrashCfg); });
  ServeReport Mine = runServe(Sessions, Cfg);
  Other.join();
  ExpectMatches(SmallRef, Mine);
  ExpectMatches(CrashRef, Concurrent);
}

TEST(Serve, ExhaustedRetryBudgetFailsTheSessionOnly) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2});
  fault::FaultPlanConfig AlwaysCrash;
  AlwaysCrash.Name = "crash-always";
  AlwaysCrash.PlanSeed = 0xdead;
  AlwaysCrash.ShardCrashRatePerMyriad = 10000;

  ServeConfig Cfg;
  Cfg.FaultCfg = &AlwaysCrash;

  // The contract under test: runServe never throws, it classifies.
  // Every attempt crashes, so all three re-admissions are spent.
  ServeReport Rep = runServe(Sessions, Cfg);
  ASSERT_EQ(Rep.Sessions.size(), 2u);
  for (const SessionReport &S : Rep.Sessions) {
    EXPECT_EQ(S.Outcome, SessionOutcome::Failed);
    EXPECT_EQ(S.Quarantines, 4u);
    EXPECT_EQ(S.Readmissions, 3u);
    EXPECT_FALSE(S.Diagnostic.empty());
  }
}

TEST(Serve, WatchdogTripsLivelockedSessions) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1});
  fault::FaultPlanConfig Livelock = livelockPlan();
  ServeConfig Cfg;
  Cfg.FaultCfg = &Livelock;

  ServeReport Rep = runServe(Sessions, Cfg);
  ASSERT_EQ(Rep.Sessions.size(), 1u);
  const SessionReport &S = Rep.Sessions[0];
  // Every attempt trips the watchdog, so the retry budget drains and
  // the session fails — without hanging and without taking down the
  // daemon.
  EXPECT_EQ(S.Outcome, SessionOutcome::Failed);
  EXPECT_GT(S.Quarantines, 0u);
  EXPECT_FALSE(S.Diagnostic.empty());
}

TEST(Serve, ExhaustedBudgetDiagnosticsAreExactForBothAbortKinds) {
  Workload W = testWorkload();
  {
    // Watchdog: four attempts of 2000001 ticks each plus 4 + 8 + 16
    // ticks of quarantine backoff.
    std::vector<SessionInput> Sessions = makeSessions(W, {1});
    fault::FaultPlanConfig Livelock = livelockPlan();
    ServeConfig Cfg;
    Cfg.FaultCfg = &Livelock;
    ServeReport Rep = runServe(Sessions, Cfg);
    ASSERT_EQ(Rep.Sessions.size(), 1u);
    const SessionReport &S = Rep.Sessions[0];
    EXPECT_EQ(S.Outcome, SessionOutcome::Failed);
    EXPECT_EQ(S.Diagnostic, "quarantine retry budget exhausted after 4 "
                            "attempts: watchdog tripped at 2000001 ticks");
    EXPECT_EQ(S.Ticks, 8'000'032u);
  }
  {
    // Injected shard crash: four one-tick attempts plus 4 + 8 + 16 ticks
    // of quarantine backoff.
    std::vector<SessionInput> Sessions = makeSessions(W, {1, 2});
    fault::FaultPlanConfig AlwaysCrash;
    AlwaysCrash.Name = "crash-always";
    AlwaysCrash.PlanSeed = 0xdead;
    AlwaysCrash.ShardCrashRatePerMyriad = 10000;
    ServeConfig Cfg;
    Cfg.FaultCfg = &AlwaysCrash;
    ServeReport Rep = runServe(Sessions, Cfg);
    ASSERT_EQ(Rep.Sessions.size(), 2u);
    for (const SessionReport &S : Rep.Sessions) {
      EXPECT_EQ(S.Outcome, SessionOutcome::Failed);
      EXPECT_EQ(S.Diagnostic,
                "quarantine retry budget exhausted after 4 attempts: "
                "injected shard crash at frame 0 (attempt 4)");
      EXPECT_EQ(S.Ticks, 32u);
    }
  }
}

TEST(Serve, ShedPersistsAcrossQuarantine) {
  // Shedding rewrites the wire and a re-admission replays that rewritten
  // wire, so producer-side shed counters must survive the rollback of an
  // aborted attempt while the consumer-side counters do not. Under this
  // plan seed, sessions 0, 1, 4 and 6 shed and recover from one to three
  // shard crashes; rolling EventsShed back would break their accounting.
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions =
      makeSessions(W, {1, 2, 3, 4, 5, 6, 7, 8});
  fault::FaultPlanConfig Plan;
  Plan.Name = "stall-crash";
  Plan.PlanSeed = 0x57a13;
  Plan.FrameStallRatePerMyriad = 6000;
  Plan.FrameStallTicks = 256;
  Plan.ShardCrashRatePerMyriad = 800;

  ServeConfig Cfg;
  Cfg.FaultCfg = &Plan;

  ServeReport Rep = runServe(Sessions, Cfg);
  size_t ShedAndRecovered = 0;
  for (const SessionReport &S : Rep.Sessions) {
    bool Shed = S.FramesShed > 0 || S.EventsShed > 0;
    if (!Shed || S.Quarantines == 0 || S.Outcome == SessionOutcome::Failed)
      continue;
    ++ShedAndRecovered;
    EXPECT_EQ(S.EventsIngested + S.EventsShed, S.EventsStreamed)
        << "session " << S.SessionId;
    EXPECT_GT(S.FramesShed, 0u);
    EXPECT_EQ(S.Outcome, SessionOutcome::Shed) << S.Diagnostic;
    EXPECT_NE(S.Diagnostic.find("recovered from"), std::string::npos)
        << S.Diagnostic;
  }
  EXPECT_EQ(ShedAndRecovered, 4u);
}

//===----------------------------------------------------------------------===//
// Observability: every exported key is schema-documented and the
// metrics document stays valid.
//===----------------------------------------------------------------------===//

TEST(Serve, ExportsOnlyDocumentedKeys) {
  Workload W = testWorkload();
  std::vector<SessionInput> Sessions = makeSessions(W, {1, 2});
  std::vector<fault::FaultPlanConfig> Plans = ingestionPlanMatrix();
  obs::Registry Reg;
  ServeConfig Cfg;
  Cfg.FaultCfg = &Plans.back(); // frame-mangle: touches every counter class
  Cfg.Obs = &Reg;
  runServe(Sessions, Cfg);

  bool SawServe = false, SawReject = false, SawShardShadow = false;
  for (const auto &[Name, Value] : Reg.counters()) {
    EXPECT_TRUE(obs::isDocumentedKey(Name)) << Name;
    SawServe |= Name == "serve.sessions";
    SawReject |= Name.rfind("serve.rejects.", 0) == 0;
    SawShardShadow |= Name == "shadow.shard0.bytes";
    (void)Value;
  }
  EXPECT_TRUE(SawServe);
  EXPECT_TRUE(SawReject);
  EXPECT_TRUE(SawShardShadow);
  EXPECT_EQ(Reg.counter("serve.sessions").value(), Sessions.size());

  // The per-stage timers: looked up once per call, documented, and all
  // three present.
  size_t StageTimers = 0;
  for (const auto &[Name, Stat] : Reg.timers()) {
    EXPECT_TRUE(obs::isDocumentedKey(Name)) << Name;
    StageTimers += Name == "serve.session.produce" ||
                   Name == "serve.session.stream" ||
                   Name == "serve.session.detect";
    (void)Stat;
  }
  EXPECT_EQ(StageTimers, 3u);
  EXPECT_EQ(Reg.timer("serve.session.produce").snapshot().Count,
            Sessions.size());

  // The rendered document is still the svd-metrics-v1 shape.
  std::string J = obs::metricsJson(Reg);
  EXPECT_NE(J.find("\"schema\": \"svd-metrics-v1\""), std::string::npos);
  EXPECT_NE(J.find("\"serve.frames_delivered\""), std::string::npos);
}
