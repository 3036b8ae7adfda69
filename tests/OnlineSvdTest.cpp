//===- tests/OnlineSvdTest.cpp - Online SVD (Figure 7/8) tests ------------===//
//
// These tests drive the exact interleavings of the paper's motivating
// examples (Figures 1-3) through the online detector via replayed
// schedules, checking both detections and deliberate non-detections.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "svd/OnlineSvd.h"

#include <gtest/gtest.h>

#include <string>

using namespace svd;
using namespace svd::detect;
using isa::assembleOrDie;
using testutil::sched;
using vm::Machine;
using vm::MachineConfig;

namespace {

/// Runs \p P under \p Schedule prefix (then to completion) with an
/// OnlineSvd configured by \p Cfg; returns the detector by value-ish
/// through the lambda. Helper wraps the common boilerplate.
struct RunResult {
  std::vector<Violation> Violations;
  std::vector<CuLogEntry> Log;
  uint64_t CusFormed = 0;
  uint64_t CusEnded = 0;
  uint64_t Events = 0;
};

RunResult runSvd(const isa::Program &P,
                 const std::vector<isa::ThreadId> &Schedule,
                 OnlineSvdConfig Cfg = OnlineSvdConfig(),
                 isa::Word *PokeAddrValue = nullptr,
                 isa::Addr PokeAddr = 0) {
  Machine M(P);
  if (PokeAddrValue)
    M.pokeMem(PokeAddr, *PokeAddrValue);
  OnlineSvd Svd(P, Cfg);
  M.addObserver(&Svd);
  if (!Schedule.empty()) {
    M.setReplaySchedule(Schedule);
    M.run();
    M.clearReplaySchedule();
  }
  M.run();
  RunResult R;
  R.Violations = Svd.violations();
  R.Log = Svd.cuLog();
  R.CusFormed = Svd.numCusFormed();
  R.CusEnded = Svd.numCusEnded();
  R.Events = Svd.eventsObserved();
  return R;
}

/// Figure 2 analog: unlocked read-modify-write on a shared index.
const char *RmwSource = R"(
.global outcnt
.thread w x2
  ld r1, [@outcnt]
  addi r2, r1, 1
  st r2, [@outcnt]
  halt
)";

} // namespace

//===----------------------------------------------------------------------===//
// Figure 2: erroneous interleavings are detected.
//===----------------------------------------------------------------------===//

// The Figure 8 transition table documented in svd/OnlineSvd.h, checked
// cell by cell against the transition functions of the shared core
// (svd/CuCore.h) that OnlineSvd and HardwareSvd both run.
TEST(OnlineSvd, SharedFsmMatchesDocumentedTransitionTable) {
  using F = Fsm;
  const char *const StateNames[] = {"Idle",         "Loaded",
                                    "Stored",       "Loaded_Shared",
                                    "Stored_Shared", "True_Dep"};
  const char *const AccessNames[] = {"local load", "local store",
                                     "remote read", "remote write"};
  // One row per state, in Fsm order; columns as in AccessNames.
  const FsmStep Table[6][4] = {
      /* Idle */
      {{F::Loaded, false, false},
       {F::Stored, false, false},
       {F::Idle, false, false},
       {F::Idle, false, false}},
      /* Loaded */
      {{F::Loaded, false, false},
       {F::Stored, false, false},
       {F::LoadedShared, false, false},
       {F::LoadedShared, false, true}},
      /* Stored */
      {{F::TrueDep, false, false},
       {F::Stored, false, false},
       {F::StoredShared, false, true},
       {F::StoredShared, false, true}},
      /* Loaded_Shared */
      {{F::LoadedShared, false, false},
       {F::StoredShared, false, false},
       {F::LoadedShared, false, false},
       {F::LoadedShared, false, true}},
      /* Stored_Shared: a local load is a shared dependence */
      {{F::Loaded, true, false},
       {F::StoredShared, false, false},
       {F::StoredShared, false, true},
       {F::StoredShared, false, true}},
      /* True_Dep: any remote access is a shared dependence */
      {{F::TrueDep, false, false},
       {F::TrueDep, false, false},
       {F::Idle, true, true},
       {F::Idle, true, true}},
  };

  unsigned Endings = 0, Conflicts = 0;
  for (unsigned S = 0; S < 6; ++S) {
    F State = static_cast<F>(S);
    const FsmStep Got[4] = {fsmLocalLoad(State), fsmLocalStore(State),
                            fsmRemote(State, /*IsWrite=*/false),
                            fsmRemote(State, /*IsWrite=*/true)};
    for (unsigned A = 0; A < 4; ++A) {
      const FsmStep &Want = Table[S][A];
      SCOPED_TRACE(std::string(StateNames[S]) + " x " + AccessNames[A]);
      EXPECT_EQ(static_cast<unsigned>(Got[A].Next),
                static_cast<unsigned>(Want.Next));
      EXPECT_EQ(Got[A].EndsCu, Want.EndsCu);
      EXPECT_EQ(Got[A].Conflict, Want.Conflict);
      // Only remote accesses conflict; local ones never do.
      if (A < 2) {
        EXPECT_FALSE(Got[A].Conflict);
      }
      Endings += Got[A].EndsCu;
      Conflicts += Got[A].Conflict;
    }
  }
  // Two shared dependences end a CU: a load on Stored_Shared and a
  // remote access (read or write) on True_Dep.
  EXPECT_EQ(Endings, 3u);
  // Remote writes conflict on all five engaged states; remote reads
  // only on the three the lane wrote.
  EXPECT_EQ(Conflicts, 8u);
}

TEST(OnlineSvd, DetectsInterleavedRmw) {
  isa::Program P = assembleOrDie(RmwSource);
  RunResult R = runSvd(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  ASSERT_EQ(R.Violations.size(), 1u);
  const Violation &V = R.Violations[0];
  EXPECT_EQ(V.Tid, 0u);
  EXPECT_EQ(V.Pc, 2u); // thread 0's store
  EXPECT_EQ(V.OtherTid, 1u);
  EXPECT_EQ(V.OtherPc, 2u); // thread 1's store was the conflict
  EXPECT_EQ(V.Address, P.addressOf("outcnt"));
}

TEST(OnlineSvd, SilentOnSerializedRmw) {
  isa::Program P = assembleOrDie(RmwSource);
  RunResult R = runSvd(P, sched({{0, 4}, {1, 4}}));
  EXPECT_TRUE(R.Violations.empty());
}

TEST(OnlineSvd, SilentOnSingleThreadLoop) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t
  li r5, 20
loop:
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  RunResult R = runSvd(P, {});
  EXPECT_TRUE(R.Violations.empty());
  EXPECT_TRUE(R.Log.empty());
}

//===----------------------------------------------------------------------===//
// Figure 1: a benign data race on a correctly locked counter is NOT
// reported (the race-detector false positive SVD avoids).
//===----------------------------------------------------------------------===//

TEST(OnlineSvd, BenignRaceOnLockedCounterStaysSilent) {
  isa::Program P = assembleOrDie(R"(
.global tot
.lock m
.thread locker
  li r5, 2
loop:
  lock @m
  ld r1, [@tot]
  addi r1, r1, 1
  st r1, [@tot]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
.thread reader
  ld r2, [@tot]          ; races with the locked update: benign
  beqz r2, iszero
  li r3, 1
  jmp out
iszero:
  li r3, 0
out:
  print r3
  halt
)");
  // locker: li + iteration (7 steps); reader's racy load lands between
  // the two critical sections; locker's second iteration; reader rest.
  RunResult R = runSvd(P, sched({{0, 8}, {1, 1}, {0, 8}, {1, 5}}));
  EXPECT_TRUE(R.Violations.empty());
  EXPECT_TRUE(R.Log.empty()); // remote *read* produces no log triple
  EXPECT_GT(R.CusEnded, 0u);  // the CU was cut at the re-read
}

//===----------------------------------------------------------------------===//
// Figure 3: mistakenly shared thread-local data — online false negative,
// but the a-posteriori CU log records the broken communication.
//===----------------------------------------------------------------------===//

TEST(OnlineSvd, MistakenlySharedWriteIsMissedButLogged) {
  isa::Program P = assembleOrDie(R"(
.global qid
.global out
.thread victim
  li r1, 7
  st r1, [@qid]          ; pc 1: intended-local write
  nop
  ld r2, [@qid]          ; pc 3: reads back overwritten value
  st r2, [@out]          ; pc 4: downstream store (no violation fires)
  halt
.thread intruder
  li r3, 99
  st r3, [@qid]          ; pc 1: the intervening remote write
  halt
)");
  RunResult R = runSvd(P, sched({{0, 2}, {1, 3}, {0, 4}}));
  EXPECT_TRUE(R.Violations.empty()) << "online check misses this by design";
  ASSERT_EQ(R.Log.size(), 1u);
  const CuLogEntry &L = R.Log[0];
  EXPECT_EQ(L.Tid, 0u);
  EXPECT_EQ(L.Pc, 3u); // the read (s)
  EXPECT_EQ(L.RemoteTid, 1u);
  EXPECT_EQ(L.RemotePc, 1u); // the remote write (rw)
  EXPECT_TRUE(L.hasLocalWrite());
  EXPECT_EQ(L.LocalPc, 1u); // the local producer (lw)
  EXPECT_EQ(L.Address, P.addressOf("qid"));
  std::string D = L.describe(P);
  EXPECT_NE(D.find("qid"), std::string::npos);
}

TEST(OnlineSvd, RemoteWriteOnTrueDepEndsCuAndLogs) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 5
  st r1, [@g]            ; pc 1
  ld r2, [@g]            ; pc 2: True_Dep
  addi r2, r2, 1
  st r2, [@g]            ; pc 4
  halt
.thread b
  li r3, 9
  st r3, [@g]            ; pc 1: remote write on True_Dep block
  halt
)");
  RunResult R = runSvd(P, sched({{0, 3}, {1, 3}, {0, 3}}));
  // The CU died before a's second store; no violation, one log triple.
  EXPECT_TRUE(R.Violations.empty());
  ASSERT_EQ(R.Log.size(), 1u);
  EXPECT_EQ(R.Log[0].Pc, 2u);       // the consumed local read
  EXPECT_EQ(R.Log[0].RemotePc, 1u); // b's store
  EXPECT_GE(R.CusEnded, 1u);
}

TEST(OnlineSvd, RemoteReadOnTrueDepEndsCuWithoutLog) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 5
  st r1, [@g]
  ld r2, [@g]            ; True_Dep
  addi r2, r2, 1
  st r2, [@g]
  halt
.thread b
  ld r3, [@g]            ; remote *read* on the True_Dep block
  halt
)");
  RunResult R = runSvd(P, sched({{0, 3}, {1, 2}, {0, 3}}));
  EXPECT_TRUE(R.Violations.empty());
  EXPECT_TRUE(R.Log.empty());
  EXPECT_GE(R.CusEnded, 1u);
}

//===----------------------------------------------------------------------===//
// Address dependences (vector/pointer handling, Section 4.3).
//===----------------------------------------------------------------------===//

namespace {
const char *IndexedBufSource = R"(
.global outcnt
.global buf 8
.thread w x2
  ld r1, [@outcnt]       ; pc 0
  li r9, 5               ; pc 1
  st r9, [r1+@buf]       ; pc 2: address-dependent on outcnt's CU
  addi r2, r1, 1         ; pc 3
  st r2, [@outcnt]       ; pc 4
  halt
)";
}

TEST(OnlineSvd, AddressDependenceCatchesIndexedWrite) {
  isa::Program P = assembleOrDie(IndexedBufSource);
  RunResult R = runSvd(P, sched({{0, 1}, {1, 6}, {0, 5}}));
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Pc, 2u) << "detected at the buffer write";
  EXPECT_EQ(R.Violations[0].Address, P.addressOf("outcnt"));
}

TEST(OnlineSvd, WithoutAddressDepsDetectionMovesToDataDep) {
  isa::Program P = assembleOrDie(IndexedBufSource);
  OnlineSvdConfig Cfg;
  Cfg.UseAddressDeps = false;
  RunResult R = runSvd(P, sched({{0, 1}, {1, 6}, {0, 5}}), Cfg);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Pc, 4u) << "only the index write-back fires";
}

//===----------------------------------------------------------------------===//
// Control dependences (Skipper heuristic).
//===----------------------------------------------------------------------===//

namespace {
const char *GuardedStoreSource = R"(
.global flag
.global out
.thread a
  ld r1, [@flag]         ; pc 0
  beqz r1, skip          ; pc 1
  li r2, 1               ; pc 2
  st r2, [@out]          ; pc 3: control-dependent on flag's CU
skip:
  halt                   ; pc 4
.thread b
  li r3, 2
  st r3, [@flag]         ; pc 1: invalidates the guard
  halt
)";
}

TEST(OnlineSvd, ControlDependenceCatchesGuardedStore) {
  isa::Program P = assembleOrDie(GuardedStoreSource);
  isa::Word FlagInit = 1;
  RunResult R =
      runSvd(P, sched({{0, 1}, {1, 3}, {0, 4}}), OnlineSvdConfig(),
             &FlagInit, 0 /* flag is the first global */);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Pc, 3u);
  EXPECT_EQ(R.Violations[0].Address, P.addressOf("flag"));
}

TEST(OnlineSvd, WithoutControlDepsGuardedStoreIsMissed) {
  isa::Program P = assembleOrDie(GuardedStoreSource);
  OnlineSvdConfig Cfg;
  Cfg.UseControlDeps = false;
  isa::Word FlagInit = 1;
  RunResult R =
      runSvd(P, sched({{0, 1}, {1, 3}, {0, 4}}), Cfg, &FlagInit, 0);
  EXPECT_TRUE(R.Violations.empty());
}

TEST(OnlineSvd, PreciseReconvergencePolicyAlsoCatchesGuardedStore) {
  isa::Program P = assembleOrDie(GuardedStoreSource);
  OnlineSvdConfig Cfg;
  Cfg.Reconv = OnlineSvdConfig::ReconvPolicy::Precise;
  isa::Word FlagInit = 1;
  RunResult R =
      runSvd(P, sched({{0, 1}, {1, 3}, {0, 4}}), Cfg, &FlagInit, 0);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Pc, 3u);
}

//===----------------------------------------------------------------------===//
// Input-blocks-only heuristic (Section 4.3).
//===----------------------------------------------------------------------===//

namespace {
const char *WriteSetConflictSource = R"(
.global w
.global x
.global z
.thread a
  ld r1, [@w]            ; pc 0: CU input = {w}
  st r1, [@x]            ; pc 1: CU output = {x}
  nop                    ; pc 2
  st r1, [@z]            ; pc 3: the checking store
  halt
.thread b
  li r3, 4
  st r3, [@x]            ; pc 1: conflicts on the CU's *output*
  halt
)";
}

TEST(OnlineSvd, InputBlocksOnlyIgnoresWriteSetConflicts) {
  isa::Program P = assembleOrDie(WriteSetConflictSource);
  RunResult R = runSvd(P, sched({{0, 2}, {1, 3}, {0, 3}}));
  EXPECT_TRUE(R.Violations.empty());
}

TEST(OnlineSvd, FullBlockCheckCatchesWriteSetConflicts) {
  isa::Program P = assembleOrDie(WriteSetConflictSource);
  OnlineSvdConfig Cfg;
  Cfg.CheckInputBlocksOnly = false;
  RunResult R = runSvd(P, sched({{0, 2}, {1, 3}, {0, 3}}), Cfg);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Pc, 3u);
  EXPECT_EQ(R.Violations[0].Address, P.addressOf("x"));
}

//===----------------------------------------------------------------------===//
// Block granularity / false sharing (Section 6.2 uses word blocks).
//===----------------------------------------------------------------------===//

namespace {
const char *AdjacentWordsSource = R"(
.global arr 2
.thread a
  ld r1, [@arr]          ; word 0
  addi r1, r1, 1
  st r1, [@arr]
  halt
.thread b
  li r3, 7
  st r3, [@arr+1]        ; word 1: disjoint data
  halt
)";
}

TEST(OnlineSvd, WordBlocksAvoidFalseSharing) {
  isa::Program P = assembleOrDie(AdjacentWordsSource);
  RunResult R = runSvd(P, sched({{0, 1}, {1, 3}, {0, 3}}));
  EXPECT_TRUE(R.Violations.empty());
}

TEST(OnlineSvd, CoarseBlocksIntroduceFalseSharing) {
  isa::Program P = assembleOrDie(AdjacentWordsSource);
  OnlineSvdConfig Cfg;
  Cfg.BlockShift = 1; // two words per block
  RunResult R = runSvd(P, sched({{0, 1}, {1, 3}, {0, 3}}), Cfg);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Tid, 0u);
}

//===----------------------------------------------------------------------===//
// Counters and bookkeeping.
//===----------------------------------------------------------------------===//

TEST(OnlineSvd, CountersAreConsistent) {
  isa::Program P = assembleOrDie(RmwSource);
  RunResult R = runSvd(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  EXPECT_GT(R.CusFormed, 0u);
  EXPECT_GE(R.CusFormed, R.CusEnded);
  // 2 threads x (ld, addi, st) = 6 events; halts are not counted.
  EXPECT_EQ(R.Events, 6u);
}

TEST(OnlineSvd, MemoryAccountingIsNonzero) {
  isa::Program P = assembleOrDie(RmwSource);
  Machine M(P);
  OnlineSvd Svd(P);
  M.addObserver(&Svd);
  M.run();
  EXPECT_GT(Svd.approxMemoryBytes(), 0u);
}

TEST(OnlineSvd, ManySeedsSmokeTest) {
  // Whatever the interleaving, the detector must not crash and its
  // reports must be well-formed (remote side always a different thread).
  isa::Program P = assembleOrDie(R"(
.global a
.global b
.lock m
.thread t x4
  li r5, 25
loop:
  ld r1, [@a]
  addi r1, r1, 1
  st r1, [@a]
  lock @m
  ld r2, [@b]
  addi r2, r2, 1
  st r2, [@b]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    MachineConfig Cfg;
    Cfg.SchedSeed = Seed;
    Machine M(P, Cfg);
    OnlineSvd Svd(P);
    M.addObserver(&Svd);
    M.run();
    for (const Violation &V : Svd.violations()) {
      EXPECT_NE(V.Tid, V.OtherTid);
      EXPECT_LT(V.Address, P.MemoryWords);
    }
    // The unlocked counter 'a' is racy: across 10 seeds we expect the
    // detector to fire at least somewhere (checked after the loop).
  }
}

TEST(OnlineSvd, RacyCounterEventuallyDetectedAcrossSeeds) {
  isa::Program P = assembleOrDie(R"(
.global a
.thread t x4
  li r5, 25
loop:
  ld r1, [@a]
  addi r1, r1, 1
  st r1, [@a]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  size_t Total = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    MachineConfig Cfg;
    Cfg.SchedSeed = Seed;
    Machine M(P, Cfg);
    OnlineSvd Svd(P);
    M.addObserver(&Svd);
    M.run();
    Total += Svd.violations().size();
  }
  EXPECT_GT(Total, 0u);
}

TEST(OnlineSvd, ProperlyLockedProgramStaysSilentAcrossSeeds) {
  isa::Program P = assembleOrDie(R"(
.global a
.lock m
.thread t x4
  li r5, 25
loop:
  lock @m
  ld r1, [@a]
  addi r1, r1, 1
  st r1, [@a]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    MachineConfig Cfg;
    Cfg.SchedSeed = Seed;
    Machine M(P, Cfg);
    OnlineSvd Svd(P);
    M.addObserver(&Svd);
    M.run();
    EXPECT_TRUE(Svd.violations().empty()) << "seed " << Seed;
  }
}
