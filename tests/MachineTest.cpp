//===- tests/MachineTest.cpp - Unit tests for the VM -----------------------===//

#include "isa/Assembler.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::isa;
using namespace svd::vm;

namespace {

Program asmProg(const std::string &Src) { return assembleOrDie(Src); }

/// Counts events per kind.
struct CountingObserver : ExecutionObserver {
  int Loads = 0, Stores = 0, Alus = 0, Branches = 0, Locks = 0,
      Unlocks = 0, Errors = 0, Prints = 0, Finished = 0, RunEnds = 0;
  void onLoad(const EventCtx &, Addr, Word) override { ++Loads; }
  void onStore(const EventCtx &, Addr, Word) override { ++Stores; }
  void onAlu(const EventCtx &) override { ++Alus; }
  void onBranch(const EventCtx &, bool, uint32_t) override { ++Branches; }
  void onLock(const EventCtx &, uint32_t) override { ++Locks; }
  void onUnlock(const EventCtx &, uint32_t) override { ++Unlocks; }
  void onProgramError(const EventCtx &, const char *) override { ++Errors; }
  void onPrint(const EventCtx &, Word) override { ++Prints; }
  void onThreadFinished(const EventCtx &) override { ++Finished; }
  void onRunEnd() override { ++RunEnds; }
};

/// Runs \p Check under \p Cfg once per engine: the per-step interpreter
/// and the translated burst loop, which share one instruction step.
template <typename Fn> void onBothEngines(MachineConfig Cfg, Fn Check) {
  for (bool Translate : {false, true}) {
    SCOPED_TRACE(Translate ? "translated engine" : "interpreter");
    Cfg.Translate = Translate;
    Check(Cfg);
  }
}

} // namespace

TEST(Machine, ArithmeticAndPrint) {
  Program P = asmProg(R"(
.thread t
  li r1, 6
  li r2, 7
  mul r3, r1, r2
  print r3
  sub r4, r3, r1
  print r4
  halt
)");
  Machine M(P);
  EXPECT_EQ(M.run(), StopReason::AllHalted);
  ASSERT_EQ(M.printed().size(), 2u);
  EXPECT_EQ(M.printed()[0].Value, 42);
  EXPECT_EQ(M.printed()[1].Value, 36);
}

TEST(Machine, AllAluOps) {
  Program P = asmProg(R"(
.thread t
  li r1, 12
  li r2, 5
  add r3, r1, r2
  print r3        ; 17
  div r3, r1, r2
  print r3        ; 2
  rem r3, r1, r2
  print r3        ; 2
  and r3, r1, r2
  print r3        ; 4
  or  r3, r1, r2
  print r3        ; 13
  xor r3, r1, r2
  print r3        ; 9
  shl r3, r1, r2
  print r3        ; 384
  shr r3, r1, r2
  print r3        ; 0
  slt r3, r2, r1
  print r3        ; 1
  sle r3, r1, r1
  print r3        ; 1
  seq r3, r1, r2
  print r3        ; 0
  sne r3, r1, r2
  print r3        ; 1
  slti r3, r1, 13
  print r3        ; 1
  andi r3, r1, 4
  print r3        ; 4
  muli r3, r2, -3
  print r3        ; -15
  halt
)");
  std::vector<Word> Want = {17, 2, 2, 4, 13, 9, 384, 0, 1, 1, 0, 1, 1, 4,
                            -15};
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    M.run();
    ASSERT_EQ(M.printed().size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_EQ(M.printed()[I].Value, Want[I]) << "print #" << I;
  });
}

TEST(Machine, DivisionByZeroYieldsZero) {
  Program P = asmProg(R"(
.thread t
  li r1, 9
  li r2, 0
  div r3, r1, r2
  print r3
  rem r4, r1, r2
  print r4
  halt
)");
  Machine M(P);
  M.run();
  EXPECT_EQ(M.printed()[0].Value, 0);
  EXPECT_EQ(M.printed()[1].Value, 0);
}

TEST(Machine, ZeroRegisterIsHardwired) {
  Program P = asmProg(R"(
.thread t
  li r0, 99
  print r0
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    M.run();
    EXPECT_EQ(M.printed()[0].Value, 0);
  });
}

TEST(Machine, LoadsAndStores) {
  Program P = asmProg(R"(
.global cell
.global arr 4
.thread t
  li r1, 11
  st r1, [@cell]
  ld r2, [@cell]
  print r2
  li r3, 2          ; index
  li r4, 55
  st r4, [r3+@arr]
  ld r5, [r3+@arr]
  print r5
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    M.run();
    EXPECT_EQ(M.printed()[0].Value, 11);
    EXPECT_EQ(M.printed()[1].Value, 55);
    EXPECT_EQ(M.readMem(P.addressOf("arr", 0, 2)), 55);
  });
}

TEST(Machine, TidAndThreadLocals) {
  Program P = asmProg(R"(
.local mine
.global out 4
.thread t x3
  tid r1
  addi r2, r1, 100
  st r2, [@mine]
  ld r3, [@mine]
  st r3, [r1+@out]
  halt
)");
  Machine M(P);
  EXPECT_EQ(M.run(), StopReason::AllHalted);
  for (ThreadId Tid = 0; Tid < 3; ++Tid)
    EXPECT_EQ(M.readMem(P.addressOf("out", 0, Tid)), 100 + Tid);
}

TEST(Machine, LoopExecutes) {
  Program P = asmProg(R"(
.thread t
  li r1, 5
  li r2, 0
loop:
  add r2, r2, r1
  addi r1, r1, -1
  bnez r1, loop
  print r2
  halt
)");
  Machine M(P);
  M.run();
  EXPECT_EQ(M.printed()[0].Value, 15);
}

TEST(Machine, MutexProvidesMutualExclusion) {
  // Racing counter increments under a lock must not lose updates.
  Program P = asmProg(R"(
.global counter
.lock m
.thread t x4
  li r5, 50
loop:
  lock @m
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  for (uint64_t Seed : {1u, 7u, 42u}) {
    MachineConfig Cfg;
    Cfg.SchedSeed = Seed;
    Machine M(P, Cfg);
    EXPECT_EQ(M.run(), StopReason::AllHalted);
    EXPECT_EQ(M.readMem(P.addressOf("counter")), 200) << "seed " << Seed;
  }
}

TEST(Machine, UnlockedCounterLosesUpdatesForSomeSeed) {
  // The same increments without the lock must drop updates for at least
  // one of a handful of seeds — demonstrating the races are real.
  Program P = asmProg(R"(
.global counter
.thread t x4
  li r5, 50
loop:
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  bool Lost = false;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    MachineConfig Cfg;
    Cfg.SchedSeed = Seed;
    Machine M(P, Cfg);
    M.run();
    if (M.readMem(P.addressOf("counter")) != 200)
      Lost = true;
  }
  EXPECT_TRUE(Lost);
}

TEST(Machine, DeadlockDetected) {
  Program P = asmProg(R"(
.lock a
.lock b
.thread t1
  lock @a
  yield
  lock @b
  halt
.thread t2
  lock @b
  yield
  lock @a
  halt
)");
  // Search a few seeds for the classic ABBA deadlock.
  bool SawDeadlock = false;
  for (uint64_t Seed = 1; Seed <= 20 && !SawDeadlock; ++Seed) {
    MachineConfig Cfg;
    Cfg.SchedSeed = Seed;
    Machine M(P, Cfg);
    SawDeadlock = M.run() == StopReason::Deadlock;
  }
  EXPECT_TRUE(SawDeadlock);
}

TEST(Machine, RecursiveLockFaults) {
  Program P = asmProg(R"(
.lock m
.thread t
  lock @m
  lock @m
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    M.run();
    ASSERT_EQ(M.errors().size(), 1u);
    EXPECT_NE(M.errors()[0].Message.find("recursive"), std::string::npos);
  });
}

TEST(Machine, UnlockNotHeldFaults) {
  Program P = asmProg(R"(
.lock m
.thread t
  unlock @m
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    M.run();
    ASSERT_EQ(M.errors().size(), 1u);
    EXPECT_NE(M.errors()[0].Message.find("not held"), std::string::npos);
  });
}

TEST(Machine, AssertFailureRecordsErrorAndHaltsThread) {
  Program P = asmProg(R"(
.thread t
  li r1, 0
  assert r1, "boom"
  print r1      ; never reached
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    EXPECT_EQ(M.run(), StopReason::AllHalted);
    ASSERT_EQ(M.errors().size(), 1u);
    EXPECT_EQ(M.errors()[0].Message, "boom");
    EXPECT_TRUE(M.printed().empty());
  });
}

TEST(Machine, AssertPassIsSilent) {
  Program P = asmProg(R"(
.thread t
  li r1, 1
  assert r1, "fine"
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    M.run();
    EXPECT_TRUE(M.errors().empty());
  });
}

TEST(Machine, OutOfRangeAccessFaults) {
  Program P = asmProg(R"(
.global g
.thread t
  li r1, 100000
  ld r2, [r1]
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    M.run();
    ASSERT_EQ(M.errors().size(), 1u);
    EXPECT_NE(M.errors()[0].Message.find("out-of-range"), std::string::npos);
  });
}

TEST(Machine, SameSeedSameExecution) {
  Program P = asmProg(R"(
.global x
.thread t x3
  rnd r1, 100
loop:
  ld r2, [@x]
  add r2, r2, r1
  st r2, [@x]
  addi r1, r1, -7
  bnez r1, cont
  jmp done
cont:
  slti r3, r1, 0
  beqz r3, loop
done:
  halt
)");
  MachineConfig Cfg;
  Cfg.SchedSeed = 99;
  Machine M1(P, Cfg);
  Machine M2(P, Cfg);
  M1.run();
  M2.run();
  EXPECT_EQ(M1.steps(), M2.steps());
  EXPECT_EQ(M1.schedule(), M2.schedule());
  EXPECT_EQ(M1.readMem(P.addressOf("x")), M2.readMem(P.addressOf("x")));
}

TEST(Machine, DifferentSeedsUsuallyDiverge) {
  Program P = asmProg(R"(
.global x
.thread t x2
  li r5, 30
loop:
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  MachineConfig C1, C2;
  C1.SchedSeed = 1;
  C2.SchedSeed = 2;
  Machine M1(P, C1), M2(P, C2);
  M1.run();
  M2.run();
  EXPECT_NE(M1.schedule(), M2.schedule());
}

TEST(Machine, ReplayReproducesExecution) {
  Program P = asmProg(R"(
.global x
.thread t x3
  li r5, 20
loop:
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  MachineConfig Cfg;
  Cfg.SchedSeed = 1234;
  Machine M1(P, Cfg);
  M1.run();
  Word Final = M1.readMem(P.addressOf("x"));

  // Replay with a *different* seed but the recorded schedule.
  MachineConfig Cfg2;
  Cfg2.SchedSeed = 777;
  Machine M2(P, Cfg2);
  M2.setReplaySchedule(M1.schedule());
  M2.run();
  EXPECT_EQ(M2.readMem(P.addressOf("x")), Final);
  EXPECT_EQ(M2.steps(), M1.steps());
}

TEST(Machine, CheckpointRestoreRewindsState) {
  Program P = asmProg(R"(
.global x
.thread t
  li r1, 1
  st r1, [@x]
  li r2, 2
  st r2, [@x]
  halt
)");
  Machine M(P);
  StopReason R;
  // Execute "li; st" (2 steps), checkpoint, run to completion, restore.
  ASSERT_TRUE(M.stepOnce(R));
  ASSERT_TRUE(M.stepOnce(R));
  Checkpoint C = M.checkpoint();
  EXPECT_EQ(M.readMem(P.addressOf("x")), 1);
  M.run();
  EXPECT_EQ(M.readMem(P.addressOf("x")), 2);
  M.restore(C);
  EXPECT_EQ(M.readMem(P.addressOf("x")), 1);
  EXPECT_EQ(M.steps(), 2u);
  // Re-running finishes again.
  EXPECT_EQ(M.run(), StopReason::AllHalted);
  EXPECT_EQ(M.readMem(P.addressOf("x")), 2);
}

TEST(Machine, CheckpointDropsLaterErrorsOnRestore) {
  Program P = asmProg(R"(
.thread t
  li r1, 0
  assert r1, "late"
  halt
)");
  Machine M(P);
  Checkpoint C = M.checkpoint();
  M.run();
  EXPECT_EQ(M.errors().size(), 1u);
  M.restore(C);
  EXPECT_TRUE(M.errors().empty());
}

TEST(Machine, StepBudgetStopsInfiniteLoop) {
  Program P = asmProg(R"(
.thread t
spin:
  jmp spin
)");
  MachineConfig Cfg;
  Cfg.MaxSteps = 1000;
  Machine M(P, Cfg);
  EXPECT_EQ(M.run(), StopReason::StepBudget);
  EXPECT_EQ(M.steps(), 1000u);
}

TEST(Machine, SerialModeRunsOneThreadToCompletion) {
  Program P = asmProg(R"(
.thread t x3
  li r5, 10
loop:
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  MachineConfig Cfg;
  Cfg.SerialMode = true;
  Machine M(P, Cfg);
  M.run();
  // The schedule must be three contiguous runs of one thread each.
  const auto &S = M.schedule();
  int Switches = 0;
  for (size_t I = 1; I < S.size(); ++I)
    if (S[I] != S[I - 1])
      ++Switches;
  EXPECT_EQ(Switches, 2);
}

TEST(Machine, TimesliceReducesSwitchFrequency) {
  Program P = asmProg(R"(
.thread t x2
  li r5, 200
loop:
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  auto CountSwitches = [&](uint32_t MinTs, uint32_t MaxTs) {
    MachineConfig Cfg;
    Cfg.SchedSeed = 5;
    Cfg.MinTimeslice = MinTs;
    Cfg.MaxTimeslice = MaxTs;
    Machine M(P, Cfg);
    M.run();
    const auto &S = M.schedule();
    int N = 0;
    for (size_t I = 1; I < S.size(); ++I)
      if (S[I] != S[I - 1])
        ++N;
    return N;
  };
  EXPECT_GT(CountSwitches(1, 1), CountSwitches(50, 100));
}

TEST(Machine, ObserverSeesAllEventKinds) {
  Program P = asmProg(R"(
.global g
.lock m
.thread t
  li r1, 5
  lock @m
  st r1, [@g]
  ld r2, [@g]
  unlock @m
  print r2
  beqz r0, end
end:
  halt
)");
  Machine M(P);
  CountingObserver Obs;
  M.addObserver(&Obs);
  M.run();
  EXPECT_EQ(Obs.Loads, 1);
  EXPECT_EQ(Obs.Stores, 1);
  EXPECT_EQ(Obs.Alus, 2); // li and print both count as register events
  EXPECT_EQ(Obs.Branches, 1);
  EXPECT_EQ(Obs.Locks, 1);
  EXPECT_EQ(Obs.Unlocks, 1);
  EXPECT_EQ(Obs.Prints, 1);
  EXPECT_EQ(Obs.Finished, 1);
  EXPECT_EQ(Obs.RunEnds, 1);
}

TEST(Machine, RemoveObserverStopsEvents) {
  Program P = asmProg(R"(
.thread t
  li r1, 1
  li r2, 2
  halt
)");
  Machine M(P);
  CountingObserver Obs;
  M.addObserver(&Obs);
  StopReason R;
  M.stepOnce(R);
  M.removeObserver(&Obs);
  M.run();
  EXPECT_EQ(Obs.Alus, 1);
}

TEST(Machine, RunEndNotifiedOnce) {
  Program P = asmProg(".thread t\n  halt\n");
  Machine M(P);
  CountingObserver Obs;
  M.addObserver(&Obs);
  M.run();
  M.notifyRunEnd();
  EXPECT_EQ(Obs.RunEnds, 1);
}

TEST(Machine, RndIsScheduleIndependent) {
  // The rnd streams are per-thread: thread 0's draws are the same no
  // matter how threads interleave.
  Program P = asmProg(R"(
.global sink 8
.thread t x2
  tid r1
  rnd r2, 1000
  st r2, [r1+@sink]
  halt
)");
  MachineConfig C1, C2;
  C1.SchedSeed = 10;
  C2.SchedSeed = 20;
  C1.RndSeed = C2.RndSeed = 5;
  Machine M1(P, C1), M2(P, C2);
  M1.run();
  M2.run();
  EXPECT_EQ(M1.readMem(P.addressOf("sink", 0, 0)),
            M2.readMem(P.addressOf("sink", 0, 0)));
  EXPECT_EQ(M1.readMem(P.addressOf("sink", 0, 1)),
            M2.readMem(P.addressOf("sink", 0, 1)));
}

TEST(Machine, RunUntilPauses) {
  Program P = asmProg(R"(
.thread t
  li r1, 1
  li r2, 2
  li r3, 3
  halt
)");
  Machine M(P);
  StopReason R = M.runUntil([&] { return M.steps() == 2; });
  EXPECT_EQ(R, StopReason::Paused);
  EXPECT_EQ(M.steps(), 2u);
  EXPECT_EQ(M.run(), StopReason::AllHalted);
}

TEST(Machine, DivRemByZeroAndOverflow) {
  // The two inputs C++ leaves undefined are pinned by the machine:
  // division by zero yields 0, and INT64_MIN / -1 wraps to INT64_MIN
  // (with remainder 0), consistent with the wrapping Add/Mul.
  Program P = asmProg(R"(
.thread t
  li r1, 7
  li r2, 0
  div r3, r1, r2
  print r3        ; 0
  rem r3, r1, r2
  print r3        ; 0
  li r1, 1
  li r2, 63
  shl r1, r1, r2  ; r1 = INT64_MIN
  li r2, -1
  div r3, r1, r2
  print r3        ; INT64_MIN
  rem r3, r1, r2
  print r3        ; 0
  halt
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    EXPECT_EQ(M.run(), StopReason::AllHalted);
    ASSERT_EQ(M.printed().size(), 4u);
    EXPECT_EQ(M.printed()[0].Value, 0);
    EXPECT_EQ(M.printed()[1].Value, 0);
    EXPECT_EQ(M.printed()[2].Value, INT64_MIN);
    EXPECT_EQ(M.printed()[3].Value, 0);
  });
}

TEST(Machine, RndStreamsIndependentOfSchedule) {
  // Each thread's rnd stream is seeded from (RndSeed, Tid) only, so the
  // values a thread draws must not change when the scheduler interleaves
  // the threads differently.
  Program P = asmProg(R"(
.thread t x2
  li r5, 6
loop:
  rnd r1, 1000
  print r1
  yield
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  auto PerThreadPrints = [&](uint64_t SchedSeed) {
    MachineConfig C;
    C.SchedSeed = SchedSeed;
    C.RndSeed = 42;
    C.MinTimeslice = 1;
    C.MaxTimeslice = 7;
    Machine M(P, C);
    EXPECT_EQ(M.run(), StopReason::AllHalted);
    std::vector<std::vector<Word>> ByTid(P.numThreads());
    for (const PrintedValue &V : M.printed())
      ByTid[V.Tid].push_back(V.Value);
    return ByTid;
  };
  auto A = PerThreadPrints(1);
  auto B = PerThreadPrints(99);
  ASSERT_EQ(A.size(), B.size());
  for (size_t Tid = 0; Tid < A.size(); ++Tid) {
    EXPECT_EQ(A[Tid].size(), 6u);
    EXPECT_EQ(A[Tid], B[Tid]) << "thread " << Tid;
  }
}

TEST(Machine, StepThreadDrivesANamedThread) {
  Program P = asmProg(R"(
.global x
.thread a
  li r1, 1
  st r1, [@x]
  halt
.thread b
  li r2, 2
  st r2, [@x]
  halt
)");
  Machine M(P);
  StopReason R;
  // Drive thread 1 first, against the scheduler's natural order.
  EXPECT_EQ(M.threadPc(1), 0u);
  ASSERT_TRUE(M.stepThread(1, R));
  ASSERT_TRUE(M.stepThread(1, R));
  EXPECT_EQ(M.threadPc(1), 2u);
  EXPECT_EQ(M.threadPc(0), 0u);
  EXPECT_EQ(M.readMem(M.program().addressOf("x")), 2u);
  // The directed prefix is part of the recorded schedule.
  EXPECT_EQ(M.schedule(), (std::vector<ThreadId>{1, 1}));
  // The run can finish normally afterwards.
  EXPECT_EQ(M.run(), StopReason::AllHalted);
}

TEST(Machine, StepThreadRefusesBlockedThread) {
  Program P = asmProg(R"(
.lock m
.thread a
  lock @m
  unlock @m
  halt
.thread b
  lock @m
  unlock @m
  halt
)");
  Machine M(P);
  StopReason R;
  ASSERT_TRUE(M.stepThread(0, R)); // a takes the lock
  ASSERT_TRUE(M.stepThread(1, R)); // b's lock attempt blocks it
  EXPECT_EQ(M.threadState(1), ThreadState::Blocked);
  // A blocked thread cannot be single-stepped; the machine reports a
  // pause rather than silently running someone else.
  EXPECT_FALSE(M.stepThread(1, R));
  EXPECT_EQ(R, StopReason::Paused);
  // Nor can a finished one once everything halts.
  EXPECT_EQ(M.run(), StopReason::AllHalted);
  EXPECT_FALSE(M.stepThread(0, R));
}

TEST(Machine, StepThreadHonoursStepBudget) {
  Program P = asmProg(R"(
.thread t
loop:
  jmp loop
)");
  MachineConfig C;
  C.MaxSteps = 5;
  Machine M(P, C);
  StopReason R;
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(M.stepThread(0, R));
  EXPECT_FALSE(M.stepThread(0, R));
  EXPECT_EQ(R, StopReason::StepBudget);
}

//===----------------------------------------------------------------------===//
// Call / Ret and the bounded call stack
//===----------------------------------------------------------------------===//

TEST(Machine, CallRetExecutes) {
  Program P = asmProg(R"(
.thread t
  li r1, 20
  call bump
  call bump
  print r1
  halt
.proc bump
  addi r1, r1, 11
  ret
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    EXPECT_EQ(M.run(), StopReason::AllHalted);
    ASSERT_EQ(M.printed().size(), 1u);
    EXPECT_EQ(M.printed()[0].Value, 42);
    EXPECT_TRUE(M.errors().empty());
    EXPECT_TRUE(M.callStack(0).empty());
  });
}

TEST(Machine, NestedCallsUnwindInOrder) {
  Program P = asmProg(R"(
.thread t
  call outer
  print r1
  halt
.proc outer
  addi r1, r1, 1
  call inner
  addi r1, r1, 100
  ret
.proc inner
  addi r1, r1, 10
  ret
)");
  Machine M(P);
  M.run();
  ASSERT_EQ(M.printed().size(), 1u);
  EXPECT_EQ(M.printed()[0].Value, 111);
}

TEST(Machine, CallStackOverflowFaultIsContained) {
  // Unbounded recursion must fault the offending thread with a
  // classified error and leave the other thread's run untouched.
  Program P = asmProg(R"(
.thread sink
  call forever
  print r1     ; never reached
  halt
.thread bystander
  li r2, 7
  print r2
  halt
.proc forever
  call forever
  ret
)");
  onBothEngines({}, [&](const MachineConfig &Cfg) {
    Machine M(P, Cfg);
    EXPECT_EQ(M.run(), StopReason::AllHalted);
    ASSERT_EQ(M.errors().size(), 1u);
    EXPECT_NE(M.errors()[0].Message.find("call stack overflow"),
              std::string::npos);
    EXPECT_EQ(M.errors()[0].Tid, 0);
    ASSERT_EQ(M.printed().size(), 1u);
    EXPECT_EQ(M.printed()[0].Value, 7);
  });
}

TEST(Machine, CheckpointRestoreWithLiveCallStack) {
  Program P = asmProg(R"(
.thread t
  li r1, 0
  call deep
  print r1
  halt
.proc deep
  addi r1, r1, 1
  call leaf
  ret
.proc leaf
  addi r1, r1, 10
  ret
)");
  Machine M(P);
  // Step until the thread is two frames deep (inside leaf).
  StopReason R;
  while (M.callStack(0).size() < 2)
    ASSERT_TRUE(M.stepOnce(R));
  Checkpoint C = M.checkpoint();
  std::vector<uint32_t> Saved = M.callStack(0);
  ASSERT_EQ(Saved.size(), 2u);
  M.run();
  ASSERT_EQ(M.printed().size(), 1u);
  Word First = M.printed()[0].Value;
  EXPECT_EQ(First, 11);
  EXPECT_TRUE(M.callStack(0).empty());
  // Restore rewinds the stack itself, and the rerun unwinds it again.
  M.restore(C);
  EXPECT_EQ(M.callStack(0), Saved);
  EXPECT_EQ(M.run(), StopReason::AllHalted);
  ASSERT_EQ(M.printed().size(), 1u);
  EXPECT_EQ(M.printed()[0].Value, First);
}

TEST(Machine, ReplayReproducesExecutionWithCalls) {
  // The recorded schedule of a proc-structured racy run replays
  // bit-identically under a different seed.
  Program P = asmProg(R"(
.global x
.thread t x3
  li r5, 12
loop:
  call bump
  addi r5, r5, -1
  bnez r5, loop
  halt
.proc bump
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  ret
)");
  MachineConfig Cfg;
  Cfg.SchedSeed = 1234;
  Machine M1(P, Cfg);
  M1.run();
  Word Final = M1.readMem(P.addressOf("x"));

  MachineConfig Cfg2;
  Cfg2.SchedSeed = 777;
  Machine M2(P, Cfg2);
  M2.setReplaySchedule(M1.schedule());
  M2.run();
  EXPECT_EQ(M2.readMem(P.addressOf("x")), Final);
  EXPECT_EQ(M2.steps(), M1.steps());
  EXPECT_EQ(M2.schedule(), M1.schedule());
}

TEST(Machine, LargeFootprintCheckpointAndReplay) {
  // Checkpoint/restore and schedule replay stay exact on a workload
  // whose heap is orders of magnitude larger than the toy programs
  // above: a 16K-word sweep where four threads touch disjoint slabs
  // (the shadow suite's SparseSlabSweep family, scaled down).
  workloads::Workload W = workloads::sparseSlabSweep(4, 4096);
  const Addr Heap = W.Program.addressOf("heap");

  MachineConfig Cfg;
  Cfg.SchedSeed = 9;
  Cfg.MinTimeslice = 1;
  Cfg.MaxTimeslice = 4;
  Machine M1(W.Program, Cfg);

  StopReason R;
  for (int I = 0; I < 1000; ++I)
    ASSERT_TRUE(M1.stepOnce(R));
  Checkpoint C = M1.checkpoint();
  EXPECT_EQ(M1.steps(), 1000u);

  ASSERT_EQ(M1.run(), StopReason::AllHalted);
  const uint64_t Steps = M1.steps();
  const Word First = M1.readMem(Heap);
  const Word Last = M1.readMem(Heap + 4 * 4096 - 1);
  EXPECT_FALSE(W.Manifested(M1)); // slabs are disjoint: no bug to find

  // Rewinding to step 1000 and re-running reproduces the execution
  // bit-for-bit, including the untouched tail of the big heap.
  M1.restore(C);
  EXPECT_EQ(M1.steps(), 1000u);
  ASSERT_EQ(M1.run(), StopReason::AllHalted);
  EXPECT_EQ(M1.steps(), Steps);
  EXPECT_EQ(M1.readMem(Heap), First);
  EXPECT_EQ(M1.readMem(Heap + 4 * 4096 - 1), Last);

  // A fresh machine under a different seed, driven by the recorded
  // schedule, lands on the same final state.
  MachineConfig Cfg2 = Cfg;
  Cfg2.SchedSeed = 12345;
  Machine M2(W.Program, Cfg2);
  M2.setReplaySchedule(M1.schedule());
  ASSERT_EQ(M2.run(), StopReason::AllHalted);
  EXPECT_EQ(M2.steps(), Steps);
  EXPECT_EQ(M2.readMem(Heap), First);
  EXPECT_EQ(M2.readMem(Heap + 4 * 4096 - 1), Last);
}

TEST(Machine, CheckpointMidReplayRestoresReplayMode) {
  // A checkpoint taken while following a recorded schedule must restore
  // replay mode itself, not just the architectural state: a rollback
  // spanning a clearReplaySchedule otherwise resumes under the seeded
  // scheduler and silently diverges from the recording.
  Program P = asmProg(R"(
.global x
.thread t x2
  li r5, 15
loop:
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  MachineConfig Cfg;
  Cfg.SchedSeed = 4242;
  Machine M1(P, Cfg);
  M1.run();
  Word Final = M1.readMem(P.addressOf("x"));

  MachineConfig Cfg2;
  Cfg2.SchedSeed = 7; // different seed: divergence is visible if replay
                      // mode is lost across restore
  Machine M2(P, Cfg2);
  M2.setReplaySchedule(M1.schedule());
  StopReason R;
  for (int I = 0; I < 8; ++I)
    ASSERT_TRUE(M2.stepOnce(R));
  Checkpoint C = M2.checkpoint();

  // Leave replay mode and finish the run under the (different) seed.
  M2.clearReplaySchedule();
  M2.run();

  // The rollback must resume *in replay mode*, re-following the
  // recorded schedule from step 8 to the end.
  M2.restore(C);
  EXPECT_EQ(M2.run(), StopReason::AllHalted);
  EXPECT_EQ(M2.schedule(), M1.schedule());
  EXPECT_EQ(M2.steps(), M1.steps());
  EXPECT_EQ(M2.readMem(P.addressOf("x")), Final);
}

namespace {

/// Removes a configurable set of observers (possibly itself) from inside
/// its first onAlu callback.
struct RemovingObserver : ExecutionObserver {
  Machine *M = nullptr;
  std::vector<ExecutionObserver *> Victims;
  int Alus = 0;
  void onAlu(const EventCtx &) override {
    if (Alus++ == 0)
      for (ExecutionObserver *V : Victims)
        M->removeObserver(V);
  }
};

} // namespace

TEST(Machine, ObserverMayRemoveItselfDuringDispatch) {
  // An observer detaching itself mid-callback (as BER does on a
  // violation) must not disturb the fan-out: later observers still see
  // the current event, and the detached one sees nothing further.
  Program P = asmProg(R"(
.thread t
  li r1, 1
  li r2, 2
  li r3, 3
  halt
)");
  Machine M(P);
  RemovingObserver Self;
  Self.M = &M;
  Self.Victims = {&Self};
  CountingObserver After;
  M.addObserver(&Self);
  M.addObserver(&After);
  M.run();
  EXPECT_EQ(Self.Alus, 1);  // the event it detached on, nothing after
  EXPECT_EQ(After.Alus, 3); // saw every event, including the detach one
  EXPECT_EQ(After.RunEnds, 1);
}

TEST(Machine, ObserverMayRemoveOthersDuringDispatch) {
  // Removing observers before and after the running one keeps the
  // current event's fan-out exact: the earlier observer was already
  // notified, the later one must not be.
  Program P = asmProg(R"(
.thread t
  li r1, 1
  li r2, 2
  li r3, 3
  halt
)");
  Machine M(P);
  CountingObserver Before, After;
  RemovingObserver Remover;
  Remover.M = &M;
  Remover.Victims = {&Before, &After};
  M.addObserver(&Before);
  M.addObserver(&Remover);
  M.addObserver(&After);
  M.run();
  EXPECT_EQ(Before.Alus, 1); // notified before its removal, then gone
  EXPECT_EQ(Remover.Alus, 3);
  EXPECT_EQ(After.Alus, 0); // removed before its turn on the first event
}
