//===- vm/DispatchLoop.cpp - The ISA semantics and both run loops ---------===//
//
// The mini-ISA's semantics live here exactly once, in stepInstr(), and
// both engines execute through it (DESIGN.md section 16):
//
//  * the translated engine (runTranslated() and executeBurst()), the
//    VM's engine, steps decoded micro-ops out of the TransCache, running
//    whole timeslices as block-chained bursts with the register file
//    hoisted into a local;
//  * the per-step interpreter (execute(), on machines built with
//    MachineConfig::Translate off) fetches Prog.Threads[Cur].Code[Pc]
//    and steps it with a zero hint byte. It is the reference the
//    translated engine is tested against.
//
// Scheduling is shared too: runTranslated() takes every decision through
// scheduleNext() and only turns the decision into a burst length. Modes
// that consult something on every single step (replay, fault hooks, OS
// migration) run through stepOnce(), whose step is a one-step burst on a
// translated machine; so are stepThread() and runUntil().
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/StringUtils.h"
#include "vm/Machine.h"
#include "vm/Translate.h"

#include <algorithm>
#include <cassert>

using namespace svd;
using namespace svd::vm;
using isa::Addr;
using isa::Opcode;
using isa::ThreadId;
using isa::Word;
using support::formatString;

// Defined here, inline, so runTranslated() pays no call per decision.
[[gnu::always_inline]] inline bool
Machine::scheduleNext(StopReason &WhyStopped) {
  if (Steps >= Cfg.MaxSteps) {
    WhyStopped = StopReason::StepBudget;
    return false;
  }

  if (Replaying) {
    if (ReplayPos >= Replay.size()) {
      // Prefer the natural verdict when the recording covered the whole
      // run, which ended with every thread halted or with no thread
      // ready (a deadlock); Paused means the recording ended
      // mid-execution, with some thread still able to run.
      if (finished())
        WhyStopped = StopReason::AllHalted;
      else if (std::none_of(Threads.begin(), Threads.end(),
                            [](const Thread &T) {
                              return T.State == ThreadState::Ready;
                            }))
        WhyStopped = StopReason::Deadlock;
      else
        WhyStopped = StopReason::Paused;
      return false;
    }
    // A recording is untrusted input: one naming a thread that cannot
    // run here ends the run with a classified stop, never an abort.
    ThreadId Tid = Replay[ReplayPos];
    if (Tid >= Threads.size() || Threads[Tid].State != ThreadState::Ready) {
      const char *Why = Tid >= Threads.size() ? "does not exist"
                        : Threads[Tid].State == ThreadState::Blocked
                            ? "is blocked"
                            : "has halted";
      StopDiagnostic = formatString(
          "replay diverged at step %llu: the schedule names thread %u, "
          "which %s",
          static_cast<unsigned long long>(Steps), Tid, Why);
      WhyStopped = StopReason::ReplayDiverged;
      return false;
    }
    ++ReplayPos;
    CurThread = Tid;
    return true;
  }

  // Every scheduling decision consults forcePreempt — continuations,
  // fresh slice draws, and serial-mode stays alike — so a preemption
  // storm perturbs the whole schedule, not just mid-slice steps, and
  // fault.preemptions counts every slice the plan cut short. At most one
  // preemption is charged per decision: a continuation cut short below
  // falls through to a fresh draw that is not consulted again.
  bool AlreadyPreempted = false;

  // Continue the current timeslice if possible — unless an injected
  // preemption cuts it short (a fresh seeded draw happens below, so the
  // perturbation stays a pure function of the step count).
  if (SliceLeft > 0 && Threads[CurThread].State == ThreadState::Ready) {
    if (Cfg.Faults && Cfg.Faults->forcePreempt(Steps, CurThread)) {
      ++Counters.FaultPreemptions;
      SliceLeft = 0;
      AlreadyPreempted = true;
    } else {
      --SliceLeft;
      return true;
    }
  }

  // The ready list only changes when a thread blocks, wakes, or halts;
  // every such path raises ReadyStale, so steady-state decisions reuse
  // the buffer as-is.
  if (ReadyStale) {
    ReadyBuf.clear();
    for (ThreadId Tid = 0; Tid < Threads.size(); ++Tid)
      if (Threads[Tid].State == ThreadState::Ready)
        ReadyBuf.push_back(Tid);
    ReadyStale = false;
  }
  if (ReadyBuf.empty()) {
    WhyStopped = finished() ? StopReason::AllHalted : StopReason::Deadlock;
    return false;
  }

  if (Cfg.SerialMode) {
    // Stay on the current thread while it can run — unless an injected
    // preemption forces the round-robin advance early — otherwise move
    // to the next runnable thread in round-robin order.
    if (Threads[CurThread].State == ThreadState::Ready) {
      if (!AlreadyPreempted && Cfg.Faults &&
          Cfg.Faults->forcePreempt(Steps, CurThread)) {
        ++Counters.FaultPreemptions;
      } else {
        SliceLeft = 0;
        return true;
      }
    }
    for (ThreadId Off = 1; Off <= Threads.size(); ++Off) {
      // The wrap back to CurThread itself keeps a preempted thread
      // running when it is the only runnable one.
      ThreadId Tid = (CurThread + Off) % Threads.size();
      if (Threads[Tid].State == ThreadState::Ready) {
        CurThread = Tid;
        SliceLeft = 0;
        return true;
      }
    }
    SVD_UNREACHABLE("the ready list was nonempty");
  }

  CurThread = ReadyBuf[Sched.nextBelow(ReadyBounds[ReadyBuf.size() - 1])];
  SliceLeft = Cfg.MinTimeslice +
              static_cast<uint32_t>(Sched.nextBelow(SliceBound)) - 1;
  // A plan firing on the first step of a fresh slice truncates it to
  // this single step (the draw above is still taken, so the scheduler's
  // PRNG stream stays aligned with the fault-free run).
  if (!AlreadyPreempted && Cfg.Faults &&
      Cfg.Faults->forcePreempt(Steps, CurThread)) {
    ++Counters.FaultPreemptions;
    SliceLeft = 0;
  }
  return true;
}

bool Machine::stepOnce(StopReason &WhyStopped) {
  WhyStopped = StopReason::AllHalted;
  if (!scheduleNext(WhyStopped))
    return false;
  // OS-style thread migration: occasionally rebind a thread to another
  // CPU (Section 4.3's "threads may migrate from one processor to
  // another", which per-processor detectors cannot see).
  if (Cfg.NumCpus != 0 && Cfg.MigrationInterval != 0 && Steps != 0 &&
      Steps % Cfg.MigrationInterval == 0) {
    ThreadId T =
        static_cast<ThreadId>(Migration.nextBelow(Threads.size()));
    CpuBinding[T] = static_cast<uint32_t>(Migration.nextBelow(Cfg.NumCpus));
  }
  Schedule.push_back(CurThread);
  // Injected stall: the scheduled thread burns its step without
  // executing (the schedule entry above keeps replays aligned).
  if (Cfg.Faults && Cfg.Faults->stallThread(Steps, CurThread)) {
    ++Counters.FaultStalls;
    ++Steps;
    return true;
  }
  stepCurrent();
  return true;
}

bool Machine::stepThread(ThreadId Tid, StopReason &WhyStopped) {
  WhyStopped = StopReason::AllHalted;
  if (Steps >= Cfg.MaxSteps) {
    WhyStopped = StopReason::StepBudget;
    return false;
  }
  if (Tid >= Threads.size() || Threads[Tid].State != ThreadState::Ready) {
    if (!finished())
      WhyStopped = StopReason::Paused;
    return false;
  }
  CurThread = Tid;
  SliceLeft = 0; // force a fresh scheduling decision on the next stepOnce
  Schedule.push_back(CurThread);
  stepCurrent();
  return true;
}

inline void Machine::stepCurrent() {
  if (!TC) {
    execute();
    ++Steps;
    return;
  }
  // A burst records each step's schedule entry itself.
  Schedule.pop_back();
  if (Observers.empty())
    executeBurst<false>(1);
  else
    executeBurst<true>(1);
}

template <bool HasObs, typename OpT>
[[gnu::always_inline]] inline void
Machine::stepInstr(Thread &T, Word *Regs, const OpT &U, const EventCtx &Ctx) {
  const uint32_t Pc = Ctx.Pc;
  const Word A = Regs[U.Ra];
  const Word B = Regs[U.Rb];

  // Observer fan-out, erased entirely from the HasObs = false build.
  auto Notify = [&](auto &&F) {
    if constexpr (HasObs)
      notifyObservers(F);
  };
  // Register write honouring the hardwired zero register.
  auto SetReg = [&](Word V) {
    if (U.Rd != isa::ZeroReg)
      Regs[U.Rd] = V;
  };
  // Every executed instruction yields an event, so observers tracking
  // control-flow reconvergence see every pc.
  auto Next = [&] {
    ++Counters.Alu;
    Notify([&](ExecutionObserver &O) { O.onAlu(Ctx); });
    T.Pc = Pc + 1;
  };
  auto Alu = [&](Word V) {
    SetReg(V);
    Next();
  };
  auto Branch = [&](bool Taken, uint32_t Target) {
    ++Counters.Branches;
    Notify([&](ExecutionObserver &O) { O.onBranch(Ctx, Taken, Target); });
    T.Pc = Target;
  };
  // Runtime faults are contained: classified, thread halted, rest of the
  // run unaffected.
  auto Fault = [&](const std::string &Msg) {
    recordError(Ctx, Msg);
    haltThread(Ctx);
  };

  switch (U.Op) {
  case Opcode::Nop:
  case Opcode::Yield:
    return Next();

  case Opcode::Li:
    return Alu(U.Imm);
  case Opcode::Mov:
    return Alu(A);
  case Opcode::Tid:
    return Alu(Ctx.Tid);
  case Opcode::Rnd: {
    uint64_t V = T.Rnd.next();
    if (U.Imm > 0)
      V %= static_cast<uint64_t>(U.Imm);
    return Alu(static_cast<Word>(V));
  }

  case Opcode::Add:
    return Alu(A + B);
  case Opcode::Sub:
    return Alu(A - B);
  case Opcode::Mul:
    return Alu(A * B);
  case Opcode::Div:
    // INT64_MIN / -1 overflows (UB in C++); the machine defines it to
    // wrap to INT64_MIN, consistent with its wrapping Add/Mul.
    return Alu(B == 0                        ? 0
               : A == INT64_MIN && B == -1 ? INT64_MIN
                                           : A / B);
  case Opcode::Rem:
    return Alu(B == 0 || (A == INT64_MIN && B == -1) ? 0 : A % B);
  case Opcode::And:
    return Alu(A & B);
  case Opcode::Or:
    return Alu(A | B);
  case Opcode::Xor:
    return Alu(A ^ B);
  case Opcode::Shl:
    return Alu(A << (B & 63));
  case Opcode::Shr:
    return Alu(static_cast<Word>(static_cast<uint64_t>(A) >> (B & 63)));
  case Opcode::Slt:
    return Alu(A < B ? 1 : 0);
  case Opcode::Sle:
    return Alu(A <= B ? 1 : 0);
  case Opcode::Seq:
    return Alu(A == B ? 1 : 0);
  case Opcode::Sne:
    return Alu(A != B ? 1 : 0);

  case Opcode::Addi:
    return Alu(A + U.Imm);
  case Opcode::Muli:
    return Alu(A * U.Imm);
  case Opcode::Andi:
    return Alu(A & U.Imm);
  case Opcode::Slti:
    return Alu(A < U.Imm ? 1 : 0);

  case Opcode::Ld: {
    int64_t EA = A + U.Imm;
    if (EA < 0 || EA >= static_cast<int64_t>(Memory.size()))
      return Fault(formatString("fault: load from out-of-range address %lld",
                                static_cast<long long>(EA)));
    Word V = Memory[static_cast<Addr>(EA)];
    SetReg(V);
    ++Counters.Loads;
    Notify([&](ExecutionObserver &O) {
      O.onLoad(Ctx, static_cast<Addr>(EA), V);
    });
    T.Pc = Pc + 1;
    return;
  }
  case Opcode::St: {
    int64_t EA = A + U.Imm;
    if (EA < 0 || EA >= static_cast<int64_t>(Memory.size()))
      return Fault(formatString("fault: store to out-of-range address %lld",
                                static_cast<long long>(EA)));
    Memory[static_cast<Addr>(EA)] = B;
    ++Counters.Stores;
    Notify([&](ExecutionObserver &O) {
      O.onStore(Ctx, static_cast<Addr>(EA), B);
    });
    T.Pc = Pc + 1;
    return;
  }

  case Opcode::Cas: {
    // The address is always absolute (validated); A holds the expected
    // value, B the replacement.
    Addr EA = static_cast<Addr>(U.Imm);
    Word Cur = Memory[EA];
    ++Counters.Loads;
    Notify([&](ExecutionObserver &O) { O.onLoad(Ctx, EA, Cur); });
    if (Cur == A) {
      Memory[EA] = B;
      SetReg(1);
      ++Counters.Stores;
      Notify([&](ExecutionObserver &O) { O.onStore(Ctx, EA, B); });
    } else {
      SetReg(0);
    }
    T.Pc = Pc + 1;
    return;
  }

  case Opcode::Beqz:
  case Opcode::Bnez: {
    bool Taken = (U.Op == Opcode::Beqz) ? (A == 0) : (A != 0);
    return Branch(Taken, Taken ? static_cast<uint32_t>(U.Imm) : Pc + 1);
  }
  case Opcode::Jmp:
    return Branch(true, static_cast<uint32_t>(U.Imm));
  case Opcode::Call:
    if (T.CallStack.size() >= CallStackLimit)
      return Fault(formatString("fault: call stack overflow (depth limit %u)",
                                CallStackLimit));
    // The return address Pc+1 is always in range: validation guarantees
    // a Call is never a thread's last instruction.
    T.CallStack.push_back(Pc + 1);
    return Branch(true, static_cast<uint32_t>(U.Imm));
  case Opcode::Ret: {
    if (T.CallStack.empty())
      return Fault("fault: ret with an empty call stack");
    uint32_t Target = T.CallStack.back();
    T.CallStack.pop_back();
    return Branch(true, Target);
  }

  case Opcode::Lock: {
    uint32_t M = static_cast<uint32_t>(U.Imm);
    int32_t Owner = MutexOwner[M];
    if (Owner == static_cast<int32_t>(Ctx.Tid))
      return Fault(formatString("fault: recursive lock of mutex '%s'",
                                Prog.Mutexes[M].c_str()));
    if (Owner >= 0) {
      // Contended: block; the step is consumed (a spin on the lock).
      ++Counters.LockSpins;
      T.State = ThreadState::Blocked;
      ReadyStale = true;
      MutexWaiters[M].push_back(Ctx.Tid);
      return;
    }
    if (Cfg.Faults && Cfg.Faults->failLockAcquire(Ctx.Seq, Ctx.Tid, M)) {
      // Spurious acquire failure: the step is consumed, the pc does not
      // advance, and the thread stays Ready to retry (no owner exists
      // to wake it from the wait queue).
      ++Counters.FaultLockFailures;
      return;
    }
    MutexOwner[M] = static_cast<int32_t>(Ctx.Tid);
    ++Counters.LockAcquires;
    Notify([&](ExecutionObserver &O) { O.onLock(Ctx, M); });
    T.Pc = Pc + 1;
    return;
  }
  case Opcode::Unlock: {
    uint32_t M = static_cast<uint32_t>(U.Imm);
    if (MutexOwner[M] != static_cast<int32_t>(Ctx.Tid))
      return Fault(formatString("fault: unlock of mutex '%s' not held by "
                                "thread %u",
                                Prog.Mutexes[M].c_str(), Ctx.Tid));
    MutexOwner[M] = -1;
    // Wake all waiters; they re-attempt the lock when next scheduled.
    if (!MutexWaiters[M].empty()) {
      for (ThreadId W : MutexWaiters[M])
        if (Threads[W].State == ThreadState::Blocked)
          Threads[W].State = ThreadState::Ready;
      MutexWaiters[M].clear();
      ReadyStale = true;
    }
    ++Counters.Unlocks;
    Notify([&](ExecutionObserver &O) { O.onUnlock(Ctx, M); });
    T.Pc = Pc + 1;
    return;
  }

  case Opcode::Assert:
    if (A == 0)
      return Fault(Prog.Messages[static_cast<size_t>(U.Imm)]);
    return Next();
  case Opcode::Print:
    Prints.push_back({Ctx.Seq, Ctx.Tid, A});
    ++Counters.Alu;
    Notify([&](ExecutionObserver &O) { O.onAlu(Ctx); });
    Notify([&](ExecutionObserver &O) { O.onPrint(Ctx, A); });
    T.Pc = Pc + 1;
    return;

  case Opcode::Halt:
    return haltThread(Ctx);
  }
  SVD_UNREACHABLE("unhandled opcode");
}

void Machine::execute() {
  Thread &T = Threads[CurThread];
  assert(T.State == ThreadState::Ready && "scheduled a non-ready thread");
  const isa::Instruction &I = Prog.Threads[CurThread].Code[T.Pc];
  stepInstr<true>(T, T.Regs.data(), I,
                  EventCtx{.Seq = Steps,
                           .Tid = CurThread,
                           .Cpu = CpuBinding[CurThread],
                           .Pc = T.Pc,
                           .Instr = &I});
}

StopReason Machine::runTranslated() {
  assert(TC && "runTranslated without a translation cache");
  StopReason R = StopReason::AllHalted;
  for (;;) {
    // Per-step-consultation modes take single steps. Replay can end
    // mid-run via clearReplaySchedule, so this is checked every
    // iteration, not just on entry.
    if (Replaying || Cfg.Faults ||
        (Cfg.NumCpus != 0 && Cfg.MigrationInterval != 0)) {
      if (!stepOnce(R))
        return R;
      continue;
    }
    if (!scheduleNext(R))
      return R;

    // The decision covers this step; grant the rest of it as one burst.
    // A fresh slice of SliceLeft = S runs S + 1 steps, and a continuation
    // (decremented to L - 1) runs its remaining L. A serial decision
    // (SliceLeft pinned at 0) stays on the thread until it blocks or
    // halts, so the whole stretch is one burst.
    bool Serial = Cfg.SerialMode && SliceLeft == 0;
    uint64_t Grant = Serial ? Cfg.MaxSteps - Steps
                            : static_cast<uint64_t>(SliceLeft) + 1;
    uint64_t Budget = std::min(Grant, Cfg.MaxSteps - Steps);
    uint64_t N = Observers.empty() ? executeBurst<false>(Budget)
                                   : executeBurst<true>(Budget);
    // The interpreter decrements once per continuation step; a burst
    // cut short by MaxSteps keeps the decrements it did not consume.
    if (!Serial)
      SliceLeft = static_cast<uint32_t>(Grant - N);
  }
}

template <bool HasObs> uint64_t Machine::executeBurst(uint64_t Budget) {
  Thread &T = Threads[CurThread];
  assert(T.State == ThreadState::Ready && "burst on a non-ready thread");
  const TransCache::ThreadTrans &TT = TC->thread(CurThread);
  const MicroOp *Ops = TT.Ops.data();
  const TransBlock *Blocks = TT.Blocks.data();
  const uint32_t *BlockOf = TT.BlockOf.data();
  const TransBlock *B = Blocks + BlockOf[T.Pc];
  uint32_t EndPc = B->StartPc + B->NumOps;
  Word *Regs = T.Regs.data();
  EventCtx Ctx;
  Ctx.Tid = CurThread;
  Ctx.Cpu = CpuBinding[CurThread];
  uint64_t N = 0;

  while (N < Budget) {
    const uint32_t Pc = T.Pc;
    const MicroOp &U = Ops[Pc];
    Schedule.push_back(CurThread);
    Ctx.Seq = Steps;
    Ctx.Pc = Pc;
    Ctx.Instr = U.Instr;
    Ctx.StaticHint = U.Hints;
    stepInstr<HasObs>(T, Regs, U, Ctx);
    ++Steps;
    ++N;

    if (T.State != ThreadState::Ready)
      break;

    // Advance along the block, or chain to the next one. The map lookup
    // is only needed for dynamic targets (Ret); static edges use the
    // block handles resolved at translation time.
    uint32_t NewPc = T.Pc;
    if (NewPc != Pc + 1 || NewPc == EndPc) {
      if (NewPc == B->TakenPc)
        B = Blocks + B->TakenBlock;
      else if (NewPc == EndPc)
        B = Blocks + B->FallBlock;
      else
        B = Blocks + BlockOf[NewPc];
      EndPc = B->StartPc + B->NumOps;
    }
  }
  return N;
}
