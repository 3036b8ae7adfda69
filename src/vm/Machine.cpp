//===- vm/Machine.cpp -----------------------------------------------------===//

#include "vm/Machine.h"

#include "obs/Obs.h"
#include "vm/Translate.h"
#include "support/Error.h"

using namespace svd;
using namespace svd::vm;
using isa::Addr;
using isa::ThreadId;
using isa::Word;

FaultHooks::~FaultHooks() = default;

ExecutionObserver::~ExecutionObserver() = default;
void ExecutionObserver::onLoad(const EventCtx &, Addr, Word) {}
void ExecutionObserver::onStore(const EventCtx &, Addr, Word) {}
void ExecutionObserver::onAlu(const EventCtx &) {}
void ExecutionObserver::onBranch(const EventCtx &, bool, uint32_t) {}
void ExecutionObserver::onLock(const EventCtx &, uint32_t) {}
void ExecutionObserver::onUnlock(const EventCtx &, uint32_t) {}
void ExecutionObserver::onProgramError(const EventCtx &, const char *) {}
void ExecutionObserver::onPrint(const EventCtx &, Word) {}
void ExecutionObserver::onThreadFinished(const EventCtx &) {}
void ExecutionObserver::onRunEnd() {}

Machine::Machine(const isa::Program &P, MachineConfig Cfg)
    : Prog(P), Cfg(Cfg), Sched(Cfg.SchedSeed) {
  std::string Problem = P.validate();
  if (!Problem.empty())
    support::fatalError("invalid program: " + Problem);
  if (Cfg.MinTimeslice == 0 || Cfg.MaxTimeslice < Cfg.MinTimeslice)
    support::fatalError("invalid timeslice configuration");

  Memory.assign(P.MemoryWords, 0);
  Threads.resize(P.numThreads());
  for (ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    Threads[Tid].Regs.assign(isa::NumRegs, 0);
    // Derived per-thread input streams: program inputs are independent of
    // scheduling, so BER re-execution sees the same inputs.
    Threads[Tid].Rnd = support::Xoshiro256(
        Cfg.RndSeed + 0x9E3779B97F4A7C15ULL * (Tid + 1));
  }
  MutexOwner.assign(P.Mutexes.size(), -1);
  MutexWaiters.resize(P.Mutexes.size());

  Migration = support::Xoshiro256(Cfg.SchedSeed ^ 0x5DEECE66DULL);
  CpuBinding.resize(P.numThreads());
  for (ThreadId Tid = 0; Tid < P.numThreads(); ++Tid)
    CpuBinding[Tid] = Cfg.NumCpus ? Tid % Cfg.NumCpus : Tid;

  if (Cfg.Translate) {
    if (Cfg.Cache) {
      if (&Cfg.Cache->program() != &P)
        support::fatalError("translation cache built over a different "
                            "program");
      TC = Cfg.Cache;
    } else {
      OwnedCache = std::make_unique<TransCache>(P);
      TC = OwnedCache.get();
    }
  }
}

Machine::~Machine() = default;

void Machine::addObserver(ExecutionObserver *O) { Observers.push_back(O); }

void Machine::removeObserver(ExecutionObserver *O) {
  // Removal must stay valid while an event is being fanned out: keep the
  // dispatch cursor pointing at the element it has already delivered, so
  // removing an observer at or before it cannot skip the next one, and
  // removing one after it simply shortens the loop.
  for (size_t I = 0; I < Observers.size();) {
    if (Observers[I] != O) {
      ++I;
      continue;
    }
    Observers.erase(Observers.begin() + static_cast<ptrdiff_t>(I));
    if (static_cast<ptrdiff_t>(I) <= NotifyCursor)
      --NotifyCursor;
  }
}

bool Machine::finished() const {
  for (const Thread &T : Threads)
    if (T.State != ThreadState::Halted)
      return false;
  return true;
}

StopReason Machine::run() {
  StopReason R = StopReason::AllHalted;
  if (TC) {
    R = runTranslated();
  } else {
    while (stepOnce(R)) {
    }
  }
  if (R != StopReason::Paused)
    notifyRunEnd();
  return R;
}

void Machine::notifyRunEnd() {
  if (RunEndNotified)
    return;
  RunEndNotified = true;
  notifyObservers([](ExecutionObserver &O) { O.onRunEnd(); });
}

void Machine::exportStats(obs::Registry &R) const {
  R.counter("vm.instructions").add(Steps);
  R.counter("vm.loads").add(Counters.Loads);
  R.counter("vm.stores").add(Counters.Stores);
  R.counter("vm.alu").add(Counters.Alu);
  R.counter("vm.branches").add(Counters.Branches);
  R.counter("vm.lock_acquires").add(Counters.LockAcquires);
  R.counter("vm.lock_spins").add(Counters.LockSpins);
  R.counter("vm.unlocks").add(Counters.Unlocks);
  R.counter("vm.program_errors").add(Counters.ProgramErrors);
  // fault.* appears only for machines with hooks attached, so fault-free
  // suites keep their pinned counter sets byte-identical.
  if (Cfg.Faults) {
    R.counter("fault.stalls").add(Counters.FaultStalls);
    R.counter("fault.lock_failures").add(Counters.FaultLockFailures);
    R.counter("fault.preemptions").add(Counters.FaultPreemptions);
  }
}

void Machine::recordError(const EventCtx &Ctx, const std::string &Msg) {
  ++Counters.ProgramErrors;
  Errors.push_back({Ctx.Seq, Ctx.Tid, Ctx.Pc, Msg});
  notifyObservers([&](ExecutionObserver &O) {
    O.onProgramError(Ctx, Errors.back().Message.c_str());
  });
}

void Machine::haltThread(const EventCtx &Ctx) {
  Threads[Ctx.Tid].State = ThreadState::Halted;
  ReadyStale = true;
  notifyObservers([&](ExecutionObserver &O) { O.onThreadFinished(Ctx); });
}

void Machine::setReplaySchedule(std::vector<ThreadId> S) {
  if (Steps != 0)
    support::fatalError("replay schedule must be set before execution");
  Replay = std::move(S);
  ReplayPos = 0;
  Replaying = true;
}

Checkpoint Machine::checkpoint() const {
  Checkpoint C;
  C.Memory = Memory;
  C.Threads.resize(Threads.size());
  for (size_t I = 0; I < Threads.size(); ++I) {
    C.Threads[I].Pc = Threads[I].Pc;
    C.Threads[I].State = Threads[I].State;
    C.Threads[I].Regs = Threads[I].Regs;
    C.Threads[I].CallStack = Threads[I].CallStack;
    C.Threads[I].Rnd = Threads[I].Rnd;
  }
  C.MutexOwner = MutexOwner;
  C.MutexWaiters = MutexWaiters;
  C.Sched = Sched;
  C.Migration = Migration;
  C.CpuBinding = CpuBinding;
  C.Steps = Steps;
  C.Counters = Counters;
  C.CurThread = CurThread;
  C.SliceLeft = SliceLeft;
  C.NumErrors = Errors.size();
  C.NumPrints = Prints.size();
  C.ScheduleLen = Schedule.size();
  C.Replay = Replay;
  C.ReplayPos = ReplayPos;
  C.Replaying = Replaying;
  return C;
}

void Machine::restore(const Checkpoint &C) {
  ReadyStale = true;
  Memory = C.Memory;
  for (size_t I = 0; I < Threads.size(); ++I) {
    Threads[I].Pc = C.Threads[I].Pc;
    Threads[I].State = C.Threads[I].State;
    Threads[I].Regs = C.Threads[I].Regs;
    Threads[I].CallStack = C.Threads[I].CallStack;
    Threads[I].Rnd = C.Threads[I].Rnd;
  }
  MutexOwner = C.MutexOwner;
  MutexWaiters = C.MutexWaiters;
  Sched = C.Sched;
  Migration = C.Migration;
  CpuBinding = C.CpuBinding;
  Steps = C.Steps;
  Counters = C.Counters;
  CurThread = C.CurThread;
  SliceLeft = C.SliceLeft;
  Errors.resize(C.NumErrors);
  Prints.resize(C.NumPrints);
  Schedule.resize(C.ScheduleLen);
  // Replay state is part of the snapshot: a rollback taken across a
  // setReplaySchedule/clearReplaySchedule transition must resume in the
  // scheduling mode that was active at the checkpoint, following the
  // same recording from the same position.
  Replay = C.Replay;
  ReplayPos = C.ReplayPos;
  Replaying = C.Replaying;
  StopDiagnostic.clear();
  RunEndNotified = false;
}
