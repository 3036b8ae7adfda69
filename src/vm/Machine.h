//===- vm/Machine.h - Multithreaded interpreter ------------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate replacing the paper's Simics/SPARC setup: a
/// deterministic multithreaded interpreter for the mini ISA. Key
/// properties mirrored from the paper's methodology (Section 6.1):
///
///  * **Deterministic replay.** The interleaving is a pure function of the
///    scheduler seed; replaying a seed (or an explicitly recorded
///    schedule) reproduces the execution bit-for-bit.
///  * **Non-perturbation.** Observers receive the event stream but cannot
///    affect execution.
///  * **Checkpoints.** The full machine state can be snapshotted and
///    restored, which the BER module uses for detector-triggered rollback
///    (the ReVive/SafetyNet role).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_VM_MACHINE_H
#define SVD_VM_MACHINE_H

#include "isa/Program.h"
#include "support/Rng.h"
#include "vm/FaultHooks.h"
#include "vm/Observer.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace svd {
namespace obs {
class Registry;
} // namespace obs

namespace vm {

class TransCache;

/// Why a run loop stopped.
enum class StopReason : uint8_t {
  AllHalted,   ///< every thread executed Halt
  Deadlock,    ///< all live threads are blocked on mutexes
  StepBudget,  ///< MaxSteps reached
  Paused,      ///< runUntil() predicate asked to stop
  /// A replay schedule named a thread that cannot run at that step (see
  /// Machine::stopDiagnostic()); recordings are untrusted input.
  ReplayDiverged,
};

/// Bound on each thread's call stack; a Call that would exceed it is a
/// classified program error that halts the thread (the VM's analog of
/// stack-overflow containment, so runaway recursion cannot hang a run).
inline constexpr uint32_t CallStackLimit = 256;

/// Scheduling and input parameters of one execution.
struct MachineConfig {
  /// Seed of the scheduler's PRNG; fully determines the interleaving.
  uint64_t SchedSeed = 1;
  /// Seed of the `rnd` instruction streams (one derived stream per
  /// thread, so program inputs do not depend on scheduling).
  uint64_t RndSeed = 2;
  /// Upper bound on executed instructions (safety net for buggy loops).
  uint64_t MaxSteps = 50'000'000;
  /// Timeslice length is drawn uniformly from [MinTimeslice,
  /// MaxTimeslice] each time a thread is scheduled. 1/1 interleaves every
  /// instruction; larger slices model coarser preemption like the paper's
  /// 4-CPU SMP.
  uint32_t MinTimeslice = 1;
  uint32_t MaxTimeslice = 1;
  /// When true, the scheduler runs one thread until it blocks or halts
  /// before switching ("more serially", the paper's BER re-execution
  /// mode, Section 1.1).
  bool SerialMode = false;
  /// Number of processors the OS multiplexes threads onto. 0 (default)
  /// pins thread T to CPU T (the paper's evaluation setup). With a
  /// nonzero count, threads are bound round-robin and occasionally
  /// migrate (see MigrationInterval); EventCtx::Cpu reports the binding.
  uint32_t NumCpus = 0;
  /// Steps between randomized thread-to-CPU migrations (only with
  /// NumCpus != 0). 0 disables migration.
  uint64_t MigrationInterval = 0;
  /// Deterministic fault-injection hooks (vm/FaultHooks.h); null runs
  /// fault-free. Not owned; must outlive the machine. Hook answers are
  /// pure functions of their arguments, so checkpoint/restore replays
  /// re-inject identical faults.
  const FaultHooks *Faults = nullptr;
  /// Execute through the decode-once translation cache (vm/Translate.h,
  /// DESIGN.md section 16), the VM's engine. False selects per-step
  /// fetch, kept only as the reference the engine is checked against
  /// (tests/TranslateDiffTest.cpp, tests/EngineDigestTest.cpp). Both run
  /// the same instruction step and scheduling decision, so the schedule,
  /// events, counters, and checkpoints are identical.
  bool Translate = true;
  /// Optional pre-built translation cache to execute from (not owned;
  /// must be built over the same Program and outlive the machine).
  /// Null with Translate set makes the machine build its own. Sharing
  /// one cache folds static-analysis hints in once and reuses the
  /// decoded blocks across seeds; perfbench and
  /// tests/TranslateDiffTest.cpp are its only setters.
  const TransCache *Cache = nullptr;
};

/// Always-on execution counters, maintained by the interpreter at event
/// granularity (plain field increments on paths that already branch per
/// opcode, so the cost is noise). All values are deterministic: they
/// are pure functions of (program, MachineConfig), independent of
/// wall-clock time and host scheduling.
struct ExecCounters {
  uint64_t Loads = 0;         ///< load events (Ld + the Cas read)
  uint64_t Stores = 0;        ///< store events (St + successful Cas)
  uint64_t Alu = 0;           ///< register-only instructions
  uint64_t Branches = 0;      ///< Beqz/Bnez/Jmp/Call/Ret
  uint64_t LockAcquires = 0;  ///< successful mutex acquisitions
  uint64_t LockSpins = 0;     ///< steps burned blocking on a held mutex
  uint64_t Unlocks = 0;       ///< mutex releases
  uint64_t ProgramErrors = 0; ///< failed asserts and runtime faults
  // Injected-fault effects (zero unless MachineConfig::Faults is set).
  uint64_t FaultStalls = 0;       ///< steps burned by injected stalls
  uint64_t FaultLockFailures = 0; ///< spurious acquire failures
  uint64_t FaultPreemptions = 0;  ///< timeslices cut short
};

/// One recorded program error (failed assert or runtime fault).
struct ProgramError {
  uint64_t Seq = 0;
  isa::ThreadId Tid = 0;
  uint32_t Pc = 0;
  std::string Message;
};

/// A value recorded by `print`.
struct PrintedValue {
  uint64_t Seq = 0;
  isa::ThreadId Tid = 0;
  isa::Word Value = 0;
};

/// Execution state of one thread.
enum class ThreadState : uint8_t { Ready, Blocked, Halted };

/// Snapshot of all mutable machine state; see Machine::checkpoint().
struct Checkpoint {
  struct ThreadSnap {
    uint32_t Pc = 0;
    ThreadState State = ThreadState::Ready;
    std::vector<isa::Word> Regs;
    std::vector<uint32_t> CallStack;
    support::Xoshiro256 Rnd{0};
  };
  std::vector<isa::Word> Memory;
  std::vector<ThreadSnap> Threads;
  /// Owner per mutex (-1 == free) and FIFO wait queues.
  std::vector<int32_t> MutexOwner;
  std::vector<std::vector<isa::ThreadId>> MutexWaiters;
  support::Xoshiro256 Sched{0};
  support::Xoshiro256 Migration{0};
  std::vector<uint32_t> CpuBinding;
  uint64_t Steps = 0;
  ExecCounters Counters;
  isa::ThreadId CurThread = 0;
  uint32_t SliceLeft = 0;
  size_t NumErrors = 0;
  size_t NumPrints = 0;
  size_t ScheduleLen = 0;
  /// Replay-mode state. A checkpoint taken mid-replay must restore the
  /// recorded schedule *and* the fact that the machine was following it:
  /// a rollback spanning a setReplaySchedule/clearReplaySchedule
  /// transition otherwise resumes in the wrong scheduling mode.
  std::vector<isa::ThreadId> Replay;
  size_t ReplayPos = 0;
  bool Replaying = false;
};

/// The interpreter.
class Machine {
public:
  /// Creates a machine over \p P (which must outlive the machine).
  /// Aborts if the program fails validation.
  explicit Machine(const isa::Program &P, MachineConfig Cfg = MachineConfig());
  ~Machine(); // out-of-line: OwnedCache's deleter needs TransCache complete

  /// Registers \p O to receive the event stream (not owned). Observers
  /// fire in registration order.
  void addObserver(ExecutionObserver *O);

  /// Removes a previously registered observer. Safe to call from inside
  /// an observer callback — including an observer detaching itself —
  /// the current event's fan-out continues over the remaining observers
  /// (see the contract note in Observer.h).
  void removeObserver(ExecutionObserver *O);

  /// Runs until all threads halt, deadlock, or the step budget expires.
  StopReason run();

  /// Runs, additionally stopping (with StopReason::Paused) as soon as
  /// \p ShouldPause returns true after a step.
  template <typename Pred> StopReason runUntil(Pred ShouldPause) {
    for (;;) {
      StopReason R = StopReason::AllHalted;
      if (!stepOnce(R))
        return R;
      if (ShouldPause())
        return StopReason::Paused;
    }
  }

  /// Executes one instruction of the next scheduled thread. Returns false
  /// (setting \p WhyStopped) when no step can be taken.
  bool stepOnce(StopReason &WhyStopped);

  /// Executes one instruction of \p Tid regardless of the scheduler — the
  /// directed-schedule hook of the confirmation engine (predict/Confirm.h).
  /// \p Tid must be Ready; returns false otherwise (WhyStopped is Paused
  /// when other threads could still run, else the natural verdict). The
  /// choice is recorded in schedule(), so a directed run replays like any
  /// other. Note a step into a contended Lock returns true but leaves the
  /// thread Blocked (the step is consumed spinning, as under stepOnce).
  bool stepThread(isa::ThreadId Tid, StopReason &WhyStopped);

  // --- state inspection -------------------------------------------------
  const isa::Program &program() const { return Prog; }
  uint64_t steps() const { return Steps; }
  /// Deterministic per-run event counts (see ExecCounters).
  const ExecCounters &counters() const { return Counters; }
  /// Adds this run's counters (instructions, loads, stores, ...) to
  /// \p R under the "vm." prefix — the Machine half of the obs layer
  /// (obs/Obs.h). Typically called once after run(); safe to share one
  /// registry across machines running on different threads.
  void exportStats(obs::Registry &R) const;
  bool finished() const;
  ThreadState threadState(isa::ThreadId Tid) const {
    return Threads[Tid].State;
  }
  /// Next pc of \p Tid (the instruction it will execute when scheduled).
  uint32_t threadPc(isa::ThreadId Tid) const { return Threads[Tid].Pc; }
  isa::Word readMem(isa::Addr A) const { return Memory[A]; }
  void pokeMem(isa::Addr A, isa::Word V) { Memory[A] = V; }
  isa::Word readReg(isa::ThreadId Tid, isa::Reg R) const {
    return Threads[Tid].Regs[R];
  }
  /// Return addresses of \p Tid, innermost last; empty outside any call.
  const std::vector<uint32_t> &callStack(isa::ThreadId Tid) const {
    return Threads[Tid].CallStack;
  }
  const std::vector<ProgramError> &errors() const { return Errors; }
  const std::vector<PrintedValue> &printed() const { return Prints; }

  // --- deterministic replay ----------------------------------------------
  /// The sequence of thread choices made so far (one entry per step).
  const std::vector<isa::ThreadId> &schedule() const { return Schedule; }

  /// Replays \p S: the scheduler follows the recorded choices instead of
  /// drawing random ones, then stops scheduling (run() returns). Must be
  /// set before the first step. A choice naming a thread that is not
  /// Ready at its step stops the run with StopReason::ReplayDiverged.
  void setReplaySchedule(std::vector<isa::ThreadId> S);

  /// Leaves replay mode; subsequent steps use the seeded scheduler.
  /// Useful to drive a specific interleaving prefix and then finish the
  /// run normally.
  void clearReplaySchedule() { Replaying = false; }

  /// Why the last run stopped with StopReason::ReplayDiverged: the step
  /// and the thread the schedule named. Empty otherwise.
  const std::string &stopDiagnostic() const { return StopDiagnostic; }

  // --- checkpoints (BER substrate) ----------------------------------------
  /// Snapshots all mutable state.
  Checkpoint checkpoint() const;

  /// Restores \p C. Errors/prints/schedule recorded after the checkpoint
  /// are discarded. Observers are not rewound; BER re-attaches fresh
  /// detector state after a rollback, as hardware BER would.
  void restore(const Checkpoint &C);

  /// Switches scheduling mode mid-run (used by BER to re-execute the
  /// rolled-back region serially, then resume normal scheduling).
  void setSerialMode(bool Serial) { Cfg.SerialMode = Serial; }

  /// Notifies observers that observation ended (idempotent per run).
  void notifyRunEnd();

private:
  struct Thread {
    uint32_t Pc = 0;
    ThreadState State = ThreadState::Ready;
    std::vector<isa::Word> Regs;
    /// Return addresses pushed by Call, bounded by CallStackLimit.
    std::vector<uint32_t> CallStack;
    support::Xoshiro256 Rnd{0};
  };

  /// The one scheduling decision of both engines: picks the thread for
  /// the next step and updates SliceLeft; returns false (setting
  /// \p WhyStopped) on completion, deadlock, budget, or replay end.
  bool scheduleNext(StopReason &WhyStopped);
  /// Executes one instruction of CurThread and counts the step, whose
  /// schedule entry the caller has recorded: one executeBurst() step
  /// when the machine has a translation cache, else execute().
  void stepCurrent();
  /// The per-step interpreter's step: fetches Threads[CurThread]'s
  /// instruction from the program and runs it through stepInstr() with
  /// a zero hint.
  void execute();
  /// The ISA semantics, defined once (vm/DispatchLoop.cpp): executes
  /// \p U — an isa::Instruction or a decoded vm::MicroOp — as thread
  /// \p T's instruction at event context \p Ctx, with \p Regs hoisted
  /// from T.Regs. Marks the ready list stale on block, wake, and halt.
  template <bool HasObs, typename OpT>
  void stepInstr(Thread &T, isa::Word *Regs, const OpT &U,
                 const EventCtx &Ctx);
  /// run() body when executing through the translation cache
  /// (vm/DispatchLoop.cpp): takes every decision through scheduleNext()
  /// and runs the steps it grants as one executeBurst().
  StopReason runTranslated();
  /// Executes up to \p Budget translated micro-ops of CurThread through
  /// stepInstr(), chaining blocks, and stopping early when the thread
  /// leaves the Ready state. Returns the number of steps executed.
  /// Compiled twice: the HasObs = false instantiation drops every
  /// observer fan-out at compile time, so bare machines (the harness's
  /// overhead baseline) pay nothing for observability.
  template <bool HasObs> uint64_t executeBurst(uint64_t Budget);
  void recordError(const EventCtx &Ctx, const std::string &Msg);
  void haltThread(const EventCtx &Ctx);
  /// Fans an event out to every registered observer via the member
  /// cursor, so removeObserver() from inside a callback (an observer
  /// detaching itself, as BER does on violation) cannot skip a sibling
  /// or walk off the list.
  template <typename Fn> void notifyObservers(Fn &&F) {
    ptrdiff_t Saved = NotifyCursor;
    for (NotifyCursor = 0;
         NotifyCursor < static_cast<ptrdiff_t>(Observers.size());
         ++NotifyCursor)
      F(*Observers[static_cast<size_t>(NotifyCursor)]);
    NotifyCursor = Saved;
  }

  const isa::Program &Prog;
  MachineConfig Cfg;
  std::vector<isa::Word> Memory;
  std::vector<Thread> Threads;
  std::vector<int32_t> MutexOwner;
  std::vector<std::vector<isa::ThreadId>> MutexWaiters;
  support::Xoshiro256 Sched;
  /// Separate stream for thread migrations so replayed runs (which skip
  /// the scheduler's draws) migrate identically.
  support::Xoshiro256 Migration{0};
  /// Current thread-to-CPU binding (identity when NumCpus == 0).
  std::vector<uint32_t> CpuBinding;
  uint64_t Steps = 0;
  ExecCounters Counters;
  isa::ThreadId CurThread = 0;
  uint32_t SliceLeft = 0;
  std::vector<ProgramError> Errors;
  std::vector<PrintedValue> Prints;
  std::vector<isa::ThreadId> Schedule;
  std::vector<isa::ThreadId> Replay;
  size_t ReplayPos = 0;
  bool Replaying = false;
  bool RunEndNotified = false;
  std::vector<ExecutionObserver *> Observers;
  /// Index of the observer currently being notified (-1 outside
  /// dispatch); removeObserver() adjusts it so in-callback removal of
  /// any observer keeps the fan-out loop consistent.
  ptrdiff_t NotifyCursor = -1;
  /// Set with StopReason::ReplayDiverged; see stopDiagnostic().
  std::string StopDiagnostic;
  /// Translation-cache execution state (null when Cfg.Translate is off).
  const TransCache *TC = nullptr;
  std::unique_ptr<TransCache> OwnedCache;
  /// Ready-thread ids in ascending order, reused across scheduleNext()
  /// decisions. Valid only while ReadyStale is false; every path that
  /// changes any thread's state (stepInstr() on block, wake, and halt;
  /// restore()) marks it stale and the next decision rebuilds it.
  std::vector<isa::ThreadId> ReadyBuf;
  bool ReadyStale = true;
  /// The scheduler's draw bounds, built once at construction so no
  /// decision divides: ReadyBounds[K - 1] draws among K ready threads,
  /// SliceBound draws the timeslice length in [MinTimeslice,
  /// MaxTimeslice].
  std::vector<support::DrawBound> ReadyBounds;
  support::DrawBound SliceBound{1};
};

} // namespace vm
} // namespace svd

#endif // SVD_VM_MACHINE_H
