//===- vm/Observer.h - Execution event observation ---------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observation interface between the execution substrate and the
/// detectors. The paper attached SVD to Simics, which exposed every dynamic
/// instruction plus remote-access messages; our Machine broadcasts an
/// equivalent event stream to registered ExecutionObservers. Detectors
/// that need per-thread REMOTE_ACCESS events (online SVD, Figure 7)
/// synthesize them internally from this global stream.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_VM_OBSERVER_H
#define SVD_VM_OBSERVER_H

#include "isa/Program.h"

#include <cstdint>

namespace svd {
namespace vm {

/// Common fields of every dynamic event.
struct EventCtx {
  /// Global sequence number: the total order `<=` over dynamic statements
  /// of Section 3.1 — position in the program trace.
  uint64_t Seq = 0;
  /// Executing thread.
  isa::ThreadId Tid = 0;
  /// Processor the thread is currently bound to. Equals Tid unless the
  /// machine models an OS scheduler with fewer CPUs than threads
  /// (MachineConfig::NumCpus); detectors that "approximate threads with
  /// processors" (Section 4.3) key their state on this instead of Tid.
  uint32_t Cpu = 0;
  /// Program counter (instruction index within the thread's code).
  uint32_t Pc = 0;
  /// The executed static instruction.
  const isa::Instruction *Instr = nullptr;
  /// Pre-resolved static-analysis bits (vm/Translate.h StaticHintBits),
  /// stamped per micro-op by the translated engine; always 0 from the
  /// interpreter. Purely advisory: a detector may use them to skip its
  /// own per-event classification lookups, but only when its caller
  /// vouches that the hints were folded from the very same analysis
  /// results the detector was configured with.
  uint8_t StaticHint = 0;
};

/// Receives the dynamic event stream of an execution. All callbacks have
/// empty default implementations so observers override only what they
/// need. Events fire after the instruction's architectural effect.
///
/// Detachment contract: an observer may call Machine::removeObserver —
/// on itself or any other observer — from inside a callback (BER does
/// exactly that when a violation fires mid-run). The machine's fan-out
/// guarantees that for the current event every observer still registered
/// and not yet notified is notified exactly once; a removed observer
/// receives no further callbacks. Adding observers mid-run is not part
/// of the contract.
///
/// The trace (trace::TraceEvent) and the serve wire keep none of the
/// load/store Value, branch Taken or Target; the callbacks still pass
/// them because EngineDigestTest folds them into its translated ==
/// interpreted oracle, and the VM computes them anyway.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver();

  /// A load read \p Value from word \p A.
  virtual void onLoad(const EventCtx &Ctx, isa::Addr A, isa::Word Value);

  /// A store wrote \p Value to word \p A.
  virtual void onStore(const EventCtx &Ctx, isa::Addr A, isa::Word Value);

  /// A register-only instruction executed (ALU, li, mov, tid, rnd).
  virtual void onAlu(const EventCtx &Ctx);

  /// A control-flow instruction executed. \p Taken is always true for Jmp.
  /// \p Target is the destination when taken; the fall-through otherwise.
  virtual void onBranch(const EventCtx &Ctx, bool Taken, uint32_t Target);

  /// Mutex \p MutexId was acquired. Fires when the acquisition succeeds,
  /// not when a thread starts waiting.
  virtual void onLock(const EventCtx &Ctx, uint32_t MutexId);

  /// Mutex \p MutexId was released.
  virtual void onUnlock(const EventCtx &Ctx, uint32_t MutexId);

  /// An `assert` failed or a runtime fault occurred (e.g. out-of-range
  /// address, the analog of the MySQL segfault). \p Message outlives the
  /// callback (owned by the Program or Machine).
  virtual void onProgramError(const EventCtx &Ctx, const char *Message);

  /// A `print` recorded \p Value.
  virtual void onPrint(const EventCtx &Ctx, isa::Word Value);

  /// Thread \p Tid executed Halt (Ctx.Instr is the halt).
  virtual void onThreadFinished(const EventCtx &Ctx);

  /// The run loop is about to stop (all threads done, deadlock, or step
  /// budget reached). Detectors flush end-of-trace state here.
  virtual void onRunEnd();
};

} // namespace vm
} // namespace svd

#endif // SVD_VM_OBSERVER_H
