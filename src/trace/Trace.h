//===- trace/Trace.h - Program traces --------------------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program trace of Section 3.1: the sequence of all dynamic
/// statements executed by all threads, in execution order (the total
/// order `<=`). TraceRecorder captures it from a running Machine; the
/// offline algorithms (d-PDG construction, Figure 5/6) consume it.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_TRACE_TRACE_H
#define SVD_TRACE_TRACE_H

#include "isa/Program.h"
#include "vm/Observer.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace svd {
namespace trace {

/// Discriminates dynamic events in a trace.
enum class EventKind : uint8_t {
  Load,
  Store,
  Alu,
  Branch,
  Lock,
  Unlock,
  ThreadEnd,
};

/// One dynamic statement (or synchronization operation) of the trace.
/// It carries only what a verdict reads: thread, pc, kind, address and
/// lock, in trace order. The value a load or store moved and a branch's
/// outcome are not kept; a branch's direction shows in the pc of its
/// thread's next event.
struct TraceEvent {
  uint64_t Seq = 0;  ///< position in the total order
  isa::ThreadId Tid = 0;
  uint32_t Pc = 0;
  const isa::Instruction *Instr = nullptr;
  EventKind Kind = EventKind::Alu;
  isa::Addr Address = 0;  ///< Load/Store: the accessed word
  uint32_t MutexId = 0;   ///< Lock/Unlock

  bool isMemory() const {
    return Kind == EventKind::Load || Kind == EventKind::Store;
  }
};

/// A recorded execution: all events in execution order.
class ProgramTrace {
public:
  explicit ProgramTrace(const isa::Program &P) : Prog(&P) {}

  const isa::Program &program() const { return *Prog; }

  /// Rebinds the trace to \p P and drops every event and the lazy
  /// shared-address cache, keeping the buffers' capacity for reuse.
  void reset(const isa::Program &P);

  /// Appends \p E; events must arrive in nondecreasing Seq order.
  void append(const TraceEvent &E);

  /// Appends \p Es in one insert, under append(E)'s contract for each.
  void append(std::span<const TraceEvent> Es);

  /// Appends \p E without invariant checks — the fault-injection path
  /// (fault/Fault.h) uses it to build deliberately malformed traces;
  /// validate() exists to catch everything this lets through before an
  /// analysis consumes the trace.
  void appendUnchecked(const TraceEvent &E);

  size_t size() const { return Events.size(); }
  const TraceEvent &operator[](size_t I) const { return Events[I]; }
  const std::vector<TraceEvent> &events() const { return Events; }

  uint32_t numThreads() const { return Prog->numThreads(); }

  /// Number of threads that accessed \p A (memory events only).
  /// Computed lazily on first call; the trace must not grow afterwards.
  unsigned threadsAccessing(isa::Addr A) const;

  /// True if at least two threads touched \p A anywhere in the trace —
  /// the offline "v.shared" oracle of Section 4.1.1.
  bool isSharedAddress(isa::Addr A) const {
    return threadsAccessing(A) >= 2;
  }

private:
  const isa::Program *Prog;
  std::vector<TraceEvent> Events;
  /// Lazily built: per address, the number of distinct accessing
  /// threads saturated at 2 (0, 1, or 2 meaning shared), and in
  /// LastThread the first accessing thread (-1 before any access), which
  /// every later access is compared against.
  mutable std::vector<uint8_t> SharedCount;
  mutable std::vector<int32_t> LastThread;
  mutable bool SharedBuilt = false;
  void buildSharedInfo() const;
};

/// Always-on structural validation of \p T (the release-build analog of
/// ProgramTrace::append's assertions, extended to every field an
/// offline pass indexes with): nondecreasing Seq, Tid within the
/// program's thread count, non-null Instr, memory addresses within
/// MemoryWords, and mutex ids within the program's mutex table. Returns
/// true when well-formed; otherwise fills \p Error with a diagnostic
/// naming the first offending event. Consumers (svd/OfflineDetector)
/// call this before analysis so a corrupted or truncated trace degrades
/// into a diagnostic instead of out-of-bounds indexing.
bool validate(const ProgramTrace &T, std::string &Error);

/// The one translation of the VM's seven event callbacks into
/// TraceEvents, shared by every observer that consumes the event stream
/// as TraceEvents (TraceRecorder here, serve::FrameStreamer). Each built
/// event goes to `Sink::record(const TraceEvent &)` through a static
/// cast, so sharing the builders adds no virtual call per event.
template <typename Sink>
class TraceEventBuilder : public vm::ExecutionObserver {
public:
  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word) override;
  void onAlu(const vm::EventCtx &Ctx) override;
  void onBranch(const vm::EventCtx &Ctx, bool, uint32_t) override;
  void onLock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onUnlock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onThreadFinished(const vm::EventCtx &Ctx) override;

private:
  static TraceEvent base(const vm::EventCtx &Ctx, EventKind K) {
    TraceEvent E;
    E.Seq = Ctx.Seq;
    E.Tid = Ctx.Tid;
    E.Pc = Ctx.Pc;
    E.Instr = Ctx.Instr;
    E.Kind = K;
    return E;
  }
  void emit(const TraceEvent &E) { static_cast<Sink &>(*this).record(E); }
};

// The builders are defined out of line so that a sink's explicit
// instantiation (next to its record()) is the only copy: other
// translation units see an extern template and never instantiate them,
// which keeps record() inlinable into every callback.
template <typename Sink>
void TraceEventBuilder<Sink>::onLoad(const vm::EventCtx &Ctx, isa::Addr A,
                                     isa::Word) {
  TraceEvent E = base(Ctx, EventKind::Load);
  E.Address = A;
  emit(E);
}

template <typename Sink>
void TraceEventBuilder<Sink>::onStore(const vm::EventCtx &Ctx, isa::Addr A,
                                      isa::Word) {
  TraceEvent E = base(Ctx, EventKind::Store);
  E.Address = A;
  emit(E);
}

template <typename Sink>
void TraceEventBuilder<Sink>::onAlu(const vm::EventCtx &Ctx) {
  emit(base(Ctx, EventKind::Alu));
}

template <typename Sink>
void TraceEventBuilder<Sink>::onBranch(const vm::EventCtx &Ctx, bool,
                                       uint32_t) {
  emit(base(Ctx, EventKind::Branch));
}

template <typename Sink>
void TraceEventBuilder<Sink>::onLock(const vm::EventCtx &Ctx,
                                     uint32_t MutexId) {
  TraceEvent E = base(Ctx, EventKind::Lock);
  E.MutexId = MutexId;
  emit(E);
}

template <typename Sink>
void TraceEventBuilder<Sink>::onUnlock(const vm::EventCtx &Ctx,
                                       uint32_t MutexId) {
  TraceEvent E = base(Ctx, EventKind::Unlock);
  E.MutexId = MutexId;
  emit(E);
}

template <typename Sink>
void TraceEventBuilder<Sink>::onThreadFinished(const vm::EventCtx &Ctx) {
  emit(base(Ctx, EventKind::ThreadEnd));
}

/// ExecutionObserver that records the trace of a run.
class TraceRecorder : public TraceEventBuilder<TraceRecorder> {
public:
  explicit TraceRecorder(const isa::Program &P) : Trace(P) {}

  const ProgramTrace &trace() const { return Trace; }
  ProgramTrace takeTrace() { return std::move(Trace); }

  /// Caps the recorded trace at \p N events (0 = unbounded, the
  /// default). Once full, later events are counted in droppedEvents()
  /// and discarded, leaving a valid prefix — the bounded-buffer
  /// degradation mode of a production monitor.
  void setMaxEvents(uint64_t N) { MaxEvents = N; }

  /// Events discarded because the cap was reached.
  uint64_t droppedEvents() const { return Dropped; }

private:
  friend class TraceEventBuilder<TraceRecorder>;
  /// Appends \p E unless the cap is reached (then counts it dropped).
  void record(const TraceEvent &E);
  ProgramTrace Trace;
  uint64_t MaxEvents = 0;
  uint64_t Dropped = 0;
};

extern template class TraceEventBuilder<TraceRecorder>;

} // namespace trace
} // namespace svd

#endif // SVD_TRACE_TRACE_H
