//===- serve/Serve.cpp ----------------------------------------------------===//

#include "serve/Serve.h"

#include "obs/Obs.h"
#include "serve/Ring.h"
#include "shadow/Shadow.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "svd/OfflineDetector.h"
#include "trace/Trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

using namespace svd;
using namespace svd::serve;
using workloads::Workload;

const char *serve::sessionOutcomeName(SessionOutcome O) {
  switch (O) {
  case SessionOutcome::Ok:
    return "ok";
  case SessionOutcome::Degraded:
    return "degraded";
  case SessionOutcome::Shed:
    return "shed";
  case SessionOutcome::Poisoned:
    return "poisoned";
  case SessionOutcome::Failed:
    return "failed";
  }
  return "unknown";
}

std::string SessionReport::detectionSignature() const {
  std::string S = support::formatString(
      "steps=%llu manifested=%d detected=%d dyn=%zu/%zu/%zu "
      "static=%zu/%zu/%zu cus=%zu degraded=%d reason=%s",
      static_cast<unsigned long long>(Steps), Manifested ? 1 : 0,
      DetectedBug ? 1 : 0, DynamicReports, DynamicTrue, DynamicFalse,
      StaticReports, StaticTrue, StaticFalse, CusFormed,
      DetectorDegraded ? 1 : 0,
      DegradedReason.empty() ? "-" : DegradedReason.c_str());
  S += " true=[";
  for (size_t I = 0; I < StaticTrueKeys.size(); ++I)
    S += (I ? "," : "") +
         std::to_string(static_cast<unsigned long long>(StaticTrueKeys[I]));
  S += "] false=[";
  for (size_t I = 0; I < StaticFalseKeys.size(); ++I)
    S += (I ? "," : "") +
         std::to_string(static_cast<unsigned long long>(StaticFalseKeys[I]));
  S += "]";
  return S;
}

size_t ServeReport::countOutcome(SessionOutcome O) const {
  size_t N = 0;
  for (const SessionReport &S : Sessions)
    if (S.Outcome == O)
      ++N;
  return N;
}

namespace {

/// Root of every per-session backoff-jitter stream (support::Xoshiro256
/// seeded with ServeSeed ^ a session-id hash).
constexpr uint64_t ServeSeed = 1;
/// Events frames per shedding epoch.
constexpr uint32_t EpochFrames = 8;
/// Frames the producer attempts per tick; above the consumer's
/// DrainPerTick, backpressure is real even fault-free.
constexpr uint32_t PushesPerTick = 2;
/// Frames the consumer admits per tick.
constexpr uint32_t DrainPerTick = 1;
/// Consecutive WouldBlocks before the producer sheds the oldest
/// un-pushed epoch.
constexpr uint32_t ShedAfterBlocks = 8;
/// Exponential backoff: a producer waits base + jitter ticks, with
/// base = BackoffBaseTicks << min(exp, BackoffMaxExp) after exp
/// earlier consecutive blocks and jitter uniform in [0, base].
constexpr uint32_t BackoffBaseTicks = 1;
constexpr uint32_t BackoffMaxExp = 6;
/// Quarantine backoff: attempt k burns QuarantineBaseTicks << (k-1)
/// virtual ticks.
constexpr uint32_t QuarantineBaseTicks = 4;
/// Re-admissions after a quarantine before the session Fails.
constexpr uint32_t MaxReadmissions = 3;
/// Watchdog: an admission attempt that runs more than this many ticks
/// is aborted and quarantined (livelock valve).
constexpr uint64_t AttemptTickDeadline = 2'000'000;

/// Wall-clock timers of one runServe call's session stages, looked up
/// once per call; all null (no-op) unless ServeConfig::Obs is set.
struct StageTimers {
  obs::TimerStat *Produce = nullptr; ///< VM run + wire encoding
  obs::TimerStat *Stream = nullptr;  ///< ring, decode, assembly (all attempts)
  obs::TimerStat *Detect = nullptr;  ///< offline passes + outcome
};

/// Runs the offline detection passes over \p T and fills the detection
/// half of \p R. Used identically by the serve path (assembled trace)
/// and the batch twin (recorded trace).
void finishDetection(const Workload &W, const trace::ProgramTrace &T,
                     SessionReport &R) {
  detect::OfflineAnalysis A = detect::runOfflinePipeline(T);
  if (!A.Error.empty()) {
    R.DetectorDegraded = true;
    R.DegradedReason = std::move(A.Error);
    return;
  }
  R.CusFormed = A.CusFormed;
  workloads::classifyReports(W, A.Reports, R);
}

/// Derives the final outcome and degraded reason from the stream
/// counters (Failed/Poisoned are decided earlier and bypass this).
void resolveOutcome(SessionReport &R, bool HelloSeen, bool EndSeen,
                    uint64_t EndTotal) {
  std::string Reason;
  auto AddReason = [&Reason](const std::string &Part) {
    if (!Reason.empty())
      Reason += "; ";
    Reason += Part;
  };
  if (R.FramesLost != 0)
    AddReason(support::formatString(
        "%llu frames lost", static_cast<unsigned long long>(R.FramesLost)));
  if (R.EventsShed != 0)
    AddReason(support::formatString(
        "shed %llu events across %llu frames",
        static_cast<unsigned long long>(R.EventsShed),
        static_cast<unsigned long long>(R.FramesShed)));
  if (R.EventsBudgetDropped != 0)
    AddReason(support::formatString(
        "tenant budget: %llu events dropped",
        static_cast<unsigned long long>(R.EventsBudgetDropped)));
  if (!HelloSeen)
    AddReason("hello frame missing");
  if (!EndSeen)
    AddReason("end-of-stream marker missing");
  else if (R.FramesLost == 0 && R.EventsShed == 0 &&
           R.EventsIngested != EndTotal)
    AddReason(support::formatString(
        "event count mismatch: ingested %llu, end marker says %llu",
        static_cast<unsigned long long>(R.EventsIngested),
        static_cast<unsigned long long>(EndTotal)));
  if (R.Quarantines != 0)
    AddReason(support::formatString("recovered from %u quarantine%s",
                                    R.Quarantines,
                                    R.Quarantines == 1 ? "" : "s"));
  if (!Reason.empty()) {
    R.DetectorDegraded = true;
    if (R.DegradedReason.empty())
      R.DegradedReason = Reason;
    else
      R.DegradedReason += "; " + Reason;
  }
  SessionOutcome O = SessionOutcome::Ok;
  if (R.DetectorDegraded)
    O = worseOutcome(O, SessionOutcome::Degraded);
  if (R.EventsShed != 0 || R.FramesShed != 0)
    O = worseOutcome(O, SessionOutcome::Shed);
  R.Outcome = worseOutcome(R.Outcome, O);
  if (R.Diagnostic.empty() && R.Outcome != SessionOutcome::Ok)
    R.Diagnostic = R.DegradedReason;
}

/// Everything one session carries through the daemon.
struct SessionState {
  const SessionInput *In = nullptr;
  SessionReport R;
  std::optional<fault::FaultPlan> Plan;
  /// The session's wire stream, encoded while the VM runs; shedding
  /// splices it. Released when the admission loop exits.
  std::vector<WireFrame> Wire;
};

/// The session's tenant event budget: its fault plan's detector state
/// budget, the cap every other detector path takes from the plan
/// (0 = unbounded).
uint64_t tenantBudget(const SessionState &S) {
  return S.Plan ? S.Plan->config().DetectorEntryBudget : 0;
}

/// Runs the workload under the VM with \p Obs attached — the client
/// side of the daemon. The serve path attaches a FrameStreamer and the
/// batch twin a TraceRecorder, so both observe the same execution by
/// construction. Returns false, with the session Failed, if the
/// producer crashed.
bool produce(SessionState &S, vm::ExecutionObserver &Obs) {
  const SessionInput &In = *S.In;
  vm::MachineConfig MC = In.Machine;
  if (S.Plan)
    MC.Faults = &*S.Plan;
  vm::Machine M(In.Work->Program, MC);
  M.addObserver(&Obs);
  try {
    M.run();
  } catch (const fault::InjectedCrash &E) {
    S.R.Outcome = SessionOutcome::Failed;
    S.R.Diagnostic = std::string("producer crashed: ") + E.what();
    return false;
  }
  S.R.Steps = M.steps();
  S.R.Manifested = In.Work->Manifested(M);
  return true;
}

/// Applies the plan's in-flight faults (truncate/corrupt/duplicate/
/// reorder) to the session's wire as pure per-position decisions.
void perturbWire(SessionState &S) {
  if (S.Plan && S.Plan->perturbsFrames()) {
    const fault::FaultPlan &Plan = *S.Plan;
    std::vector<WireFrame> Out;
    Out.reserve(S.Wire.size());
    for (WireFrame &F : S.Wire) {
      if (Plan.truncateFrame(F.FrameSeq))
        F.Bytes.resize(Plan.truncatedFrameSize(F.Bytes.size(), F.FrameSeq));
      else if (Plan.corruptFrame(F.FrameSeq))
        Plan.mangleFrameBytes(F.Bytes, F.FrameSeq);
      bool Dup = Plan.duplicateFrame(F.FrameSeq);
      Out.push_back(std::move(F));
      if (Dup)
        Out.push_back(Out.back());
    }
    // Adjacent swaps keyed on wire position; a swapped pair is skipped
    // so swap chains never overlap (the resequencer's one-frame hold
    // is then always sufficient for reorder-only streams).
    for (size_t I = 0; I + 1 < Out.size(); ++I)
      if (Plan.reorderFrame(I)) {
        std::swap(Out[I], Out[I + 1]);
        ++I;
      }
    S.Wire = std::move(Out);
  }
  S.R.FramesSent = S.Wire.size();
}

/// Consumer-side stream assembly: resequencing, duplicate drop, gap
/// accounting, budget enforcement. The events go into the shard
/// worker's trace buffer, reset for each attempt.
struct Assembly {
  Assembly(trace::ProgramTrace &Buffer, const isa::Program &P,
           uint64_t Budget)
      : Trace(Buffer), Ledger(Budget) {
    Trace.reset(P);
  }

  trace::ProgramTrace &Trace;
  shadow::BudgetLedger Ledger;
  uint64_t LastSeq = 0;
  uint32_t NextFrame = 0;
  bool HelloSeen = false;
  bool EndSeen = false;
  uint64_t EndTotal = 0;
  std::optional<DecodedFrame> Held;
  /// Set when an otherwise well-formed frame breaks the cross-frame
  /// event order (checked at ingest time, after the resequencer has
  /// dropped duplicates — a duplicate legitimately replays old
  /// sequence numbers and must not poison the session).
  std::optional<std::string> SeqReject;
};

/// Ingests one in-order frame and advances the expected sequence.
void ingestFrame(const DecodedFrame &F, Assembly &A, SessionReport &R,
                 shadow::Table<uint8_t> &Seen) {
  switch (F.Op) {
  case Opcode::Hello:
    A.HelloSeen = true;
    A.NextFrame = F.FrameSeq + 1;
    break;
  case Opcode::Events:
    if (!F.Events.empty() && F.Events.front().Seq < A.LastSeq && !A.SeqReject)
      A.SeqReject = support::formatString(
          "frame %u first seq %llu precedes stream seq %llu", F.FrameSeq,
          static_cast<unsigned long long>(F.Events.front().Seq),
          static_cast<unsigned long long>(A.LastSeq));
    if (A.SeqReject) {
      A.NextFrame = F.FrameSeq + 1;
      break;
    }
    if (!F.Events.empty()) {
      // The events that fit the tenant budget go in with one insert; the
      // rest are booked dropped, one eviction each.
      std::span<const trace::TraceEvent> Kept(
          F.Events.data(),
          std::min<uint64_t>(F.Events.size(),
                             A.Ledger.room(A.Trace.size())));
      A.Trace.append(Kept);
      for (const trace::TraceEvent &E : Kept)
        if (E.isMemory())
          Seen.touch(E.Address) = 1;
      for (size_t I = Kept.size(); I < F.Events.size(); ++I)
        A.Ledger.recordEviction();
      R.EventsIngested += F.Events.size();
      R.EventsBudgetDropped += F.Events.size() - Kept.size();
      A.LastSeq = F.Events.back().Seq;
    }
    A.NextFrame = F.FrameSeq + 1;
    break;
  case Opcode::Shed:
    // Producer-side counters already account for the shed events; the
    // marker's job here is to advance the expected sequence so the gap
    // is explained rather than counted lost.
    A.NextFrame = std::max(A.NextFrame, F.FrameSeq + F.ShedSpanFrames);
    break;
  case Opcode::End:
    A.EndSeen = true;
    A.EndTotal = F.EndTotalEvents;
    A.NextFrame = F.FrameSeq + 1;
    break;
  }
}

/// Ingests the held frame, booking the frames it skipped as lost.
void flushHeld(Assembly &A, SessionReport &R, shadow::Table<uint8_t> &Seen) {
  if (A.Held->FrameSeq > A.NextFrame)
    R.FramesLost += A.Held->FrameSeq - A.NextFrame;
  ingestFrame(*A.Held, A, R, Seen);
  A.Held.reset();
}

/// Resequencer: in-order frames ingest immediately; one out-of-order
/// frame is held (moved out of \p F); a second forces an ascending flush
/// with the gap recorded as lost. Duplicates (sequence already passed)
/// drop.
void admitDecoded(DecodedFrame &F, Assembly &A, SessionReport &R,
                  shadow::Table<uint8_t> &Seen) {
  // Decode guarantees the sum neither wraps nor is empty.
  uint32_t EndSeq =
      F.FrameSeq + (F.Op == Opcode::Shed ? F.ShedSpanFrames : 1);
  if (EndSeq <= A.NextFrame) {
    ++R.FramesDuplicated;
    return;
  }
  if (F.FrameSeq > A.NextFrame) {
    if (!A.Held) {
      A.Held.emplace(std::move(F));
      ++R.FramesReordered;
      return;
    }
    // Two frames waiting: flush the earlier one, accounting the skip.
    if (A.Held->FrameSeq > F.FrameSeq)
      std::swap(*A.Held, F);
    flushHeld(A, R, Seen);
    admitDecoded(F, A, R, Seen);
    return;
  }
  ingestFrame(F, A, R, Seen);
  if (A.Held && A.Held->FrameSeq <= A.NextFrame) {
    DecodedFrame Next = std::move(*A.Held);
    A.Held.reset();
    admitDecoded(Next, A, R, Seen);
  }
}

/// Books a rejected frame and poisons the session; the first reject
/// names \p Where in the diagnostic.
void poison(SessionReport &R, const std::string &Where, Reject Why,
            const std::string &Detail) {
  ++R.FramesRejected;
  ++R.Rejects[static_cast<size_t>(Why)];
  R.Outcome = worseOutcome(R.Outcome, SessionOutcome::Poisoned);
  if (R.Diagnostic.empty())
    R.Diagnostic = support::formatString("%s rejected (%s): %s", Where.c_str(),
                                         rejectName(Why), Detail.c_str());
}

/// One admission attempt: the full producer/consumer event loop over a
/// virtual tick clock. Returns why the attempt aborted (an injected
/// shard crash or the tick watchdog), or nothing once the wire drains.
std::optional<std::string> runAttempt(SessionState &S, uint32_t Attempt,
                                      Assembly &A,
                                      shadow::Table<uint8_t> &Seen) {
  SessionReport &R = S.R;
  const fault::FaultPlan *Plan =
      S.Plan && S.Plan->perturbsFrames() ? &*S.Plan : nullptr;
  const FrameCodec Codec(S.In->Work->Program, S.In->SessionId);

  // The ring carries positions into S.Wire. Shedding erases and inserts
  // only at positions >= Cursor and never inserts more entries than it
  // erases, so every position already pushed still names the frame that
  // was pushed.
  SpscRing<size_t> Ring(ServeConfig::RingCapacity);
  support::Xoshiro256 Jitter(ServeSeed ^
                             (0x9e3779b97f4a7c15ULL *
                              (S.In->SessionId + 1)));

  size_t Cursor = 0;
  uint64_t Tick = 0;
  uint64_t BackoffUntil = 0;
  uint32_t BackoffExp = 0;
  uint32_t ConsecutiveBlocks = 0;
  uint64_t ConsumerStall = 0;
  uint64_t DeliveredPos = 0;
  // Every frame decodes into this one, which keeps its event buffer's
  // capacity from frame to frame.
  DecodedFrame Decoded;

  auto ShedOldestEpoch = [&]() {
    // Find the oldest un-pushed Events frame and drop its whole epoch
    // behind an explicit Shed marker (never silent).
    size_t B = Cursor;
    while (B < S.Wire.size() && S.Wire[B].Op != Opcode::Events)
      ++B;
    if (B == S.Wire.size())
      return;
    uint32_t Epoch = S.Wire[B].FrameSeq / EpochFrames;
    std::map<uint32_t, uint64_t> Unique; // FrameSeq -> event count
    size_t E = B;
    while (E < S.Wire.size() && S.Wire[E].Op == Opcode::Events &&
           S.Wire[E].FrameSeq / EpochFrames == Epoch) {
      Unique[S.Wire[E].FrameSeq] = S.Wire[E].EventCount;
      ++E;
    }
    uint32_t MinSeq = Unique.begin()->first;
    uint32_t MaxSeq = Unique.rbegin()->first;
    uint64_t Dropped = 0;
    for (const auto &[Seq, N] : Unique)
      Dropped += N;
    uint32_t Span = MaxSeq - MinSeq + 1;
    WireFrame Marker{Codec.encodeShed(MinSeq, Span, Epoch, Dropped),
                     Opcode::Shed, MinSeq, 0};
    S.Wire.erase(S.Wire.begin() + B, S.Wire.begin() + E);
    S.Wire.insert(S.Wire.begin() + B, std::move(Marker));
    R.FramesShed += Span;
    R.EventsShed += Dropped;
    A.Ledger.recordEviction();
    ConsecutiveBlocks = 0;
  };

  while (Cursor < S.Wire.size() || !Ring.empty()) {
    ++Tick;
    ++R.Ticks;
    if (Tick > AttemptTickDeadline)
      return support::formatString("watchdog tripped at %llu ticks",
                                   static_cast<unsigned long long>(Tick));

    // Producer phase: push frames unless backing off.
    if (Tick >= BackoffUntil) {
      for (uint32_t P = 0; P < PushesPerTick && Cursor < S.Wire.size(); ++P) {
        if (Ring.tryPush(size_t{Cursor})) {
          ++Cursor;
          ConsecutiveBlocks = 0;
          BackoffExp = 0;
        } else {
          // WouldBlock: jittered exponential backoff, then overload
          // policy once the blocks pile up.
          ++R.BackoffWaits;
          ++ConsecutiveBlocks;
          uint64_t Base = static_cast<uint64_t>(BackoffBaseTicks)
                          << std::min(BackoffExp, BackoffMaxExp);
          uint64_t Wait = Base + Jitter.nextBelow(Base + 1);
          ++BackoffExp;
          BackoffUntil = Tick + Wait;
          R.BackoffTicks += Wait;
          if (ConsecutiveBlocks >= ShedAfterBlocks)
            ShedOldestEpoch();
          break;
        }
      }
    }

    // Consumer phase: drain unless stalled by a slow downstream.
    if (ConsumerStall > 0) {
      --ConsumerStall;
      ++R.StallTicks;
      continue;
    }
    for (uint32_t D = 0; D < DrainPerTick; ++D) {
      size_t At;
      if (!Ring.tryPop(At))
        break;
      uint64_t Pos = DeliveredPos++;
      ++R.FramesDelivered;
      if (Plan && Plan->crashShard(Pos, Attempt))
        return support::formatString(
            "injected shard crash at frame %llu (attempt %u)",
            static_cast<unsigned long long>(Pos), Attempt);
      if (Plan && Plan->stallFrame(Pos))
        ConsumerStall += Plan->frameStallTicks();
      if (R.Outcome == SessionOutcome::Poisoned)
        continue; // drain-and-drop; the stream is already untrusted
      // Intra-frame validation happens here (MinSeq 0); cross-frame
      // order is enforced at ingest time, after duplicate frames have
      // been dropped (a duplicate legitimately replays old sequences).
      DecodeResult DR = Codec.decode(S.Wire[At].Bytes, /*MinSeq=*/0, Decoded);
      if (DR.Ok) {
        admitDecoded(Decoded, A, R, Seen);
        if (!A.SeqReject)
          continue;
        DR = DecodeResult::fail(Reject::NonMonotonicSeq, *A.SeqReject);
      }
      poison(R,
             support::formatString("frame %llu",
                                   static_cast<unsigned long long>(Pos)),
             DR.Why, DR.Detail);
    }
  }
  // A frame still held once the stream drains means its predecessor
  // never arrived: flush it with the gap on the books.
  if (A.Held) {
    flushHeld(A, R, Seen);
    if (A.SeqReject && R.Outcome != SessionOutcome::Poisoned)
      poison(R, "held frame", Reject::NonMonotonicSeq, *A.SeqReject);
  }
  return std::nullopt;
}

/// Runs one session end to end: produce the wire while the VM runs,
/// stream it through the ring with quarantine containment, detect,
/// classify. Every failure ends as a classified outcome; nothing
/// escapes. \p Buffer is the worker's trace buffer the stream is
/// assembled into.
void runSession(SessionState &S, const StageTimers &Timers,
                shadow::Table<uint8_t> &Seen, trace::ProgramTrace &Buffer) {
  SessionReport &R = S.R;
  try {
    {
      obs::ScopedTimer T(Timers.Produce);
      FrameStreamer Streamer(
          FrameCodec(S.In->Work->Program, S.In->SessionId));
      if (!produce(S, Streamer))
        return;
      R.EventsStreamed = Streamer.events();
      S.Wire = Streamer.finish();
      perturbWire(S);
    }

    // An aborted attempt rolls its AttemptCounters back: the
    // re-admission replays the wire from the start and would otherwise
    // double-book what the aborted attempt ingested. Producer-side shed
    // counters are exempt — the shed wire mutations persist across
    // re-admissions by design, and their counts stay authoritative.
    const AttemptCounters Before = R;
    std::optional<Assembly> A;
    {
      obs::ScopedTimer T(Timers.Stream);
      for (uint32_t Attempt = 1;; ++Attempt) {
        A.emplace(Buffer, S.In->Work->Program, tenantBudget(S));
        std::optional<std::string> Abort = runAttempt(S, Attempt, *A, Seen);
        if (!Abort)
          break; // stream fully drained
        static_cast<AttemptCounters &>(R) = Before;
        ++R.Quarantines;
        if (Attempt > MaxReadmissions) {
          R.Outcome = SessionOutcome::Failed;
          R.Diagnostic = support::formatString(
              "quarantine retry budget exhausted after %u attempts: %s",
              Attempt, Abort->c_str());
          break;
        }
        R.Ticks += static_cast<uint64_t>(QuarantineBaseTicks) << (Attempt - 1);
        ++R.Readmissions;
      }
    }
    // Re-admissions replay the wire from the start, so it lives until
    // the admission loop exits.
    S.Wire = std::vector<WireFrame>();

    if (R.Outcome == SessionOutcome::Failed ||
        R.Outcome == SessionOutcome::Poisoned) {
      // Failed: the retry budget ran out. Poisoned: the stream is
      // untrusted past the first malformed frame. Either way the session
      // is contained, counted, and reported without analysis.
      return;
    }
    obs::ScopedTimer T(Timers.Detect);
    finishDetection(*S.In->Work, A->Trace, R);
    resolveOutcome(R, A->HelloSeen, A->EndSeen, A->EndTotal);
  } catch (const std::exception &E) {
    R.Outcome = SessionOutcome::Failed;
    R.Diagnostic = std::string("internal error: ") + E.what();
  } catch (...) {
    R.Outcome = SessionOutcome::Failed;
    R.Diagnostic = "internal error: unknown exception";
  }
}

/// The process-wide pool of idle assembled-trace buffers (DESIGN.md
/// section 17), each bound to the empty program Unbound.
struct TraceBufferPool {
  const isa::Program Unbound;
  std::mutex M;
  std::vector<trace::ProgramTrace> Idle;
};

TraceBufferPool &traceBufferPool() {
  static TraceBufferPool Pool;
  return Pool;
}

/// A worker's lease on one pooled trace buffer, taken when the worker
/// starts and returned when it ends. The buffer keeps its capacity
/// across runServe calls; on return it is reset to the empty program,
/// so an idle buffer never points into a caller's program and carries
/// no shared-address cache.
struct TraceBufferLease {
  TraceBufferPool &Pool = traceBufferPool();
  trace::ProgramTrace Buffer{Pool.Unbound};

  TraceBufferLease() {
    std::lock_guard<std::mutex> L(Pool.M);
    if (!Pool.Idle.empty()) {
      Buffer = std::move(Pool.Idle.back());
      Pool.Idle.pop_back();
    }
  }
  ~TraceBufferLease() {
    Buffer.reset(Pool.Unbound);
    std::lock_guard<std::mutex> L(Pool.M);
    Pool.Idle.push_back(std::move(Buffer));
  }
  TraceBufferLease(const TraceBufferLease &) = delete;
  TraceBufferLease &operator=(const TraceBufferLease &) = delete;
};

} // namespace

ServeReport serve::runServe(const std::vector<SessionInput> &Sessions,
                            const ServeConfig &Cfg) {
  uint32_t Shards = std::max<uint32_t>(Cfg.Shards, 1);

  // Canonical session order is the input order; an optional shuffle
  // permutes only the shard assignment. Session reports are pure
  // functions of the session alone, so they are invariant under both
  // the shuffle and the jobs level — shard composition is the only
  // thing that moves.
  std::vector<size_t> Order(Sessions.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  if (Cfg.ShuffleSeed != 0) {
    support::Xoshiro256 Rng(Cfg.ShuffleSeed);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  }

  struct ShardState {
    std::vector<size_t> SessionIdx;
    uint64_t MaxWords = 1;
  };
  std::vector<ShardState> Plan(Shards);
  for (size_t I = 0; I < Order.size(); ++I) {
    ShardState &SS = Plan[I % Shards];
    SS.SessionIdx.push_back(Order[I]);
    SS.MaxWords = std::max<uint64_t>(
        SS.MaxWords, Sessions[Order[I]].Work->Program.MemoryWords);
  }

  std::vector<SessionState> States(Sessions.size());
  for (size_t I = 0; I < Sessions.size(); ++I) {
    SessionState &S = States[I];
    S.In = &Sessions[I];
    S.R.SessionId = Sessions[I].SessionId;
    S.R.Workload = Sessions[I].Work->Name;
    S.R.Seed = Sessions[I].Seed;
    if (Cfg.FaultCfg)
      S.Plan.emplace(*Cfg.FaultCfg, Sessions[I].Seed);
  }

  ServeReport Report;
  Report.Shards.resize(Shards);
  StageTimers Timers;
  if (Cfg.Obs)
    Timers = {&Cfg.Obs->timer("serve.session.produce"),
              &Cfg.Obs->timer("serve.session.stream"),
              &Cfg.Obs->timer("serve.session.detect")};

  // Shard fan-out: each worker claims whole shards; shard loops touch
  // only their own sessions and their own shard report, so any jobs
  // level yields identical results.
  std::atomic<uint32_t> NextShard{0};
  auto Worker = [&]() {
    // The worker's one trace buffer, leased from the pool: every
    // admission attempt resets and refills it, so its capacity is the
    // largest session it has assembled, in this call or an earlier one.
    TraceBufferLease Lease;
    trace::ProgramTrace &Buffer = Lease.Buffer;
    for (;;) {
      uint32_t K = NextShard.fetch_add(1);
      if (K >= Shards)
        return;
      ShardState &SS = Plan[K];
      ShardReport &SR = Report.Shards[K];
      SR.ShardId = K;
      shadow::Table<uint8_t> Seen(SS.MaxWords);
      for (size_t Idx : SS.SessionIdx) {
        SessionState &S = States[Idx];
        S.R.Shard = K;
        runSession(S, Timers, Seen, Buffer);
        SR.Sessions.push_back(S.R.SessionId);
        SR.FramesDelivered += S.R.FramesDelivered;
        SR.EventsIngested += S.R.EventsIngested;
        SR.Quarantines += S.R.Quarantines;
      }
      SR.ShadowPages = Seen.pagesAllocated();
      SR.ShadowBytes = Seen.approxMemoryBytes();
    }
  };
  unsigned Jobs = Cfg.Jobs != 0
                      ? Cfg.Jobs
                      : std::max(1u, std::thread::hardware_concurrency());
  Jobs = std::min<unsigned>(std::max(Jobs, 1u), Shards);
  if (Jobs <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Jobs);
    for (unsigned J = 0; J < Jobs; ++J)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
  }

  Report.Sessions.reserve(States.size());
  for (SessionState &S : States)
    Report.Sessions.push_back(std::move(S.R));
  std::sort(Report.Sessions.begin(), Report.Sessions.end(),
            [](const SessionReport &A, const SessionReport &B) {
              return A.SessionId < B.SessionId;
            });

  if (Cfg.Obs) {
    // Exported once, after every shard has finished, from one thread —
    // deterministic regardless of the fan-out.
    obs::Registry &Reg = *Cfg.Obs;
    Reg.counter("serve.sessions").add(Report.Sessions.size());
    Reg.counter("serve.shards").add(Shards);
    static const char *OutcomeKeys[] = {
        "serve.sessions_ok", "serve.sessions_degraded",
        "serve.sessions_shed", "serve.sessions_poisoned",
        "serve.sessions_failed"};
    for (uint8_t O = 0; O <= static_cast<uint8_t>(SessionOutcome::Failed);
         ++O)
      Reg.counter(OutcomeKeys[O])
          .add(Report.countOutcome(static_cast<SessionOutcome>(O)));
    for (const SessionReport &R : Report.Sessions) {
      Reg.counter("serve.events_streamed").add(R.EventsStreamed);
      Reg.counter("serve.events_ingested").add(R.EventsIngested);
      Reg.counter("serve.events_shed").add(R.EventsShed);
      Reg.counter("serve.events_budget_dropped").add(R.EventsBudgetDropped);
      Reg.counter("serve.frames_sent").add(R.FramesSent);
      Reg.counter("serve.frames_delivered").add(R.FramesDelivered);
      Reg.counter("serve.frames_rejected").add(R.FramesRejected);
      Reg.counter("serve.frames_duplicated").add(R.FramesDuplicated);
      Reg.counter("serve.frames_reordered").add(R.FramesReordered);
      Reg.counter("serve.frames_lost").add(R.FramesLost);
      Reg.counter("serve.frames_shed").add(R.FramesShed);
      Reg.counter("serve.backoff_waits").add(R.BackoffWaits);
      Reg.counter("serve.backoff_ticks").add(R.BackoffTicks);
      Reg.counter("serve.stall_ticks").add(R.StallTicks);
      Reg.counter("serve.ticks").add(R.Ticks);
      Reg.counter("serve.quarantines").add(R.Quarantines);
      Reg.counter("serve.readmissions").add(R.Readmissions);
      for (size_t W = 0; W < RejectCount; ++W)
        if (R.Rejects[W] != 0)
          Reg.counter(std::string("serve.rejects.") +
                      rejectName(static_cast<Reject>(W)))
              .add(R.Rejects[W]);
    }
    for (const ShardReport &SR : Report.Shards) {
      Reg.counter(support::formatString("shadow.shard%u.pages", SR.ShardId))
          .add(SR.ShadowPages);
      Reg.counter(support::formatString("shadow.shard%u.bytes", SR.ShardId))
          .add(SR.ShadowBytes);
    }
  }
  return Report;
}

SessionReport serve::batchSessionReport(const SessionInput &S,
                                        const ServeConfig &Cfg) {
  SessionState State;
  State.In = &S;
  State.R.SessionId = S.SessionId;
  State.R.Workload = S.Work->Name;
  State.R.Seed = S.Seed;
  if (Cfg.FaultCfg)
    State.Plan.emplace(*Cfg.FaultCfg, S.Seed);
  // The batch analog of the per-tenant ingestion budget: record only
  // the kept prefix and degrade with the same reason string.
  trace::TraceRecorder Rec(S.Work->Program);
  Rec.setMaxEvents(tenantBudget(State));
  bool Produced = produce(State, Rec);
  SessionReport R = std::move(State.R);
  if (!Produced)
    return R;
  const trace::ProgramTrace &Kept = Rec.trace();
  R.EventsStreamed = Kept.size() + Rec.droppedEvents();
  R.EventsIngested = R.EventsStreamed;
  R.EventsBudgetDropped = Rec.droppedEvents();
  finishDetection(*S.Work, Kept, R);
  resolveOutcome(R, /*HelloSeen=*/true, /*EndSeen=*/true, R.EventsStreamed);
  return R;
}

std::vector<fault::FaultPlanConfig> serve::ingestionPlanMatrix() {
  std::vector<fault::FaultPlanConfig> Plans;
  {
    fault::FaultPlanConfig P;
    P.Name = "baseline";
    P.PlanSeed = 0;
    Plans.push_back(P);
  }
  {
    fault::FaultPlanConfig P;
    P.Name = "frame-corrupt";
    P.PlanSeed = 0x5e41;
    P.FrameCorruptRatePerMyriad = 500;
    Plans.push_back(P);
  }
  {
    fault::FaultPlanConfig P;
    P.Name = "frame-truncate";
    P.PlanSeed = 0x5e42;
    P.FrameTruncateRatePerMyriad = 400;
    Plans.push_back(P);
  }
  {
    fault::FaultPlanConfig P;
    P.Name = "frame-duplicate";
    P.PlanSeed = 0x5e43;
    P.FrameDuplicateRatePerMyriad = 800;
    Plans.push_back(P);
  }
  {
    fault::FaultPlanConfig P;
    P.Name = "frame-reorder";
    P.PlanSeed = 0x5e44;
    P.FrameReorderRatePerMyriad = 800;
    Plans.push_back(P);
  }
  {
    fault::FaultPlanConfig P;
    P.Name = "frame-stall";
    P.PlanSeed = 0x5e45;
    P.FrameStallRatePerMyriad = 600;
    P.FrameStallTicks = 6;
    Plans.push_back(P);
  }
  {
    fault::FaultPlanConfig P;
    P.Name = "shard-crash";
    P.PlanSeed = 0x5e46;
    P.ShardCrashRatePerMyriad = 60;
    Plans.push_back(P);
  }
  {
    fault::FaultPlanConfig P;
    P.Name = "frame-mangle";
    P.PlanSeed = 0xf8a3e;
    P.FrameCorruptRatePerMyriad = 300;
    P.FrameTruncateRatePerMyriad = 150;
    P.FrameDuplicateRatePerMyriad = 400;
    P.FrameReorderRatePerMyriad = 400;
    P.FrameStallRatePerMyriad = 200;
    Plans.push_back(P);
  }
  return Plans;
}
