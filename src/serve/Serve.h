//===- serve/Serve.h - Streaming detection daemon ---------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming multi-tenant detection daemon (DESIGN.md section 17):
/// N client sessions stream their execution traces as length-prefixed
/// binary frames (serve/Frame.h) through bounded SPSC rings
/// (serve/Ring.h) into sharded detector instances, each shard owning
/// its own shadow::Table state. Each session's wire is encoded once,
/// while its VM runs (serve::FrameStreamer), so the daemon records no
/// per-session trace; its ring carries positions into that wire, not
/// copies of the frames.
/// Four robustness stages wrap the pipeline:
///
///  1. **Hardened ingestion** — every frame passes the FrameCodec gate;
///     a malformed frame is classified, counted, and poisons its
///     session instead of aborting the process.
///  2. **Backpressure and load shedding** — a full ring answers
///     WouldBlock; producers back off exponentially with seeded jitter;
///     sustained overload sheds the oldest un-pushed epoch behind an
///     explicit Shed marker (never silent loss) and raises the
///     session's sticky BudgetLedger degradation.
///  3. **Shard crash containment** — an admission attempt that returns
///     an abort reason (injected shard crash or tick watchdog) rolls
///     its AttemptCounters back and is quarantined, then re-admitted
///     after budgeted retries with escalating backoff; exhausted
///     budgets classify as Failed.
///  4. **Deterministic mode** — fixed seeds, a virtual per-session tick
///     clock, and single-threaded shard loops make the entire
///     lifecycle a pure function of (inputs, config): reports are
///     byte-identical at any --jobs level and any shard-shuffle, and
///     fault-free sessions match the batch pipeline exactly
///     (batchSessionReport).
///
/// The module deliberately does not depend on src/harness: callers
/// (tools/svd_serve.cpp, the "serve" bench suite) derive each
/// session's vm::MachineConfig via harness::machineConfigFor and pass
/// it in, so THE seed derivation stays single-sourced without a
/// dependency cycle.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SERVE_SERVE_H
#define SVD_SERVE_SERVE_H

#include "fault/Fault.h"
#include "serve/Frame.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace svd {
namespace obs {
class Registry;
} // namespace obs

namespace serve {

/// Terminal classification of one session, severity-ordered like
/// harness::SampleOutcome: Failed > Poisoned > Shed > Degraded > Ok.
/// Every session ends in exactly one of these — the daemon has no
/// unclassified exit.
enum class SessionOutcome : uint8_t {
  Ok = 0,       ///< full stream ingested, detection ran clean
  Degraded,     ///< detection ran but coverage is reduced (lost
                ///< frames, tenant budget, recovered quarantine, ...)
  Shed,         ///< overload shed at least one epoch (still analyzed)
  Poisoned,     ///< a malformed frame was rejected; stream untrusted
  Failed,       ///< producer crash or quarantine retry budget exhausted
};

/// Stable lowercase name ("ok", "degraded", "shed", "poisoned",
/// "failed").
const char *sessionOutcomeName(SessionOutcome O);

/// Severity-max of two outcomes.
inline SessionOutcome worseOutcome(SessionOutcome A, SessionOutcome B) {
  return static_cast<uint8_t>(A) >= static_cast<uint8_t>(B) ? A : B;
}

/// One client session: a workload execution to stream. The caller
/// builds Machine from the seed via harness::machineConfigFor so serve
/// shares THE seed derivation without depending on the harness.
/// Machine.Faults is overridden by runServe with the per-session fault
/// plan when ServeConfig::FaultCfg is set.
struct SessionInput {
  uint32_t SessionId = 0;
  const workloads::Workload *Work = nullptr;
  uint64_t Seed = 1;
  vm::MachineConfig Machine;
};

/// Daemon configuration. Defaults are the golden-pinned deterministic
/// mode; every field participates in the pure function that produces a
/// ServeReport. The pacing (frames pushed and drained per tick, the
/// shedding trigger, the retry count, the tick watchdog) is fixed by
/// constants in serve/Serve.cpp.
struct ServeConfig {
  /// Events per wire frame (fixed by the producer's FrameStreamer).
  static constexpr uint32_t EventsPerFrame = FrameStreamer::EventsPerFrame;
  /// Ring capacity in frames (a power of two).
  static constexpr size_t RingCapacity = 8;
  /// Number of detector shards. Sessions are assigned round-robin in
  /// canonical session order, then optionally shuffled.
  uint32_t Shards = 2;
  /// When nonzero, deterministically permutes the session-to-shard
  /// assignment. Reports are invariant under this knob (the
  /// shard-shuffle half of the acceptance criteria).
  uint64_t ShuffleSeed = 0;
  /// Worker threads for the shard fan-out (0 = hardware default). Shard
  /// loops never share mutable state, so any value is report-invariant.
  unsigned Jobs = 1;
  /// Ingestion fault plan template; a per-session fault::FaultPlan is
  /// instantiated from it with the session's seed. Null = fault-free.
  /// The plan's DetectorEntryBudget is the per-tenant ingested-event
  /// budget (shadow::BudgetLedger): events beyond it are dropped with
  /// accounting and the session degrades sticky, exactly as the batch
  /// pipeline caps its trace, so budgeted parity holds.
  const fault::FaultPlanConfig *FaultCfg = nullptr;
  /// Observability sink; counters are exported once, deterministically,
  /// after every shard finishes, and the serve.session.produce/stream/
  /// detect timers accumulate per session. Not owned.
  obs::Registry *Obs = nullptr;
};

/// The consumer-side half of a session's stream accounting: everything
/// one admission attempt decides. An aborted attempt rolls all of it
/// back with one slice copy, because the re-admission replays the wire
/// from frame 0 and would otherwise book the same frames twice.
struct AttemptCounters {
  SessionOutcome Outcome = SessionOutcome::Ok;
  /// Why the outcome is not Ok (first reject, shed note, crash, ...).
  std::string Diagnostic;
  uint64_t FramesDelivered = 0; ///< frames the consumer popped
  uint64_t FramesRejected = 0;
  uint64_t FramesDuplicated = 0; ///< duplicate deliveries dropped
  uint64_t FramesReordered = 0;  ///< out-of-order deliveries healed
  uint64_t FramesLost = 0;       ///< sequence gaps skipped
  uint64_t EventsIngested = 0;
  uint64_t EventsBudgetDropped = 0;
  /// Per-reason reject counts, indexed by serve::Reject.
  std::array<uint64_t, RejectCount> Rejects{};
};

/// Everything measured and decided for one session. The report
/// classification comes from the workloads::ReportTally base, filled by
/// the same classifyReports() as harness::SampleMetrics.
struct SessionReport : workloads::ReportTally, AttemptCounters {
  uint32_t SessionId = 0;
  std::string Workload;
  uint64_t Seed = 0;
  uint32_t Shard = 0;

  // Stream accounting that persists across re-admissions.
  uint64_t EventsStreamed = 0;  ///< events the producer recorded
  uint64_t FramesSent = 0;      ///< wire frames emitted (incl. faults)
  uint64_t FramesShed = 0;
  uint64_t EventsShed = 0;
  uint64_t BackoffWaits = 0;
  uint64_t BackoffTicks = 0;
  uint64_t StallTicks = 0;
  uint64_t Ticks = 0;
  uint32_t Quarantines = 0;
  uint32_t Readmissions = 0;

  // Detection results (mirrors harness::SampleMetrics' detection half;
  // differentially pinned against runSample in tests/ServeTest.cpp).
  uint64_t Steps = 0;
  bool Manifested = false;
  bool DetectorDegraded = false;
  std::string DegradedReason;
  size_t CusFormed = 0;

  /// Canonical one-line encoding of everything detection produced, for
  /// byte-identity checks against the batch pipeline (the "fault-free
  /// parity" acceptance invariant).
  std::string detectionSignature() const;
};

/// Per-shard aggregate, including the shard's shadow-table footprint
/// (exported as shadow.shard<k>.pages/bytes).
struct ShardReport {
  uint32_t ShardId = 0;
  std::vector<uint32_t> Sessions; ///< session ids, processing order
  uint64_t FramesDelivered = 0;
  uint64_t EventsIngested = 0;
  uint32_t Quarantines = 0;
  uint64_t ShadowPages = 0;
  uint64_t ShadowBytes = 0;
};

/// The daemon's complete, deterministic output.
struct ServeReport {
  /// Sorted by SessionId — independent of shard assignment and timing.
  std::vector<SessionReport> Sessions;
  /// Sorted by ShardId. Shard composition depends on ShuffleSeed (by
  /// design); session rows never do.
  std::vector<ShardReport> Shards;

  size_t countOutcome(SessionOutcome O) const;
};

/// Runs the daemon over \p Sessions: assigns sessions to shards, runs
/// every shard's producer/consumer event loop (in parallel across
/// shards up to Cfg.Jobs), and returns the classified report. Never
/// throws for any input or fault plan — that is the contract under
/// test. Each worker's assembled-trace buffer outlives the call: it is
/// leased from a process-wide pool and returned, emptied, when the
/// worker ends, so idle memory is at most one buffer per peak
/// concurrent worker (DESIGN.md section 17).
ServeReport runServe(const std::vector<SessionInput> &Sessions,
                     const ServeConfig &Cfg);

/// The batch twin: the same detection a fault-free serve session
/// performs, computed directly from the recorded trace without frames,
/// rings, or shards. detectionSignature() of the result is
/// byte-identical to the serve path's for fault-free sessions (and for
/// budget-capped ones: both cap at the plan's DetectorEntryBudget).
SessionReport batchSessionReport(const SessionInput &S,
                                 const ServeConfig &Cfg);

/// The canonical ingestion-fault plan matrix of svd-serve --chaos:
/// a fault-free baseline plus one plan per ingestion fault class and
/// the combined frame-mangle preset.
std::vector<fault::FaultPlanConfig> ingestionPlanMatrix();

} // namespace serve
} // namespace svd

#endif // SVD_SERVE_SERVE_H
