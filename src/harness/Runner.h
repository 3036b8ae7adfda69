//===- harness/Runner.h - Parallel sample-execution engine ------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation (Tables 1-2, Section 7.3) is an embarrassingly
/// parallel sweep over (workload, detector, seed) samples, and checker
/// throughput — not checker logic — bounds how many schedules a time
/// budget can cover. ParallelRunner fans samples across a thread pool
/// with full per-sample isolation (each sample constructs its own
/// Machine, detector instance, and seed-derived PRNG streams inside
/// runSample) and delivers SampleMetrics *in submission order*,
/// independent of completion order.
///
/// Determinism contract: for a fixed spec list, run() returns
/// bit-identical metrics (timing fields excepted) for every Jobs value
/// and every completion-order permutation. Aggregation therefore
/// happens strictly after collection, over the submission-ordered
/// vector — never from worker threads.
///
/// Observability: RunnerConfig can carry an obs::Registry (counters +
/// timer stats) and an obs::TraceCollector (one Chrome-trace slice per
/// sample, one track per worker). Deterministic counters respect the
/// contract above; wall-clock spans are timing-only and never
/// golden-compared.
///
//======---------------------------------------------------------------===//

#ifndef SVD_HARNESS_RUNNER_H
#define SVD_HARNESS_RUNNER_H

#include "harness/Harness.h"

#include <functional>
#include <string>
#include <vector>

namespace svd {
namespace obs {
class Registry;
class TraceCollector;
} // namespace obs

namespace harness {

/// One (workload, detector, seed) sample to execute. The workload is
/// borrowed and must outlive the run; it is only read.
struct SampleSpec {
  const workloads::Workload *Workload = nullptr;
  std::string Detector = "svd"; ///< registry name (svd/Detector.h)
  SampleConfig Config;
};

/// Classification of one guarded sample execution (runGuarded).
/// Severity-ordered: when several conditions hold at once the runner
/// reports the most severe (Failed > TimedOut > Degraded > Ok).
enum class SampleOutcome : uint8_t {
  Ok,       ///< completed normally, detector healthy
  Degraded, ///< completed, but the detector shed state (budgets,
            ///< perturbed traces); reports may be incomplete
  TimedOut, ///< step budget exhausted even after the escalated retry
  Failed,   ///< invalid spec, or the sample pipeline threw
};

/// Stable lowercase name of \p O ("ok", "degraded", ...).
const char *sampleOutcomeName(SampleOutcome O);

/// One guarded sample's result: the metrics (zeroed when the sample
/// never completed) plus its classification.
struct SampleResult {
  SampleMetrics Metrics;
  SampleOutcome Outcome = SampleOutcome::Ok;
  /// Non-empty for every non-Ok outcome: what happened, in one line.
  std::string Diagnostic;
  /// Executions attempted (2 when the step-budget retry ran).
  uint32_t Attempts = 1;
};

/// Runner configuration.
struct RunnerConfig {
  /// Worker threads; 0 = one per hardware thread, 1 = run inline on the
  /// calling thread.
  unsigned Jobs = 1;
  /// When nonzero, the order workers *pick up* samples is permuted by
  /// this seed (results stay in submission order). Exists so tests can
  /// drive completion-order permutations through the collection path;
  /// output must be invariant under it.
  uint64_t PickupShuffleSeed = 0;
  /// Observability sink (obs/Obs.h). When set, the runner records
  /// per-sample queue-wait and run spans as timer stats and injects the
  /// registry into every sample whose SampleConfig has no sink of its
  /// own, so machine and detector counters accumulate here. Counter
  /// totals stay bit-identical for every Jobs value; only timer stats
  /// vary. Not owned.
  obs::Registry *Obs = nullptr;
  /// Chrome-trace sink (obs/ChromeTrace.h). When set, every sample
  /// becomes one slice on its worker's track — named
  /// "<workload>/<detector>/s<seed>" with queue-wait and step counts in
  /// its args — plus one whole-run aggregate slice on track 0. Not
  /// owned.
  obs::TraceCollector *Trace = nullptr;
};

/// Resolves a --jobs value: 0 becomes the hardware thread count (at
/// least 1), anything else passes through.
unsigned resolveJobs(unsigned Jobs);

/// Deterministic parallel for: executes Fn(0..N-1) on up to Jobs
/// threads. Each index runs exactly once; Fn must only write state owned
/// by its index (distinct vector slots). Jobs <= 1 runs inline in
/// ascending order.
void parallelFor(size_t N, unsigned Jobs,
                 const std::function<void(size_t)> &Fn);

/// Thread-pool sample executor. See file comment for the determinism
/// contract.
class ParallelRunner {
public:
  explicit ParallelRunner(RunnerConfig Cfg = RunnerConfig()) : Cfg(Cfg) {}

  /// Runs every spec; Result[i] corresponds to Specs[i]. A thin wrapper
  /// over runGuarded() that keeps the historical surface: metrics only,
  /// and a malformed spec or a crashing sample yields that sample's
  /// zeroed metrics (the guarded API exposes the classification).
  std::vector<SampleMetrics> run(const std::vector<SampleSpec> &Specs) const;

  /// Crash-contained variant: every spec yields a SampleResult, no
  /// matter what. Specs are pre-validated (null workload, unknown
  /// detector, bad timeslice range, mismatched detector config, more
  /// threads than hwsvd CPUs => Failed with a diagnostic, without
  /// executing); exceptions escaping a sample — including injected
  /// crashes from a fault plan — become Failed without disturbing
  /// sibling samples; a StepBudget stop is retried once at a budget four
  /// times larger and classified TimedOut if it still does not finish;
  /// a detector reporting degraded health yields Degraded. The
  /// determinism contract of run() carries over: outcomes, diagnostics,
  /// and metrics are bit-identical for every Jobs value and pickup
  /// permutation.
  std::vector<SampleResult>
  runGuarded(const std::vector<SampleSpec> &Specs) const;

private:
  RunnerConfig Cfg;
};

} // namespace harness
} // namespace svd

#endif // SVD_HARNESS_RUNNER_H
