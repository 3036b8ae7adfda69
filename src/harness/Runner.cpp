//===- harness/Runner.cpp -------------------------------------------------===//

#include "harness/Runner.h"

#include "obs/ChromeTrace.h"
#include "obs/Obs.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "svd/HardwareSvd.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <numeric>
#include <thread>

using namespace svd;
using namespace svd::harness;

const char *harness::sampleOutcomeName(SampleOutcome O) {
  switch (O) {
  case SampleOutcome::Ok:
    return "ok";
  case SampleOutcome::Degraded:
    return "degraded";
  case SampleOutcome::TimedOut:
    return "timed-out";
  case SampleOutcome::Failed:
    return "failed";
  }
  return "unknown";
}

unsigned harness::resolveJobs(unsigned Jobs) {
  if (Jobs != 0)
    return Jobs;
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : Hw;
}

namespace {

/// Executions runGuarded attempts per sample: the first at the spec's
/// MaxSteps, then, when that stops on the step budget, one retry at an
/// escalated budget before the sample is classified TimedOut.
constexpr uint32_t GuardedAttempts = 2;
/// Step-budget multiplier applied per guarded retry.
constexpr uint64_t RetryStepFactor = 4;

/// SplitMix64 step; used only to derive the test-only pickup
/// permutation, never for sample state.
uint64_t splitMix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Fisher-Yates over the pickup order. A plain permutation keeps the
/// index set exactly {0..N-1}; only the order workers *claim* indices
/// changes, so every result still lands in its own slot.
std::vector<size_t> pickupOrder(size_t N, uint64_t ShuffleSeed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  if (ShuffleSeed == 0)
    return Order;
  uint64_t S = ShuffleSeed;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[splitMix64(S) % I]);
  return Order;
}

/// Runs Fn(Worker, Index) over the given claim order on up to Jobs
/// worker threads (Worker identifies the executing pool thread, 0-based;
/// the inline path is worker 0). Work pickup is an atomic fetch-add over
/// the order vector: whichever worker is free claims the next index, so
/// completion order is scheduling-dependent — callers must not let
/// output depend on it.
void runIndexed(const std::vector<size_t> &Order, unsigned Jobs,
                const std::function<void(size_t, size_t)> &Fn) {
  size_t N = Order.size();
  if (Jobs <= 1 || N <= 1) {
    for (size_t I : Order)
      Fn(0, I);
    return;
  }
  std::atomic<size_t> Next{0};
  auto Worker = [&](size_t Me) {
    for (;;) {
      size_t Slot = Next.fetch_add(1, std::memory_order_relaxed);
      if (Slot >= N)
        return;
      Fn(Me, Order[Slot]);
    }
  };
  size_t NumThreads = std::min<size_t>(Jobs, N);
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back(Worker, T);
  for (std::thread &T : Threads)
    T.join();
}

uint64_t elapsedNs(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}

/// Returns a Failed result with \p Why, leaving the metrics zeroed.
SampleResult failedSample(const std::string &Why) {
  SampleResult R;
  R.Outcome = SampleOutcome::Failed;
  R.Diagnostic = Why;
  return R;
}

/// Rejects specs that would abort inside the sample pipeline (factory
/// fatalError / detector constructor fatalError), so every malformed
/// spec degrades into a per-sample diagnostic instead of taking the
/// whole process down. Returns an empty string when the spec is sound.
std::string validateSpec(const SampleSpec &S) {
  if (!S.Workload)
    return "null workload in sample spec";
  const detect::DetectorRegistry::Entry *E =
      detectorRegistry().find(S.Detector);
  if (!E)
    return "unknown detector '" + S.Detector + "'";
  if (S.Config.MinTimeslice == 0 ||
      S.Config.MaxTimeslice < S.Config.MinTimeslice)
    return support::formatString(
        "invalid timeslice range [%u, %u]", S.Config.MinTimeslice,
        S.Config.MaxTimeslice);
  const detect::DetectorConfig *DC = S.Config.Detector.get();
  if (DC && std::strcmp(DC->detectorName(), S.Detector.c_str()) != 0)
    return std::string("config for detector '") + DC->detectorName() +
           "' attached to sample running detector '" + S.Detector + "'";
  if (S.Detector == "hwsvd") {
    const auto *HC = static_cast<const detect::HardwareSvdDetectorConfig *>(DC);
    uint32_t NumCpus =
        HC ? HC->Hw.Cache.NumCpus : detect::HardwareSvdConfig().Cache.NumCpus;
    uint32_t Threads = S.Workload->Program.numThreads();
    if (Threads > NumCpus)
      return support::formatString(
          "hardware SVD supports at most %u threads, workload has %u",
          NumCpus, Threads);
  }
  return std::string();
}

/// Runs one pre-validated spec under the guard: exceptions become
/// Failed, a persistent StepBudget stop becomes TimedOut (after the
/// escalated retries), degraded detector health becomes Degraded. Never
/// throws.
SampleResult guardedSample(const SampleSpec &S) {
  SampleResult R;
  SampleConfig C = S.Config;
  for (uint32_t Attempt = 1;; ++Attempt) {
    R.Attempts = Attempt;
    try {
      R.Metrics = runSample(*S.Workload, S.Detector, C);
    } catch (const std::exception &E) {
      R.Metrics = SampleMetrics();
      R.Outcome = SampleOutcome::Failed;
      R.Diagnostic = E.what();
      return R;
    } catch (...) {
      R.Metrics = SampleMetrics();
      R.Outcome = SampleOutcome::Failed;
      R.Diagnostic = "unknown exception escaped sample execution";
      return R;
    }
    if (R.Metrics.Stop != vm::StopReason::StepBudget ||
        Attempt >= GuardedAttempts)
      break;
    // Escalate the budget and re-run; the retry decision depends only
    // on the deterministic StopReason, so the determinism contract
    // holds (a retried sample is retried at every Jobs value).
    uint64_t Escalated = C.MaxSteps * RetryStepFactor;
    // Saturate when the multiplication wrapped.
    C.MaxSteps = Escalated / RetryStepFactor == C.MaxSteps ? Escalated
                                                           : UINT64_MAX;
  }
  if (R.Metrics.Stop == vm::StopReason::StepBudget) {
    R.Outcome = SampleOutcome::TimedOut;
    R.Diagnostic = support::formatString(
        "step budget exhausted after %u attempt%s (final budget %llu)",
        R.Attempts, R.Attempts == 1 ? "" : "s",
        static_cast<unsigned long long>(C.MaxSteps));
  } else if (R.Metrics.DetectorDegraded) {
    R.Outcome = SampleOutcome::Degraded;
    R.Diagnostic = R.Metrics.DegradedReason.empty()
                       ? "detector degraded"
                       : R.Metrics.DegradedReason;
  }
  return R;
}

} // namespace

void harness::parallelFor(size_t N, unsigned Jobs,
                          const std::function<void(size_t)> &Fn) {
  runIndexed(pickupOrder(N, /*ShuffleSeed=*/0), resolveJobs(Jobs),
             [&Fn](size_t, size_t I) { Fn(I); });
}

std::vector<SampleMetrics>
ParallelRunner::run(const std::vector<SampleSpec> &Specs) const {
  std::vector<SampleResult> Guarded = runGuarded(Specs);
  std::vector<SampleMetrics> Results;
  Results.reserve(Guarded.size());
  for (SampleResult &R : Guarded)
    Results.push_back(std::move(R.Metrics));
  return Results;
}

std::vector<SampleResult>
ParallelRunner::runGuarded(const std::vector<SampleSpec> &Specs) const {
  obs::Registry *Obs = Cfg.Obs;
  obs::TraceCollector *Trace = Cfg.Trace;
  auto Submit = std::chrono::steady_clock::now();
  uint64_t SubmitTraceNs = Trace ? Trace->nowNs() : 0;
  unsigned Jobs = resolveJobs(Cfg.Jobs);

  // Results are preallocated so each worker writes only its own slot;
  // the vector is already in submission order when the last join
  // returns.
  std::vector<SampleResult> Results(Specs.size());
  runIndexed(
      pickupOrder(Specs.size(), Cfg.PickupShuffleSeed), Jobs,
      [&](size_t Worker, size_t I) {
        const SampleSpec &S = Specs[I];
        // Queue wait: submission (run() entry) to this worker claiming
        // the sample. Purely wall-clock — a timing stat and trace arg,
        // never part of the deterministic metrics.
        uint64_t QueueWaitNs = elapsedNs(Submit);
        uint64_t ClaimTraceNs = Trace ? Trace->nowNs() : 0;
        auto Claim = std::chrono::steady_clock::now();

        std::string SpecError = validateSpec(S);
        if (!SpecError.empty()) {
          Results[I] = failedSample(SpecError);
        } else {
          SampleSpec Spec = S;
          if (!Spec.Config.Obs)
            Spec.Config.Obs = Obs;
          Results[I] = guardedSample(Spec);
        }

        uint64_t RunNs = elapsedNs(Claim);
        if (Obs) {
          Obs->timer("runner.sample.queue_wait").recordNs(QueueWaitNs);
          Obs->timer("runner.sample.run").recordNs(RunNs);
        }
        if (Trace) {
          const SampleMetrics &M = Results[I].Metrics;
          obs::TraceSpan Span;
          Span.Name = support::formatString(
              "%s/%s/s%llu",
              S.Workload ? S.Workload->Name.c_str() : "(null)",
              S.Detector.c_str(),
              static_cast<unsigned long long>(S.Config.Seed));
          Span.Cat = "sample";
          // Track 0 is the runner's aggregate track; workers start at 1.
          Span.Track = static_cast<uint32_t>(Worker + 1);
          Span.StartNs = ClaimTraceNs;
          Span.DurNs = RunNs;
          Span.Args = {
              {"workload", support::jsonString(
                               S.Workload ? S.Workload->Name : "(null)")},
              {"detector", support::jsonString(S.Detector)},
              {"seed", support::formatString(
                           "%llu",
                           static_cast<unsigned long long>(S.Config.Seed))},
              {"steps", support::formatString(
                            "%llu",
                            static_cast<unsigned long long>(M.Steps))},
              {"dynamic_reports",
               support::formatString("%zu", M.DynamicReports)},
              {"queue_wait_us",
               support::formatString(
                   "%llu",
                   static_cast<unsigned long long>(QueueWaitNs / 1000))},
          };
          Trace->add(std::move(Span));
        }
      });

  // Outcome counters, aggregated post-join from the submission-ordered
  // results (deterministic for every Jobs value). Exported only when
  // nonzero so fault-free runs keep the historical counter inventory
  // (the bench_table1_counters golden pins it).
  if (Obs) {
    uint64_t Failed = 0, TimedOut = 0, Degraded = 0, Retries = 0;
    for (const SampleResult &R : Results) {
      Failed += R.Outcome == SampleOutcome::Failed;
      TimedOut += R.Outcome == SampleOutcome::TimedOut;
      Degraded += R.Outcome == SampleOutcome::Degraded;
      Retries += R.Attempts > 1 ? R.Attempts - 1 : 0;
    }
    if (Failed)
      Obs->counter("runner.samples_failed").add(Failed);
    if (TimedOut)
      Obs->counter("runner.samples_timed_out").add(TimedOut);
    if (Degraded)
      Obs->counter("runner.samples_degraded").add(Degraded);
    if (Retries)
      Obs->counter("runner.sample_retries").add(Retries);
  }

  // The aggregate span covers submission through the submission-ordered
  // results becoming available (the join above).
  uint64_t TotalNs = elapsedNs(Submit);
  if (Obs)
    Obs->timer("runner.total").recordNs(TotalNs);
  if (Trace) {
    Trace->nameTrack(0, "runner");
    for (unsigned W = 1;
         W <= std::min<size_t>(Jobs, Specs.empty() ? 1 : Specs.size()); ++W)
      Trace->nameTrack(W, support::formatString("worker %u", W));
    obs::TraceSpan Agg;
    Agg.Name = support::formatString("aggregate (%zu samples, %u jobs)",
                                     Specs.size(), Jobs);
    Agg.Cat = "runner";
    Agg.Track = 0;
    Agg.StartNs = SubmitTraceNs;
    Agg.DurNs = TotalNs;
    Trace->add(std::move(Agg));
  }
  return Results;
}
