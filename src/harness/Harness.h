//===- harness/Harness.h - Experiment runner and metrics --------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation harness behind the svd-bench suites (Section 6's
/// methodology): run a workload under one detector for one seed (= one
/// execution sample, the analog of the paper's execution segments),
/// classify every dynamic report against the workload's ground truth,
/// deduplicate static reports by code-location pair, and aggregate
/// across samples.
///
/// Detectors are addressed by registry name ("svd", "frd", "lockset",
/// "hwsvd", "offline", "none" — see svd/Detector.h), and a sample's
/// detector configuration travels as an opaque detect::DetectorConfig.
/// runSample is a pure function of (workload, detector, config): it
/// builds a fresh Machine and a fresh detector instance per call and
/// touches no shared mutable state, so samples may run concurrently
/// (harness/Runner.h) as long as the Workload outlives them.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_HARNESS_HARNESS_H
#define SVD_HARNESS_HARNESS_H

#include "svd/Detector.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace svd {
namespace obs {
class Registry;
} // namespace obs

namespace fault {
class FaultPlan;
} // namespace fault

namespace harness {

/// The process-wide detector registry, populated with every built-in
/// detector on first use (thread-safe).
const detect::DetectorRegistry &detectorRegistry();

/// Per-sample configuration. Copyable and shareable across runner
/// threads: the detector config is immutable behind a shared_ptr, and
/// every PRNG stream of a sample is derived from Seed inside runSample.
struct SampleConfig {
  uint64_t Seed = 1;
  /// Scheduler timeslices; >1 models coarser preemption (the paper's
  /// 4-CPU SMP interleaves at cache-miss granularity, not per-instr).
  uint32_t MinTimeslice = 1;
  uint32_t MaxTimeslice = 1;
  uint64_t MaxSteps = 50'000'000;
  /// Opaque per-detector configuration (null = detector defaults). Must
  /// belong to the detector the sample runs under.
  std::shared_ptr<const detect::DetectorConfig> Detector;
  /// Observability sink (obs/Obs.h); when set, runSample adds the
  /// machine's and the detector's counters plus its own spans to it.
  /// Not owned; may be shared across concurrently-running samples.
  obs::Registry *Obs = nullptr;
  /// Deterministic fault plan (fault/Fault.h); null runs fault-free.
  /// Wired into the Machine (vm::FaultHooks) and offered to the
  /// detector (Detector::injectFaults). Not owned; a plan is immutable
  /// and shareable across concurrently-running samples.
  const fault::FaultPlan *Faults = nullptr;
};

/// Salt folded into SampleConfig::Seed to derive the `rnd`-stream seed,
/// keeping the scheduler and program-input streams decorrelated while
/// both remain pure functions of the sample seed.
inline constexpr uint64_t RndSeedSalt = 0xABCDEF12345ULL;

/// THE machine-configuration derivation for an execution sample —
/// SchedSeed = Seed, RndSeed = Seed ^ RndSeedSalt, timeslices and step
/// budget copied — used by every path that executes a sample: runSample,
/// and every svd-bench suite that builds its own Machine. Captions
/// quoting "seed N" always mean this derivation; nothing builds a bare
/// default-configured Machine for a seeded sample.
vm::MachineConfig machineConfigFor(const SampleConfig &C);

/// Everything measured from one (workload, detector, seed) sample; the
/// report classification comes from the workloads::ReportTally base.
/// A plain value: producing one sample writes no state outside this
/// struct, so concurrent collection into distinct slots is safe.
struct SampleMetrics : workloads::ReportTally {
  uint64_t Steps = 0;  ///< executed instructions
  /// Why the machine's run loop stopped (AllHalted on clean runs).
  vm::StopReason Stop = vm::StopReason::AllHalted;
  /// Detector health after finish() (svd/Detector.h). Degraded means
  /// the detector hit a resource budget or consumed a perturbed trace;
  /// its reports may be incomplete but the sample is still usable.
  bool DetectorDegraded = false;
  std::string DegradedReason;
  uint64_t DetectorEvictions = 0;
  bool Manifested = false;       ///< did the known bug manifest?
  bool LogFoundBug = false;      ///< any true a-posteriori log entry?
  size_t CusFormed = 0;          ///< SVD only
  size_t LogEntries = 0;         ///< SVD only (dynamic)
  size_t StaticLogEntries = 0;   ///< SVD only (deduped)
  size_t DetectorBytes = 0;
  double DetectorSeconds = 0.0;
  /// Static identities of the CU-log entries (for cross-sample unions
  /// in the Table 2 bench), sorted ascending like the report keys.
  std::vector<uint64_t> StaticLogKeys;
};

/// Runs one sample of \p W under the registry detector \p Detector.
/// The same seed gives the identical execution for every detector (the
/// deterministic-replay methodology of Section 6.1).
SampleMetrics runSample(const workloads::Workload &W,
                        const std::string &Detector,
                        const SampleConfig &C);

/// Wall-clock seconds from \p T0 to now.
double secondsSince(std::chrono::steady_clock::time_point T0);

/// Minimal fixed-width ASCII table printer for the suites' text output.
class TextTable {
public:
  explicit TextTable(std::vector<std::string> Headers);
  void addRow(std::vector<std::string> Cells);
  std::string render() const;

private:
  std::vector<std::vector<std::string>> Rows;
};

} // namespace harness
} // namespace svd

#endif // SVD_HARNESS_HARNESS_H
