//===- svd/Detector.h - Unified detector interface and registry -*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detector surface the harness and the svd-bench runner program
/// against. Historically the harness hardcoded an enum switch over
/// three detectors; that cannot express per-sample detector
/// construction across runner threads, nor detectors added by other
/// libraries. Instead:
///
///  * \c Detector is one detector *instance* bound to one Machine run:
///    construct, \c attach() observers, run the machine, \c finish(),
///    then read \c reports() / \c cuLog() / statistics. Instances are
///    single-run and single-thread; cross-sample parallelism comes from
///    creating one instance per sample (harness/Runner.h).
///  * \c DetectorConfig is the opaque per-detector configuration a
///    \c harness::SampleConfig carries. Each detector defines its own
///    subclass (e.g. \c OnlineSvdDetectorConfig); the factory checks
///    \c detectorName() before downcasting, so a config can never reach
///    the wrong detector.
///  * \c DetectorRegistry maps stable string keys ("svd", "frd",
///    "lockset", "hwsvd", "offline", "none") to factories. Detectors
///    register themselves via the register hooks their own translation
///    units define (registerOnlineSvdDetector and friends);
///    \c harness::detectorRegistry() assembles the default registry.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_DETECTOR_H
#define SVD_SVD_DETECTOR_H

#include "isa/Program.h"
#include "svd/Report.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace svd {
namespace obs {
class Registry;
} // namespace obs

namespace vm {
class Machine;
} // namespace vm

namespace fault {
class FaultPlan;
} // namespace fault

namespace detect {

/// Opaque per-detector configuration. Concrete configs subclass this in
/// the detector's own header; consumers pass them around by pointer
/// without knowing the shape. Configs are immutable once handed to a
/// SampleConfig and may be shared across concurrently-running samples,
/// so subclasses must not carry run state.
class DetectorConfig {
public:
  virtual ~DetectorConfig();
  /// Registry key of the only detector allowed to consume this config.
  virtual const char *detectorName() const = 0;

  /// Upper bound on the detector's live state, in detector-defined
  /// entries (CUs for the SVD family, recorded events for the offline
  /// path) rather than bytes, so the budget is deterministic across
  /// hosts and allocators. 0 (default) means unbounded. A detector
  /// over budget evicts deterministically and raises its Degraded flag
  /// instead of growing without bound — see Detector::health().
  uint64_t MaxStateEntries = 0;
};

/// Degradation status of one detector instance (valid after finish()).
/// Degraded is sticky: once raised it stays raised for the rest of the
/// run, so a sample can be classified from the final state alone.
struct DetectorHealth {
  bool Degraded = false;
  /// Human-readable cause, e.g. "cu budget exceeded (8 entries)".
  std::string Reason;
  /// State entries deterministically evicted to stay under budget
  /// (or trace events dropped/corrupted on the offline path).
  uint64_t Evictions = 0;
};

/// One detector instance for one Machine run.
class Detector {
public:
  virtual ~Detector();

  /// Registry key of this detector ("svd", "frd", ...).
  virtual const char *name() const = 0;

  /// Attaches the detector's observers to \p M. Call before M.run().
  virtual void attach(vm::Machine &M) = 0;

  /// Shadow pages this instance has materialized (0 when the detector
  /// keeps no shadow state). Deterministic for a deterministic
  /// execution — page allocation order is touch order.
  virtual uint64_t shadowPages() const;

  /// Bytes held by materialized shadow pages (0 when untracked).
  virtual size_t shadowBytes() const;

  /// Called once after the run completes. Online detectors ignore it;
  /// offline detectors analyze the recorded trace here.
  virtual void finish(const vm::Machine &M);

  /// Hands the detector the sample's fault plan before attach(), so
  /// detectors with an observation side of their own (the offline
  /// trace recorder) can perturb it. The base implementation ignores
  /// the plan; execution-side faults flow through vm::FaultHooks
  /// regardless of this call. \p Plan may be null (fault-free) and is
  /// not owned; it must outlive the detector.
  virtual void injectFaults(const fault::FaultPlan *Plan);

  /// Degradation status (valid after finish()). The base
  /// implementation reports a clean bill; detectors supporting budgets
  /// (MaxStateEntries) or perturbed observation override it.
  virtual const DetectorHealth &health() const;

  /// Dynamic reports in detection order (valid after finish()).
  virtual const std::vector<Violation> &reports() const = 0;

  /// The a-posteriori CU log (SVD family; empty for race detectors).
  virtual const std::vector<CuLogEntry> &cuLog() const;

  /// Rough detector memory accounting in bytes (0 when not tracked).
  virtual size_t approxMemoryBytes() const;

  /// CUs formed over the run (SVD family; 0 otherwise).
  virtual uint64_t numCusFormed() const;

  /// Adds this instance's counters to \p R under the
  /// "detect.<name()>." prefix (obs/Obs.h). The base implementation
  /// exports reports / cus_formed / log_entries / memory_bytes, plus
  /// degraded / degraded_evictions — the latter only when health()
  /// reports degradation — plus "shadow.<name()>.pages" / ".bytes"
  /// only when shadowPages() is nonzero, so runs of detectors without
  /// shadow state export exactly the historical counter set (the
  /// bench_table1_counters golden pins it). Detectors with richer
  /// internals (filtered accesses, cache events) extend it. Call after
  /// finish(); all exported values are deterministic for a
  /// deterministic execution. The full key namespace is pinned in
  /// DESIGN.md and enforced by obs::isDocumentedKey.
  virtual void exportStats(obs::Registry &R) const;
};

/// Name-keyed detector factory registry.
class DetectorRegistry {
public:
  /// Builds a detector instance for \p P. \p Cfg is null for defaults;
  /// a non-null config whose detectorName() mismatches is a fatal
  /// error (it can only be a caller bug, never user input).
  using Factory = std::function<std::unique_ptr<Detector>(
      const isa::Program &P, const DetectorConfig *Cfg)>;

  struct Entry {
    std::string Name; ///< registry key, e.g. "svd"
    Factory Create;
  };

  /// Registers \p E; a duplicate key is a fatal error.
  void add(Entry E);

  /// Returns the entry for \p Name, or null when unknown.
  const Entry *find(const std::string &Name) const;

  /// Creates an instance of \p Name; fatal on unknown names (callers
  /// validate user input with find() first).
  std::unique_ptr<Detector> create(const std::string &Name,
                                   const isa::Program &P,
                                   const DetectorConfig *Cfg = nullptr) const;

  /// Registered keys in registration order.
  std::vector<std::string> names() const;

private:
  std::vector<Entry> Entries;
};

/// In a factory, checks that \p Cfg (possibly null) belongs to
/// \p Name and returns it downcast to \p ConfigT (null stays null).
/// Fatal on mismatch.
const DetectorConfig *checkConfigKind(const DetectorConfig *Cfg,
                                      const char *Name);

template <typename ConfigT>
const ConfigT *configAs(const DetectorConfig *Cfg, const char *Name) {
  return static_cast<const ConfigT *>(checkConfigKind(Cfg, Name));
}

/// Registers the "none" pseudo-detector: attaches nothing and never
/// reports. The bare-execution baseline of overhead measurements and
/// the Table 1 inventory suite.
void registerBareDetector(DetectorRegistry &R);

} // namespace detect
} // namespace svd

#endif // SVD_SVD_DETECTOR_H
