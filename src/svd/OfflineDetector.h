//===- svd/OfflineDetector.h - Figure 6 offline algorithm -------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline, multi-pass serializability-violation detector of Section
/// 4.1. Pass 1 is the CU computation (cu/CuPartition.h, Figure 5); pass 2
/// assigns the total order and records where each CU finishes (the trace
/// already carries sequence numbers, and each union-find root keeps its
/// CU's last member event); pass 3 (this file, Figure 6) scans the total
/// order and reports a strict-2PL violation whenever a statement
/// conflicts with a statement of another thread's still-unfinished CU.
///
/// Figure 6 reads one fact of a CU, its end, so its scan is written once
/// over an "end seq of E's CU" lookup. runOfflinePipeline runs it
/// straight off Figure 5's final union-find (cu::CuForest) and builds
/// no CU record; detectOffline runs it over a materialized CuPartition.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_OFFLINEDETECTOR_H
#define SVD_SVD_OFFLINEDETECTOR_H

#include "cu/CuPartition.h"
#include "svd/Detector.h"
#include "svd/Report.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace svd {
namespace detect {

/// Opaque registry config for the offline pipeline (registry key
/// "offline"). The only tunable is the inherited MaxStateEntries,
/// which caps the recorded trace: once full, later events are dropped
/// (leaving a valid prefix) and the detector reports itself degraded.
struct OfflineDetectorConfig final : DetectorConfig {
  const char *detectorName() const override { return "offline"; }
};

/// Registers the offline pipeline as detector "offline": records the
/// full trace during the run and executes all three passes (Figures
/// 5-6) in finish(). Before analysis the trace is
/// structurally validated (trace::validate); a trace perturbed into
/// invalidity by a fault plan degrades into a diagnostic instead of
/// undefined behavior.
void registerOfflineDetector(DetectorRegistry &R);

/// Runs pass 3 of the offline algorithm over \p T with the CUs in \p CUs.
/// Returns the strict-2PL violations in detection order.
std::vector<Violation> detectOffline(const trace::ProgramTrace &T,
                                     const cu::CuPartition &CUs);

/// What runOfflinePipeline() found in one trace.
struct OfflineAnalysis {
  /// The strict-2PL violations in detection order.
  std::vector<Violation> Reports;
  uint64_t CusFormed = 0;
  /// Empty when the trace validated; otherwise "trace validation
  /// failed: " plus trace::validate's reason, and no pass ran.
  std::string Error;
};

/// The whole offline pipeline: validates \p T (trace::validate), then
/// runs the d-PDG and Figure 5 as one pass and the strict-2PL scan
/// (Figure 6) over the resulting union-find. Its counts and reports
/// equal CuPartition::compute(T) and detectOffline(T, compute(T)).
OfflineAnalysis runOfflinePipeline(const trace::ProgramTrace &T);

} // namespace detect
} // namespace svd

#endif // SVD_SVD_OFFLINEDETECTOR_H
