//===- cu/CuPartition.h - Offline computational-unit inference --*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline computational-unit (CU) inference: the one-pass algorithm of
/// Figure 5, which realizes Definitions 1-3 of Section 3.2. A CU is the
/// largest group of dynamic statements obeying the region hypothesis:
///
///  1. a CU contains no true-shared dependence (a shared word written in
///     the CU is not read back inside it), and
///  2. a CU is weakly connected along true and control dependences.
///
/// The algorithm scans each thread trace once, growing CUs by merging the
/// still-`active` CUs of a statement's dependence predecessors. When a
/// statement reads a shared word recorded in a predecessor CU's shVars
/// set, that CU is deactivated — the crossing-arc cut of Definition 2 —
/// so later statements start a fresh CU.
///
/// The statement step (lines 4-16) is written once and fed either
/// straight from pdg::forEachIncoming, one event at a time, or from a
/// stored DynamicPdg.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_CU_CUPARTITION_H
#define SVD_CU_CUPARTITION_H

#include "pdg/Pdg.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace svd {
namespace cu {

/// One inferred computational unit.
struct ComputationalUnit {
  uint32_t Id = 0;
  isa::ThreadId Tid = 0;
  /// Member events (indices into the trace), ascending.
  std::vector<uint32_t> Events;
  /// Seq of the CU's last statement — "where a CU finishes its
  /// execution" (Figure 6, second pass).
  uint64_t EndSeq = 0;
  /// Seq of the CU's first statement.
  uint64_t BeginSeq = 0;
  /// Shared words written by the CU (the shVars set).
  std::vector<isa::Addr> SharedWrites;
};

/// The partition of a trace's dynamic statements into CUs.
class CuPartition {
public:
  /// Sentinel unit id for events outside any CU (lock/unlock/thread-end).
  static constexpr uint32_t NoUnit = UINT32_MAX;

  /// Runs Figure 5 over every thread trace of \p T, fed each event's
  /// arcs by pdg::forEachIncoming; no dependence graph is stored.
  static CuPartition compute(const trace::ProgramTrace &T);

  /// Runs Figure 5 over \p T reading the arcs stored in \p G, for the
  /// callers that already hold the graph.
  static CuPartition compute(const trace::ProgramTrace &T,
                             const pdg::DynamicPdg &G);

  const std::vector<ComputationalUnit> &units() const { return Units; }

  /// CU id of \p Event, or NoUnit.
  uint32_t unitOf(uint32_t Event) const { return EventUnit[Event]; }

  /// Human-readable dump (one line per CU) for debugging and the figure
  /// benches.
  std::string describe(const trace::ProgramTrace &T) const;

private:
  std::vector<ComputationalUnit> Units;
  std::vector<uint32_t> EventUnit;

  /// Figure 5 over \p T: \p Feed calls the statement step it is given
  /// once per event, ascending, with that event's incoming arcs.
  template <typename FeedFn>
  static CuPartition run(const trace::ProgramTrace &T, FeedFn &&Feed);
};

} // namespace cu
} // namespace svd

#endif // SVD_CU_CUPARTITION_H
