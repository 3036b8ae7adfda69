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
/// straight from pdg::forEachThreadIncoming, one thread trace at a time
/// and with no conflict arc built, or from a stored DynamicPdg in event
/// order. It runs one union-find `find` per dependence arc,
/// and each union-find root keeps its CU's last member event.
///
/// Two results come out of the same run. CuForest is the final
/// union-find itself: the CU count and, per statement, its CU's last
/// member, which is all Figure 6 reads of a CU (its cu.maxSeqId), so the
/// offline pipeline (svd/OfflineDetector.h) scans straight off it.
/// CuPartition materializes full CU records (members, seq span, shVars)
/// for the callers that print or inspect units: the figure benches, the
/// exact checker and the tests.
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

/// Figure 5's union-find as its last statement leaves it: the set of a
/// statement's root is its CU, and each root keeps the CU's last member
/// event.
class CuForest {
public:
  /// Runs Figure 5 over every thread trace of \p T, fed each event's
  /// true and control arcs by pdg::forEachThreadIncoming.
  static CuForest compute(const trace::ProgramTrace &T);

  /// CUs formed: statements minus successful unions.
  uint64_t numUnits() const { return Units; }

  /// Root of \p X's set (path halving).
  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  /// Last member event of statement \p E's CU; its Seq is the CU's
  /// EndSeq because trace Seq never decreases.
  uint32_t lastMemberOf(uint32_t E) { return Last[find(E)]; }

protected:
  /// N singleton sets; Last is written by each statement's step.
  explicit CuForest(size_t N);

  std::vector<uint32_t> Parent;
  /// Per root: the CU's newest member event.
  std::vector<uint32_t> Last;
  uint64_t Units = 0;
};

/// The partition of a trace's dynamic statements into CUs.
class CuPartition {
public:
  /// Sentinel unit id for events outside any CU (lock/unlock/thread-end).
  static constexpr uint32_t NoUnit = UINT32_MAX;

  /// Runs Figure 5 over every thread trace of \p T, fed each event's
  /// true and control arcs by pdg::forEachThreadIncoming; no dependence
  /// graph is stored.
  static CuPartition compute(const trace::ProgramTrace &T);

  /// Runs Figure 5 over \p T reading the arcs stored in \p G, for the
  /// callers that already hold the graph.
  static CuPartition compute(const trace::ProgramTrace &T,
                             const pdg::DynamicPdg &G);

  const std::vector<ComputationalUnit> &units() const { return Units; }

  /// CU id of \p Event, or NoUnit.
  uint32_t unitOf(uint32_t Event) const { return EventUnit[Event]; }

  /// EndSeq of \p Event's CU, or 0 when it has none.
  uint64_t endSeqOf(uint32_t Event) const {
    uint32_t U = EventUnit[Event];
    return U == NoUnit ? 0 : Units[U].EndSeq;
  }

  /// Human-readable dump (one line per CU) for debugging and the figure
  /// benches.
  std::string describe(const trace::ProgramTrace &T) const;

private:
  std::vector<ComputationalUnit> Units;
  std::vector<uint32_t> EventUnit;

  /// Figure 5 over \p T fed by \p Feed, then the records of the final
  /// union-find.
  template <typename FeedFn>
  static CuPartition materialize(const trace::ProgramTrace &T,
                                 FeedFn &&Feed);
};

} // namespace cu
} // namespace svd

#endif // SVD_CU_CUPARTITION_H
