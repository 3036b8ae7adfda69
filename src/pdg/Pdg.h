//===- pdg/Pdg.h - Dynamic program dependence graph -------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The d-PDG of Section 3.1: a DAG over the dynamic statements of a
/// program trace with three arc families:
///
///  * **true** dependences (read-after-write through registers or memory,
///    intra-thread), partitioned into true-local and true-shared by
///    whether the carrying location is shared among threads;
///  * **control** dependences (intra-thread, from the nearest enclosing
///    unreconverged conditional branch);
///  * **conflict** dependences (inter-thread, consecutive conflicting
///    accesses to the same location).
///
/// Arcs are stored as (From, To) with From executed before To, i.e. the
/// paper's (a <- b) arc appears here as From = b, To = a.
///
/// Storage is compressed sparse row: build() emits every arc while it
/// processes the arc's To event, so arcs() is sorted by To and the arcs
/// ending at one event form a contiguous index range, delimited by one
/// offset per event.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_PDG_PDG_H
#define SVD_PDG_PDG_H

#include "trace/Trace.h"

#include <cstdint>
#include <ranges>
#include <vector>

namespace svd {
namespace pdg {

/// Arc families of the d-PDG.
enum class DepKind : uint8_t {
  TrueLocal,  ///< RAW through a register or unshared memory word
  TrueShared, ///< RAW through a shared memory word (still intra-thread)
  Control,    ///< dynamic control dependence
  Conflict,   ///< inter-thread conflicting accesses
};

/// Returns a printable name for \p K.
const char *depKindName(DepKind K);

/// One dependence arc between dynamic statements (event indices).
struct DepArc {
  uint32_t From = 0; ///< earlier event
  uint32_t To = 0;   ///< later event
  DepKind Kind = DepKind::TrueLocal;
  /// True when the dependence is carried by a memory word rather than a
  /// register (always true for TrueShared and Conflict).
  bool ViaMemory = false;
  /// The carrying word for memory-carried and conflict arcs.
  isa::Addr Address = 0;
};

/// The dependence graph of one recorded execution.
class DynamicPdg {
public:
  /// Builds the d-PDG of \p T. Control dependences use the precise
  /// immediate-postdominator reconvergence policy (the offline algorithm
  /// is entitled to exact information; the online detector's Skipper
  /// heuristic lives in svd/OnlineSvd).
  static DynamicPdg build(const trace::ProgramTrace &T);

  const std::vector<DepArc> &arcs() const { return Arcs; }

  /// Indices into arcs() of the arcs ending at \p Event, ascending.
  std::ranges::iota_view<uint32_t, uint32_t> incoming(uint32_t Event) const {
    return std::views::iota(InBegin[Event], InBegin[Event + 1]);
  }

  /// Number of arcs of kind \p K.
  size_t countArcs(DepKind K) const;

private:
  /// All arcs, sorted by To.
  std::vector<DepArc> Arcs;
  /// CSR offsets: the arcs ending at event E are
  /// Arcs[InBegin[E] .. InBegin[E + 1]). Size: events + 1.
  std::vector<uint32_t> InBegin;

  void addArc(const DepArc &A);
};

} // namespace pdg
} // namespace svd

#endif // SVD_PDG_PDG_H
