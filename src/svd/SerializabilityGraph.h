//===- svd/SerializabilityGraph.h - Exact serializability check -*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's strict-2PL test is sufficient but not necessary for
/// serializability, and Section 3.3 defers "more accurate detection of
/// serializability violations... with higher detection cost" to future
/// work. This file implements that future work offline: the classic
/// conflict-serializability test from database theory (Papadimitriou
/// [25]) over the inferred CUs.
///
/// Build the *precedence graph*: one node per CU, an edge CU_i -> CU_j
/// whenever an operation of CU_i conflicts with a later operation of
/// CU_j (different threads), plus program-order edges between a thread's
/// own CUs. The execution is conflict-serializable iff the graph is
/// acyclic; each strongly connected component of size > 1 is a genuine
/// serializability violation witness.
///
/// Comparing this exact test against the strict-2PL scan (Figure 6)
/// quantifies how many of the offline algorithm's reports are
/// 2PL-artifacts (see `svd-bench --suite exact`).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_SERIALIZABILITYGRAPH_H
#define SVD_SVD_SERIALIZABILITYGRAPH_H

#include "cu/CuPartition.h"
#include "pdg/Pdg.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace svd {
namespace detect {

/// One edge of the precedence graph.
struct PrecedenceEdge {
  uint32_t FromCu = 0;
  uint32_t ToCu = 0;
  /// True for intra-thread program-order edges, false for conflict
  /// edges.
  bool ProgramOrder = false;
  /// For conflict edges: the witnessing word and events.
  isa::Addr Address = 0;
  uint32_t FromEvent = 0;
  uint32_t ToEvent = 0;
};

/// The CU precedence graph plus its cycle analysis.
class SerializabilityGraph {
public:
  /// Builds the graph from a trace, its d-PDG, and its CU partition.
  static SerializabilityGraph build(const trace::ProgramTrace &T,
                                    const pdg::DynamicPdg &G,
                                    const cu::CuPartition &CUs);

  const std::vector<PrecedenceEdge> &edges() const { return Edges; }

  /// True iff the precedence graph is acyclic (the execution is
  /// conflict-serializable with respect to the inferred CUs).
  bool isSerializable() const { return Cycles.empty(); }

  /// The strongly connected components with more than one CU — each is
  /// a witness of non-serializability. CU ids, ascending.
  const std::vector<std::vector<uint32_t>> &cycles() const {
    return Cycles;
  }

  /// Human-readable summary of the cycles (for the benches).
  std::string describeCycles(const trace::ProgramTrace &T,
                             const cu::CuPartition &CUs) const;

private:
  size_t NumCus = 0;
  std::vector<PrecedenceEdge> Edges;
  std::vector<std::vector<uint32_t>> Cycles;

  void findCycles();
};

} // namespace detect
} // namespace svd

#endif // SVD_SVD_SERIALIZABILITYGRAPH_H
