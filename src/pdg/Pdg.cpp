//===- pdg/Pdg.cpp --------------------------------------------------------===//

#include "pdg/Pdg.h"

using namespace svd;
using namespace svd::pdg;
using trace::ProgramTrace;

const char *pdg::depKindName(DepKind K) {
  switch (K) {
  case DepKind::TrueLocal:
    return "true-local";
  case DepKind::TrueShared:
    return "true-shared";
  case DepKind::Control:
    return "control";
  case DepKind::Conflict:
    return "conflict";
  }
  SVD_UNREACHABLE("unknown DepKind");
}

size_t DynamicPdg::countArcs(DepKind K) const {
  size_t N = 0;
  for (const DepArc &A : Arcs)
    if (A.Kind == K)
      ++N;
  return N;
}

DynamicPdg DynamicPdg::build(const ProgramTrace &T) {
  DynamicPdg G;
  // The traced workloads average about two arcs per event.
  G.Arcs.reserve(2 * T.size());
  G.InBegin.reserve(T.size() + 1);
  forEachIncoming(T, [&G](uint32_t, std::span<const DepArc> In) {
    G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));
    G.Arcs.insert(G.Arcs.end(), In.begin(), In.end());
  });
  G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));
  return G;
}
