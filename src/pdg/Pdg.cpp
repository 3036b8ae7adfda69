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
  // The thread walker visits one thread at a time, so its arcs are
  // parked with each event's span and laid out again in event order,
  // ahead of the event's conflict arcs, as the conflict walker visits
  // every event ascending.
  struct Span {
    uint32_t Begin = 0, Size = 0;
  };
  std::vector<DepArc> ThreadArcs;
  std::vector<Span> ThreadSpan(T.size());
  // The traced workloads average about two arcs per event.
  ThreadArcs.reserve(2 * T.size());
  forEachThreadIncoming(T, [&](uint32_t E, std::span<const DepArc> In) {
    ThreadSpan[E] = {static_cast<uint32_t>(ThreadArcs.size()),
                     static_cast<uint32_t>(In.size())};
    ThreadArcs.insert(ThreadArcs.end(), In.begin(), In.end());
  });

  DynamicPdg G;
  G.Arcs.reserve(2 * T.size());
  G.InBegin.reserve(T.size() + 1);
  forEachConflictIncoming(T, [&](uint32_t E, std::span<const DepArc> In) {
    G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));
    auto First = ThreadArcs.begin() + ThreadSpan[E].Begin;
    G.Arcs.insert(G.Arcs.end(), First, First + ThreadSpan[E].Size);
    G.Arcs.insert(G.Arcs.end(), In.begin(), In.end());
  });
  G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));
  return G;
}
