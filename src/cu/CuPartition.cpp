//===- cu/CuPartition.cpp -------------------------------------------------===//

#include "cu/CuPartition.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace svd;
using namespace svd::cu;
using pdg::DepArc;
using pdg::DepKind;
using support::formatString;
using trace::EventKind;
using trace::ProgramTrace;
using trace::TraceEvent;

CuForest::CuForest(size_t N) : Parent(N), Last(N) {
  for (size_t I = 0; I < N; ++I)
    Parent[I] = static_cast<uint32_t>(I);
}

namespace {

/// The forest plus Figure 5's per-root CU payload (the `active` flag and
/// shVars set of CU_T), united by member count. Every operation but
/// find takes roots. A root's shVars set is a sorted vector in a pool,
/// allocated when the root's CU first writes a shared word; most CUs
/// never do.
class UnionFind : public CuForest {
public:
  static constexpr uint32_t NoShVars = UINT32_MAX;

  explicit UnionFind(size_t N)
      : CuForest(N), Size(N, 1), Active(N, 0), ShVarsOf(N, NoShVars) {}

  /// Merges the sets of roots \p A and \p B, one CU fewer; returns the
  /// new root. The payload (active, shVars) is combined.
  uint32_t merge(uint32_t A, uint32_t B) {
    // Union by member count keeps every tree shallow: a long CU absorbing
    // one new statement at a time would otherwise grow a parent chain.
    if (Size[A] < Size[B])
      std::swap(A, B);
    Parent[B] = A;
    Size[A] += Size[B];
    Active[A] = Active[A] | Active[B];
    --Units;
    // The larger shVars set stays with the root, so only the smaller
    // one is copied; when B still has a pool entry, A has one too.
    if (shVarCount(A) < shVarCount(B))
      std::swap(ShVarsOf[A], ShVarsOf[B]);
    if (ShVarsOf[B] != NoShVars) {
      std::vector<isa::Addr> &Into = Pool[ShVarsOf[A]];
      std::vector<isa::Addr> &From = Pool[ShVarsOf[B]];
      Merged.clear();
      std::set_union(Into.begin(), Into.end(), From.begin(), From.end(),
                     std::back_inserter(Merged));
      Into.swap(Merged);
      From = std::vector<isa::Addr>();
      ShVarsOf[B] = NoShVars;
    }
    return A;
  }

  /// Counts one more statement: it starts as a singleton CU.
  void addStatement() { ++Units; }
  /// Closes the step of statement \p E, which ended in \p Root's CU:
  /// the CU stays active (line 14) and E is its newest member.
  void endStep(uint32_t Root, uint32_t E) {
    Active[Root] = 1;
    Last[Root] = E;
  }

  bool isActive(uint32_t Root) const { return Active[Root] != 0; }
  void deactivate(uint32_t Root) { Active[Root] = 0; }
  bool hasShVar(uint32_t Root, isa::Addr A) const {
    uint32_t Idx = ShVarsOf[Root];
    return Idx != NoShVars &&
           std::binary_search(Pool[Idx].begin(), Pool[Idx].end(), A);
  }
  void addShVar(uint32_t Root, isa::Addr A) {
    uint32_t &Idx = ShVarsOf[Root];
    if (Idx == NoShVars) {
      Idx = static_cast<uint32_t>(Pool.size());
      Pool.push_back({A});
      return;
    }
    std::vector<isa::Addr> &Sh = Pool[Idx];
    auto It = std::lower_bound(Sh.begin(), Sh.end(), A);
    if (It == Sh.end() || *It != A)
      Sh.insert(It, A);
  }
  /// Moves the (ascending) shVars set of \p Root out of the pool.
  std::vector<isa::Addr> takeShVars(uint32_t Root) {
    uint32_t Idx = ShVarsOf[Root];
    return Idx == NoShVars ? std::vector<isa::Addr>()
                           : std::move(Pool[Idx]);
  }

private:
  /// Member count of each root's set.
  std::vector<uint32_t> Size;
  std::vector<uint8_t> Active;
  /// Pool index of each root's shVars set, or NoShVars when empty.
  std::vector<uint32_t> ShVarsOf;
  std::vector<std::vector<isa::Addr>> Pool;
  /// Scratch output of set_union, reused across merges.
  std::vector<isa::Addr> Merged;

  size_t shVarCount(uint32_t Root) const {
    return ShVarsOf[Root] == NoShVars ? 0 : Pool[ShVarsOf[Root]].size();
  }
};

/// Returns true for events that are dynamic statements (CU members).
bool isStatement(const TraceEvent &E) {
  switch (E.Kind) {
  case EventKind::Load:
  case EventKind::Store:
  case EventKind::Alu:
  case EventKind::Branch:
    return true;
  default:
    return false;
  }
}

/// Figure 5 over \p T: \p Feed calls the statement step it is given once
/// per event, ascending, with that event's incoming arcs.
template <typename FeedFn>
UnionFind run(const ProgramTrace &T, FeedFn &&Feed) {
  UnionFind UF(T.size());

  // Figure 5, per thread trace, in execution order. Processing the global
  // order restricted to statements is equivalent since all inspected arcs
  // are intra-thread.
  Feed([&](uint32_t E, std::span<const DepArc> In) {
    const TraceEvent &Ev = T[E];
    if (!isStatement(Ev))
      return;
    UF.addStatement();

    // No earlier step can have merged s, so its CU starts as itself.
    // Each arc resolves its predecessor's root once. A predecessor CU is
    // judged on its own payload, which no merge of this step touches, so
    // cutting and merging in one pass is Figure 5's two loops.
    uint32_t Root = E;
    bool IsLoad = Ev.Kind == EventKind::Load;
    for (const DepArc &A : In) {
      if (A.Kind == DepKind::Conflict)
        continue; // depPred holds true/control predecessors only
      uint32_t Pred = UF.find(A.From);
      if (Pred == Root || !UF.isActive(Pred))
        continue;
      // Lines 4-9: if s reads word v and the predecessor's active CU has
      // v among its shared writes, that CU is cut here.
      if (IsLoad && UF.hasShVar(Pred, Ev.Address)) {
        UF.deactivate(Pred);
        continue;
      }
      // Lines 10-13: merge the still-active predecessor CU into s's CU.
      Root = UF.merge(Root, Pred);
    }

    // Line 14: the grown CU keeps connecting to future statements.
    UF.endStep(Root, E);

    // Lines 15-16: record shared words written by the CU.
    if (Ev.Kind == EventKind::Store && T.isSharedAddress(Ev.Address))
      UF.addShVar(Root, Ev.Address);
  });
  return UF;
}

} // namespace

CuForest CuForest::compute(const ProgramTrace &T) {
  // Only the forest survives; the CU payload dies with the union-find.
  return static_cast<CuForest &&>(
      run(T, [&T](auto &&Step) { pdg::forEachIncoming(T, Step); }));
}

template <typename FeedFn>
CuPartition CuPartition::materialize(const ProgramTrace &T, FeedFn &&Feed) {
  UnionFind UF = run(T, Feed);
  CuPartition Out;
  size_t N = T.size();
  Out.EventUnit.assign(N, NoUnit);

  // Collect the final weakly connected components into CU records,
  // numbered by first member event.
  std::vector<uint32_t> RootToUnit(N, NoUnit);
  for (uint32_t E = 0; E < N; ++E) {
    if (!isStatement(T[E]))
      continue;
    uint32_t Root = UF.find(E);
    uint32_t &UnitId = RootToUnit[Root];
    if (UnitId == NoUnit) {
      UnitId = static_cast<uint32_t>(Out.Units.size());
      ComputationalUnit U;
      U.Id = UnitId;
      U.Tid = T[E].Tid;
      U.BeginSeq = T[E].Seq;
      U.SharedWrites = UF.takeShVars(Root);
      Out.Units.push_back(std::move(U));
    }
    ComputationalUnit &U = Out.Units[UnitId];
    U.Events.push_back(E);
    U.EndSeq = std::max(U.EndSeq, T[E].Seq);
    Out.EventUnit[E] = U.Id;
  }
  return Out;
}

CuPartition CuPartition::compute(const ProgramTrace &T) {
  return materialize(T, [&T](auto &&Step) { pdg::forEachIncoming(T, Step); });
}

CuPartition CuPartition::compute(const ProgramTrace &T,
                                 const pdg::DynamicPdg &G) {
  return materialize(T, [&](auto &&Step) {
    for (uint32_t E = 0; E < T.size(); ++E)
      Step(E, G.incoming(E));
  });
}

std::string CuPartition::describe(const ProgramTrace &T) const {
  std::string Out;
  for (const ComputationalUnit &U : Units) {
    Out += formatString("CU %u (thread %u, %zu stmts, seq %llu-%llu)",
                        U.Id, U.Tid, U.Events.size(),
                        static_cast<unsigned long long>(U.BeginSeq),
                        static_cast<unsigned long long>(U.EndSeq));
    if (!U.SharedWrites.empty()) {
      Out += " writes-shared:";
      for (isa::Addr A : U.SharedWrites)
        Out += " " + T.program().describeAddress(A);
    }
    Out += "\n";
    for (uint32_t E : U.Events)
      Out += formatString("    seq %llu pc %u: %s\n",
                          static_cast<unsigned long long>(T[E].Seq),
                          T[E].Pc,
                          isa::formatInstruction(*T[E].Instr).c_str());
  }
  return Out;
}
