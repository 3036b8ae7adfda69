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
/// forEachIncoming() is the one dependence state machine: it walks the
/// trace once and hands each event's incoming arcs to a visitor, which
/// is how the offline pipeline feeds Figure 5 without storing the graph.
/// DynamicPdg collects the same arcs into compressed sparse row storage
/// (one arc array sorted by To, one offset per event) for the callers
/// that need the whole graph.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_PDG_PDG_H
#define SVD_PDG_PDG_H

#include "isa/Cfg.h"
#include "support/Error.h"
#include "trace/Trace.h"

#include <cassert>
#include <cstdint>
#include <span>
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

/// Runs the d-PDG's dependence state machine over \p T, in execution
/// order, and calls `Visit(E, In)` once per event E, ascending, with In
/// the `std::span<const DepArc>` of the arcs ending at E (empty for
/// lock, unlock and thread-end events). In is valid only during the
/// call. Control dependences use the precise immediate-postdominator
/// reconvergence policy (the offline algorithm is entitled to exact
/// information; the online detector's Skipper heuristic lives in
/// svd/OnlineSvd).
template <typename VisitFn>
void forEachIncoming(const trace::ProgramTrace &T, VisitFn &&Visit) {
  using trace::EventKind;
  const isa::Program &P = T.program();
  uint32_t NumThreads = P.numThreads();
  constexpr int64_t None = -1;

  // Register def-use, per thread.
  std::vector<std::vector<int64_t>> LastRegWriter(
      NumThreads, std::vector<int64_t>(isa::NumRegs, None));

  // Last same-thread store per word (memory-carried true dependences).
  std::vector<std::vector<int64_t>> LastLocalStore(
      NumThreads, std::vector<int64_t>(P.MemoryWords, None));

  // Conflict-dependence state per word: the most recent write (any
  // thread) and the reads since it.
  std::vector<int64_t> LastWrite(P.MemoryWords, None);
  std::vector<std::vector<uint32_t>> ReadsSinceWrite(P.MemoryWords);

  // Dynamic control-dependence stacks: (branch event, reconvergence pc).
  struct CtrlFrame {
    uint32_t BranchEvent;
    uint32_t ReconvPc;
  };
  std::vector<std::vector<CtrlFrame>> CtrlStack(NumThreads);
  std::vector<isa::ThreadCfg> Cfgs;
  Cfgs.reserve(NumThreads);
  for (uint32_t Tid = 0; Tid < NumThreads; ++Tid)
    Cfgs.emplace_back(P.Threads[Tid].Code);

  // The current event's incoming arcs.
  std::vector<DepArc> In;
  auto Add = [&In](uint32_t From, uint32_t To, DepKind K, bool ViaMemory,
                   isa::Addr A) {
    assert(From < To && "arcs must point forward in execution order");
    In.push_back({From, To, K, ViaMemory, A});
  };
  auto AddTrueReg = [&](uint32_t Tid, isa::Reg R, uint32_t To) {
    if (R == isa::ZeroReg)
      return;
    int64_t From = LastRegWriter[Tid][R];
    if (From != None)
      Add(static_cast<uint32_t>(From), To, DepKind::TrueLocal,
          /*ViaMemory=*/false, 0);
  };

  for (uint32_t E = 0; E < T.size(); ++E) {
    const trace::TraceEvent &Ev = T[E];
    uint32_t Tid = Ev.Tid;
    In.clear();

    if (Ev.Kind == EventKind::Lock || Ev.Kind == EventKind::Unlock ||
        Ev.Kind == EventKind::ThreadEnd) {
      Visit(E, std::span<const DepArc>());
      continue;
    }

    // --- control dependences -------------------------------------------
    auto &Stack = CtrlStack[Tid];
    while (!Stack.empty() && Stack.back().ReconvPc == Ev.Pc)
      Stack.pop_back();
    if (!Stack.empty())
      Add(Stack.back().BranchEvent, E, DepKind::Control,
          /*ViaMemory=*/false, 0);

    const isa::Instruction &I = *Ev.Instr;

    // --- register-carried true dependences ------------------------------
    if (isa::readsRa(I.Op))
      AddTrueReg(Tid, I.Ra, E);
    if (isa::readsRb(I.Op))
      AddTrueReg(Tid, I.Rb, E);

    switch (Ev.Kind) {
    case EventKind::Load: {
      // Memory-carried true dependence from the last same-thread store.
      int64_t From = LastLocalStore[Tid][Ev.Address];
      if (From != None)
        Add(static_cast<uint32_t>(From), E,
            T.isSharedAddress(Ev.Address) ? DepKind::TrueShared
                                          : DepKind::TrueLocal,
            /*ViaMemory=*/true, Ev.Address);
      // Conflict: read after a remote write.
      int64_t W = LastWrite[Ev.Address];
      if (W != None && T[static_cast<size_t>(W)].Tid != Tid)
        Add(static_cast<uint32_t>(W), E, DepKind::Conflict,
            /*ViaMemory=*/true, Ev.Address);
      ReadsSinceWrite[Ev.Address].push_back(E);
      break;
    }
    case EventKind::Store: {
      // Conflict: write after remote write and after remote reads.
      int64_t W = LastWrite[Ev.Address];
      if (W != None && T[static_cast<size_t>(W)].Tid != Tid)
        Add(static_cast<uint32_t>(W), E, DepKind::Conflict,
            /*ViaMemory=*/true, Ev.Address);
      for (uint32_t R : ReadsSinceWrite[Ev.Address])
        if (T[R].Tid != Tid)
          Add(R, E, DepKind::Conflict, /*ViaMemory=*/true, Ev.Address);
      ReadsSinceWrite[Ev.Address].clear();
      LastWrite[Ev.Address] = E;
      LastLocalStore[Tid][Ev.Address] = E;
      break;
    }
    case EventKind::Branch: {
      if (isa::isConditionalBranch(I.Op)) {
        uint32_t R = Cfgs[Tid].preciseReconvergence(Ev.Pc);
        // Branches reconverging only at thread exit keep their frame for
        // the rest of the thread (the pc never equals NoNode).
        Stack.push_back({E, R});
      }
      break;
    }
    case EventKind::Alu:
      break;
    default:
      SVD_UNREACHABLE("unexpected event kind");
    }

    // --- register definition --------------------------------------------
    if (isa::writesRd(I.Op) && I.Rd != isa::ZeroReg)
      LastRegWriter[Tid][I.Rd] = E;

    Visit(E, std::span<const DepArc>(In));
  }
}

/// The stored dependence graph of one recorded execution, collected
/// from forEachIncoming(): the fig4 and exact studies, the tests and the
/// benchmark ledger read it whole.
class DynamicPdg {
public:
  /// Collects every arc forEachIncoming() visits over \p T.
  static DynamicPdg build(const trace::ProgramTrace &T);

  const std::vector<DepArc> &arcs() const { return Arcs; }

  /// The arcs ending at \p Event, in forEachIncoming()'s order.
  std::span<const DepArc> incoming(uint32_t Event) const {
    return std::span<const DepArc>(Arcs).subspan(
        InBegin[Event], InBegin[Event + 1] - InBegin[Event]);
  }

  /// Number of arcs of kind \p K.
  size_t countArcs(DepKind K) const;

private:
  /// All arcs, sorted by To.
  std::vector<DepArc> Arcs;
  /// CSR offsets: the arcs ending at event E are
  /// Arcs[InBegin[E] .. InBegin[E + 1]). Size: events + 1.
  std::vector<uint32_t> InBegin;
};

} // namespace pdg
} // namespace svd

#endif // SVD_PDG_PDG_H
