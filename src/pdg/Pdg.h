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
/// Two walkers split the dependence state machine along those families
/// and hand each event's incoming arcs of their families to a visitor.
/// forEachThreadIncoming() yields the true and control arcs one thread
/// at a time, with only that thread's state live; it is how the offline
/// pipeline feeds Figure 5 without storing the graph. Its per-thread
/// order is the paper's: Figure 5 scans each thread trace on its own.
/// forEachConflictIncoming() yields the conflict arcs in execution
/// order. DynamicPdg merges the two into compressed sparse row storage
/// (one arc array sorted by To, one offset per event) for the callers
/// that need the whole graph.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_PDG_PDG_H
#define SVD_PDG_PDG_H

#include "isa/Cfg.h"
#include "support/Error.h"
#include "trace/Trace.h"

#include <algorithm>
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

/// Walks the intra-thread arc families of \p T's d-PDG (true and
/// control) and calls `Visit(E, In)` once per event E, with In the
/// `std::span<const DepArc>` of those arcs ending at E (empty for lock,
/// unlock and thread-end events). Events are visited one thread at a
/// time — thread 0's in execution order, then thread 1's, and so on —
/// which is the order Figure 5 scans each thread trace in. In is valid
/// only during the call. Control dependences use the precise
/// immediate-postdominator reconvergence policy (the offline algorithm
/// is entitled to exact information; the online detector's Skipper
/// heuristic lives in svd/OnlineSvd).
template <typename VisitFn>
void forEachThreadIncoming(const trace::ProgramTrace &T, VisitFn &&Visit) {
  using trace::EventKind;
  const isa::Program &P = T.program();
  uint32_t NumThreads = P.numThreads();
  constexpr uint32_t None = UINT32_MAX;

  // One counting pass over Tid: thread Tid's events, ascending, are
  // Order[ThreadBegin[Tid] .. ThreadBegin[Tid + 1]).
  std::vector<uint32_t> ThreadBegin(NumThreads + 1, 0);
  for (uint32_t E = 0; E < T.size(); ++E)
    ++ThreadBegin[T[E].Tid + 1];
  for (uint32_t Tid = 0; Tid < NumThreads; ++Tid)
    ThreadBegin[Tid + 1] += ThreadBegin[Tid];
  std::vector<uint32_t> Order(T.size());
  {
    std::vector<uint32_t> Next(ThreadBegin.begin(), ThreadBegin.end() - 1);
    for (uint32_t E = 0; E < T.size(); ++E)
      Order[Next[T[E].Tid]++] = E;
  }

  // The walking thread's register def-use, its last store per word
  // (memory-carried true dependences) and its dynamic control-dependence
  // stack of (branch event, reconvergence pc); reset per thread.
  std::vector<uint32_t> LastRegWriter(isa::NumRegs);
  std::vector<uint32_t> LastLocalStore(P.MemoryWords);
  struct CtrlFrame {
    uint32_t BranchEvent;
    uint32_t ReconvPc;
  };
  std::vector<CtrlFrame> Stack;

  // The current event's incoming arcs.
  std::vector<DepArc> In;
  auto Add = [&In](uint32_t From, uint32_t To, DepKind K, bool ViaMemory,
                   isa::Addr A) {
    assert(From < To && "arcs must point forward in execution order");
    In.push_back({From, To, K, ViaMemory, A});
  };
  auto AddTrueReg = [&](isa::Reg R, uint32_t To) {
    if (R == isa::ZeroReg)
      return;
    uint32_t From = LastRegWriter[R];
    if (From != None)
      Add(From, To, DepKind::TrueLocal, /*ViaMemory=*/false, 0);
  };

  for (uint32_t Tid = 0; Tid < NumThreads; ++Tid) {
    if (ThreadBegin[Tid] == ThreadBegin[Tid + 1])
      continue;
    std::fill(LastRegWriter.begin(), LastRegWriter.end(), None);
    std::fill(LastLocalStore.begin(), LastLocalStore.end(), None);
    Stack.clear();
    isa::ThreadCfg Cfg(P.Threads[Tid].Code);

    for (uint32_t I = ThreadBegin[Tid]; I < ThreadBegin[Tid + 1]; ++I) {
      uint32_t E = Order[I];
      const trace::TraceEvent &Ev = T[E];
      In.clear();

      if (Ev.Kind == EventKind::Lock || Ev.Kind == EventKind::Unlock ||
          Ev.Kind == EventKind::ThreadEnd) {
        Visit(E, std::span<const DepArc>());
        continue;
      }

      // --- control dependences -----------------------------------------
      while (!Stack.empty() && Stack.back().ReconvPc == Ev.Pc)
        Stack.pop_back();
      if (!Stack.empty())
        Add(Stack.back().BranchEvent, E, DepKind::Control,
            /*ViaMemory=*/false, 0);

      const isa::Instruction &Instr = *Ev.Instr;

      // --- register-carried true dependences ----------------------------
      if (isa::readsRa(Instr.Op))
        AddTrueReg(Instr.Ra, E);
      if (isa::readsRb(Instr.Op))
        AddTrueReg(Instr.Rb, E);

      switch (Ev.Kind) {
      case EventKind::Load: {
        // Memory-carried true dependence from the last same-thread store.
        uint32_t From = LastLocalStore[Ev.Address];
        if (From != None)
          Add(From, E,
              T.isSharedAddress(Ev.Address) ? DepKind::TrueShared
                                            : DepKind::TrueLocal,
              /*ViaMemory=*/true, Ev.Address);
        break;
      }
      case EventKind::Store:
        LastLocalStore[Ev.Address] = E;
        break;
      case EventKind::Branch:
        if (isa::isConditionalBranch(Instr.Op)) {
          // Branches reconverging only at thread exit keep their frame
          // for the rest of the thread (the pc never equals NoNode).
          Stack.push_back({E, Cfg.preciseReconvergence(Ev.Pc)});
        }
        break;
      case EventKind::Alu:
        break;
      default:
        SVD_UNREACHABLE("unexpected event kind");
      }

      // --- register definition ------------------------------------------
      if (isa::writesRd(Instr.Op) && Instr.Rd != isa::ZeroReg)
        LastRegWriter[Instr.Rd] = E;

      Visit(E, std::span<const DepArc>(In));
    }
  }
}

/// Walks the inter-thread arc family of \p T's d-PDG (conflict: read
/// after remote write, write after remote write, write after remote
/// reads) and calls `Visit(E, In)` once per event E, ascending, with In
/// the conflict arcs ending at E: the last remote writer first, then the
/// remote readers since it in execution order (empty for every event
/// but loads and stores). In is valid only during the call.
template <typename VisitFn>
void forEachConflictIncoming(const trace::ProgramTrace &T, VisitFn &&Visit) {
  using trace::EventKind;
  constexpr uint32_t None = UINT32_MAX;

  // Per word: the most recent write (any thread) and the reads since
  // it, each with its thread, so no arc test reads back into the trace.
  struct Access {
    uint32_t Event;
    isa::ThreadId Tid;
  };
  const uint32_t MemoryWords = T.program().MemoryWords;
  std::vector<Access> LastWrite(MemoryWords, Access{None, 0});
  std::vector<std::vector<Access>> ReadsSinceWrite(MemoryWords);

  // The current event's incoming arcs.
  std::vector<DepArc> In;
  auto Add = [&In](uint32_t From, uint32_t To, isa::Addr A) {
    assert(From < To && "arcs must point forward in execution order");
    In.push_back({From, To, DepKind::Conflict, /*ViaMemory=*/true, A});
  };

  for (uint32_t E = 0; E < T.size(); ++E) {
    const trace::TraceEvent &Ev = T[E];
    In.clear();
    if (Ev.Kind == EventKind::Load || Ev.Kind == EventKind::Store) {
      isa::Addr A = Ev.Address;
      const Access &W = LastWrite[A];
      if (W.Event != None && W.Tid != Ev.Tid)
        Add(W.Event, E, A);
      std::vector<Access> &Reads = ReadsSinceWrite[A];
      if (Ev.Kind == EventKind::Load) {
        Reads.push_back({E, Ev.Tid});
      } else {
        for (const Access &R : Reads)
          if (R.Tid != Ev.Tid)
            Add(R.Event, E, A);
        Reads.clear();
        LastWrite[A] = {E, Ev.Tid};
      }
    }
    Visit(E, std::span<const DepArc>(In));
  }
}

/// The stored dependence graph of one recorded execution, collected
/// from both walkers: the fig4 and exact studies, the tests and the
/// benchmark ledger read it whole.
class DynamicPdg {
public:
  /// Collects every arc forEachThreadIncoming() and
  /// forEachConflictIncoming() visit over \p T.
  static DynamicPdg build(const trace::ProgramTrace &T);

  const std::vector<DepArc> &arcs() const { return Arcs; }

  /// The arcs ending at \p Event: its true and control arcs in
  /// forEachThreadIncoming()'s order, then its conflict arcs in
  /// forEachConflictIncoming()'s.
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
