//===- pdg/Pdg.cpp --------------------------------------------------------===//

#include "pdg/Pdg.h"

#include "isa/Cfg.h"
#include "support/Error.h"

#include <cassert>

using namespace svd;
using namespace svd::pdg;
using isa::Addr;
using isa::Instruction;
using isa::Opcode;
using trace::EventKind;
using trace::ProgramTrace;
using trace::TraceEvent;

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

void DynamicPdg::addArc(const DepArc &A) {
  assert(A.From < A.To && "arcs must point forward in execution order");
  assert(A.To + 1 == InBegin.size() && "arcs must be added in To order");
  Arcs.push_back(A);
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
  const isa::Program &P = T.program();
  uint32_t NumThreads = P.numThreads();
  size_t N = T.size();
  // The traced workloads average about two arcs per event.
  G.Arcs.reserve(2 * N);
  G.InBegin.reserve(N + 1);

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

  auto AddTrueReg = [&](uint32_t Tid, isa::Reg R, uint32_t To) {
    if (R == isa::ZeroReg)
      return;
    int64_t From = LastRegWriter[Tid][R];
    if (From == None)
      return;
    G.addArc({static_cast<uint32_t>(From), To, DepKind::TrueLocal,
              /*ViaMemory=*/false, 0});
  };

  for (uint32_t E = 0; E < N; ++E) {
    const TraceEvent &Ev = T[E];
    uint32_t Tid = Ev.Tid;
    G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));

    if (Ev.Kind == EventKind::Lock || Ev.Kind == EventKind::Unlock ||
        Ev.Kind == EventKind::ThreadEnd)
      continue;

    // --- control dependences -------------------------------------------
    auto &Stack = CtrlStack[Tid];
    while (!Stack.empty() && Stack.back().ReconvPc == Ev.Pc)
      Stack.pop_back();
    if (!Stack.empty())
      G.addArc({Stack.back().BranchEvent, E, DepKind::Control,
                /*ViaMemory=*/false, 0});

    const Instruction &I = *Ev.Instr;

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
        G.addArc({static_cast<uint32_t>(From), E,
                  T.isSharedAddress(Ev.Address) ? DepKind::TrueShared
                                                : DepKind::TrueLocal,
                  /*ViaMemory=*/true, Ev.Address});
      // Conflict: read after a remote write.
      int64_t W = LastWrite[Ev.Address];
      if (W != None && T[static_cast<size_t>(W)].Tid != Tid)
        G.addArc({static_cast<uint32_t>(W), E, DepKind::Conflict,
                  /*ViaMemory=*/true, Ev.Address});
      ReadsSinceWrite[Ev.Address].push_back(E);
      break;
    }
    case EventKind::Store: {
      // Conflict: write after remote write and after remote reads.
      int64_t W = LastWrite[Ev.Address];
      if (W != None && T[static_cast<size_t>(W)].Tid != Tid)
        G.addArc({static_cast<uint32_t>(W), E, DepKind::Conflict,
                  /*ViaMemory=*/true, Ev.Address});
      for (uint32_t R : ReadsSinceWrite[Ev.Address])
        if (T[R].Tid != Tid)
          G.addArc({R, E, DepKind::Conflict, /*ViaMemory=*/true,
                    Ev.Address});
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
  }
  G.InBegin.push_back(static_cast<uint32_t>(G.Arcs.size()));

  return G;
}
