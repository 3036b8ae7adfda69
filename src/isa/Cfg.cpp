//===- isa/Cfg.cpp --------------------------------------------------------===//

#include "isa/Cfg.h"

#include <algorithm>
#include <cassert>

using namespace svd;
using namespace svd::isa;

namespace {

/// Minimal fixed-size bitset over uint64_t words.
inline size_t wordsFor(uint32_t Bits) { return (Bits + 63) / 64; }

inline bool testBit(const std::vector<uint64_t> &Set, uint32_t I) {
  return (Set[I / 64] >> (I % 64)) & 1;
}

inline void setBit(std::vector<uint64_t> &Set, uint32_t I) {
  Set[I / 64] |= uint64_t(1) << (I % 64);
}

inline bool intersectInto(std::vector<uint64_t> &Dst,
                          const std::vector<uint64_t> &Src) {
  bool Changed = false;
  for (size_t W = 0; W < Dst.size(); ++W) {
    uint64_t New = Dst[W] & Src[W];
    if (New != Dst[W]) {
      Dst[W] = New;
      Changed = true;
    }
  }
  return Changed;
}

inline uint32_t popcountSet(const std::vector<uint64_t> &Set) {
  uint32_t N = 0;
  for (uint64_t W : Set)
    N += static_cast<uint32_t>(__builtin_popcountll(W));
  return N;
}

} // namespace

ThreadCfg::ThreadCfg(const std::vector<Instruction> &Code, CfgView View)
    : NumInstrs(static_cast<uint32_t>(Code.size())), Code(Code), View(View) {
  buildSuccessors();
  computePostDominators();
}

void ThreadCfg::buildSuccessors() {
  // Return-site map for the Interproc view: Ret in a proc whose entry is
  // E flows to Pc+1 of every Call targeting E. Built lazily — flat code
  // never touches it.
  RegionMap Regions(Code);
  std::vector<std::vector<uint32_t>> RetSites;
  if (View == CfgView::Interproc && Regions.numRegions() > 1) {
    RetSites.resize(Regions.numRegions());
    for (uint32_t Pc = 0; Pc < NumInstrs; ++Pc)
      if (Code[Pc].Op == Opcode::Call)
        RetSites[Regions.regionOf(static_cast<uint32_t>(Code[Pc].Imm))]
            .push_back(Pc + 1);
  }

  Succs.resize(NumInstrs + 1);
  for (uint32_t Pc = 0; Pc < NumInstrs; ++Pc) {
    const Instruction &I = Code[Pc];
    auto FallThrough = [&]() {
      assert(Pc + 1 < NumInstrs && "validated code cannot fall off the end");
      Succs[Pc].push_back(Pc + 1);
    };
    switch (flowOf(I.Op)) {
    case FlowClass::Halt:
      Succs[Pc].push_back(exitNode());
      break;
    case FlowClass::Jump:
      Succs[Pc].push_back(static_cast<uint32_t>(I.Imm));
      break;
    case FlowClass::CondBranch: {
      uint32_t Target = static_cast<uint32_t>(I.Imm);
      FallThrough();
      if (Target != Pc + 1)
        Succs[Pc].push_back(Target);
      break;
    }
    case FlowClass::Call:
      if (View == CfgView::Interproc)
        Succs[Pc].push_back(static_cast<uint32_t>(I.Imm));
      else
        FallThrough(); // the client applies the callee's summary here
      break;
    case FlowClass::Ret:
      if (View == CfgView::Interproc && !RetSites.empty()) {
        uint32_t R = Regions.regionOf(Pc);
        // A Ret in the main body (region 0) pops an empty stack at run
        // time and halts the thread; model it as an exit edge. Same for
        // a proc nobody calls.
        if (R != 0 && !RetSites[R].empty())
          Succs[Pc] = RetSites[R];
        else
          Succs[Pc].push_back(exitNode());
      } else {
        Succs[Pc].push_back(exitNode());
      }
      break;
    case FlowClass::Next:
      FallThrough();
      break;
    }
  }
}

void ThreadCfg::computePostDominators() {
  uint32_t N = NumInstrs + 1; // + exit
  size_t Words = wordsFor(N);

  // Initialize: pdom(exit) = {exit}; pdom(n) = all nodes.
  PdomSets.assign(N, std::vector<uint64_t>(Words, ~uint64_t(0)));
  // Clear excess high bits so popcounts are exact.
  if (N % 64 != 0) {
    uint64_t Mask = (uint64_t(1) << (N % 64)) - 1;
    for (auto &Set : PdomSets)
      Set[Words - 1] &= Mask;
  }
  std::vector<uint64_t> ExitOnly(Words, 0);
  setBit(ExitOnly, exitNode());
  PdomSets[exitNode()] = ExitOnly;

  // Iterate to fixpoint: pdom(n) = {n} | intersect(pdom(s) for s in succ).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Reverse program order converges quickly for postdominators.
    for (uint32_t Pc = NumInstrs; Pc-- > 0;) {
      std::vector<uint64_t> Meet(Words, ~uint64_t(0));
      if (N % 64 != 0)
        Meet[Words - 1] &= (uint64_t(1) << (N % 64)) - 1;
      for (uint32_t S : Succs[Pc])
        intersectInto(Meet, PdomSets[S]);
      setBit(Meet, Pc);
      if (Meet != PdomSets[Pc]) {
        PdomSets[Pc] = std::move(Meet);
        Changed = true;
      }
    }
  }

  // Derive immediate postdominators: the strict postdominator with the
  // largest postdominator set (i.e. the closest one).
  Ipdom.assign(N, NoNode);
  for (uint32_t Pc = 0; Pc < NumInstrs; ++Pc) {
    uint32_t StrictCount = popcountSet(PdomSets[Pc]) - 1;
    if (StrictCount == 0)
      continue;
    for (uint32_t Cand = 0; Cand <= NumInstrs; ++Cand) {
      if (Cand == Pc || !testBit(PdomSets[Pc], Cand))
        continue;
      // Cand is the immediate postdominator iff it is dominated by every
      // other strict postdominator of Pc, i.e. its own pdom set contains
      // all of them: |pdom(Cand)| == StrictCount.
      if (popcountSet(PdomSets[Cand]) == StrictCount) {
        Ipdom[Pc] = Cand;
        break;
      }
    }
  }
}

bool ThreadCfg::postDominates(uint32_t A, uint32_t B) const {
  assert(B < PdomSets.size() && A <= NumInstrs);
  return testBit(PdomSets[B], A);
}

uint32_t ThreadCfg::preciseReconvergence(uint32_t BranchPc) const {
  assert(BranchPc < NumInstrs && isConditionalBranch(Code[BranchPc].Op) &&
         "not a conditional branch");
  uint32_t P = Ipdom[BranchPc];
  if (P == NoNode || P == exitNode())
    return NoNode;
  return P;
}

RegionMap::RegionMap(const std::vector<Instruction> &Code)
    : CodeSize(static_cast<uint32_t>(Code.size())) {
  // Region entries are exactly the Call targets; the main body starts
  // region 0 whether or not anything calls pc 0.
  Entries.push_back(0);
  for (const Instruction &I : Code)
    if (I.Op == Opcode::Call) {
      uint32_t E = static_cast<uint32_t>(I.Imm);
      if (E != 0)
        Entries.push_back(E);
    }
  std::sort(Entries.begin(), Entries.end());
  Entries.erase(std::unique(Entries.begin(), Entries.end()), Entries.end());
}

uint32_t RegionMap::regionOf(uint32_t Pc) const {
  assert(Pc < CodeSize && "pc out of range");
  // Last entry <= Pc.
  auto It = std::upper_bound(Entries.begin(), Entries.end(), Pc);
  return static_cast<uint32_t>(It - Entries.begin()) - 1;
}

uint32_t RegionMap::regionAtEntry(uint32_t Pc) const {
  auto It = std::lower_bound(Entries.begin(), Entries.end(), Pc);
  if (It == Entries.end() || *It != Pc)
    return NoRegion;
  return static_cast<uint32_t>(It - Entries.begin());
}

ThreadCallGraph::ThreadCallGraph(const std::vector<Instruction> &Code)
    : Regions(Code) {
  uint32_t N = Regions.numRegions();
  Callers.resize(N);
  for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
    if (Code[Pc].Op != Opcode::Call)
      continue;
    CallSite S;
    S.Pc = Pc;
    S.CallerRegion = Regions.regionOf(Pc);
    S.CalleeRegion = Regions.regionOf(static_cast<uint32_t>(Code[Pc].Imm));
    Callers[S.CalleeRegion].push_back(Pc);
    Sites.push_back(S);
  }

  // Region-level adjacency.
  std::vector<std::vector<uint32_t>> Adj(N);
  for (const CallSite &S : Sites)
    Adj[S.CallerRegion].push_back(S.CalleeRegion);

  // Iterative Tarjan SCC. Components are numbered in completion order,
  // which for Tarjan is reverse topological: callees receive lower ids
  // than their callers (unless they share a component).
  Scc.assign(N, UINT32_MAX);
  std::vector<uint32_t> Index(N, UINT32_MAX), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0, NextScc = 0;
  struct Frame {
    uint32_t Node;
    size_t EdgePos;
  };
  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != UINT32_MAX)
      continue;
    std::vector<Frame> Frames{{Root, 0}};
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.EdgePos < Adj[F.Node].size()) {
        uint32_t Next = Adj[F.Node][F.EdgePos++];
        if (Index[Next] == UINT32_MAX) {
          Index[Next] = Low[Next] = NextIndex++;
          Stack.push_back(Next);
          OnStack[Next] = true;
          Frames.push_back({Next, 0});
        } else if (OnStack[Next]) {
          Low[F.Node] = std::min(Low[F.Node], Index[Next]);
        }
        continue;
      }
      if (Low[F.Node] == Index[F.Node]) {
        for (;;) {
          uint32_t W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Scc[W] = NextScc;
          if (W == F.Node)
            break;
        }
        ++NextScc;
      }
      uint32_t Done = F.Node;
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().Node] =
            std::min(Low[Frames.back().Node], Low[Done]);
    }
  }

  // Bottom-up region order: ascending SCC id, regions of one SCC
  // adjacent (stable within an SCC by region id for determinism).
  BottomUp.resize(N);
  for (uint32_t R = 0; R < N; ++R)
    BottomUp[R] = R;
  std::sort(BottomUp.begin(), BottomUp.end(), [&](uint32_t A, uint32_t B) {
    return Scc[A] != Scc[B] ? Scc[A] < Scc[B] : A < B;
  });

  // Recursive = in a multi-region SCC, or a direct self-edge.
  std::vector<uint32_t> SccSize(NextScc, 0);
  for (uint32_t R = 0; R < N; ++R)
    ++SccSize[Scc[R]];
  Recursive.assign(N, false);
  for (uint32_t R = 0; R < N; ++R)
    Recursive[R] = SccSize[Scc[R]] > 1;
  for (const CallSite &S : Sites)
    if (S.CallerRegion == S.CalleeRegion)
      Recursive[S.CallerRegion] = true;
}

std::vector<uint32_t> ThreadCallGraph::pathFromMain(uint32_t R) const {
  // BFS from the main body over call edges; regions are few.
  uint32_t N = Regions.numRegions();
  std::vector<uint32_t> Prev(N, UINT32_MAX);
  std::vector<uint32_t> Queue{0};
  Prev[0] = 0;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    uint32_t Cur = Queue[Head];
    if (Cur == R)
      break;
    for (const CallSite &S : Sites)
      if (S.CallerRegion == Cur && Prev[S.CalleeRegion] == UINT32_MAX) {
        Prev[S.CalleeRegion] = Cur;
        Queue.push_back(S.CalleeRegion);
      }
  }
  if (Prev[R] == UINT32_MAX)
    return {};
  std::vector<uint32_t> Path{R};
  while (Path.back() != 0)
    Path.push_back(Prev[Path.back()]);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

uint32_t ThreadCfg::skipperReconvergence(uint32_t BranchPc) const {
  assert(BranchPc < NumInstrs && isConditionalBranch(Code[BranchPc].Op) &&
         "not a conditional branch");
  uint32_t Target = static_cast<uint32_t>(Code[BranchPc].Imm);
  // Loop-type control flow is not inferred (Section 4.2).
  if (Target <= BranchPc)
    return NoNode;
  // Probe the instruction that ends the fall-through (then) block. If it
  // is a forward Branch-Always, the shape is if/else and control
  // reconverges at the jump's target; otherwise at the branch target.
  if (Target >= 1 && Target - 1 > BranchPc) {
    const Instruction &Prev = Code[Target - 1];
    if (Prev.Op == Opcode::Jmp &&
        static_cast<uint32_t>(Prev.Imm) > Target)
      return static_cast<uint32_t>(Prev.Imm);
  }
  return Target;
}

ThreadBlocks isa::discoverBasicBlocks(const std::vector<Instruction> &Code) {
  ThreadBlocks TB;
  uint32_t N = static_cast<uint32_t>(Code.size());
  if (N == 0)
    return TB;

  // Mark leaders: entry, explicit targets, and fall-throughs of control
  // transfers. Validation guarantees every target is in range.
  std::vector<bool> Leader(N, false);
  Leader[0] = true;
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    const Instruction &I = Code[Pc];
    switch (flowOf(I.Op)) {
    case FlowClass::CondBranch:
    case FlowClass::Jump:
    case FlowClass::Call:
      Leader[static_cast<uint32_t>(I.Imm)] = true;
      [[fallthrough]];
    case FlowClass::Ret: // Ret and Halt name no static target
    case FlowClass::Halt:
      if (Pc + 1 < N)
        Leader[Pc + 1] = true;
      break;
    case FlowClass::Next:
      break;
    }
  }

  TB.BlockOf.resize(N);
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    if (Leader[Pc])
      TB.Blocks.push_back({Pc, 0});
    ++TB.Blocks.back().NumInstrs;
    TB.BlockOf[Pc] = static_cast<uint32_t>(TB.Blocks.size() - 1);
  }
  return TB;
}
