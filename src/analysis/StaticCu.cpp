//===- analysis/StaticCu.cpp ----------------------------------------------===//

#include "analysis/StaticCu.h"

#include "analysis/Liveness.h"

#include <algorithm>
#include <map>

using namespace svd;
using namespace svd::analysis;
using isa::Instruction;
using isa::Opcode;

namespace {

/// Instructions that live outside every CU, mirroring the dynamic
/// algorithm's treatment of lock/unlock/thread-end events. Call/Ret are
/// pure control transfers — units still span proc boundaries through
/// register def->use dependences over the interprocedural CFG, but the
/// transfers themselves are never unit members.
bool outsideUnits(Opcode Op) {
  return Op == Opcode::Lock || Op == Opcode::Unlock || Op == Opcode::Halt ||
         Op == Opcode::Call || Op == Opcode::Ret;
}

struct UnionFind {
  std::vector<uint32_t> Parent;
  explicit UnionFind(uint32_t N) : Parent(N) {
    for (uint32_t I = 0; I < N; ++I)
      Parent[I] = I;
  }
  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  uint32_t merge(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return A;
    // Smaller root id wins so unit numbering follows pc order.
    if (B < A)
      std::swap(A, B);
    Parent[B] = A;
    return A;
  }
};

} // namespace

StaticCuInference::StaticCuInference(
    const isa::ThreadCfg &Cfg, const std::vector<Instruction> &Code,
    const EscapeAnalysis &EA, const ReachingDefs &RD,
    std::function<bool(uint32_t)> IsSharedAccess)
    : NumInstrs(static_cast<uint32_t>(Code.size())) {
  DepPreds.resize(NumInstrs);
  PcUnit.assign(NumInstrs, NoUnit);
  buildDepEdges(Cfg, Code, RD);
  partition(Cfg, Code, EA, IsSharedAccess);
}

void StaticCuInference::buildDepEdges(const isa::ThreadCfg &Cfg,
                                      const std::vector<Instruction> &Code,
                                      const ReachingDefs &RD) {
  // Data and address dependences: every used register pulls in its
  // reaching definition sites (the entry pseudo-def carries nothing).
  for (uint32_t Pc = 0; Pc < NumInstrs; ++Pc) {
    if (!RD.reachable(Pc))
      continue;
    uint32_t Used = Liveness::usedRegs(Code[Pc]);
    for (isa::Reg R = 1; R < isa::NumRegs; ++R) {
      if (!(Used & (uint32_t(1) << R)))
        continue;
      for (uint32_t Def : RD.defsBefore(Pc, R))
        if (Def != ReachingDefs::EntryDef)
          DepPreds[Pc].push_back(Def);
    }
  }

  // Control dependences (Ferrante et al.): Pc depends on conditional
  // branch B when Pc postdominates a successor of B but not B itself.
  for (uint32_t B = 0; B < NumInstrs; ++B) {
    if (!isa::isConditionalBranch(Code[B].Op) || !RD.reachable(B))
      continue;
    for (uint32_t Pc = 0; Pc < NumInstrs; ++Pc) {
      if (Pc == B || !RD.reachable(Pc) || Cfg.postDominates(Pc, B))
        continue;
      for (uint32_t S : Cfg.successors(B)) {
        if (S < NumInstrs && Cfg.postDominates(Pc, S)) {
          DepPreds[Pc].push_back(B);
          break;
        }
      }
    }
  }

  for (std::vector<uint32_t> &Preds : DepPreds) {
    std::sort(Preds.begin(), Preds.end());
    Preds.erase(std::unique(Preds.begin(), Preds.end()), Preds.end());
  }
}

void StaticCuInference::partition(
    const isa::ThreadCfg &, const std::vector<Instruction> &Code,
    const EscapeAnalysis &EA,
    const std::function<bool(uint32_t)> &IsSharedAccess) {
  UnionFind UF(NumInstrs);
  std::vector<bool> Member(NumInstrs, false);
  std::vector<bool> Active(NumInstrs, true); // per current root
  // Shared-write address bounds per root (the static shVars set).
  std::vector<std::vector<Interval>> ShWrites(NumInstrs);

  // Scan order: the pc walk of an *inlined* rendering of the thread —
  // at each Call the callee body is visited in place, once, at its
  // first call site. The merge below is order-sensitive (a unit only
  // absorbs predecessors that are already members), which is what keeps
  // natural-loop control edges — whose branch sits at a higher pc than
  // the body it governs — from dragging a whole loop body into one
  // unit. Proc bodies are materialized after the main body, so visiting
  // them at their call site restores the same "defs before uses"
  // ordering flat code gets for free; flat code visits [0, N) unchanged
  // and its units stay bit-identical.
  std::vector<uint32_t> ScanOrder;
  ScanOrder.reserve(NumInstrs);
  {
    isa::RegionMap RM(Code);
    std::vector<bool> Visited(RM.numRegions(), false);
    struct Frame {
      uint32_t Pc, End;
    };
    std::vector<Frame> Stack;
    Visited[0] = true;
    Stack.push_back({RM.entryOf(0), RM.endOf(0)});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.Pc >= F.End) {
        Stack.pop_back();
        continue;
      }
      uint32_t Pc = F.Pc++;
      ScanOrder.push_back(Pc);
      if (Code[Pc].Op == Opcode::Call) {
        uint32_t R =
            RM.regionAtEntry(static_cast<uint32_t>(Code[Pc].Imm));
        if (R != isa::RegionMap::NoRegion && !Visited[R]) {
          Visited[R] = true;
          Stack.push_back({RM.entryOf(R), RM.endOf(R)});
        }
      }
    }
    // Regions no Call reaches cannot exist in assembler output, but the
    // scan must stay total over programmatic code: append them in pc
    // order.
    for (uint32_t R = 0; R < RM.numRegions(); ++R)
      if (!Visited[R])
        for (uint32_t Pc = RM.entryOf(R); Pc < RM.endOf(R); ++Pc)
          ScanOrder.push_back(Pc);
  }

  auto MayReadBack = [&](uint32_t Root, const Interval &Addr) {
    for (const Interval &W : ShWrites[Root])
      if (W.intersects(Addr))
        return true;
    return false;
  };

  for (uint32_t Pc : ScanOrder) {
    const Instruction &I = Code[Pc];
    if (!EA.reachable(Pc) || outsideUnits(I.Op))
      continue;
    Member[Pc] = true;

    bool SharedAccess = isa::isMemoryAccess(I.Op) && IsSharedAccess(Pc);
    Interval Addr = SharedAccess ? EA.addressOf(Pc) : Interval();

    // The crossing-arc cut (Definition 2, Figure 5's deactivate): a
    // possibly-shared load reading back a word a candidate CU already
    // wrote deactivates that CU instead of joining it.
    if (I.Op == Opcode::Ld && SharedAccess) {
      for (uint32_t D : DepPreds[Pc]) {
        if (!Member[D])
          continue;
        uint32_t R = UF.find(D);
        if (Active[R] && MayReadBack(R, Addr))
          Active[R] = false;
      }
    }

    // Grow the unit: merge with every still-active dependence
    // predecessor's unit (Figure 5's merge of active CUs).
    for (uint32_t D : DepPreds[Pc]) {
      if (!Member[D])
        continue;
      uint32_t R = UF.find(D);
      if (!Active[R])
        continue;
      uint32_t Mine = UF.find(Pc);
      if (Mine == R)
        continue;
      bool MineActive = Active[Mine];
      std::vector<Interval> MineWrites = std::move(ShWrites[Mine]);
      std::vector<Interval> TheirWrites = std::move(ShWrites[R]);
      uint32_t New = UF.merge(Mine, R);
      Active[New] = MineActive; // an active pred never deactivates us
      ShWrites[New] = std::move(MineWrites);
      ShWrites[New].insert(ShWrites[New].end(), TheirWrites.begin(),
                           TheirWrites.end());
    }

    // Record shared writes for later cuts. Cas writes count (a later
    // read-back of a Cas-published word starts a new region) even though
    // Cas is never a pattern endpoint.
    if (SharedAccess && (I.Op == Opcode::St || I.Op == Opcode::Cas))
      ShWrites[UF.find(Pc)].push_back(Addr);
  }

  // Materialize units in pc order of their roots.
  std::map<uint32_t, uint32_t> RootToUnit;
  for (uint32_t Pc = 0; Pc < NumInstrs; ++Pc) {
    if (!Member[Pc])
      continue;
    uint32_t Root = UF.find(Pc);
    auto [It, Fresh] = RootToUnit.emplace(
        Root, static_cast<uint32_t>(Units.size()));
    if (Fresh) {
      StaticCu U;
      U.Id = It->second;
      Units.push_back(std::move(U));
    }
    StaticCu &U = Units[It->second];
    U.Pcs.push_back(Pc);
    PcUnit[Pc] = U.Id;
    const Instruction &I = Code[Pc];
    if (isa::isMemoryAccess(I.Op) && IsSharedAccess(Pc)) {
      if (I.Op == Opcode::Ld)
        U.SharedReads.push_back(Pc);
      else if (I.Op == Opcode::St)
        U.SharedWrites.push_back(Pc);
      // Cas: atomic RMW, deliberately absent from both endpoint lists.
    }
  }
}

const std::vector<uint64_t> &StaticCuInference::ancestors(uint32_t Pc) const {
  if (AncestorMemo.empty()) {
    size_t Words = (NumInstrs + 63) / 64;
    AncestorMemo.assign(NumInstrs, std::vector<uint64_t>(Words, 0));
    AncestorDone.assign(NumInstrs, false);
  }
  if (AncestorDone[Pc])
    return AncestorMemo[Pc];

  // Iterative BFS over dependence predecessors; cycles (loop-carried
  // dependences) are handled by the visited bitset itself.
  std::vector<uint64_t> &Set = AncestorMemo[Pc];
  std::vector<uint32_t> Work{Pc};
  Set[Pc / 64] |= uint64_t(1) << (Pc % 64);
  while (!Work.empty()) {
    uint32_t Cur = Work.back();
    Work.pop_back();
    for (uint32_t D : DepPreds[Cur]) {
      uint64_t Bit = uint64_t(1) << (D % 64);
      if (Set[D / 64] & Bit)
        continue;
      Set[D / 64] |= Bit;
      Work.push_back(D);
    }
  }
  AncestorDone[Pc] = true;
  return Set;
}

bool StaticCuInference::dependsOn(uint32_t To, uint32_t From) const {
  if (To >= NumInstrs || From >= NumInstrs || To == From)
    return false;
  const std::vector<uint64_t> &Set = ancestors(To);
  return (Set[From / 64] >> (From % 64)) & 1;
}

bool StaticCuInference::shareAncestor(uint32_t A, uint32_t B) const {
  if (A >= NumInstrs || B >= NumInstrs)
    return false;
  const std::vector<uint64_t> &SA = ancestors(A);
  const std::vector<uint64_t> &SB = ancestors(B);
  for (size_t W = 0; W < SA.size(); ++W)
    if (SA[W] & SB[W])
      return true;
  return false;
}
