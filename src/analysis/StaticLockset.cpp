//===- analysis/StaticLockset.cpp -----------------------------------------===//

#include "analysis/StaticLockset.h"

#include "support/Error.h"

using namespace svd;
using namespace svd::analysis;

StaticLockset::StaticLockset(const isa::ThreadCfg &Cfg,
                             const std::vector<isa::Instruction> &Code,
                             const isa::ThreadCallGraph &Cg,
                             uint32_t NumMutexes)
    : Analyzable(NumMutexes <= 64) {
  if (!Analyzable)
    return;
  if (Cg.regions().numRegions() > 1) {
    solveInterproc(Code, Cg);
  } else {
    // Flat code: one solve on the caller's CFG (for flat programs the
    // Interproc and Intra views are identical graphs).
    DataflowSolver<Domain> Solver(Cfg, Code, Domain(), Direction::Forward);
    Facts.resize(Code.size());
    Reach.resize(Code.size());
    for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
      Facts[Pc] = Solver.entry(Pc);
      Reach[Pc] = Solver.reached(Pc);
    }
  }
  collectDiagnostics(Code);
}

StaticLockset::~StaticLockset() = default;

void StaticLockset::solveInterproc(const std::vector<isa::Instruction> &Code,
                                   const isa::ThreadCallGraph &Cg) {
  const isa::RegionMap &Regions = Cg.regions();
  uint32_t NumRegions = Regions.numRegions();
  isa::ThreadCfg Intra(Code, isa::CfgView::Intra);

  Summaries.assign(NumRegions, RegionSummary());

  Domain Dom;
  Dom.Summaries = &Summaries;
  Dom.Regions = &Regions;

  // Meet of the facts at every reachable Ret of region R; returns false
  // when none is reachable.
  auto RegionExit = [&](const DataflowSolver<Domain> &S, uint32_t R,
                        Domain::Value &Out) {
    bool Any = false;
    for (uint32_t Pc = Regions.entryOf(R); Pc < Regions.endOf(R); ++Pc) {
      if (Code[Pc].Op != isa::Opcode::Ret || !S.reached(Pc))
        continue;
      if (!Any)
        Out = S.entry(Pc);
      else
        Dom.meetInto(Out, S.entry(Pc), /*Widen=*/false);
      Any = true;
    }
    return Any;
  };

  // Phase 1 — bottom-up summary computation over the SCC condensation.
  // A region's transfer per lattice bit is f(x) = Gen | (Keep & x), a
  // family closed under composition and meet, so f is recovered from two
  // region-local solves: Gen = f(0) and Gen | Keep = f(1). Within a
  // recursive SCC the member summaries start optimistic (identity) and
  // are re-derived until stable — the lattice of (Gen, Keep) masks is
  // finite and each step is monotone, so this terminates.
  const std::vector<uint32_t> &Order = Cg.bottomUpRegions();
  for (size_t Lo = 0; Lo < Order.size();) {
    size_t Hi = Lo + 1;
    while (Hi < Order.size() &&
           Cg.sccOf(Order[Hi]) == Cg.sccOf(Order[Lo]))
      ++Hi;
    // Recursive SCC members start from the optimistic extreme of each
    // lattice (must: everything held, may: nothing, no return) so the
    // iterates form monotone chains — must descends, may ascends,
    // Returns flips at most once — guaranteeing convergence.
    if (Cg.isRecursive(Order[Lo]))
      for (size_t P = Lo; P < Hi; ++P) {
        RegionSummary &S = Summaries[Order[P]];
        S.MustGen = ~uint64_t(0);
        S.MustKeep = ~uint64_t(0);
        S.MayGen = 0;
        S.MayKeep = 0;
        S.Returns = false;
      }
    for (unsigned Iter = 0;; ++Iter) {
      if (Iter > 2 * 64 + 4)
        support::fatalError("lockset summary iteration did not converge");
      bool Changed = false;
      for (size_t P = Lo; P < Hi; ++P) {
        uint32_t R = Order[P];
        if (R == 0)
          continue; // the main body needs no summary
        uint32_t Entry = Regions.entryOf(R);
        DataflowSolver<Domain> Zero(Intra, Code, Dom, Direction::Forward,
                                    {{Entry, Domain::Value{0, 0}}});
        DataflowSolver<Domain> One(
            Intra, Code, Dom, Direction::Forward,
            {{Entry, Domain::Value{~uint64_t(0), ~uint64_t(0)}}});
        RegionSummary S;
        Domain::Value F0, F1;
        if (!RegionExit(Zero, R, F0) || !RegionExit(One, R, F1)) {
          S.Returns = false;
          S.MustGen = ~uint64_t(0); // unreachable return site: no claim
          S.MustKeep = ~uint64_t(0);
          S.MayGen = 0;
          S.MayKeep = 0;
        } else {
          S.MustGen = F0.Must;
          S.MustKeep = F1.Must;
          S.MayGen = F0.May;
          S.MayKeep = F1.May;
        }
        RegionSummary &Cur = Summaries[R];
        if (Cur.MustGen != S.MustGen || Cur.MustKeep != S.MustKeep ||
            Cur.MayGen != S.MayGen || Cur.MayKeep != S.MayKeep ||
            Cur.Returns != S.Returns) {
          Cur = S;
          Changed = true;
        }
      }
      // Non-recursive SCCs are singletons: one derivation is final.
      if (!Changed || !Cg.isRecursive(Order[Lo]))
        break;
    }
    Lo = Hi;
  }

  // Phase 2 — final facts. Each proc region's entry fact is the meet
  // over its reachable call sites' facts; those depend on the solve, so
  // iterate seed derivation to fixpoint (monotone in both lattices).
  std::vector<std::pair<uint32_t, Domain::Value>> Seeds;
  for (unsigned Iter = 0;; ++Iter) {
    if (Iter > 2 * 64 + 4)
      support::fatalError("lockset entry-fact iteration did not converge");
    DataflowSolver<Domain> Solver(Intra, Code, Dom, Direction::Forward,
                                  Seeds);
    std::vector<std::pair<uint32_t, Domain::Value>> Next;
    for (uint32_t R = 1; R < NumRegions; ++R) {
      Domain::Value Merged;
      bool Any = false;
      for (uint32_t CallPc : Cg.callersOf(R)) {
        if (!Solver.reached(CallPc))
          continue;
        if (!Any)
          Merged = Solver.entry(CallPc);
        else
          Dom.meetInto(Merged, Solver.entry(CallPc), /*Widen=*/false);
        Any = true;
      }
      if (Any)
        Next.push_back({Regions.entryOf(R), Merged});
    }
    bool Same = Next.size() == Seeds.size();
    for (size_t I = 0; Same && I < Next.size(); ++I)
      Same = Next[I].first == Seeds[I].first &&
             Next[I].second.Must == Seeds[I].second.Must &&
             Next[I].second.May == Seeds[I].second.May;
    if (Same) {
      Facts.resize(Code.size());
      Reach.resize(Code.size());
      for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
        Facts[Pc] = Solver.entry(Pc);
        Reach[Pc] = Solver.reached(Pc);
      }
      return;
    }
    Seeds = std::move(Next);
  }
}

uint64_t StaticLockset::mustHeldBefore(uint32_t Pc) const {
  if (!Analyzable || !Reach[Pc])
    return 0;
  return Facts[Pc].Must;
}

uint64_t StaticLockset::mayHeldBefore(uint32_t Pc) const {
  if (!Analyzable || !Reach[Pc])
    return 0;
  return Facts[Pc].May;
}

bool StaticLockset::reachable(uint32_t Pc) const {
  return Analyzable && Reach[Pc];
}

void StaticLockset::collectDiagnostics(
    const std::vector<isa::Instruction> &Code) {
  for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
    if (!Reach[Pc])
      continue;
    const isa::Instruction &I = Code[Pc];
    uint64_t Must = Facts[Pc].Must;
    uint64_t May = Facts[Pc].May;
    auto Emit = [&](LocksetDiag::Kind K, uint32_t MutexId, bool Definite) {
      Diags.push_back({K, Pc, I.Line, MutexId, Definite});
    };
    switch (I.Op) {
    case isa::Opcode::Lock: {
      uint64_t Bit = uint64_t(1) << (I.Imm & 63);
      if (Must & Bit)
        Emit(LocksetDiag::Kind::DoubleAcquire,
             static_cast<uint32_t>(I.Imm), true);
      else if (May & Bit)
        Emit(LocksetDiag::Kind::MayDoubleAcquire,
             static_cast<uint32_t>(I.Imm), false);
      break;
    }
    case isa::Opcode::Unlock: {
      uint64_t Bit = uint64_t(1) << (I.Imm & 63);
      if (!(May & Bit))
        Emit(LocksetDiag::Kind::UnlockNotHeld,
             static_cast<uint32_t>(I.Imm), true);
      else if (!(Must & Bit))
        Emit(LocksetDiag::Kind::MayUnlockNotHeld,
             static_cast<uint32_t>(I.Imm), false);
      break;
    }
    case isa::Opcode::Halt: {
      uint64_t Held = Must;
      for (uint32_t M = 0; Held; ++M, Held >>= 1)
        if (Held & 1)
          Emit(LocksetDiag::Kind::HeldAtExit, M, true);
      break;
    }
    case isa::Opcode::Nop:
    case isa::Opcode::Li:
    case isa::Opcode::Mov:
    case isa::Opcode::Tid:
    case isa::Opcode::Rnd:
    case isa::Opcode::Add:
    case isa::Opcode::Sub:
    case isa::Opcode::Mul:
    case isa::Opcode::Div:
    case isa::Opcode::Rem:
    case isa::Opcode::And:
    case isa::Opcode::Or:
    case isa::Opcode::Xor:
    case isa::Opcode::Shl:
    case isa::Opcode::Shr:
    case isa::Opcode::Slt:
    case isa::Opcode::Sle:
    case isa::Opcode::Seq:
    case isa::Opcode::Sne:
    case isa::Opcode::Addi:
    case isa::Opcode::Muli:
    case isa::Opcode::Andi:
    case isa::Opcode::Slti:
    case isa::Opcode::Ld:
    case isa::Opcode::St:
    case isa::Opcode::Beqz:
    case isa::Opcode::Bnez:
    case isa::Opcode::Jmp:
    case isa::Opcode::Call:
    case isa::Opcode::Ret:
    case isa::Opcode::Cas:
    case isa::Opcode::Assert:
    case isa::Opcode::Print:
    case isa::Opcode::Yield:
      break;
    }
  }
}
