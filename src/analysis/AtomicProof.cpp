//===- analysis/AtomicProof.cpp -------------------------------------------===//

#include "analysis/AtomicProof.h"

#include "analysis/ProgramPasses.h"
#include "analysis/StaticCu.h"
#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>

using namespace svd;
using namespace svd::analysis;
using isa::Instruction;
using isa::Opcode;

namespace {

/// Forward may-analysis: bit r set when register r may carry dynamic CU
/// tags at a point. Loads (and Cas results) taint their destination;
/// ALU results inherit the union of their operands' taint; constants
/// (Li/Tid/Rnd) are clean. Mirrors OnlineSvd's register tagging.
struct TaintDomain {
  using Value = uint32_t;
  Value init() const { return 0; }
  Value boundary() const { return 0; }
  bool meetInto(Value &Dst, const Value &Src, bool) const {
    Value New = Dst | Src;
    if (New == Dst)
      return false;
    Dst = New;
    return true;
  }
  void transfer(uint32_t, const Instruction &I, Value &V) const {
    if (I.Rd == isa::ZeroReg || !isa::writesRd(I.Op))
      return;
    uint32_t Bit = uint32_t(1) << I.Rd;
    if (I.Op == Opcode::Ld || I.Op == Opcode::Cas)
      V |= Bit;
    else if (V & Liveness::usedRegs(I))
      V |= Bit;
    else
      V &= ~Bit;
  }
};

/// Everything the proof needs about one thread: the bundle's CFG and
/// lockset, plus the state only the proof computes.
struct ThreadPasses {
  const std::vector<Instruction> *Code = nullptr;
  const isa::ThreadCfg *Cfg = nullptr;
  const StaticLockset *Locks = nullptr;
  std::unique_ptr<DataflowSolver<TaintDomain>> Taint;
  std::unique_ptr<StaticCuInference> Cus;
  /// Block-expanded sharpened address bound per access pc (empty
  /// interval for non-accesses and unreachable sites).
  std::vector<Interval> SiteExpanded;
  std::vector<bool> SiteIsWrite, SiteIsCas;
};

/// One grouped access site for the whole-program alias clustering.
struct GSite {
  isa::ThreadId Tid = 0;
  uint32_t Pc = 0;
  Interval E;
  bool IsWrite = false;
  uint64_t Must = 0;   ///< must-lockset before the access
  uint32_t Unit = 0;   ///< StaticCuInference::NoUnit when outside units
  uint32_t Group = 0;  ///< filled by the union-find
};

uint32_t findRoot(std::vector<uint32_t> &UF, uint32_t X) {
  while (UF[X] != X)
    X = UF[X] = UF[UF[X]];
  return X;
}

bool singleBlock(const Interval &E, uint32_t Shift) {
  return !E.empty() && !E.isFull() && E.Lo >= 0 &&
         (E.Lo >> Shift) == (E.Hi >> Shift);
}

} // namespace

CuProofs analysis::proveAtomicCus(const isa::Program &P,
                                  uint32_t BlockShift) {
  return proveAtomicCus(ProgramPasses(P, /*ValueFlow=*/true), BlockShift);
}

CuProofs analysis::proveAtomicCus(const ProgramPasses &PP,
                                  uint32_t BlockShift) {
  if (!PP.hasValueFlow())
    support::fatalError("proveAtomicCus needs a bundle built with value "
                        "flow: the proofs read its sharpened address bounds");
  const isa::Program &P = PP.program();
  CuProofs R;
  R.Shift = BlockShift;
  uint32_t NumThreads = P.numThreads();
  R.ProvenPc.resize(NumThreads);
  uint32_t NumMutexes = static_cast<uint32_t>(P.Mutexes.size());
  R.Table = buildAccessTable(PP, BlockShift);
  const AccessTable &Table = R.Table;

  // Per-thread passes.
  std::vector<ThreadPasses> TP(NumThreads);
  for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid) {
    ThreadPasses &T = TP[Tid];
    T.Code = &P.Threads[Tid].Code;
    R.ProvenPc[Tid].assign(T.Code->size(), false);
    T.Cfg = &PP.cfg(Tid);
    T.Locks = &PP.lockset(Tid);
    T.Taint = std::make_unique<DataflowSolver<TaintDomain>>(
        *T.Cfg, *T.Code, TaintDomain(), Direction::Forward);
    const EscapeAnalysis &EA = PP.escape(Tid);
    T.Cus = std::make_unique<StaticCuInference>(
        *T.Cfg, *T.Code, EA, PP.reachingDefs(Tid), [&Table, Tid](uint32_t Pc) {
          return Table.classify(Tid, Pc) != AccessClass::ThreadLocal;
        });
    T.SiteExpanded.assign(T.Code->size(), Interval());
    T.SiteIsWrite.assign(T.Code->size(), false);
    T.SiteIsCas.assign(T.Code->size(), false);
    for (const AccessSite &S : EA.accesses()) {
      T.SiteExpanded[S.Pc] = blockExpand(PP.addressOf(Tid, S.Pc), BlockShift);
      T.SiteIsWrite[S.Pc] = S.IsWrite;
      T.SiteIsCas[S.Pc] = S.IsCas;
    }
  }

  // --- Per-unit obligations: CandMask[t][u] = mutexes satisfying O1-O6.
  std::vector<std::vector<uint64_t>> CandMask(NumThreads);
  for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid) {
    ThreadPasses &T = TP[Tid];
    const std::vector<Instruction> &Code = *T.Code;
    const ReachingDefs &Reach = PP.reachingDefs(Tid);
    const Liveness &Live = PP.liveness(Tid);
    const isa::ThreadCallGraph &Cg = PP.callGraph(Tid);
    uint32_t N = static_cast<uint32_t>(Code.size());
    const std::vector<StaticCu> &Units = T.Cus->units();
    CandMask[Tid].assign(Units.size(), 0);
    if (!T.Locks->analyzable() || NumMutexes == 0)
      continue;

    for (size_t UI = 0; UI < Units.size(); ++UI) {
      const StaticCu &U = Units[UI];
      if (U.Pcs.empty())
        continue;
      uint32_t MinPc = U.Pcs.front(), MaxPc = U.Pcs.back();
      auto IsMember = [&](uint32_t Pc) {
        return T.Cus->unitOf(Pc) == U.Id;
      };

      // Units are only interesting when they access memory.
      size_t NumAccesses = 0;
      for (uint32_t Pc : U.Pcs)
        NumAccesses += isa::isMemoryAccess(Code[Pc].Op);
      if (NumAccesses == 0)
        continue;

      // Member intersection of must-locksets (the two-phase candidates).
      uint64_t Mask = NumMutexes >= 64 ? ~uint64_t(0)
                                       : (uint64_t(1) << NumMutexes) - 1;
      for (uint32_t Pc : U.Pcs)
        Mask &= T.Locks->mustHeldBefore(Pc);
      if (Mask == 0)
        continue;

      // O2: no Cas members.
      bool Ok = true;
      for (uint32_t Pc : U.Pcs)
        if (Code[Pc].Op == Opcode::Cas)
          Ok = false;

      // O3: every member load covers one block and is postdominated by
      // a member store of that same block.
      if (Ok) {
        for (uint32_t Pc : U.Pcs) {
          if (Code[Pc].Op != Opcode::Ld)
            continue;
          const Interval &LE = T.SiteExpanded[Pc];
          if (!singleBlock(LE, BlockShift)) {
            Ok = false;
            break;
          }
          bool Covered = false;
          for (uint32_t Q : U.Pcs)
            if (Code[Q].Op == Opcode::St && T.SiteExpanded[Q] == LE &&
                T.Cfg->postDominates(Q, Pc)) {
              Covered = true;
              break;
            }
          if (!Covered) {
            Ok = false;
            break;
          }
        }
      }

      // O4: dependence closure, both directions.
      if (Ok) {
        for (uint32_t Q = 0; Q < N && Ok; ++Q) {
          if (!T.Locks->reachable(Q))
            continue;
          if (IsMember(Q)) {
            // Inward: operands defined in U or provably tag-free.
            uint32_t Taint = T.Taint->entry(Q);
            uint32_t Used = Liveness::usedRegs(Code[Q]);
            for (unsigned Rg = 1; Rg < isa::NumRegs && Ok; ++Rg) {
              if (!(Used & (uint32_t(1) << Rg)) ||
                  !(Taint & (uint32_t(1) << Rg)))
                continue;
              for (uint32_t D : Reach.defsBefore(Q, Rg))
                if (D != ReachingDefs::EntryDef && !IsMember(D))
                  Ok = false;
            }
            // Controlling branches outside U must be tag-free.
            for (uint32_t D : T.Cus->depPreds(Q)) {
              if (IsMember(D))
                continue;
              const Instruction &BI = Code[D];
              if ((BI.Op == Opcode::Beqz || BI.Op == Opcode::Bnez) &&
                  (T.Taint->entry(D) & (uint32_t(1) << BI.Ra)))
                Ok = false;
            }
          } else {
            // Outward: nothing outside U may depend on a member. Call
            // and Ret are exempt — they carry no data, and any callee
            // instruction they cause to execute has its own control
            // dependence on the same member branch, checked directly.
            if (Code[Q].Op != Opcode::Call && Code[Q].Op != Opcode::Ret)
              for (uint32_t D : T.Cus->depPreds(Q))
                if (IsMember(D))
                  Ok = false;
          }
        }
      }
      if (!Ok)
        continue;

      // Per-mutex obligations: O1 contiguity, O5 reconvergence, O6
      // register deadness outside the m-held region.
      uint32_t DefRegs = 0;
      for (uint32_t Pc : U.Pcs)
        if (isa::writesRd(Code[Pc].Op) && Code[Pc].Rd != isa::ZeroReg)
          DefRegs |= uint32_t(1) << Code[Pc].Rd;

      // O1 coverage obligations (mutex-independent). The dynamic extent
      // of a unit instance runs from its first member execution to its
      // last; every pc executable in between must hold the mutex. For
      // flat code that is the contiguous span [MinPc, MaxPc]. When the
      // unit's members span procs, or its span contains calls, the
      // obligation closes over the call structure: member proc regions
      // must hold the mutex over their *entire* body, so must every
      // region called from a covered area or connecting a covered
      // region to its callers, and the root region's span grows to
      // include the Call pcs that reach covered regions.
      const isa::RegionMap &RM = Cg.regions();
      uint32_t Root = RM.regionOf(MinPc);
      uint32_t RootLo = UINT32_MAX, RootHi = 0;
      std::vector<bool> NeedFull(RM.numRegions(), false);
      for (uint32_t Pc : U.Pcs) {
        uint32_t Rg = RM.regionOf(Pc);
        if (Rg != Root) {
          NeedFull[Rg] = true;
        } else {
          RootLo = std::min(RootLo, Pc);
          RootHi = std::max(RootHi, Pc);
        }
      }
      auto CoverCallsIn = [&](uint32_t Lo, uint32_t HiExcl, bool &Grew) {
        for (uint32_t Q = Lo; Q < HiExcl; ++Q) {
          if (Code[Q].Op != Opcode::Call || !T.Locks->reachable(Q))
            continue;
          uint32_t CR =
              RM.regionAtEntry(static_cast<uint32_t>(Code[Q].Imm));
          if (CR != isa::RegionMap::NoRegion && !NeedFull[CR]) {
            NeedFull[CR] = true;
            Grew = true;
          }
        }
      };
      for (bool Grew = true; Grew;) {
        Grew = false;
        if (!NeedFull[Root])
          CoverCallsIn(RootLo, RootHi + 1, Grew);
        for (uint32_t Rg = 0; Rg < RM.numRegions(); ++Rg) {
          if (!NeedFull[Rg])
            continue;
          CoverCallsIn(RM.entryOf(Rg), RM.endOf(Rg), Grew);
          // Reachable call sites connect the covered region back to its
          // callers: the pcs around those calls execute between unit
          // member executions, so their regions join the obligation.
          for (uint32_t CallPc : Cg.callersOf(Rg)) {
            if (!T.Locks->reachable(CallPc))
              continue;
            uint32_t CR = RM.regionOf(CallPc);
            if (CR == Root && !NeedFull[Root]) {
              if (CallPc < RootLo) {
                RootLo = CallPc;
                Grew = true;
              }
              if (CallPc > RootHi) {
                RootHi = CallPc;
                Grew = true;
              }
            } else if (!NeedFull[CR]) {
              NeedFull[CR] = true;
              Grew = true;
            }
          }
        }
      }
      // A Ret inside a sub-span would let the extent escape to pcs the
      // span check never sees; only full-region coverage handles that.
      bool SpanOk = true;
      if (!NeedFull[Root])
        for (uint32_t Q = RootLo; Q <= RootHi; ++Q)
          if (Code[Q].Op == Opcode::Ret && T.Locks->reachable(Q))
            SpanOk = false;

      uint64_t MemberMask = Mask;
      if (!SpanOk)
        Mask = 0;
      for (uint32_t M = 0; M < NumMutexes && M < 64; ++M) {
        uint64_t Bit = uint64_t(1) << M;
        if (!(Mask & Bit))
          continue;
        bool MOk = true;
        // O1: contiguous coverage of the root span and of every region
        // the closure above pulled in.
        if (!NeedFull[Root])
          for (uint32_t Q = RootLo; Q <= RootHi && MOk; ++Q)
            if (T.Locks->reachable(Q) &&
                !(T.Locks->mustHeldBefore(Q) & Bit))
              MOk = false;
        for (uint32_t Rg = 0; Rg < RM.numRegions() && MOk; ++Rg) {
          if (!NeedFull[Rg])
            continue;
          for (uint32_t Q = RM.entryOf(Rg); Q < RM.endOf(Rg) && MOk; ++Q)
            if (T.Locks->reachable(Q) &&
                !(T.Locks->mustHeldBefore(Q) & Bit))
              MOk = false;
        }
        // O5: member branches reconverge under m (or never).
        for (uint32_t Pc : U.Pcs) {
          if (!MOk)
            break;
          const Instruction &I = Code[Pc];
          if (I.Op != Opcode::Beqz && I.Op != Opcode::Bnez)
            continue;
          for (uint32_t Rv : {T.Cfg->skipperReconvergence(Pc),
                              T.Cfg->preciseReconvergence(Pc)}) {
            if (Rv == isa::ThreadCfg::NoNode)
              continue;
            if (Rv >= N || !(T.Locks->mustHeldBefore(Rv) & Bit))
              MOk = false;
          }
        }
        // O6: no member-defined register live where m is not held.
        if (MOk && DefRegs) {
          for (uint32_t Q = 0; Q < N && MOk; ++Q) {
            if (!T.Locks->reachable(Q))
              continue;
            if (!(T.Locks->mustHeldBefore(Q) & Bit) &&
                (Live.liveBefore(Q) & DefRegs))
              MOk = false;
          }
        }
        if (!MOk)
          Mask &= ~Bit;
      }
      CandMask[Tid][UI] = Mask;

      // Non-two-phase diagnostic: the members agree on a lock, but no
      // agreed lock covers the unit's span contiguously. Only meaningful
      // when the members share one region — a cross-proc span would scan
      // unrelated proc bodies laid out between the members.
      if (Mask == 0 && MemberMask != 0 && NumAccesses >= 2 &&
          RM.regionOf(MaxPc) == Root && SpanOk) {
        uint32_t M = static_cast<uint32_t>(std::countr_zero(MemberMask));
        bool Gap = false;
        for (uint32_t Q = MinPc; Q <= MaxPc; ++Q)
          if (T.Locks->reachable(Q) &&
              !(T.Locks->mustHeldBefore(Q) & (uint64_t(1) << M)))
            Gap = true;
        if (Gap) {
          ProofDiag D;
          D.K = ProofDiag::Kind::NonTwoPhase;
          D.Tid = Tid;
          D.Pc = MinPc;
          D.Line = Code[MinPc].Line;
          D.Message = "lock '" + P.Mutexes[M] +
                      "' is released and reacquired inside one "
                      "computational unit (not two-phase)";
          R.Diags.push_back(std::move(D));
        }
      }
    }
  }

  // --- Whole-program alias groups over non-ThreadLocal sites.
  std::vector<GSite> Sites;
  for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid) {
    ThreadPasses &T = TP[Tid];
    for (uint32_t Pc = 0; Pc < T.Code->size(); ++Pc) {
      const Interval &E = T.SiteExpanded[Pc];
      if (!isa::isMemoryAccess((*T.Code)[Pc].Op) || E.empty())
        continue;
      if (Table.classify(Tid, Pc) == AccessClass::ThreadLocal)
        continue;
      GSite S;
      S.Tid = Tid;
      S.Pc = Pc;
      S.E = E;
      S.IsWrite = T.SiteIsWrite[Pc];
      S.Must = T.Locks->analyzable() ? T.Locks->mustHeldBefore(Pc) : 0;
      S.Unit = T.SiteIsCas[Pc] ? StaticCuInference::NoUnit
                               : T.Cus->unitOf(Pc);
      Sites.push_back(S);
    }
  }
  std::vector<uint32_t> UF(Sites.size());
  std::iota(UF.begin(), UF.end(), 0);
  for (size_t A = 0; A < Sites.size(); ++A)
    for (size_t B = A + 1; B < Sites.size(); ++B)
      if (Sites[A].E.intersects(Sites[B].E))
        UF[findRoot(UF, static_cast<uint32_t>(B))] =
            findRoot(UF, static_cast<uint32_t>(A));
  for (size_t A = 0; A < Sites.size(); ++A)
    Sites[A].Group = findRoot(UF, static_cast<uint32_t>(A));

  // --- Fixpoint: a unit stays a candidate only while every alias group
  // it touches is covered end-to-end by candidate units under a common
  // mutex.
  bool Changed = true;
  std::vector<uint64_t> GroupMask(Sites.size());
  while (Changed) {
    Changed = false;
    std::fill(GroupMask.begin(), GroupMask.end(), ~uint64_t(0));
    for (const GSite &S : Sites) {
      uint64_t M = S.Unit == StaticCuInference::NoUnit
                       ? 0
                       : CandMask[S.Tid][S.Unit];
      GroupMask[S.Group] &= M;
    }
    for (const GSite &S : Sites) {
      if (S.Unit == StaticCuInference::NoUnit)
        continue;
      uint64_t &M = CandMask[S.Tid][S.Unit];
      if (M != 0 && GroupMask[S.Group] == 0) {
        M = 0;
        Changed = true;
      }
    }
  }

  // --- Results.
  for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid) {
    ThreadPasses &T = TP[Tid];
    const std::vector<StaticCu> &Units = T.Cus->units();
    for (size_t UI = 0; UI < Units.size(); ++UI) {
      uint64_t Mask = CandMask[Tid][UI];
      if (Mask == 0)
        continue;
      const StaticCu &U = Units[UI];
      ProvenCu PC;
      PC.Tid = Tid;
      PC.UnitId = U.Id;
      PC.MutexId = static_cast<uint32_t>(std::countr_zero(Mask));
      PC.Pcs = U.Pcs;
      for (uint32_t Pc : U.Pcs)
        if (isa::isMemoryAccess((*T.Code)[Pc].Op)) {
          R.ProvenPc[Tid][Pc] = true;
          ++R.NumPrunable;
        }
      R.Proven.push_back(std::move(PC));
    }
  }

  // --- Eraser-style inconsistent-lock diagnostic per alias group.
  {
    // Deterministic group order: by smallest site index.
    std::vector<uint32_t> Roots;
    for (size_t A = 0; A < Sites.size(); ++A)
      if (Sites[A].Group == A)
        Roots.push_back(static_cast<uint32_t>(A));
    for (uint32_t Root : Roots) {
      uint64_t Prot = ~uint64_t(0);
      bool AnyLocked = false, AnyWrite = false;
      uint32_t ThreadsSeen = 0;
      std::vector<const GSite *> Bare;
      for (const GSite &S : Sites) {
        if (S.Group != Root)
          continue;
        ThreadsSeen |= uint32_t(1) << (S.Tid & 31);
        AnyWrite |= S.IsWrite;
        if (S.Must) {
          AnyLocked = true;
          Prot &= S.Must;
        } else {
          Bare.push_back(&S);
        }
      }
      if (!AnyLocked || Bare.empty() || !AnyWrite ||
          std::popcount(ThreadsSeen) < 2)
        continue;
      std::string LockName =
          Prot != 0 && Prot != ~uint64_t(0) &&
                  std::countr_zero(Prot) < static_cast<int>(NumMutexes)
              ? "'" + P.Mutexes[std::countr_zero(Prot)] + "'"
              : "a lock";
      for (const GSite *S : Bare) {
        ProofDiag D;
        D.K = ProofDiag::Kind::InconsistentLock;
        D.Tid = S->Tid;
        D.Pc = S->Pc;
        D.Line = (*TP[S->Tid].Code)[S->Pc].Line;
        D.Message = "access is unprotected but overlapping accesses "
                    "elsewhere hold " +
                    LockName + " (inconsistent locking)";
        R.Diags.push_back(std::move(D));
      }
    }
  }

  // --- Static lock-order cycles (AB-BA), whole program.
  if (NumMutexes >= 2 && NumMutexes <= 64) {
    // Edge h -> m when some thread acquires m while h is must-held; keep
    // the first (tid, pc) site per edge for the report location.
    std::vector<uint64_t> Adj(NumMutexes, 0);
    struct EdgeSite {
      isa::ThreadId Tid;
      uint32_t Pc;
    };
    std::vector<std::vector<EdgeSite>> EdgeAt(
        NumMutexes, std::vector<EdgeSite>(NumMutexes, {0, UINT32_MAX}));
    for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid) {
      ThreadPasses &T = TP[Tid];
      if (!T.Locks->analyzable())
        continue;
      for (uint32_t Pc = 0; Pc < T.Code->size(); ++Pc) {
        const Instruction &I = (*T.Code)[Pc];
        if (I.Op != Opcode::Lock || !T.Locks->reachable(Pc))
          continue;
        uint32_t M = static_cast<uint32_t>(I.Imm) & 63;
        if (M >= NumMutexes)
          continue;
        uint64_t Held = T.Locks->mustHeldBefore(Pc);
        for (uint32_t H = 0; H < NumMutexes; ++H) {
          if (H == M || !(Held & (uint64_t(1) << H)))
            continue;
          Adj[H] |= uint64_t(1) << M;
          if (EdgeAt[H][M].Pc == UINT32_MAX)
            EdgeAt[H][M] = {Tid, Pc};
        }
      }
    }
    // Transitive closure over <= 64 nodes.
    std::vector<uint64_t> Reach(NumMutexes);
    for (uint32_t A = 0; A < NumMutexes; ++A)
      Reach[A] = Adj[A];
    for (uint32_t K = 0; K < NumMutexes; ++K)
      for (uint32_t A = 0; A < NumMutexes; ++A)
        if (Reach[A] & (uint64_t(1) << K))
          Reach[A] |= Reach[K];
    for (uint32_t A = 0; A < NumMutexes; ++A)
      for (uint32_t B = A + 1; B < NumMutexes; ++B) {
        if (!(Reach[A] & (uint64_t(1) << B)) ||
            !(Reach[B] & (uint64_t(1) << A)))
          continue;
        // Report at the first direct edge site of the pair.
        EdgeSite Site = EdgeAt[A][B].Pc != UINT32_MAX ? EdgeAt[A][B]
                                                      : EdgeAt[B][A];
        if (Site.Pc == UINT32_MAX)
          continue; // cycle through intermediates only; skip the pair
        ProofDiag D;
        D.K = ProofDiag::Kind::LockOrderCycle;
        D.Tid = Site.Tid;
        D.Pc = Site.Pc;
        D.Line = (*TP[Site.Tid].Code)[Site.Pc].Line;
        D.Message = "mutexes '" + P.Mutexes[A] + "' and '" + P.Mutexes[B] +
                    "' are acquired in conflicting orders "
                    "(potential deadlock)";
        R.Diags.push_back(std::move(D));
      }
  }

  return R;
}
