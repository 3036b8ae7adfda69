//===- svd/CuCore.h - Figure 7/8 core of the online detectors ---*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one copy of the online SVD algorithm (Section 4.2, Figures 7 and
/// 8) that both online detectors run. Section 4.4 describes hardware
/// SVD as the same algorithm over different storage and transport, so
/// the work splits in two:
///
///  * CuCore owns the algorithm: per state lane, the union-find of CUs
///    with their read/write block sets, the register CU-reference sets
///    and the control-dependence stack; per block, the Figure 8 FSM and
///    the CU-log bookkeeping; the store-time check-set gathering and
///    data-CU merge; the local and remote transitions, including the
///    two that end a CU; the CU-log triple; the MaxCuEntries budget;
///    the thread-local and proven-CU fast paths; and the registry
///    adapter with its factory budget fold.
///  * A detector derives from CuCore<Self, Config, ConflictPerCu> and
///    supplies the policy as inline hooks on its own class (static
///    dispatch; no virtual call per event):
///      - `uint32_t laneOf(const vm::EventCtx &)`: the state lane;
///      - `isa::Addr addressOf(BlockId)`: the block's first word;
///      - `void untrack(uint32_t Lane, BlockId)`: the lane's CU on the
///        block ended;
///      - `void checkViolations(Lane &, const vm::EventCtx &, CuSet)`:
///        the strict-2PL check over the store's CU set.
///    It also supplies the transport: it feeds its own accesses to
///    localLoad/localStore and every remote access it learns of to
///    remoteAccess.
///
/// ConflictPerCu picks where the conflict record lives: in each block
/// (the software detector) or in each CU (the hardware CU table, whose
/// summaries merge on union).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_CUCORE_H
#define SVD_SVD_CUCORE_H

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "isa/Cfg.h"
#include "isa/Program.h"
#include "obs/Obs.h"
#include "shadow/Shadow.h"
#include "svd/Detector.h"
#include "svd/Report.h"
#include "vm/Machine.h"
#include "vm/Observer.h"
#include "vm/Translate.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

namespace svd {
namespace detect {

/// Safety bound on the control-dependence stack; the oldest frame is
/// dropped beyond it (irreducible or unlucky control flow).
inline constexpr size_t CtrlStackLimit = 256;

/// Tunables shared by both online detectors. Defaults reproduce the
/// paper's configuration; the ablation bench flips them individually.
struct CuCoreConfig {
  /// Control-flow reconvergence policy for the control-dependence stack.
  enum class ReconvPolicy : uint8_t {
    Skipper, ///< the paper's probe heuristic (if / if-else only)
    Precise, ///< immediate postdominators from the static CFG
  };
  ReconvPolicy Reconv = ReconvPolicy::Skipper;

  /// Include address dependences (addrCuSet) in the store-time check.
  bool UseAddressDeps = true;

  /// Include control dependences (ctrlCuSet) in the store-time check.
  bool UseControlDeps = true;

  /// Optional static access classification (analysis::buildAccessTable).
  /// Accesses the table proves thread-local take a fast path that skips
  /// the per-block FSM, block-set insertion, and remote delivery while
  /// preserving CU construction and the store-time strict-2PL check.
  /// Ignored unless the table's block granularity matches the
  /// detector's (each detector states its own extra conditions).
  const analysis::AccessTable *Access = nullptr;

  /// Optional static atomicity proofs (analysis::proveAtomicCus).
  /// Accesses inside a ProvenAtomic unit take the same fast path as
  /// provably-thread-local ones: the proof guarantees no schedule can
  /// involve their blocks in a violation or a CU-log triple, and the
  /// alias-group fixpoint makes the pruning symmetric (every access
  /// that can reach a pruned block is itself pruned), so violation
  /// reports stay bit-identical (the PruneDiff test asserts this).
  /// Same granularity condition as Access.
  const analysis::CuProofs *Proofs = nullptr;

  /// Upper bound on *live* (undead root) CUs per state lane; 0 means
  /// unbounded. Over budget, the oldest live CU is deterministically
  /// ended (deactivated exactly as a shared dependence would end it)
  /// before a new one is created, and the detector marks itself
  /// degraded. Populated from DetectorConfig::MaxStateEntries by the
  /// registry factory when left 0.
  uint64_t MaxCuEntries = 0;

  /// Keep per-block state in eagerly-allocated dense shadow pages
  /// instead of the sparse materialize-on-touch tables. Functionally
  /// identical by contract; exists so the dense-vs-shadow differential
  /// (ShadowDiffTest) can compare two genuinely different allocation
  /// paths.
  bool DenseState = false;
};

using BlockId = uint32_t;
using CuId = uint32_t;
constexpr CuId NoCu = UINT32_MAX;

/// Figure 8's FSM_STATE.
enum class Fsm : uint8_t {
  Idle,
  Loaded,
  Stored,
  LoadedShared,
  StoredShared,
  TrueDep,
};

/// One Figure 8 transition of a lane's view of a block.
struct FsmStep {
  Fsm Next;
  /// The access ends the CU owning the block (a shared dependence).
  bool EndsCu;
  /// The access conflicts with the lane's use of the block: a remote
  /// write, or any remote access to a block the lane wrote.
  bool Conflict;
};

/// The lane wrote the block since its CU took it.
constexpr bool localWrote(Fsm S) {
  return S == Fsm::Stored || S == Fsm::StoredShared || S == Fsm::TrueDep;
}

/// A load by the lane itself.
constexpr FsmStep fsmLocalLoad(Fsm S) {
  switch (S) {
  case Fsm::Idle:
    return {Fsm::Loaded, false, false};
  case Fsm::Stored:
    return {Fsm::TrueDep, false, false};
  case Fsm::StoredShared:
    // Figure 7 lines 5-6: the CU ends and the block restarts from Idle,
    // where this load leaves it Loaded.
    return {Fsm::Loaded, true, false};
  default: // Loaded, LoadedShared, TrueDep
    return {S, false, false};
  }
}

/// A store by the lane itself; overwriting keeps the stronger state.
constexpr FsmStep fsmLocalStore(Fsm S) {
  switch (S) {
  case Fsm::Idle:
  case Fsm::Loaded:
    return {Fsm::Stored, false, false};
  case Fsm::LoadedShared:
    return {Fsm::StoredShared, false, false};
  default: // Stored, StoredShared, TrueDep
    return {S, false, false};
  }
}

/// A remote access (another lane's read or write) to the block.
constexpr FsmStep fsmRemote(Fsm S, bool IsWrite) {
  bool Conflict = IsWrite || localWrote(S);
  switch (S) {
  case Fsm::Idle:
    return {Fsm::Idle, false, false}; // the lane holds nothing
  case Fsm::Loaded:
    return {Fsm::LoadedShared, false, Conflict};
  case Fsm::Stored:
    return {Fsm::StoredShared, false, Conflict};
  case Fsm::TrueDep:
    // Figure 7 lines 30-31: a consumed local RAW turned out to be on a
    // shared block; the CU ends.
    return {Fsm::Idle, true, Conflict};
  default: // LoadedShared, StoredShared
    return {S, false, Conflict};
  }
}

/// BLK_T: a lane's view of one block.
struct BlockMeta {
  Fsm State = Fsm::Idle;
  CuId Cu = NoCu;
  // Last thread-local write / read (lw and s of the log triple).
  uint32_t LocalWritePc = UINT32_MAX;
  uint64_t LocalWriteSeq = 0;
  uint32_t LocalReadPc = UINT32_MAX;
  uint64_t LocalReadSeq = 0;
  // Last remote write (rw of the log triple).
  isa::ThreadId RemoteWriteTid = 0;
  uint32_t RemoteWritePc = UINT32_MAX;
  uint64_t RemoteWriteSeq = 0;
};

/// The last conflicting remote access (a violation's other side).
struct ConflictRecord {
  bool Conflict = false;
  isa::ThreadId ConflictTid = 0;
  uint32_t ConflictPc = 0;
  uint64_t ConflictSeq = 0;
};

/// CU_T: read/write block sets plus union-find linkage.
struct CuSets {
  CuId Parent = 0;
  bool Dead = false;
  std::set<BlockId> Rs;
  std::set<BlockId> Ws;
};

/// One control-dependence stack frame.
struct CtrlFrame {
  std::vector<CuId> CuSet;
  uint32_t ReconvPc;
};

template <class Derived, class ConfigT, bool ConflictPerCu>
class CuCore : public vm::ExecutionObserver {
public:
  using Config = ConfigT;

  /// Dynamic serializability-violation reports, in detection order.
  const std::vector<Violation> &violations() const { return Violations; }

  /// The a-posteriori CU log (Section 2.3).
  const std::vector<CuLogEntry> &cuLog() const { return CuLog; }

  /// Number of CUs formed over the run (ended plus still-open ones);
  /// Table 2's "Computational Units" column.
  uint64_t numCusFormed() const { return CuCreations - CuMerges; }

  /// Number of CUs ended by shared dependences or the budget.
  uint64_t numCusEnded() const { return CuEndings; }

  /// Dynamic events observed (the per-million-instruction denominator).
  uint64_t eventsObserved() const { return Events; }

  /// True once the CU budget (MaxCuEntries) forced an eviction; sticky
  /// for the rest of the run.
  bool degraded() const { return Ledger.degraded(); }

  /// CUs ended early to stay under budget (included in numCusEnded()).
  uint64_t budgetEvictions() const { return Ledger.evictions(); }

  /// Dynamic accesses that took the provably-thread-local fast path.
  uint64_t filteredAccesses() const { return FilteredLoads + FilteredStores; }
  uint64_t filteredLoads() const { return FilteredLoads; }
  uint64_t filteredStores() const { return FilteredStores; }

  /// Dynamic accesses pruned because they sit in a ProvenAtomic unit.
  uint64_t prunedAccesses() const { return PrunedLoads + PrunedStores; }
  uint64_t prunedLoads() const { return PrunedLoads; }
  uint64_t prunedStores() const { return PrunedStores; }

  // --- ExecutionObserver: the register and control-stack events ------
  void onAlu(const vm::EventCtx &Ctx) override {
    Lane &T = enter(Ctx);
    const isa::Instruction &I = *Ctx.Instr;
    if (!isa::writesRd(I.Op) || I.Rd == isa::ZeroReg)
      return;
    // destR.cuSet := union of the source registers' cuSets (lines 10-12).
    std::vector<CuId> Out;
    if (isa::readsRa(I.Op) && I.Ra != isa::ZeroReg)
      Out = T.RegSets[I.Ra];
    if (isa::readsRb(I.Op) && I.Rb != isa::ZeroReg)
      for (CuId C : T.RegSets[I.Rb])
        addUnique(Out, C);
    T.RegSets[I.Rd] = std::move(Out);
  }

  void onBranch(const vm::EventCtx &Ctx, bool, uint32_t) override {
    Lane &T = enter(Ctx);
    const isa::Instruction &I = *Ctx.Instr;
    if (!isa::isConditionalBranch(I.Op) || !Cfg.UseControlDeps)
      return;
    uint32_t Reconv = Cfg.Reconv == CuCoreConfig::ReconvPolicy::Skipper
                          ? Cfgs[Ctx.Tid].skipperReconvergence(Ctx.Pc)
                          : Cfgs[Ctx.Tid].preciseReconvergence(Ctx.Pc);
    if (Reconv == isa::ThreadCfg::NoNode)
      return;
    CtrlFrame F;
    F.CuSet = liveRoots(T, T.RegSets[I.Ra]);
    F.ReconvPc = Reconv;
    if (T.CtrlStack.size() >= CtrlStackLimit)
      T.CtrlStack.erase(T.CtrlStack.begin());
    T.CtrlStack.push_back(std::move(F));
  }

  // Synchronization is invisible to SVD by design; only the pc advances.
  void onLock(const vm::EventCtx &Ctx, uint32_t) override { enter(Ctx); }
  void onUnlock(const vm::EventCtx &Ctx, uint32_t) override { enter(Ctx); }

  void onThreadFinished(const vm::EventCtx &Ctx) override {
    Lane &T = Lanes[derived().laneOf(Ctx)];
    T.CtrlStack.clear();
    for (auto &RS : T.RegSets)
      RS.clear();
  }

protected:
  struct ConflictedBlock : BlockMeta, ConflictRecord {};
  struct ConflictedCu : CuSets, ConflictRecord {};
  /// Per-block metadata, carrying the conflict record when it is kept
  /// per block.
  using BlockInfo =
      std::conditional_t<ConflictPerCu, BlockMeta, ConflictedBlock>;
  /// Per-CU data, carrying the conflict summary when it is kept per CU.
  using CuData = std::conditional_t<ConflictPerCu, ConflictedCu, CuSets>;

  /// All state of one lane (a thread, or a processor approximating its
  /// threads); the paper stresses SVD's structures are private to it.
  struct Lane {
    Lane(uint64_t NumBlocks, shadow::Mode M) : Blocks(NumBlocks, M) {}

    std::vector<CuData> Cus;
    /// Per-block FSM/CU/log state, paged so a lane that never touches
    /// a region of the heap never pays for it.
    shadow::Table<BlockInfo> Blocks;
    std::array<std::vector<CuId>, isa::NumRegs> RegSets;
    std::vector<CtrlFrame> CtrlStack;
    /// Live (undead root) CU count and eviction scan position for the
    /// MaxCuEntries budget, maintained by newCu / mergeCus /
    /// deactivateCu. The cursor is sound as a monotone scan: CU ids
    /// only ever stop being live roots (union-find parents move up,
    /// Dead is never cleared), so everything behind it stays
    /// ineligible.
    shadow::BudgetLane Budget;
  };

  CuCore(const isa::Program &P, const ConfigT &C)
      : Cfg(C), Ledger(C.MaxCuEntries) {
    Cfgs.reserve(P.numThreads());
    for (const isa::ThreadCode &TC : P.Threads)
      Cfgs.emplace_back(TC.Code);
  }

  /// Creates the detector's \p NumLanes state lanes over \p NumBlocks
  /// blocks (called once, from the detector's constructor).
  void initLanes(uint32_t NumLanes, uint64_t NumBlocks) {
    Lanes.reserve(NumLanes);
    for (uint32_t L = 0; L < NumLanes; ++L)
      Lanes.emplace_back(NumBlocks, shadowMode());
  }

  shadow::Mode shadowMode() const {
    return Cfg.DenseState ? shadow::Mode::Dense : shadow::Mode::Sparse;
  }

  uint64_t lanePages() const {
    uint64_t Pages = 0;
    for (const Lane &T : Lanes)
      Pages += T.Blocks.pagesAllocated();
    return Pages;
  }
  size_t laneBytes() const {
    size_t Bytes = 0;
    for (const Lane &T : Lanes)
      Bytes += T.Blocks.approxMemoryBytes();
    return Bytes;
  }

  /// Every event: count it, and pop the control frames reconverging at
  /// its pc.
  Lane &enter(const vm::EventCtx &Ctx) {
    ++Events;
    Lane &T = Lanes[derived().laneOf(Ctx)];
    popControlFrames(T, Ctx.Pc);
    return T;
  }

  /// A load by \p T's own lane from block \p B (Figure 7 lines 1-8).
  /// Returns true when the block's FSM took part, i.e. other lanes
  /// must hear of the access; false on the static fast paths.
  bool localLoad(Lane &T, const vm::EventCtx &Ctx, BlockId B) {
    BlockInfo &BI = T.Blocks.touch(B);

    // Provably-thread-local and ProvenAtomic fast paths: no remote
    // access can ever engage this block, so its FSM never leaves Idle,
    // it never conflicts and never feeds the CU log. Only the
    // true-dependence plumbing that links CUs through local data runs:
    // join the block's CU and tag the destination register.
    if (takeFastPath(Ctx, FilteredLoads, PrunedLoads)) {
      tagDest(T, Ctx, joinCu(T, BI));
      return false;
    }

    FsmStep St = fsmLocalLoad(BI.State);
    if (St.EndsCu) {
      // A load on Stored_Shared feeds the a-posteriori log if a remote
      // write intervened after the local one.
      if (BI.RemoteWritePc != UINT32_MAX &&
          BI.RemoteWriteSeq > BI.LocalWriteSeq)
        emitLog(Ctx.Tid, Ctx.Pc, Ctx.Seq, BI, B);
      deactivateCu(T, BI.Cu);
      // The deactivation resets every block the CU still owns; make
      // this block's reset unconditional in case it was handed to a
      // newer CU.
      endBlock(BI);
    }
    BI.State = St.Next;

    // Join the block's CU (creating one for fresh blocks), tag the
    // destination register (Figure 7 lines 7-8).
    CuId C = joinCu(T, BI);
    T.Cus[C].Rs.insert(B);
    tagDest(T, Ctx, C);
    BI.LocalReadPc = Ctx.Pc;
    BI.LocalReadSeq = Ctx.Seq;
    return true;
  }

  /// A store by \p T's own lane to block \p B (Figure 7 lines 14-24).
  /// Returns true when other lanes must hear of the access.
  bool localStore(Lane &T, const vm::EventCtx &Ctx, BlockId B) {
    const isa::Instruction &I = *Ctx.Instr;

    // Gather the data, address, and control CU sets (lines 15-17).
    std::vector<CuId> DataSet = liveRoots(T, T.RegSets[I.Rb]);
    std::vector<CuId> CheckSet = DataSet;
    if (Cfg.UseAddressDeps)
      for (CuId C : liveRoots(T, T.RegSets[I.Ra]))
        addUnique(CheckSet, C);
    if (Cfg.UseControlDeps)
      for (CuId C : controlCuSet(T))
        addUnique(CheckSet, C);

    // Strict-2PL check (line 18).
    derived().checkViolations(T, Ctx, CheckSet);

    // merge_and_update over the data CU set only (lines 20-21; Section
    // 4.3: CUs are connected via true dependences only).
    CuId C;
    if (DataSet.empty()) {
      C = newCu(T);
    } else {
      C = DataSet[0];
      for (size_t Idx = 1; Idx < DataSet.size(); ++Idx)
        C = mergeCus(T, C, DataSet[Idx]);
    }

    BlockInfo &BI = T.Blocks.touch(B);
    BI.Cu = C;

    // Fast paths: the violation check and the CU merge above concern
    // the CUs this store depends on, not the stored block, so they
    // already ran; only the block-side FSM/write-set work is skipped.
    if (takeFastPath(Ctx, FilteredStores, PrunedStores))
      return false;

    T.Cus[C].Ws.insert(B);
    BI.State = fsmLocalStore(BI.State).Next;
    BI.LocalWritePc = Ctx.Pc;
    BI.LocalWriteSeq = Ctx.Seq;
    return true;
  }

  /// Delivers another lane's access to lane \p L's view of block \p B.
  void remoteAccess(uint32_t L, BlockId B, bool IsWrite,
                    const vm::EventCtx &Ctx) {
    Lane &T = Lanes[L];
    // An untouched block reads as Idle without materializing
    // anything; only engaged blocks pay for the touch.
    if (T.Blocks.peek(B).State == Fsm::Idle)
      return;
    BlockInfo &BI = T.Blocks.touch(B);

    if (IsWrite) {
      BI.RemoteWriteTid = Ctx.Tid;
      BI.RemoteWritePc = Ctx.Pc;
      BI.RemoteWriteSeq = Ctx.Seq;
    }
    FsmStep St = fsmRemote(BI.State, IsWrite);
    if (St.Conflict)
      if (ConflictRecord *R = conflictOf(T, BI)) {
        R->Conflict = true;
        R->ConflictTid = Ctx.Tid;
        R->ConflictPc = Ctx.Pc;
        R->ConflictSeq = Ctx.Seq;
      }
    if (St.EndsCu) {
      // Log the (s, rw, lw) triple using the recorded local read.
      if (IsWrite)
        emitLog(L, BI.LocalReadPc, BI.LocalReadSeq, BI, B);
      deactivateCu(T, BI.Cu);
      endBlock(BI);
    }
    BI.State = St.Next;
  }

  /// Appends the report of a store at \p Ctx against conflict \p R on
  /// the word \p A.
  void reportViolation(const vm::EventCtx &Ctx, const ConflictRecord &R,
                       isa::Addr A) {
    Violation V;
    V.Seq = Ctx.Seq;
    V.Tid = Ctx.Tid;
    V.Pc = Ctx.Pc;
    V.OtherTid = R.ConflictTid;
    V.OtherPc = R.ConflictPc;
    V.OtherSeq = R.ConflictSeq;
    V.Address = A;
    Violations.push_back(V);
  }

  /// Proof-pruning counters. They exist only when proofs were supplied,
  /// so configurations that never heard of pruning keep their exported
  /// stats (and the goldens pinning them) byte-stable.
  void exportPruneStats(obs::Registry &R) const {
    if (!Cfg.Proofs)
      return;
    R.counter("analysis.proven_cus").add(Cfg.Proofs->proven().size());
    R.counter("svd.cu_pruned_events").add(prunedAccesses());
  }

  CuId find(Lane &T, CuId C) const {
    if (C == NoCu)
      return NoCu;
    while (T.Cus[C].Parent != C) {
      T.Cus[C].Parent = T.Cus[T.Cus[C].Parent].Parent;
      C = T.Cus[C].Parent;
    }
    return C;
  }

  CuId newCu(Lane &T) {
    if (Ledger.overBudget(T.Budget.Live))
      evictOldestCu(T);
    CuId C = static_cast<CuId>(T.Cus.size());
    T.Cus.push_back(CuData());
    T.Cus.back().Parent = C;
    ++CuCreations;
    ++T.Budget.Live;
    return C;
  }

  /// Ends the oldest live CU of \p T to make room under MaxCuEntries,
  /// marking the detector degraded.
  void evictOldestCu(Lane &T) {
    // Scan forward from the cursor for the oldest live root; ids behind
    // the cursor can never become eligible again (see Lane).
    for (CuId C = T.Budget.Cursor; C < T.Cus.size(); ++C) {
      if (T.Cus[C].Parent != C || T.Cus[C].Dead)
        continue;
      T.Budget.Cursor = C;
      deactivateCu(T, C);
      Ledger.recordEviction();
      return;
    }
    T.Budget.Cursor = static_cast<CuId>(T.Cus.size());
  }

  CuId mergeCus(Lane &T, CuId A, CuId B) {
    A = find(T, A);
    B = find(T, B);
    if (A == B)
      return A;
    assert(!T.Cus[A].Dead && !T.Cus[B].Dead && "merging a dead CU");
    // Union by block-set size to bound copying.
    if (T.Cus[A].Rs.size() + T.Cus[A].Ws.size() <
        T.Cus[B].Rs.size() + T.Cus[B].Ws.size())
      std::swap(A, B);
    CuData &Into = T.Cus[A];
    CuData &From = T.Cus[B];
    From.Parent = A;
    Into.Rs.insert(From.Rs.begin(), From.Rs.end());
    Into.Ws.insert(From.Ws.begin(), From.Ws.end());
    if constexpr (ConflictPerCu)
      if (From.Conflict && !Into.Conflict)
        static_cast<ConflictRecord &>(Into) = From;
    From.Rs.clear();
    From.Ws.clear();
    ++CuMerges;
    if (T.Budget.Live > 0)
      --T.Budget.Live;
    return A;
  }

  /// Resolves \p Set to live roots, deduplicated.
  std::vector<CuId> liveRoots(Lane &T, const std::vector<CuId> &Set) {
    std::vector<CuId> Out;
    for (CuId C : Set)
      addLiveRoot(T, Out, C);
    return Out;
  }

  void popControlFrames(Lane &T, uint32_t Pc) {
    while (!T.CtrlStack.empty() && T.CtrlStack.back().ReconvPc == Pc)
      T.CtrlStack.pop_back();
  }

  /// ctrl_dep_from_stack(): every frame's cuSet, as live roots.
  std::vector<CuId> controlCuSet(Lane &T) {
    std::vector<CuId> Out;
    for (const CtrlFrame &F : T.CtrlStack)
      for (CuId C : F.CuSet)
        addLiveRoot(T, Out, C);
    return Out;
  }

  /// Ends \p C: resets its blocks to Idle and marks it dead
  /// (deactivate_log_CU without the log side; logging happens at the
  /// shared-dependence sites where the triple is known).
  void deactivateCu(Lane &T, CuId C) {
    C = find(T, C);
    if (C == NoCu || T.Cus[C].Dead)
      return;
    CuData &CU = T.Cus[C];
    CU.Dead = true;
    ++CuEndings;
    if (T.Budget.Live > 0)
      --T.Budget.Live;
    uint32_t L = static_cast<uint32_t>(&T - Lanes.data());
    auto ResetBlocks = [&](const std::set<BlockId> &Blocks) {
      for (BlockId B : Blocks) {
        BlockInfo &BI = T.Blocks.touch(B);
        // A block may have been handed to a newer CU already; leave it.
        if (find(T, BI.Cu) != C)
          continue;
        endBlock(BI);
        derived().untrack(L, B);
      }
    };
    ResetBlocks(CU.Rs);
    ResetBlocks(CU.Ws);
    CU.Rs.clear();
    CU.Ws.clear();
    if constexpr (ConflictPerCu)
      CU.Conflict = false;
  }

  /// Logs the (s, rw, lw) triple of \p BI (the local read s at \p Pc /
  /// \p Seq by \p Tid), when a remote write intervened.
  void emitLog(isa::ThreadId Tid, uint32_t Pc, uint64_t Seq,
               const BlockInfo &BI, BlockId B) {
    if (BI.RemoteWritePc == UINT32_MAX)
      return;
    CuLogEntry E;
    E.Seq = Seq;
    E.Tid = Tid;
    E.Pc = Pc;
    E.RemoteSeq = BI.RemoteWriteSeq;
    E.RemoteTid = BI.RemoteWriteTid;
    E.RemotePc = BI.RemoteWritePc;
    E.LocalSeq = BI.LocalWriteSeq;
    E.LocalPc = BI.LocalWritePc;
    E.Address = derived().addressOf(B);
    CuLog.push_back(E);
  }

  ConfigT Cfg;
  /// Set by the detector: the static fast paths are sound for it.
  bool FilterActive = false;
  bool PruneActive = false;
  /// Set by the detector: adopt the translated engine's pre-resolved
  /// EventCtx::StaticHint bits in place of the table lookups.
  bool TrustHints = false;
  std::vector<Lane> Lanes;
  std::vector<isa::ThreadCfg> Cfgs;
  /// The shared MaxCuEntries budget ledger (sticky degradation state).
  shadow::BudgetLedger Ledger;

  std::vector<Violation> Violations;
  std::vector<CuLogEntry> CuLog;
  uint64_t Events = 0;
  uint64_t FilteredLoads = 0;
  uint64_t FilteredStores = 0;
  uint64_t PrunedLoads = 0;
  uint64_t PrunedStores = 0;
  uint64_t CuCreations = 0;
  uint64_t CuMerges = 0;
  uint64_t CuEndings = 0;

private:
  Derived &derived() { return static_cast<Derived &>(*this); }

  static void addUnique(std::vector<CuId> &Out, CuId C) {
    if (std::find(Out.begin(), Out.end(), C) == Out.end())
      Out.push_back(C);
  }

  void addLiveRoot(Lane &T, std::vector<CuId> &Out, CuId C) {
    CuId R = find(T, C);
    if (R != NoCu && !T.Cus[R].Dead)
      addUnique(Out, R);
  }

  /// The block's live CU, creating one for fresh blocks.
  CuId joinCu(Lane &T, BlockInfo &BI) {
    CuId C = find(T, BI.Cu);
    if (C == NoCu || T.Cus[C].Dead)
      C = newCu(T);
    BI.Cu = C;
    return C;
  }

  void tagDest(Lane &T, const vm::EventCtx &Ctx, CuId C) {
    const isa::Instruction &I = *Ctx.Instr;
    if (I.Rd != isa::ZeroReg) {
      T.RegSets[I.Rd].clear();
      T.RegSets[I.Rd].push_back(C);
    }
  }

  /// The block leaves its CU: Idle, unowned, no pending conflict.
  static void endBlock(BlockInfo &BI) {
    BI.State = Fsm::Idle;
    BI.Cu = NoCu;
    if constexpr (!ConflictPerCu)
      BI.Conflict = false;
  }

  /// Where a conflict on \p BI is recorded: the block itself, or its
  /// live CU's summary (null when the block's CU already ended).
  ConflictRecord *conflictOf(Lane &T, BlockInfo &BI) {
    if constexpr (ConflictPerCu) {
      CuId C = find(T, BI.Cu);
      return C != NoCu && !T.Cus[C].Dead ? &T.Cus[C] : nullptr;
    } else {
      return &BI;
    }
  }

  /// True (after counting the access in \p Filtered or \p Pruned) when
  /// the static analyses let \p Ctx's access skip the block FSM. A
  /// trusted translated-engine hint resolves the classification with
  /// zero lookups (folded at translation time).
  bool takeFastPath(const vm::EventCtx &Ctx, uint64_t &Filtered,
                    uint64_t &Pruned) {
    bool Hinted = TrustHints && (Ctx.StaticHint & vm::HintClassified);
    if (FilterActive &&
        (Hinted ? (Ctx.StaticHint & vm::HintFilteredLocal) != 0
                : Cfg.Access->classify(Ctx.Tid, Ctx.Pc) ==
                      analysis::AccessClass::ThreadLocal)) {
      ++Filtered;
      return true;
    }
    if (PruneActive && (Hinted ? (Ctx.StaticHint & vm::HintProvenCu) != 0
                               : Cfg.Proofs->provenAt(Ctx.Tid, Ctx.Pc))) {
      ++Pruned;
      return true;
    }
    return false;
  }
};

/// Registry adapter around one core-based detector instance. \p Impl
/// names itself (RegistryName), its degradation cause (BudgetReason),
/// and supplies shadowPages/shadowBytes/approxMemoryBytes and its own
/// exportStats counters.
template <class Impl> class CuCoreDetector final : public Detector {
public:
  CuCoreDetector(const isa::Program &P, const typename Impl::Config &Cfg)
      : D(P, Cfg) {}

  const char *name() const override { return Impl::RegistryName; }
  void attach(vm::Machine &M) override { M.addObserver(&D); }
  uint64_t shadowPages() const override { return D.shadowPages(); }
  size_t shadowBytes() const override { return D.shadowBytes(); }
  const std::vector<Violation> &reports() const override {
    return D.violations();
  }
  const std::vector<CuLogEntry> &cuLog() const override { return D.cuLog(); }
  size_t approxMemoryBytes() const override { return D.approxMemoryBytes(); }
  uint64_t numCusFormed() const override { return D.numCusFormed(); }
  const DetectorHealth &health() const override {
    H.Degraded = D.degraded();
    H.Evictions = D.budgetEvictions();
    if (H.Degraded && H.Reason.empty())
      H.Reason = Impl::BudgetReason;
    return H;
  }
  void exportStats(obs::Registry &R) const override {
    Detector::exportStats(R);
    D.exportStats(R);
  }

private:
  Impl D;
  mutable DetectorHealth H;
};

/// The registry entry of a core-based detector whose registry config
/// \p WrapperT carries its native config in \p Field. The registry-wide
/// DetectorConfig::MaxStateEntries backfills an unset MaxCuEntries.
template <class Impl, class WrapperT>
DetectorRegistry::Entry
cuCoreEntry(typename Impl::Config WrapperT::*Field) {
  return {Impl::RegistryName,
          [Field](const isa::Program &P, const DetectorConfig *Cfg) {
            const auto *C = configAs<WrapperT>(Cfg, Impl::RegistryName);
            typename Impl::Config IC = C ? C->*Field : typename Impl::Config();
            if (C && IC.MaxCuEntries == 0)
              IC.MaxCuEntries = C->MaxStateEntries;
            return std::unique_ptr<Detector>(
                std::make_unique<CuCoreDetector<Impl>>(P, IC));
          }};
}

} // namespace detect
} // namespace svd

#endif // SVD_SVD_CUCORE_H
