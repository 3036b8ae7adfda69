//===- svd/OnlineSvd.h - Online serializability violation detector -*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online, one-pass SVD algorithm of Section 4.2 (Figures 7 and 8).
/// OnlineSvd observes a Machine's event stream and, per thread:
///
///  * infers true dependences by propagating CU references through
///    registers (loads tag registers, ALU ops union tags, stores merge
///    the tagged CUs — `merge_and_update`);
///  * infers partial control dependences with a stack of (cuSet,
///    reconvergence point) frames — the Skipper heuristic, or precisely
///    via immediate postdominators (ablation);
///  * infers shared blocks with the per-(thread, block) finite state
///    machine of Figure 8, ending a CU when a shared dependence is
///    detected (load on Stored_Shared, or remote access on True_Dep);
///  * checks strict-2PL at every store over the input blocks of the CUs
///    the store is data-, address-, or control-dependent on, reporting a
///    serializability violation when a conflicting remote access hit one
///    of those blocks before the CU ended;
///  * emits the a-posteriori CU log of Section 2.3 when CUs end on
///    shared dependences.
///
/// Reconstructed FSM transitions (Figure 8 names the states only):
/// \verbatim
///   Idle --load--> Loaded          Idle --store--> Stored
///   Loaded --store--> Stored       Loaded --remote--> Loaded_Shared
///   Stored --local load--> True_Dep  Stored --remote--> Stored_Shared
///   Loaded_Shared --store--> Stored_Shared
///   Stored_Shared --local load--> [end CU] -> Idle (then load => Loaded)
///   True_Dep --remote--> [end CU] -> Idle
/// \endverbatim
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_ONLINESVD_H
#define SVD_SVD_ONLINESVD_H

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "isa/Cfg.h"
#include "isa/Program.h"
#include "shadow/Shadow.h"
#include "svd/Detector.h"
#include "svd/Report.h"
#include "vm/Observer.h"
#include "vm/Translate.h"

#include <array>
#include <cstdint>
#include <set>
#include <vector>

namespace svd {
namespace detect {

/// Tunables of the online detector. Defaults reproduce the paper's
/// configuration; the ablation bench flips them individually.
struct OnlineSvdConfig {
  /// Control-flow reconvergence policy for the control-dependence stack.
  enum class ReconvPolicy : uint8_t {
    Skipper, ///< the paper's probe heuristic (if / if-else only)
    Precise, ///< immediate postdominators from the static CFG
  };
  ReconvPolicy Reconv = ReconvPolicy::Skipper;

  /// Check only a CU's input blocks (CU_T.rs) for conflicts — the
  /// Section 4.3 heuristic. When false, write sets are checked too.
  bool CheckInputBlocksOnly = true;

  /// Include address dependences (addrCuSet) in the store-time check.
  bool UseAddressDeps = true;

  /// Include control dependences (ctrlCuSet) in the store-time check.
  bool UseControlDeps = true;

  /// Detector block granularity: block id = word address >> BlockShift.
  /// 0 reproduces the paper's word-size blocks (Section 6.2); larger
  /// values introduce false sharing (ablation).
  uint32_t BlockShift = 0;

  /// Record the a-posteriori CU log (Section 2.3).
  bool KeepCuLog = true;

  /// Safety bound on the control-dependence stack; the oldest frame is
  /// dropped beyond it (irreducible or unlucky control flow).
  size_t MaxControlStackDepth = 256;

  /// Optional static access classification (analysis::buildAccessTable).
  /// Accesses the table proves thread-local take a fast path that skips
  /// the per-block FSM, block-set insertion, and remote broadcast while
  /// preserving CU construction and the store-time strict-2PL check —
  /// violation reports and the CU log stay bit-identical (see
  /// DESIGN.md). Ignored unless the table's block granularity matches
  /// BlockShift and NumCpus is 0: with the processor approximation a
  /// migrating thread can raise remote events against its own blocks,
  /// so even provably-local accesses must run the full path.
  const analysis::AccessTable *Access = nullptr;

  /// Optional static atomicity proofs (analysis::proveAtomicCus).
  /// Accesses inside a ProvenAtomic unit take the same fast path as
  /// provably-thread-local ones: the proof guarantees no schedule can
  /// involve their blocks in a violation or a CU-log triple, and the
  /// alias-group fixpoint makes the pruning symmetric (every access
  /// that can reach a pruned block is itself pruned), so the remaining
  /// event stream — and with it every violation report — stays
  /// bit-identical (the PruneDiff test asserts this across all suites).
  /// Ignored unless the proofs' block granularity matches BlockShift
  /// and NumCpus is 0 (the proofs are per thread, not per processor).
  const analysis::CuProofs *Proofs = nullptr;

  /// Upper bound on *live* (undead root) CUs per state lane; 0 means
  /// unbounded. Over budget, the oldest live CU is deterministically
  /// ended (deactivated exactly as a shared dependence would end it)
  /// before a new one is created, and the detector marks itself
  /// degraded — bounded-memory operation at the price of possibly
  /// missing violations whose CU was evicted. Populated from
  /// DetectorConfig::MaxStateEntries by the registry factory.
  uint64_t MaxCuEntries = 0;

  /// Keep per-block state in eagerly-allocated dense shadow pages (the
  /// historical pre-shadow-layer behavior) instead of the sparse
  /// materialize-on-touch tables. Functionally identical by contract;
  /// exists so the dense-vs-shadow differential (ShadowDiffTest) can
  /// compare two genuinely different allocation paths, and as an
  /// ablation knob for small dense heaps.
  bool DenseState = false;

  /// 0 keys detector state by thread (ideal). A nonzero value
  /// reproduces the paper's Section 4.3 deployment — "SVD approximates
  /// threads with processors" — by keying all per-thread state on
  /// EventCtx::Cpu instead; must match MachineConfig::NumCpus. With
  /// migration or CPU sharing, distinct threads' streams then blend in
  /// one state lane, the approximation error `--suite migration`
  /// quantifies.
  uint32_t NumCpus = 0;

  /// Adopt the pre-resolved EventCtx::StaticHint bits stamped by the
  /// translated engine (vm/Translate.h) in place of the per-event
  /// Access / Proofs lookups. Setting this is the caller's promise that
  /// the machine's TransCache hints were folded from the very same
  /// Access and Proofs tables configured above; the harness perf path
  /// upholds it by building both from one analysis pass. Events without
  /// HintClassified — interpreter steps, single-step fallbacks — still
  /// take the table lookups, so mixed streams classify identically.
  bool TrustStaticHints = false;
};

/// Opaque registry config carrying an OnlineSvdConfig (registry key
/// "svd").
struct OnlineSvdDetectorConfig final : DetectorConfig {
  OnlineSvdConfig Svd;

  OnlineSvdDetectorConfig() = default;
  explicit OnlineSvdDetectorConfig(OnlineSvdConfig C) : Svd(C) {}
  const char *detectorName() const override { return "svd"; }
  std::unique_ptr<DetectorConfig> clone() const override {
    // Copy-construct so base fields (MaxStateEntries) survive cloning.
    return std::make_unique<OnlineSvdDetectorConfig>(*this);
  }
};

/// Registers the online detector as "svd" (display name "SVD").
void registerOnlineSvdDetector(DetectorRegistry &R);

/// The online detector; attach with Machine::addObserver.
class OnlineSvd : public vm::ExecutionObserver {
public:
  OnlineSvd(const isa::Program &P, OnlineSvdConfig Cfg = OnlineSvdConfig());

  /// Dynamic serializability-violation reports, in detection order.
  const std::vector<Violation> &violations() const { return Violations; }

  /// The a-posteriori CU log (empty when disabled).
  const std::vector<CuLogEntry> &cuLog() const { return CuLog; }

  /// Number of CUs formed over the run (ended plus still-open ones);
  /// Table 2's "Computational Units" column.
  uint64_t numCusFormed() const { return CuCreations - CuMerges; }

  /// Number of CUs ended by shared dependences.
  uint64_t numCusEnded() const { return CuEndings; }

  /// Dynamic events observed (the per-million-instruction denominator).
  uint64_t eventsObserved() const { return Events; }

  /// True once the CU budget (OnlineSvdConfig::MaxCuEntries) forced an
  /// eviction — sticky for the rest of the run.
  bool degraded() const { return Ledger.degraded(); }

  /// CUs ended early to stay under budget (included in numCusEnded()).
  uint64_t budgetEvictions() const { return Ledger.evictions(); }

  /// Starts a fresh observation epoch on the per-block shadow tables
  /// (O(1) in sparse mode; see shadow/Shadow.h).
  void beginEpoch();

  /// Shadow pages materialized across all state lanes.
  uint64_t shadowPages() const;

  /// Bytes held by materialized shadow pages.
  size_t shadowBytes() const;

  /// Dynamic accesses that took the provably-thread-local fast path.
  uint64_t filteredAccesses() const { return FilteredLoads + FilteredStores; }
  uint64_t filteredLoads() const { return FilteredLoads; }
  uint64_t filteredStores() const { return FilteredStores; }

  /// Dynamic accesses pruned because they sit in a ProvenAtomic unit.
  uint64_t prunedAccesses() const { return PrunedLoads + PrunedStores; }
  uint64_t prunedLoads() const { return PrunedLoads; }
  uint64_t prunedStores() const { return PrunedStores; }

  /// Rough accounting of detector memory (Section 7.3's space overhead).
  size_t approxMemoryBytes() const;

  // --- ExecutionObserver ----------------------------------------------
  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onAlu(const vm::EventCtx &Ctx) override;
  void onBranch(const vm::EventCtx &Ctx, bool Taken,
                uint32_t Target) override;
  void onLock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onUnlock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onThreadFinished(const vm::EventCtx &Ctx) override;

private:
  using BlockId = uint32_t;
  using CuId = uint32_t;
  static constexpr CuId NoCu = UINT32_MAX;

  /// Figure 8's FSM_STATE.
  enum class Fsm : uint8_t {
    Idle,
    Loaded,
    Stored,
    LoadedShared,
    StoredShared,
    TrueDep,
  };

  /// CU_T: read/write block sets plus union-find linkage.
  struct CuData {
    CuId Parent = 0;
    bool Dead = false;
    std::set<BlockId> Rs;
    std::set<BlockId> Ws;
  };

  /// BLK_T plus the bookkeeping for conflict flags and the CU log.
  struct BlockInfo {
    Fsm State = Fsm::Idle;
    CuId Cu = NoCu;
    bool Conflict = false;
    // Last conflicting remote access (for violation reports).
    isa::ThreadId ConflictTid = 0;
    uint32_t ConflictPc = 0;
    uint64_t ConflictSeq = 0;
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

  /// One control-dependence stack frame.
  struct CtrlFrame {
    std::vector<CuId> CuSet;
    uint32_t ReconvPc;
  };

  /// All per-thread detector state (the paper stresses SVD's structures
  /// are private per thread).
  struct PerThread {
    PerThread(uint64_t NumBlocks, shadow::Mode M) : Blocks(NumBlocks, M) {}

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

  BlockId blockOf(isa::Addr A) const { return A >> Cfg.BlockShift; }

  /// True when the static table proves (\p Ctx's) access thread-local
  /// and filtering is active. A trusted translated-engine hint resolves
  /// the classification with zero lookups (folded at translation time).
  bool isFilteredLocal(const vm::EventCtx &Ctx) const {
    if (!FilterActive)
      return false;
    if (Cfg.TrustStaticHints && (Ctx.StaticHint & vm::HintClassified))
      return (Ctx.StaticHint & vm::HintFilteredLocal) != 0;
    return Cfg.Access->classify(Ctx.Tid, Ctx.Pc) ==
           analysis::AccessClass::ThreadLocal;
  }

  /// True when (\p Ctx's) access sits in a ProvenAtomic unit and proof
  /// pruning is active; trusted hints short-circuit as above.
  bool isProvenCu(const vm::EventCtx &Ctx) const {
    if (!PruneActive)
      return false;
    if (Cfg.TrustStaticHints && (Ctx.StaticHint & vm::HintClassified))
      return (Ctx.StaticHint & vm::HintProvenCu) != 0;
    return Cfg.Proofs->provenAt(Ctx.Tid, Ctx.Pc);
  }

  /// The state lane an event belongs to: its CPU when approximating
  /// threads with processors, else its thread.
  uint32_t laneOf(const vm::EventCtx &Ctx) const {
    return Cfg.NumCpus != 0 ? Ctx.Cpu : Ctx.Tid;
  }

  CuId find(PerThread &T, CuId C) const;
  CuId newCu(PerThread &T);
  /// Ends the oldest live CU of \p T to make room under MaxCuEntries,
  /// marking the detector degraded.
  void evictOldestCu(PerThread &T);
  CuId mergeCus(PerThread &T, CuId A, CuId B);
  /// Resolves \p Set to live roots, deduplicated.
  std::vector<CuId> liveRoots(PerThread &T, const std::vector<CuId> &Set);

  void popControlFrames(PerThread &T, uint32_t Pc);
  std::vector<CuId> controlCuSet(PerThread &T);
  void checkViolations(PerThread &T, const vm::EventCtx &Ctx,
                       const std::vector<CuId> &CuSet);
  /// Ends \p C: resets its blocks to Idle and marks it dead
  /// (deactivate_log_CU without the log side; logging happens at the
  /// shared-dependence sites where the triple is known).
  void deactivateCu(PerThread &T, isa::ThreadId Tid, CuId C);
  void emitLog(const vm::EventCtx &S, const BlockInfo &BI, BlockId B,
               uint64_t ReadSeqOverride = UINT64_MAX,
               uint32_t ReadPcOverride = UINT32_MAX);
  /// Delivers a remote-access message about (\p Tid's view of) block
  /// \p B touched by \p Ctx's thread.
  void handleRemote(isa::ThreadId Tid, BlockId B, bool IsWrite,
                    const vm::EventCtx &Ctx);
  void broadcastRemote(const vm::EventCtx &Ctx, BlockId B, bool IsWrite);

  const isa::Program &Prog;
  OnlineSvdConfig Cfg;
  bool FilterActive = false;
  bool PruneActive = false;
  uint32_t NumBlocks = 0;
  std::vector<PerThread> Threads;
  std::vector<isa::ThreadCfg> Cfgs;
  /// Per block: bitmask of threads whose FSM state for it is not Idle
  /// (remote-access fan-out; threads beyond 64 fall back to scanning).
  shadow::Table<uint64_t> Trackers;
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
};

} // namespace detect
} // namespace svd

#endif // SVD_SVD_ONLINESVD_H
