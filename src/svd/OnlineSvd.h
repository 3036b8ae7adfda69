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
/// Reconstructed FSM transitions (Figure 8 names the states only), per
/// (lane, block). "end" marks the two shared dependences that end the
/// CU owning the block; "C" marks the accesses that raise a conflict
/// (a remote write, or any remote access to a block the lane wrote):
/// \verbatim
///  state         local load    local store   remote read     remote write
///  Idle          Loaded        Stored        Idle            Idle
///  Loaded        Loaded        Stored        Loaded_Shared   Loaded_Shared C
///  Stored        True_Dep      Stored        Stored_Shared C Stored_Shared C
///  Loaded_Shared Loaded_Shared Stored_Shared Loaded_Shared   Loaded_Shared C
///  Stored_Shared end, Loaded   Stored_Shared Stored_Shared C Stored_Shared C
///  True_Dep      True_Dep      True_Dep      end, Idle C     end, Idle C
/// \endverbatim
///
/// The algorithm itself lives in svd/CuCore.h, shared with HardwareSvd;
/// this file adds the software detector's storage and transport.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_ONLINESVD_H
#define SVD_SVD_ONLINESVD_H

#include "svd/CuCore.h"

#include <cstdint>

namespace svd {
namespace detect {

/// Tunables of the online detector: the shared CuCoreConfig plus the
/// software-only knobs. Defaults reproduce the paper's configuration.
struct OnlineSvdConfig : CuCoreConfig {
  /// Check only a CU's input blocks (CU_T.rs) for conflicts — the
  /// Section 4.3 heuristic. When false, write sets are checked too.
  bool CheckInputBlocksOnly = true;

  /// Detector block granularity: block id = word address >> BlockShift.
  /// 0 reproduces the paper's word-size blocks (Section 6.2); larger
  /// values introduce false sharing (ablation).
  uint32_t BlockShift = 0;

  /// 0 keys detector state by thread (ideal). A nonzero value
  /// reproduces the paper's Section 4.3 deployment — "SVD approximates
  /// threads with processors" — by keying all per-thread state on
  /// EventCtx::Cpu instead; must match MachineConfig::NumCpus. With
  /// migration or CPU sharing, distinct threads' streams then blend in
  /// one state lane, the approximation error `--suite migration`
  /// quantifies. The static fast paths (Access, Proofs) stay off in
  /// this mode: a migrating thread can raise remote events against its
  /// own blocks, so even provably-local accesses must run the full path.
  uint32_t NumCpus = 0;

  /// Adopt the pre-resolved EventCtx::StaticHint bits stamped by the
  /// translated engine (vm/Translate.h) in place of the per-event
  /// Access / Proofs lookups. Setting this is the caller's promise that
  /// the machine's TransCache hints were folded from the very same
  /// Access and Proofs tables configured above; its only setters,
  /// perfbench and tests/TranslateDiffTest.cpp, uphold it by building
  /// both from one analysis pass. Events without HintClassified —
  /// interpreter steps, single-step fallbacks — still take the table
  /// lookups, so mixed streams classify identically.
  bool TrustStaticHints = false;
};

/// Opaque registry config carrying an OnlineSvdConfig (registry key
/// "svd").
struct OnlineSvdDetectorConfig final : DetectorConfig {
  OnlineSvdConfig Svd;

  OnlineSvdDetectorConfig() = default;
  explicit OnlineSvdDetectorConfig(OnlineSvdConfig C) : Svd(C) {}
  const char *detectorName() const override { return "svd"; }
};

/// Registers the online detector (Fig. 7) as "svd".
void registerOnlineSvdDetector(DetectorRegistry &R);

/// The online detector; attach with Machine::addObserver. On top of the
/// shared core it keeps word blocks (address >> BlockShift) with
/// per-block conflict flags, delivers remote accesses by broadcasting
/// to the lanes whose bit is set in a per-block tracker mask, and keys
/// lanes by thread or by CPU.
class OnlineSvd : public CuCore<OnlineSvd, OnlineSvdConfig, false> {
public:
  static constexpr const char *RegistryName = "svd";
  static constexpr const char *BudgetReason =
      "cu budget exceeded; oldest live CUs evicted";

  OnlineSvd(const isa::Program &P, OnlineSvdConfig Cfg = OnlineSvdConfig());

  /// Shadow pages materialized across all state lanes.
  uint64_t shadowPages() const;

  /// Bytes held by materialized shadow pages.
  size_t shadowBytes() const;

  /// Rough accounting of detector memory (Section 7.3's space overhead).
  size_t approxMemoryBytes() const;

  /// Adds the detector's counters under "detect.svd." to \p R.
  void exportStats(obs::Registry &R) const;

  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;

private:
  friend CuCore;

  // --- CuCore policy hooks ---------------------------------------------
  /// The state lane an event belongs to: its CPU when approximating
  /// threads with processors, else its thread.
  uint32_t laneOf(const vm::EventCtx &Ctx) const {
    return Cfg.NumCpus != 0 ? Ctx.Cpu : Ctx.Tid;
  }
  isa::Addr addressOf(BlockId B) const {
    return static_cast<isa::Addr>(B) << Cfg.BlockShift;
  }
  void untrack(uint32_t Lane, BlockId B) {
    Trackers.touch(B) &= ~(uint64_t(1) << (Lane % 64));
  }
  void checkViolations(Lane &T, const vm::EventCtx &Ctx,
                       const std::vector<CuId> &CuSet);

  BlockId blockOf(isa::Addr A) const { return A >> Cfg.BlockShift; }
  /// Marks \p Ctx's lane as holding \p B and delivers the access to
  /// every other lane that holds it.
  void broadcastRemote(const vm::EventCtx &Ctx, BlockId B, bool IsWrite);

  /// Per block: bitmask of lanes whose FSM state for it is not Idle
  /// (remote-access fan-out; lanes beyond 64 fall back to scanning).
  shadow::Table<uint64_t> Trackers;
};

} // namespace detect
} // namespace svd

#endif // SVD_SVD_ONLINESVD_H
