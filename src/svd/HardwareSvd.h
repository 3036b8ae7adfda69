//===- svd/HardwareSvd.h - Cache-based SVD (Section 4.4) --------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware SVD design the paper sketches in Section 4.4 and leaves
/// to future work: "hardware can help SVD infer true and control
/// dependences if we piggyback CU references propagation to existing
/// hardware data paths. Second, multiprocessor caches can help store
/// CUs. Finally, cache coherence protocols can help detect
/// serializability violations."
///
/// The algorithm is the software one (svd/CuCore.h); the register
/// CU-reference sets and the control-dependence stack ride the register
/// data path unchanged. On top of that core this detector adds the
/// cache/CacheSim storage and transport:
///
///  * detector block = cache line, one state lane per CPU; the per-line
///    FSM state and CU reference live *in the line*, so evicting a line
///    loses its metadata, exactly as finite hardware would (a source of
///    missed detections the `svd-bench --suite hwsvd` study quantifies);
///  * remote accesses arrive as coherence messages: a CPU learns of a
///    remote write from the invalidation that reaches its copy and of a
///    remote read from the M/E downgrade; silent remote reads of Shared
///    lines are invisible, but those are never conflicts;
///  * conflict flags live per CU in a small CU table (a realistic SRAM
///    side structure) rather than per word, and merge on union;
///  * metadataBits() prices the extra state.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_HARDWARESVD_H
#define SVD_SVD_HARDWARESVD_H

#include "cache/CacheSim.h"
#include "svd/CuCore.h"

#include <cstdint>

namespace svd {
namespace detect {

/// Configuration of the hardware detector: the shared CuCoreConfig plus
/// the cache. Provably-thread-local and ProvenAtomic accesses still
/// drive the cache (the coherence stream is part of the machine model)
/// but skip the line FSM and block-set updates. Unlike the software
/// detector this can *improve* detection: a filtered line stays Idle,
/// so capacity evictions no longer wipe detector metadata the access
/// would have created. Both are ignored unless their block granularity
/// matches the line size; the proofs, which are per thread, rely on the
/// one-thread-per-CPU precondition.
struct HardwareSvdConfig : CuCoreConfig {
  cache::CacheConfig Cache;
};

/// Opaque registry config carrying a HardwareSvdConfig (registry key
/// "hwsvd").
struct HardwareSvdDetectorConfig final : DetectorConfig {
  HardwareSvdConfig Hw;

  HardwareSvdDetectorConfig() = default;
  explicit HardwareSvdDetectorConfig(HardwareSvdConfig C) : Hw(C) {}
  const char *detectorName() const override { return "hwsvd"; }
};

/// Registers the cache-based detector (Section 4.4) as "hwsvd".
void registerHardwareSvdDetector(DetectorRegistry &R);

/// Cache-based online SVD; attach with Machine::addObserver. Threads
/// are approximated by processors (Section 4.3), so the program must
/// have at most Cache.NumCpus threads.
class HardwareSvd : public CuCore<HardwareSvd, HardwareSvdConfig, true> {
public:
  static constexpr const char *RegistryName = "hwsvd";
  static constexpr const char *BudgetReason =
      "cu table budget exceeded; oldest live CUs evicted";

  HardwareSvd(const isa::Program &P,
              HardwareSvdConfig Cfg = HardwareSvdConfig());

  /// Lines whose detector metadata was lost to capacity evictions —
  /// the hardware design's intrinsic detection gap.
  uint64_t metadataEvictions() const { return MetadataEvictions; }
  /// Shadow pages materialized across all CPUs.
  uint64_t shadowPages() const { return lanePages(); }
  /// Bytes held by materialized shadow pages.
  size_t shadowBytes() const { return laneBytes(); }
  const cache::CacheStats &cacheStats() const { return Cache.stats(); }
  /// Extra state a hardware implementation would add, in bits: per
  /// cache line (3-bit FSM + CU reference) plus the CU table.
  size_t metadataBits() const;
  /// The hardware budget in bytes (metadataBits() / 8).
  size_t approxMemoryBytes() const { return metadataBits() / 8; }
  /// Adds the detector's counters under "detect.hwsvd." to \p R.
  void exportStats(obs::Registry &R) const;

  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;

private:
  friend CuCore;

  // --- CuCore policy hooks ---------------------------------------------
  /// One lane per CPU; the one-thread-per-CPU precondition makes the
  /// thread id the CPU index.
  uint32_t laneOf(const vm::EventCtx &Ctx) const { return Ctx.Tid; }
  isa::Addr addressOf(BlockId L) const {
    return static_cast<isa::Addr>(L) * Cfg.Cache.LineWords;
  }
  void untrack(uint32_t, BlockId) {}
  void checkViolations(Lane &T, const vm::EventCtx &Ctx,
                       const std::vector<CuId> &CuSet);

  /// Drives the cache and dispatches coherence/eviction effects.
  void driveCache(const vm::EventCtx &Ctx, isa::Addr A, bool IsWrite);

  cache::CacheSim Cache;
  uint64_t MetadataEvictions = 0;
};

} // namespace detect
} // namespace svd

#endif // SVD_SVD_HARDWARESVD_H
