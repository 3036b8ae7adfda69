//===- svd/HardwareSvd.cpp ------------------------------------------------===//

#include "svd/HardwareSvd.h"

#include "obs/Obs.h"
#include "support/Error.h"

using namespace svd;
using namespace svd::detect;
using isa::Addr;
using vm::EventCtx;

void detect::registerHardwareSvdDetector(DetectorRegistry &R) {
  R.add(cuCoreEntry<HardwareSvd, HardwareSvdDetectorConfig>(
      &HardwareSvdDetectorConfig::Hw));
}

HardwareSvd::HardwareSvd(const isa::Program &P, HardwareSvdConfig C)
    : CuCore(P, C), Cache(C.Cache) {
  if (P.numThreads() > C.Cache.NumCpus)
    support::fatalError("hardware SVD: more threads than CPUs");
  initLanes(C.Cache.NumCpus, Cache.lineOf(P.MemoryWords) + 1);
  FilterActive = C.Access != nullptr &&
                 (uint32_t(1) << C.Access->blockShift()) == C.Cache.LineWords;
  // Proofs hold per thread; with the one-thread-per-CPU precondition
  // the CPU index *is* the thread id, so only the granularity gates.
  PruneActive = C.Proofs != nullptr &&
                (uint32_t(1) << C.Proofs->blockShift()) == C.Cache.LineWords;
}

void HardwareSvd::exportStats(obs::Registry &R) const {
  const cache::CacheStats &S = Cache.stats();
  R.counter("detect.hwsvd.cache.accesses").add(S.Accesses);
  R.counter("detect.hwsvd.cache.hits").add(S.Hits);
  R.counter("detect.hwsvd.cache.misses").add(S.Misses);
  R.counter("detect.hwsvd.cache.evictions").add(S.Evictions);
  R.counter("detect.hwsvd.cache.invalidations").add(S.Invalidations);
  R.counter("detect.hwsvd.metadata_evictions").add(MetadataEvictions);
  R.counter("detect.hwsvd.filtered_accesses").add(filteredAccesses());
  exportPruneStats(R);
}

void HardwareSvd::checkViolations(Lane &T, const EventCtx &Ctx,
                                  const std::vector<CuId> &CuSet) {
  for (CuId C : CuSet) {
    CuData &CU = T.Cus[C];
    if (!CU.Conflict)
      continue;
    // Attribute the first read-set line as the witness word.
    reportViolation(Ctx, CU, CU.Rs.empty() ? 0 : addressOf(*CU.Rs.begin()));
    CU.Conflict = false;
  }
}

void HardwareSvd::driveCache(const EventCtx &Ctx, Addr A, bool IsWrite) {
  cache::AccessResult R = Cache.access(Ctx.Tid, A, IsWrite);
  // The metadata travels with the line: gone on eviction. The CU stays
  // alive (its table entry survives) but loses sight of this line.
  // Untouched lines read as Idle without materializing a page.
  if (R.EvictedValid &&
      Lanes[Ctx.Tid].Blocks.peek(R.EvictedLine).State != Fsm::Idle) {
    ++MetadataEvictions;
    Lanes[Ctx.Tid].Blocks.touch(R.EvictedLine) = BlockInfo();
  }
  cache::LineId Line = Cache.lineOf(A);
  for (uint32_t Cpu : R.Invalidated)
    remoteAccess(Cpu, Line, IsWrite, Ctx);
  for (uint32_t Cpu : R.Downgraded)
    remoteAccess(Cpu, Line, IsWrite, Ctx);
}

void HardwareSvd::onLoad(const EventCtx &Ctx, Addr A, isa::Word) {
  Lane &T = enter(Ctx);
  driveCache(Ctx, A, /*IsWrite=*/false);
  localLoad(T, Ctx, Cache.lineOf(A));
}

void HardwareSvd::onStore(const EventCtx &Ctx, Addr A, isa::Word) {
  Lane &T = enter(Ctx);
  driveCache(Ctx, A, /*IsWrite=*/true);
  localStore(T, Ctx, Cache.lineOf(A));
}

size_t HardwareSvd::metadataBits() const {
  // Per cache line: 3-bit FSM + 16-bit CU reference.
  size_t Bits = Cache.totalLines() * (3 + 16);
  // CU table: assume 256 entries per CPU of (2 x 16-bit set summaries +
  // conflict bit + 32-bit pc) — a coarse hardware budget.
  Bits += static_cast<size_t>(Cfg.Cache.NumCpus) * 256 * (16 + 16 + 1 + 32);
  return Bits;
}
