//===- svd/OnlineSvd.cpp --------------------------------------------------===//

#include "svd/OnlineSvd.h"

#include "obs/Obs.h"

using namespace svd;
using namespace svd::detect;
using isa::Addr;
using vm::EventCtx;

void detect::registerOnlineSvdDetector(DetectorRegistry &R) {
  R.add(cuCoreEntry<OnlineSvd, OnlineSvdDetectorConfig>(
      &OnlineSvdDetectorConfig::Svd));
}

OnlineSvd::OnlineSvd(const isa::Program &P, OnlineSvdConfig C)
    : CuCore(P, C), Trackers(blockOf(P.MemoryWords) + 1, shadowMode()) {
  initLanes(C.NumCpus != 0 ? C.NumCpus : P.numThreads(),
            blockOf(P.MemoryWords) + 1);
  // The static table's locality proofs hold at its own block granularity
  // and per thread; refuse mismatched tables and the CPU approximation
  // (a migrating thread raises remote events against its own blocks).
  FilterActive = C.Access != nullptr &&
                 C.Access->blockShift() == C.BlockShift && C.NumCpus == 0;
  // Same contract for the atomicity proofs (they, too, hold at one block
  // granularity and speak about threads, not processors).
  PruneActive = C.Proofs != nullptr &&
                C.Proofs->blockShift() == C.BlockShift && C.NumCpus == 0;
  TrustHints = C.TrustStaticHints;
}

uint64_t OnlineSvd::shadowPages() const {
  return Trackers.pagesAllocated() + lanePages();
}

size_t OnlineSvd::shadowBytes() const {
  return Trackers.approxMemoryBytes() + laneBytes();
}

void OnlineSvd::exportStats(obs::Registry &R) const {
  R.counter("detect.svd.events").add(eventsObserved());
  R.counter("detect.svd.filtered_loads").add(filteredLoads());
  R.counter("detect.svd.filtered_stores").add(filteredStores());
  R.counter("detect.svd.cus_ended").add(numCusEnded());
  exportPruneStats(R);
}

void OnlineSvd::checkViolations(Lane &T, const EventCtx &Ctx,
                                const std::vector<CuId> &CuSet) {
  auto CheckBlocks = [&](const std::set<BlockId> &Blocks) {
    for (BlockId B : Blocks) {
      // Peek first: most blocks have no pending conflict, and a peek
      // never materializes a page.
      if (!T.Blocks.peek(B).Conflict)
        continue;
      BlockInfo &BI = T.Blocks.touch(B);
      reportViolation(Ctx, BI, addressOf(B));
      // One dynamic report per conflict occurrence.
      BI.Conflict = false;
    }
  };
  for (CuId C : CuSet) {
    CheckBlocks(T.Cus[C].Rs);
    if (!Cfg.CheckInputBlocksOnly)
      CheckBlocks(T.Cus[C].Ws);
  }
}

void OnlineSvd::broadcastRemote(const EventCtx &Ctx, BlockId B,
                                bool IsWrite) {
  uint32_t Self = laneOf(Ctx);
  uint64_t Mask = Trackers.touch(B) |= uint64_t(1) << (Self % 64);
  if (Lanes.size() <= 64) {
    Mask &= ~(uint64_t(1) << Self);
    while (Mask) {
      unsigned L = static_cast<unsigned>(__builtin_ctzll(Mask));
      Mask &= Mask - 1;
      remoteAccess(L, B, IsWrite, Ctx);
    }
    return;
  }
  // Fallback for very wide machines: scan.
  for (uint32_t L = 0; L < Lanes.size(); ++L)
    if (L != Self && Lanes[L].Blocks.peek(B).State != Fsm::Idle)
      remoteAccess(L, B, IsWrite, Ctx);
}

void OnlineSvd::onLoad(const EventCtx &Ctx, Addr A, isa::Word) {
  Lane &T = enter(Ctx);
  BlockId B = blockOf(A);
  if (localLoad(T, Ctx, B))
    broadcastRemote(Ctx, B, /*IsWrite=*/false);
}

void OnlineSvd::onStore(const EventCtx &Ctx, Addr A, isa::Word) {
  Lane &T = enter(Ctx);
  BlockId B = blockOf(A);
  if (localStore(T, Ctx, B))
    broadcastRemote(Ctx, B, /*IsWrite=*/true);
}

size_t OnlineSvd::approxMemoryBytes() const {
  size_t Bytes = 0;
  for (const Lane &T : Lanes) {
    Bytes += T.Blocks.approxMemoryBytes();
    Bytes += T.Cus.capacity() * sizeof(CuData);
    for (const CuData &C : T.Cus)
      Bytes += (C.Rs.size() + C.Ws.size()) * 48; // rough rb-tree node cost
    for (const auto &RS : T.RegSets)
      Bytes += RS.capacity() * sizeof(CuId);
    for (const CtrlFrame &F : T.CtrlStack)
      Bytes += sizeof(CtrlFrame) + F.CuSet.capacity() * sizeof(CuId);
  }
  Bytes += Trackers.approxMemoryBytes();
  Bytes += Violations.capacity() * sizeof(Violation);
  Bytes += CuLog.capacity() * sizeof(CuLogEntry);
  return Bytes;
}
