//===- race/HappensBefore.h - Happens-before race detector ------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Frontier Race Detector (FRD) baseline of Section 6.2: a
/// happens-before data-race detector in the sense of Lamport [18] /
/// Netzer-Miller [24]. Two conflicting accesses race when no chain of
/// synchronization orders them.
///
/// The paper's FRD needed a two-pass workflow (frontier races -> manual
/// annotation -> standard happens-before) because synchronization in
/// server binaries is not architecturally visible. In our substrate
/// lock/unlock are ISA instructions, so the a-priori annotation the
/// paper grants to FRD is automatic: every Lock/Unlock is a
/// synchronization point. The frontier-race computation itself is in
/// race/Frontier.h for the annotation-discovery workflow.
///
/// Implementation: vector clocks per thread and per mutex; per word a
/// write epoch (tid, clock, pc) and a read clock per thread, FastTrack
/// style but without the epoch compression.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_RACE_HAPPENSBEFORE_H
#define SVD_RACE_HAPPENSBEFORE_H

#include "isa/Program.h"
#include "shadow/Shadow.h"
#include "svd/Detector.h"
#include "svd/Report.h"
#include "vm/Observer.h"

#include <cstdint>
#include <vector>

namespace svd {
namespace race {

/// Registers the happens-before baseline (the paper's FRD) as "frd".
void registerHappensBeforeDetector(detect::DetectorRegistry &R);

/// Online happens-before race detector; attach with Machine::addObserver.
class HappensBeforeDetector : public vm::ExecutionObserver {
public:
  explicit HappensBeforeDetector(const isa::Program &P);

  /// Dynamic race reports in detection order. Tid/Pc is the access that
  /// completed the race; OtherTid/OtherPc the earlier access.
  const std::vector<detect::Violation> &races() const { return Races; }

  /// Dynamic events observed (per-million-instruction denominator).
  uint64_t eventsObserved() const { return Events; }

  /// Rough detector memory accounting.
  size_t approxMemoryBytes() const;

  /// Shadow pages materialized so far.
  uint64_t shadowPages() const { return Words.pagesAllocated(); }
  /// Bytes held by materialized shadow pages.
  size_t shadowBytes() const { return Words.approxMemoryBytes(); }

  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onAlu(const vm::EventCtx &Ctx) override;
  void onBranch(const vm::EventCtx &Ctx, bool Taken,
                uint32_t Target) override;
  void onLock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onUnlock(const vm::EventCtx &Ctx, uint32_t MutexId) override;

private:
  using Clock = uint64_t;

  struct WordState {
    // Last write epoch.
    int32_t WriteTid = -1;
    Clock WriteClock = 0;
    uint32_t WritePc = 0;
    // Per-thread read clocks and pcs (index = tid).
    std::vector<Clock> ReadClock;
    std::vector<uint32_t> ReadPc;
  };

  WordState &stateOf(isa::Addr A);
  void report(const vm::EventCtx &Ctx, isa::Addr A, isa::ThreadId OtherTid,
              uint32_t OtherPc);

  const isa::Program &Prog;
  uint32_t NumThreads;
  std::vector<std::vector<Clock>> ThreadVC; ///< per thread
  std::vector<std::vector<Clock>> MutexVC;  ///< per mutex
  /// Per-word epochs/read clocks, paged (shadow/Shadow.h) so large
  /// heaps only pay for the regions they touch.
  shadow::Table<WordState> Words;
  /// Words whose lazy per-thread read vectors were initialized, for
  /// the rough memory accounting.
  uint64_t InitializedWords = 0;
  std::vector<detect::Violation> Races;
  uint64_t Events = 0;
};

} // namespace race
} // namespace svd

#endif // SVD_RACE_HAPPENSBEFORE_H
