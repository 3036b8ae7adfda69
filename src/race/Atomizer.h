//===- race/Atomizer.h - Dynamic atomicity checker --------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Atomizer-style dynamic atomicity checker (Flanagan & Freund [15]),
/// implemented as a related-work baseline: the paper's Section 8
/// contrasts SVD's *serializability of executions* with atomicity
/// checkers' *reducibility of annotated blocks*. Here every critical
/// section (outermost lock...unlock span) is treated as an atomic block
/// — the annotation Atomizer infers for synchronized blocks — and
/// checked against Lipton's reduction theorem:
///
///   a block is atomic if its events form  (R|B)* [N] (L|B)*
///
/// where acquires are right-movers (R), releases left-movers (L),
/// race-free accesses both-movers (B), and racy accesses non-movers (N,
/// at most one, the commit point). Raciness comes from an Eraser-style
/// lockset oracle, as in the original tool. A racy access after the
/// commit point, or an acquire after it, violates reducibility.
///
/// The instructive difference from SVD: Atomizer reports blocks that
/// *could* interleave unserializably under some schedule (e.g. the
/// benign tot_lock counter of Figure 1, whose accesses are racy), while
/// SVD reports only executions that actually violated serializability.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_RACE_ATOMIZER_H
#define SVD_RACE_ATOMIZER_H

#include "isa/Program.h"
#include "race/Lockset.h"
#include "svd/Report.h"
#include "vm/Observer.h"

#include <cstdint>
#include <set>
#include <vector>

namespace svd {
namespace race {

/// Online Atomizer-style checker; attach with Machine::addObserver.
class AtomizerDetector : public vm::ExecutionObserver {
public:
  explicit AtomizerDetector(const isa::Program &P);

  /// Reducibility violations. Tid/Pc is the event that broke the
  /// pattern; OtherPc the commit point (the first non-mover) of the
  /// block, with OtherTid == Tid.
  const std::vector<detect::Violation> &reports() const { return Reports; }

  /// Atomic blocks (outermost critical sections) observed.
  uint64_t blocksChecked() const { return Blocks; }

  void onLoad(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onStore(const vm::EventCtx &Ctx, isa::Addr A, isa::Word V) override;
  void onLock(const vm::EventCtx &Ctx, uint32_t MutexId) override;
  void onUnlock(const vm::EventCtx &Ctx, uint32_t MutexId) override;

private:
  /// Per-thread reduction state for the current atomic block.
  struct ThreadState {
    uint32_t HeldCount = 0;
    bool InPostCommit = false;
    bool CommitSeen = false;
    uint32_t CommitPc = 0;
    uint64_t CommitSeq = 0;
  };

  void access(const vm::EventCtx &Ctx, isa::Addr A, bool IsWrite);
  void report(const vm::EventCtx &Ctx, isa::Addr A);

  const isa::Program &Prog;
  /// The raciness oracle: racy accesses are the non-movers.
  std::vector<EraserWord> Words;
  std::vector<std::set<uint32_t>> Held;
  std::vector<ThreadState> Threads;
  std::vector<detect::Violation> Reports;
  uint64_t Blocks = 0;
};

} // namespace race
} // namespace svd

#endif // SVD_RACE_ATOMIZER_H
