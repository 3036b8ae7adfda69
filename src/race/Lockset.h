//===- race/Lockset.h - Eraser-style lockset detector -----------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Eraser-style lockset race detector (Savage et al. [33]), included
/// as a second baseline: the related-work section contrasts SVD with
/// both the happens-before and the lockset families. Each shared word
/// must be consistently protected by at least one lock; the candidate
/// set is refined at every access and a report fires when it empties in
/// the Shared-Modified state.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_RACE_LOCKSET_H
#define SVD_RACE_LOCKSET_H

#include "isa/Program.h"
#include "shadow/Shadow.h"
#include "svd/Detector.h"
#include "svd/Report.h"
#include "vm/Observer.h"

#include <cstdint>
#include <set>
#include <vector>

namespace svd {
namespace race {

/// Registers the Eraser-style lockset baseline (consistent locking) as
/// "lockset". No config.
void registerLocksetDetector(detect::DetectorRegistry &R);

/// One word's Eraser state: the four-state ownership machine and the
/// candidate lockset it refines once the word is shared. The lockset
/// detector reports from it and the Atomizer baseline reads it as its
/// raciness oracle.
struct EraserWord {
  enum class State : uint8_t { Virgin, Exclusive, Shared, SharedModified };

  State S = State::Virgin;
  int32_t FirstTid = -1;
  bool LocksetInitialized = false;
  std::set<uint32_t> Lockset;

  /// Advances the word for an access by \p Tid while it holds \p Held.
  /// Returns true when the access is racy: the word is Shared-Modified
  /// and its candidate set is empty. Reads in the plain Shared state
  /// refine the set but are never racy.
  bool access(int32_t Tid, bool IsWrite, const std::set<uint32_t> &Held);
};

/// Online lockset detector; attach with Machine::addObserver.
class LocksetDetector : public vm::ExecutionObserver {
public:
  explicit LocksetDetector(const isa::Program &P);

  /// Dynamic reports (every access to a word whose candidate set is
  /// empty in Shared-Modified state). OtherTid/OtherPc identify the most
  /// recent access by a different thread.
  const std::vector<detect::Violation> &reports() const { return Reports; }

  uint64_t eventsObserved() const { return Events; }

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
  struct WordState : EraserWord {
    // Most recent access by any thread (for two-sided reports).
    int32_t LastTid = -1;
    uint32_t LastPc = 0;
  };

  void access(const vm::EventCtx &Ctx, isa::Addr A, bool IsWrite);

  const isa::Program &Prog;
  /// Per-word Eraser state, paged (shadow/Shadow.h) so sparse heaps
  /// only pay for the words the run touches.
  shadow::Table<WordState> Words;
  std::vector<std::set<uint32_t>> Held; ///< locks held, per thread
  std::vector<detect::Violation> Reports;
  uint64_t Events = 0;
};

} // namespace race
} // namespace svd

#endif // SVD_RACE_LOCKSET_H
