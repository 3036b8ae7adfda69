//===- analysis/ConflictPairs.h - MHP + cross-thread conflicts --*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-thread conflict-pair enumeration: the pairs of static access
/// sites that may touch the same detector block from different threads
/// with at least one write, and that no common must-held mutex orders.
/// These are the remote accesses a predicted unserializable interleaving
/// can be built from (predict.h enumerates the patterns over them).
///
/// Two of a ProgramPasses bundle's per-thread passes are read:
///
///  * `EscapeAnalysis` bounds every access's effective address, so "may
///    touch the same block" is an interval-intersection test at the
///    detector's block granularity. The raw Escape bound is used even
///    when the bundle carries value flow: the predictor favours recall;
///  * `StaticLockset` supplies the must-held mutex mask at each site —
///    a pair whose masks share a mutex is ordered by mutual exclusion
///    and cannot conflict.
///
/// May-happen-in-parallel is structural in this substrate: every thread
/// starts at program start and joins only at program end, so two sites
/// may run in parallel exactly when they belong to different threads.
/// The predicate is still factored out (`mayHappenInParallel`) so a
/// future fork/join ISA extension has one place to refine.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_CONFLICTPAIRS_H
#define SVD_ANALYSIS_CONFLICTPAIRS_H

#include "analysis/Escape.h"
#include "isa/Program.h"

#include <cstdint>
#include <vector>

namespace svd {
namespace analysis {

class ProgramPasses;

/// One static access site, annotated for conflict reasoning.
struct ConflictSite {
  isa::ThreadId Tid = 0;
  uint32_t Pc = 0;
  bool IsWrite = false; ///< St, or Cas (whose store half may execute)
  bool IsRead = false;  ///< Ld, or Cas (whose load half always executes)
  bool IsCas = false;
  /// Block-expanded effective-address bound.
  Interval Addr;
  /// Must-held mutex mask at the site (0 when unanalyzable).
  uint64_t MustLocks = 0;
};

/// An unordered cross-thread pair of possibly-aliasing accesses, at
/// least one a write, not ordered by a common must-held mutex. A is
/// always the lower-thread site.
struct ConflictPair {
  ConflictSite A;
  ConflictSite B;
};

/// Conflict-pair enumeration over a whole program at a fixed detector
/// block granularity.
class ConflictPairs {
public:
  explicit ConflictPairs(const ProgramPasses &PP, uint32_t BlockShift = 0);

  /// All conflicting pairs, ordered by (A.Tid, A.Pc, B.Tid, B.Pc).
  const std::vector<ConflictPair> &pairs() const { return Pairs; }

  /// Every classified access site of thread \p Tid, in pc order.
  const std::vector<ConflictSite> &sites(isa::ThreadId Tid) const {
    return Sites[Tid];
  }

  /// Remote sites conflicting with thread \p Tid's site at \p Pc.
  std::vector<ConflictSite> conflictsWith(isa::ThreadId Tid,
                                          uint32_t Pc) const;

  /// Structural MHP of this substrate: distinct threads only (all
  /// threads are live from program start to their halt).
  static bool mayHappenInParallel(isa::ThreadId A, isa::ThreadId B) {
    return A != B;
  }

  /// True when \p A and \p B conflict: may-happen-in-parallel, may-alias
  /// at block granularity, at least one write, no common must-held lock.
  static bool conflicts(const ConflictSite &A, const ConflictSite &B);

  uint32_t blockShift() const { return Shift; }

private:
  uint32_t Shift;
  std::vector<std::vector<ConflictSite>> Sites;
  std::vector<ConflictPair> Pairs;
};

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_CONFLICTPAIRS_H
