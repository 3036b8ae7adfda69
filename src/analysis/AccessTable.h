//===- analysis/AccessTable.h - Static access classification ----*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-way access-class lattice the detectors consume:
///
/// \verbatim
///                PossiblyShared            (no proof - full detection)
///               /              |
///        ThreadLocal      LockProtected    (static proofs)
/// \endverbatim
///
/// An access classifies **ThreadLocal** when its address interval lies
/// inside the executing thread's own `.local` copy, expanded to the
/// detector's block granularity, and no other thread's access interval
/// can reach that expanded range — so no remote access, conflict, or CU
/// log entry can ever involve its block, whichever interleaving the
/// scheduler picks. **LockProtected** means the interval stays within
/// one data symbol and the static must-lockset at the access is
/// non-empty; the detectors do not act on it (SVD is lock-oblivious by
/// design) but `svd-lint` reports it as the a-priori annotation story.
/// Everything else — in particular every unbounded computed address —
/// stays **PossiblyShared** and takes the full detector path.
///
/// The table is built at an explicit block granularity (BlockShift) and
/// detectors refuse tables whose granularity differs from their own:
/// with multi-word blocks a word-exact locality proof would not cover
/// the block's other words.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_ACCESSTABLE_H
#define SVD_ANALYSIS_ACCESSTABLE_H

#include "isa/Program.h"

#include <cstdint>
#include <vector>

namespace svd {
namespace analysis {

/// Static classification of one memory-access site.
enum class AccessClass : uint8_t {
  PossiblyShared, ///< no proof; full detector processing
  ThreadLocal,    ///< provably confined to the executing thread
  LockProtected,  ///< within one symbol, under a non-empty must-lockset
};

/// Returns a short human-readable name ("shared", "local", "locked").
const char *accessClassName(AccessClass C);

/// Per-(thread, pc) access classes for one program, at a fixed detector
/// block granularity.
class AccessTable {
public:
  AccessTable() = default;
  AccessTable(uint32_t BlockShift, uint32_t NumThreads)
      : Shift(BlockShift), Classes(NumThreads) {}

  /// Block granularity the table was proven at (block id = addr >> shift).
  uint32_t blockShift() const { return Shift; }

  uint32_t numThreads() const {
    return static_cast<uint32_t>(Classes.size());
  }

  void resizeThread(isa::ThreadId Tid, size_t NumInstrs) {
    Classes[Tid].assign(NumInstrs, AccessClass::PossiblyShared);
  }

  void set(isa::ThreadId Tid, uint32_t Pc, AccessClass C) {
    Classes[Tid][Pc] = C;
  }

  /// Class of the access at (\p Tid, \p Pc); PossiblyShared for
  /// non-access instructions and out-of-table queries.
  AccessClass classify(isa::ThreadId Tid, uint32_t Pc) const {
    if (Tid >= Classes.size() || Pc >= Classes[Tid].size())
      return AccessClass::PossiblyShared;
    return Classes[Tid][Pc];
  }

private:
  uint32_t Shift = 0;
  std::vector<std::vector<AccessClass>> Classes;
};

class ProgramPasses;

/// Classifies every static access site of the bundle's program at block
/// granularity \p BlockShift (0 = the paper's word-size blocks), from
/// the bundle's address bounds and must-locksets. A bundle with value
/// flow (ValueFlow.h) sharpens every address bound (never wider than
/// Escape's raw interval) and enables the *slab rule*: an access whose
/// sharpened block-expanded range no other thread can reach classifies
/// ThreadLocal even inside a `.global` symbol (the Tid-strided
/// per-thread slab pattern interval analysis alone cannot split).
/// Without value flow the classic Escape-only classifier runs, which the
/// predictor uses and the monotonicity property test compares against.
AccessTable buildAccessTable(const ProgramPasses &PP, uint32_t BlockShift);

/// As above, on a value-flow bundle built for \p P alone.
AccessTable buildAccessTable(const isa::Program &P, uint32_t BlockShift = 0);

/// Number of static memory-access sites of \p P whose class in \p T is
/// \p C. Needs the program because the table alone cannot tell a
/// possibly-shared access from a non-access instruction.
uint64_t countAccessSites(const isa::Program &P, const AccessTable &T,
                          AccessClass C);

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_ACCESSTABLE_H
