//===- analysis/StaticCu.h - Static computational-unit inference -*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static analog of the dynamic region hypothesis (Section 3.2):
/// partition a thread's CFG into candidate atomic regions — *static
/// computational units* — using the same read→compute→write dependence
/// shape `CuPartition` exploits dynamically.
///
/// The construction mirrors the one-pass algorithm of Figure 5, with
/// static stand-ins for its dynamic ingredients:
///
///  * *true dependences* become register def→use edges from reaching
///    definitions, plus address dependences through the address register
///    of loads and stores;
///  * *control dependences* become the classic postdominator-based
///    relation over the instruction CFG (a statement is control
///    dependent on a conditional branch when it postdominates one of the
///    branch's successors but not the branch itself);
///  * the *crossing-arc cut* of Definition 2 — a statement reading a
///    shared word recorded in a predecessor CU's shVars set deactivates
///    that CU — becomes an interval test: a possibly-shared load whose
///    address bound may alias a shared-write interval already recorded
///    in a candidate CU cuts that CU instead of joining it.
///
/// The result over-approximates the union of dynamic CUs a statement can
/// inhabit: static CUs may span loop iterations and merge regions a
/// particular schedule would keep apart, and the may-alias cut fires
/// less often than the dynamic exact-address one. That direction is the
/// useful one for prediction — a larger candidate region only *adds*
/// predicted interleaving patterns, and every prediction is later
/// schedule-confirmed before it is reported (see predict/Confirm.h).
///
/// Lock, Unlock, and Halt stay outside every unit, exactly as
/// lock/unlock/thread-end events stay outside dynamic CUs. `Cas` sites
/// are members (their result register feeds dependences) but are never
/// pattern endpoints: the RMW is atomic by construction, so no remote
/// access can land between its load and store halves.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_STATICCU_H
#define SVD_ANALYSIS_STATICCU_H

#include "analysis/Escape.h"
#include "analysis/ReachingDefs.h"
#include "isa/Cfg.h"
#include "isa/Program.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace svd {
namespace analysis {

/// One inferred static computational unit.
struct StaticCu {
  uint32_t Id = 0;
  /// Member pcs, ascending.
  std::vector<uint32_t> Pcs;
  /// Ld members with a possibly-shared address bound (pattern sources).
  std::vector<uint32_t> SharedReads;
  /// St members with a possibly-shared address bound (pattern sinks).
  std::vector<uint32_t> SharedWrites;
};

/// Static CU inference for one thread's code.
class StaticCuInference {
public:
  /// Sentinel unit id for pcs outside any unit (Lock/Unlock/Halt and
  /// unreachable code).
  static constexpr uint32_t NoUnit = UINT32_MAX;

  /// \p EA and \p RD are the thread's passes over \p Cfg; the register
  /// dependence edges come from \p RD. \p IsSharedAccess decides whether
  /// the memory access at a pc may touch data another thread can reach
  /// (typically: its AccessTable class is not ThreadLocal). Non-access
  /// pcs are never queried.
  StaticCuInference(const isa::ThreadCfg &Cfg,
                    const std::vector<isa::Instruction> &Code,
                    const EscapeAnalysis &EA, const ReachingDefs &RD,
                    std::function<bool(uint32_t)> IsSharedAccess);

  /// The inferred units, ordered by their smallest member pc.
  const std::vector<StaticCu> &units() const { return Units; }

  /// Unit id of \p Pc, or NoUnit.
  uint32_t unitOf(uint32_t Pc) const {
    return Pc < PcUnit.size() ? PcUnit[Pc] : NoUnit;
  }

  /// True when \p To is transitively data-, address-, or
  /// control-dependent on \p From (the read→compute→write spine of a
  /// candidate atomic region).
  bool dependsOn(uint32_t To, uint32_t From) const;

  /// True when \p A and \p B have a common dependence ancestor (either
  /// may be its own ancestor, so dependsOn implies shareAncestor). Two
  /// stores of one dynamic CU always share an ancestor — stores define
  /// no registers, so this is the static stand-in for "the value chains
  /// of both stores merge into one CU".
  bool shareAncestor(uint32_t A, uint32_t B) const;

  /// Direct dependence predecessors of \p Pc (register defs reaching its
  /// uses plus the conditional branches controlling it).
  const std::vector<uint32_t> &depPreds(uint32_t Pc) const {
    return DepPreds[Pc];
  }

private:
  void buildDepEdges(const isa::ThreadCfg &Cfg,
                     const std::vector<isa::Instruction> &Code,
                     const ReachingDefs &RD);
  void partition(const isa::ThreadCfg &Cfg,
                 const std::vector<isa::Instruction> &Code,
                 const EscapeAnalysis &EA,
                 const std::function<bool(uint32_t)> &IsSharedAccess);
  /// Ancestor set of \p Pc (itself included) as a pc bitset.
  const std::vector<uint64_t> &ancestors(uint32_t Pc) const;

  uint32_t NumInstrs = 0;
  std::vector<std::vector<uint32_t>> DepPreds;
  std::vector<uint32_t> PcUnit;
  std::vector<StaticCu> Units;
  /// Lazily computed per-pc ancestor bitsets (mutable memo for the
  /// const dependence queries).
  mutable std::vector<std::vector<uint64_t>> AncestorMemo;
  mutable std::vector<bool> AncestorDone;
};

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_STATICCU_H
