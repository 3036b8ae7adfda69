//===- analysis/ValueFlow.h - Affine SCCP value-flow analysis ---*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread value-flow analysis that sharpens the raw intervals of
/// Escape.h in two ways:
///
///  1. **Affine address terms.** Every register is tracked as the
///     symbolic term `Base + TidStride * Tid + Rem` with `Rem` a
///     bounded residual interval (the image of `rnd r, K` and of
///     control-flow joins). Keeping Tid symbolic makes the per-thread
///     *structure* of an address visible — a slab index computed as
///     `tid * SlabSize + rnd(SlabSize)` stays exact where a plain
///     interval join would only retain a hull.
///
///  2. **Sparse conditional propagation.** The pass implements the
///     solver's optional `edgeFeasible` hook: a conditional branch
///     whose operand is a known constant propagates facts along its one
///     feasible edge only, so code behind a constant-false guard is
///     dead to the analysis instead of polluting every join after it
///     (the classic SCCP refinement over plain interval analysis).
///
/// Queries are a *reduced product* with the thread's EscapeAnalysis:
/// every concretized interval is intersected with Escape's bound for
/// the same point, so a ValueFlow answer is never wider than Escape's
/// by construction, and operations the affine domain does not model
/// (shifts, bitwise ops, loads) lose nothing — the Escape half keeps
/// its precision. AccessTable.h builds on these sharpened intervals to
/// prove Tid-strided per-thread slabs of *global* arrays ThreadLocal,
/// which interval analysis alone cannot (DESIGN.md section 12).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_VALUEFLOW_H
#define SVD_ANALYSIS_VALUEFLOW_H

#include "analysis/Escape.h"
#include "isa/Program.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace svd {
namespace analysis {

/// One abstract register value: the set
/// `{ Base + TidStride * tid + r | r in Rem }`, or Top (no affine
/// information), or bottom (unreachable; Rem empty and !Top).
struct AffineTerm {
  bool Top = false;
  int64_t Base = 0;
  int64_t TidStride = 0;
  Interval Rem; ///< default-constructed empty => bottom

  static AffineTerm top() {
    AffineTerm T;
    T.Top = true;
    return T;
  }
  static AffineTerm constant(int64_t K) {
    AffineTerm T;
    T.Base = K;
    T.Rem = Interval::constant(0);
    return T;
  }

  bool bottom() const { return !Top && Rem.empty(); }
  /// A single known value (no Tid dependence, zero-width residual)?
  bool isConstant() const {
    return !Top && !Rem.empty() && TidStride == 0 && Rem.isConstant();
  }
  int64_t constantValue() const { return Base + Rem.Lo; }

  /// The concrete interval for a fixed \p Tid (saturated); full for
  /// Top, empty for bottom.
  Interval concretize(int64_t Tid) const;

  bool operator==(const AffineTerm &O) const {
    if (Top || O.Top)
      return Top == O.Top;
    if (bottom() || O.bottom())
      return bottom() == O.bottom();
    return Base == O.Base && TidStride == O.TidStride && Rem == O.Rem;
  }
};

struct ValueFlowDomain;

/// Affine + SCCP value flow for one thread, reduced against that
/// thread's EscapeAnalysis over the same CFG. Immutable after
/// construction; ProgramPasses builds one per thread.
class ValueFlowAnalysis {
public:
  /// \p NumThreads bounds Tid when a join drops a term's Tid stride.
  ValueFlowAnalysis(const isa::ThreadCfg &Cfg,
                    const std::vector<isa::Instruction> &Code,
                    const EscapeAnalysis &Esc, isa::ThreadId Tid,
                    uint32_t NumThreads);
  ~ValueFlowAnalysis();

  /// The affine term of register \p R just before \p Pc executes;
  /// bottom when SCCP proves the point unreachable.
  AffineTerm termBefore(uint32_t Pc, isa::Reg R) const;

  /// The affine effective-address term of the memory access at \p Pc;
  /// bottom for non-accesses and unreachable code.
  AffineTerm addressTerm(uint32_t Pc) const;

  /// Sharpened value bound: affine concretization intersected with
  /// Escape's interval — never wider than EscapeAnalysis::valueBefore.
  Interval valueBefore(uint32_t Pc, isa::Reg R) const;

  /// Sharpened effective-address bound of the access at \p Pc — never
  /// wider than EscapeAnalysis::addressOf.
  Interval addressOf(uint32_t Pc) const;

  /// SCCP-feasible reachability; implies Escape-reachability.
  bool reachable(uint32_t Pc) const;

private:
  const std::vector<isa::Instruction> &Code;
  const EscapeAnalysis &Esc;
  isa::ThreadId Tid;
  std::unique_ptr<DataflowSolver<ValueFlowDomain>> Solver;
};

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_VALUEFLOW_H
