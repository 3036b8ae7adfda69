//===- analysis/Escape.h - Address intervals & escape analysis --*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A forward interval analysis over the 16 registers, used to bound the
/// effective address of every LOAD/STORE/CAS a thread can execute. The
/// register file starts zeroed (the VM's contract), so the entry value
/// of every register is the exact interval [0, 0]; `tid` is a constant
/// per analyzed thread; `rnd r, K` with K > 0 is the bounded input
/// [0, K). Arithmetic saturates and loops are widened to ±infinity, so
/// the result is a sound over-approximation: the dynamic address of an
/// access always lies inside its static interval.
///
/// The per-access intervals are the substrate of the escape
/// classification in AccessTable.h: an access whose interval provably
/// stays inside the executing thread's own `.local` copy — and that no
/// other thread's interval can reach — is *provably thread-local*; a
/// computed address that cannot be bounded yields the full interval and
/// therefore classifies as possibly-shared (conservative by
/// construction).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_ESCAPE_H
#define SVD_ANALYSIS_ESCAPE_H

#include "analysis/Dataflow.h"
#include "isa/Program.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace svd {
namespace analysis {

/// A saturated signed interval [Lo, Hi]. Empty (Lo > Hi) only for
/// unreachable code.
struct Interval {
  int64_t Lo = 0;
  int64_t Hi = -1;

  static Interval full() { return {INT64_MIN, INT64_MAX}; }
  static Interval constant(int64_t K) { return {K, K}; }
  static Interval range(int64_t Lo, int64_t Hi) { return {Lo, Hi}; }

  bool empty() const { return Lo > Hi; }
  bool isFull() const { return Lo == INT64_MIN && Hi == INT64_MAX; }
  bool isConstant() const { return Lo == Hi; }
  bool contains(int64_t K) const { return Lo <= K && K <= Hi; }
  bool intersects(const Interval &O) const {
    return !empty() && !O.empty() && Lo <= O.Hi && O.Lo <= Hi;
  }
  /// True when this interval lies entirely within [Lo, Hi] of \p O.
  bool within(int64_t OLo, int64_t OHi) const {
    return !empty() && Lo >= OLo && Hi <= OHi;
  }
  bool operator==(const Interval &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
};

/// Expands \p I to whole detector blocks at granularity \p Shift: the
/// smallest block-aligned interval covering it. Full/negative intervals
/// pass through unchanged (they never prove anything). Shared by the
/// access-table classifier and the conflict-pair enumeration so both
/// reason at the same granularity the detectors use.
Interval blockExpand(const Interval &I, uint32_t Shift);

/// Interval arithmetic of the escape and value-flow domains. Bounds are
/// computed exactly in 128 bits; the machine wraps on 64-bit overflow,
/// so a result whose exact bound leaves int64 range widens to full()
/// (clamping the bound would exclude the wrapped values). An empty
/// operand yields the empty interval. Inline because both analyses'
/// transfer functions call them in their fixpoint loops: out-of-line
/// calls made the static set-up of the Table 2 analogs ~25% slower.
inline Interval wideToIv(__int128 Lo, __int128 Hi) {
  if (Lo < INT64_MIN || Hi > INT64_MAX)
    return Interval::full();
  return {static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

inline Interval addIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return Interval();
  return wideToIv(static_cast<__int128>(A.Lo) + B.Lo,
                  static_cast<__int128>(A.Hi) + B.Hi);
}

inline Interval subIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return Interval();
  return wideToIv(static_cast<__int128>(A.Lo) - B.Hi,
                  static_cast<__int128>(A.Hi) - B.Lo);
}

inline Interval mulIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return Interval();
  __int128 C[4] = {static_cast<__int128>(A.Lo) * B.Lo,
                   static_cast<__int128>(A.Lo) * B.Hi,
                   static_cast<__int128>(A.Hi) * B.Lo,
                   static_cast<__int128>(A.Hi) * B.Hi};
  return wideToIv(*std::min_element(C, C + 4), *std::max_element(C, C + 4));
}

/// One classified memory access site.
struct AccessSite {
  uint32_t Pc = 0;
  bool IsWrite = false;          ///< St, or the store half of Cas
  bool IsCas = false;
  Interval Addr;                 ///< effective-address bound
};

/// Interval/escape analysis for one thread's code.
class EscapeAnalysis {
public:
  EscapeAnalysis(const isa::ThreadCfg &Cfg,
                 const std::vector<isa::Instruction> &Code,
                 isa::ThreadId Tid);

  /// Register value bounds just before \p Pc executes. Empty intervals
  /// mean the instruction is unreachable.
  Interval valueBefore(uint32_t Pc, isa::Reg R) const;

  /// Effective-address bound of the memory access at \p Pc; empty when
  /// \p Pc is unreachable or not a memory access.
  Interval addressOf(uint32_t Pc) const;

  /// Every reachable memory-access site of the thread (Ld, St, and Cas —
  /// a Cas contributes one site covering both its load and store halves).
  const std::vector<AccessSite> &accesses() const { return Accesses; }

  bool reachable(uint32_t Pc) const { return Solver->reached(Pc); }

private:
  struct Domain {
    struct Value {
      std::array<Interval, isa::NumRegs> Regs;
    };
    isa::ThreadId Tid = 0;

    Value init() const {
      return Value(); // all-empty: unreachable
    }
    Value boundary() const {
      Value V;
      for (Interval &R : V.Regs)
        R = Interval::constant(0); // zeroed register file
      return V;
    }
    bool meetInto(Value &Dst, const Value &Src, bool Widen) const;
    void transfer(uint32_t Pc, const isa::Instruction &I, Value &V) const;
  };

  const std::vector<isa::Instruction> &Code;
  std::unique_ptr<DataflowSolver<Domain>> Solver;
  std::vector<AccessSite> Accesses;
};

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_ESCAPE_H
