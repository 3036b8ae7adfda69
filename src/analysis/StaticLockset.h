//===- analysis/StaticLockset.h - Must/may-held lock sets -------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward propagation of the set of mutexes a thread holds through its
/// CFG, in the spirit of the static half of lockset reasoning (Eraser,
/// Valgrind's DRD). Two lattices are solved together:
///
///  * the **must-held** set (meet = intersection): mutexes held on every
///    path reaching a point — sound for "this access is lock-protected"
///    claims and for definite-diagnostic reporting;
///  * the **may-held** set (meet = union): mutexes held on some path —
///    its complement proves "definitely not held".
///
/// Whole-thread diagnostics derived from the solution:
///
///  * `lock m` while m is must-held — definite double-acquire; with this
///    VM's non-recursive blocking mutexes, a guaranteed self-deadlock;
///  * `unlock m` while m is not even may-held — definite release of a
///    mutex the thread cannot own (a runtime fault);
///  * `halt` with a non-empty must-held set — the thread exits holding a
///    lock on every path reaching that halt (lock leak / imbalance);
///  * may-but-not-must variants of the first two — path-dependent lock
///    state, reported as warnings.
///
/// Programs with more than 64 mutexes exceed the bitmask domain; the
/// pass then reports nothing rather than lying (see `analyzable()`).
///
/// **Interprocedural solving.** Code with Call/Ret is analyzed with
/// per-proc lock-set *delta summaries* instead of the supergraph: a
/// region's effect on each lock bit is the transfer f(x) = Gen | (Keep &
/// x), a form closed under both composition and the lattice meets, so a
/// whole proc collapses to two masks per lattice. Summaries are computed
/// bottom-up over the call-graph SCCs (iterating within an SCC for
/// recursion), then a final pass solves each region on the Intra CFG
/// view with callee summaries applied at call sites and proc entries
/// seeded from their reachable callers. Unlike a plain supergraph, the
/// caller's fact at a return site is f_callee(fact at the call) — facts
/// from *other* callers never merge into it, which is what lets
/// AtomicProof prove two-phase locking across calls.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_STATICLOCKSET_H
#define SVD_ANALYSIS_STATICLOCKSET_H

#include "analysis/Dataflow.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace svd {
namespace analysis {

/// One lockset diagnostic. Pc indexes the thread's code; Line is the
/// assembly source line when available (0 for built-in-memory programs).
struct LocksetDiag {
  enum class Kind : uint8_t {
    DoubleAcquire,      ///< definite: lock of an already-held mutex
    MayDoubleAcquire,   ///< lock of a mutex held on some path only
    UnlockNotHeld,      ///< definite: unlock of a mutex never held here
    MayUnlockNotHeld,   ///< unlock of a mutex not held on some path
    HeldAtExit,         ///< halt with must-held locks outstanding
  };
  Kind K = Kind::DoubleAcquire;
  uint32_t Pc = 0;
  uint32_t Line = 0;
  uint32_t MutexId = 0;
  /// True for the definite (must-lattice) kinds.
  bool Definite = false;
};

/// The lock-set effect of executing one region entry-to-return: for each
/// lattice, bit i of the exit fact is Gen_i | (Keep_i & entry_i). A proc
/// that acquires m has m's MustGen/MayGen bit set; one that releases m
/// has its Keep bits cleared; untouched locks pass through (Keep).
struct RegionSummary {
  uint64_t MustGen = 0;
  uint64_t MustKeep = ~uint64_t(0);
  uint64_t MayGen = 0;
  uint64_t MayKeep = ~uint64_t(0);
  /// False when no Ret is reachable from the region's entry (the proc
  /// always halts or loops); callers never resume past such a call.
  bool Returns = true;
};

/// Static lockset analysis for one thread's code.
class StaticLockset {
public:
  /// \p Cg is the call graph of \p Code; code with Call/Ret is solved
  /// with its region summaries, flat code on \p Cfg alone.
  StaticLockset(const isa::ThreadCfg &Cfg,
                const std::vector<isa::Instruction> &Code,
                const isa::ThreadCallGraph &Cg, uint32_t NumMutexes);
  ~StaticLockset();

  /// False when the program has more mutexes than the bitmask domain
  /// supports; all queries are then trivially empty.
  bool analyzable() const { return Analyzable; }

  /// Bitmask of mutexes held on every path reaching \p Pc.
  uint64_t mustHeldBefore(uint32_t Pc) const;

  /// Bitmask of mutexes held on at least one path reaching \p Pc.
  uint64_t mayHeldBefore(uint32_t Pc) const;

  bool reachable(uint32_t Pc) const;

  /// All imbalance/double-acquire diagnostics for this thread, in pc
  /// order.
  const std::vector<LocksetDiag> &diagnostics() const { return Diags; }

  /// Per-region summaries, indexed by isa::RegionMap region id. Region 0
  /// (the main body) carries a default-constructed summary. Empty for
  /// flat code.
  const std::vector<RegionSummary> &regionSummaries() const {
    return Summaries;
  }

private:
  struct Domain {
    struct Value {
      uint64_t Must = ~uint64_t(0); // top for the intersection lattice
      uint64_t May = 0;
    };
    /// Callee summaries applied at Call sites (Intra CFG view only);
    /// null for the flat single-solve path.
    const std::vector<RegionSummary> *Summaries = nullptr;
    const isa::RegionMap *Regions = nullptr;

    Value init() const { return Value(); }
    Value boundary() const { return {0, 0}; }
    bool meetInto(Value &Dst, const Value &Src, bool) const {
      uint64_t Must = Dst.Must & Src.Must;
      uint64_t May = Dst.May | Src.May;
      if (Must == Dst.Must && May == Dst.May)
        return false;
      Dst.Must = Must;
      Dst.May = May;
      return true;
    }
    void transfer(uint32_t, const isa::Instruction &I, Value &V) const {
      if (I.Op == isa::Opcode::Lock) {
        uint64_t Bit = uint64_t(1) << (I.Imm & 63);
        V.Must |= Bit;
        V.May |= Bit;
      } else if (I.Op == isa::Opcode::Unlock) {
        uint64_t Bit = uint64_t(1) << (I.Imm & 63);
        V.Must &= ~Bit;
        V.May &= ~Bit;
      } else if (I.Op == isa::Opcode::Call && Summaries) {
        const RegionSummary &S =
            (*Summaries)[Regions->regionAtEntry(
                static_cast<uint32_t>(I.Imm))];
        V.Must = S.MustGen | (S.MustKeep & V.Must);
        V.May = S.MayGen | (S.MayKeep & V.May);
      }
    }
    bool edgeFeasible(uint32_t, const isa::Instruction &I, const Value &,
                      uint32_t) const {
      // On the Intra view a Call's only successor is its return site;
      // prune it when the callee provably never returns.
      if (I.Op == isa::Opcode::Call && Summaries)
        return (*Summaries)[Regions->regionAtEntry(
                   static_cast<uint32_t>(I.Imm))]
            .Returns;
      return true;
    }
  };

  void solveInterproc(const std::vector<isa::Instruction> &Code,
                      const isa::ThreadCallGraph &Cg);
  void collectDiagnostics(const std::vector<isa::Instruction> &Code);

  bool Analyzable;
  /// Final per-pc facts and reachability (both solve paths materialize
  /// into these).
  std::vector<Domain::Value> Facts;
  std::vector<bool> Reach;
  std::vector<RegionSummary> Summaries;
  std::vector<LocksetDiag> Diags;
};

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_STATICLOCKSET_H
