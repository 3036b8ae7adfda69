//===- analysis/AtomicProof.h - Static CU atomicity proofs ------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prove-and-prune layer: a per-StaticCu two-phase-locking proof
/// that marks a computational unit **ProvenAtomic** when no possible
/// schedule can produce a serializability violation involving it, so
/// the runtime detectors (OnlineSvd/HardwareSvd) may skip its events
/// without changing a single violation report.
///
/// A unit U of thread t is proven under mutex m when all of the
/// following hold (the full soundness argument, with the
/// counter-examples each obligation excludes, is DESIGN.md section 12):
///
///  O1  *Two-phase coverage.* m is must-held at every member pc and at
///      every reachable pc in [min(U), max(U)] — the lock is acquired
///      before the unit and released after it, never inside.
///  O2  *No Cas members.* Cas is the annotation-free sync primitive;
///      pruning it would filter synchronization out of the detector.
///  O3  *RMW completeness.* Every member load covers exactly one
///      detector block and is postdominated by a member store of that
///      same block, so every block the unit reads leaves the critical
///      section in a Stored-family lane state (a Loaded block would let
///      a remote write park a LoadedShared mark across instances that
///      only an unpruned run would later observe).
///  O4  *Dependence closure.* No reachable instruction outside U
///      depends on a member (register, address, or control), and every
///      member's register operands are either defined inside U or
///      provably CU-tag-free (a small taint analysis over Ld/Cas
///      results); same for the branches controlling members. This pins
///      the unit's dynamic CU to exactly the proven blocks — it can
///      neither leak tags out nor absorb foreign CUs in.
///  O5  *Region-confined control.* Every member conditional branch
///      reconverges (both skipper and precise policies) at an m-held pc
///      or not at all, so no control frame carrying the unit's tags
///      survives the release.
///  O6  *Register deadness outside the region.* No register a member
///      defines is live at any reachable pc where m is not must-held —
///      tags die with the instance instead of bridging two instances of
///      the unit.
///
/// On top of the per-unit obligations, a whole-program **alias-group
/// fixpoint** enforces Xu et al.'s "consistently protected" bar: access
/// sites (all threads) are clustered by block-expanded address-interval
/// overlap, and a unit is only proven when every group it touches is
/// covered end-to-end by proven units sharing one common mutex. Pruning
/// is therefore symmetric: either every access that can reach a block
/// is pruned, or none is, which is what keeps the remote-event stream
/// of the unpruned blocks bit-identical.
///
/// The same machinery yields three static diagnostics `svd-lint
/// --prove` reports: Eraser-style inconsistent locking of an alias
/// group, non-two-phase lock regions inside a unit, and static
/// lock-order cycles (AB-BA).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_ATOMICPROOF_H
#define SVD_ANALYSIS_ATOMICPROOF_H

#include "analysis/AccessTable.h"
#include "isa/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace svd {
namespace analysis {

/// One proven unit, for reports and tools.
struct ProvenCu {
  isa::ThreadId Tid = 0;
  uint32_t UnitId = 0;  ///< StaticCuInference unit id within the thread
  uint32_t MutexId = 0; ///< the covering mutex (smallest id when several)
  std::vector<uint32_t> Pcs; ///< member pcs, ascending
};

/// A raw static diagnostic from the proof machinery; Lint.cpp converts
/// these into LintDiags when --prove is on.
struct ProofDiag {
  enum class Kind : uint8_t {
    InconsistentLock, ///< alias group locked at some sites, bare at this one
    NonTwoPhase,      ///< common lock released and reacquired inside a unit
    LockOrderCycle,   ///< AB-BA: two mutexes acquired in conflicting orders
  };
  Kind K = Kind::InconsistentLock;
  isa::ThreadId Tid = 0;
  uint32_t Pc = 0;
  uint32_t Line = 0;
  std::string Message;
};

/// The per-program proof table the detectors consume. Immutable after
/// construction; shareable across concurrently-running samples.
class CuProofs {
public:
  CuProofs() = default;

  /// Block granularity the proofs hold at (same contract as
  /// AccessTable: detectors refuse tables at a foreign granularity).
  uint32_t blockShift() const { return Shift; }

  uint32_t numThreads() const {
    return static_cast<uint32_t>(ProvenPc.size());
  }

  /// True when the access at (\p Tid, \p Pc) belongs to a proven unit
  /// and may be pruned from event processing.
  bool provenAt(isa::ThreadId Tid, uint32_t Pc) const {
    if (Tid >= ProvenPc.size() || Pc >= ProvenPc[Tid].size())
      return false;
    return ProvenPc[Tid][Pc];
  }

  /// The proven units, ordered by (thread, first member pc).
  const std::vector<ProvenCu> &proven() const { return Proven; }

  /// Number of access sites provenAt covers, across all threads.
  uint64_t prunableSites() const { return NumPrunable; }

  /// Static diagnostics (inconsistent-lock / non-two-phase /
  /// lock-order-cycle), unordered; Lint sorts after conversion.
  const std::vector<ProofDiag> &diagnostics() const { return Diags; }

  /// The access table the proofs classified sites with, at the same
  /// block granularity; callers that need both read it here instead of
  /// building a second one.
  const AccessTable &accessTable() const { return Table; }

private:
  friend CuProofs proveAtomicCus(const ProgramPasses &PP,
                                 uint32_t BlockShift);
  uint32_t Shift = 0;
  AccessTable Table;
  std::vector<std::vector<bool>> ProvenPc; ///< per (thread, pc)
  std::vector<ProvenCu> Proven;
  std::vector<ProofDiag> Diags;
  uint64_t NumPrunable = 0;
};

/// Runs the whole proof pipeline (the access table, per-thread static CU
/// inference, obligations O1-O6, alias-group fixpoint) over the bundle's
/// program at block granularity \p BlockShift. The result keeps the
/// access table (CuProofs::accessTable). The bundle must carry
/// value flow: every address bound the proofs use is the sharpened one.
/// A bundle without it is a fatal error in every build.
/// Per thread the proof reads the bundle's CFG, call graph, lockset,
/// reaching definitions and liveness, and adds only a taint solve and a
/// StaticCuInference of its own.
CuProofs proveAtomicCus(const ProgramPasses &PP, uint32_t BlockShift);

/// As above, on a value-flow bundle built for \p P alone.
CuProofs proveAtomicCus(const isa::Program &P, uint32_t BlockShift = 0);

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_ATOMICPROOF_H
