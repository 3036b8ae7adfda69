//===- workloads/Workloads.h - Server-program analogs -----------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic analogs of the paper's three server programs (Table 1) plus
/// supporting workloads. Each analog reproduces the *concurrency shape*
/// of the original bug or behaviour:
///
///  * \c apacheLog — Apache's log_config module (Figure 2): worker
///    threads append variable-length messages to a shared in-memory log
///    buffer; the critical section around the index read-modify-write
///    and the copy loop is missing, so interleavings silently corrupt
///    the log (lost index updates / overlapping copies).
///  * \c mysqlPrepared — MySQL's prepared-query engine (Figures 1 & 3):
///    connection threads run queries that (a) take table locks with the
///    benign tot_lock data race of Figure 1 and (b) mark used fields via
///    the mistakenly-shared query_id/used_fields variables of Figure 3,
///    which non-deterministically crashes (out-of-bounds loop bound,
///    modeled by `assert`).
///  * \c pgsqlOltp — PostgreSQL under OSDL DBT-2: a correctly locked
///    multi-warehouse OLTP mix (no known bugs). Transactions read item
///    state under a per-warehouse lock and post-process outside the
///    critical section, the pattern on which SVD's over-long CUs produce
///    its residual false positives.
///  * \c mysqlTableLock — the minimal Figure 1 fragment on its own (for
///    the fig1 bench).
///  * \c sharedQueue — Figure 9's queue with independent field
///    computations (address-dependence ablation).
///  * \c randomWorkload — seeded generator of lock-based programs with a
///    configurable probability of omitted critical sections, used by
///    property tests and the scaling benches.
///
/// Bug ground truth: source lines tagged with a ";BUG" comment are
/// collected per thread; a detector report is classified *true* when
/// either side of the report lies on a tagged line.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_WORKLOADS_WORKLOADS_H
#define SVD_WORKLOADS_WORKLOADS_H

#include "isa/Program.h"
#include "svd/Report.h"
#include "vm/Machine.h"

#include <functional>
#include <set>
#include <string>
#include <vector>

namespace svd {
namespace workloads {

/// A program under test plus its ground truth and error oracle.
struct Workload {
  std::string Name;
  std::string Description;
  std::string ErrorBehaviour; ///< Table 1's "The Erroneous Execution"
  isa::Program Program;
  bool HasKnownBug = false;
  /// Per-thread pcs participating in the known bug (from ";BUG" tags).
  std::vector<std::set<uint32_t>> BugPcs;
  /// Returns true when a finished run manifested the bug (crash,
  /// corrupted output, lost updates).
  std::function<bool(const vm::Machine &)> Manifested;

  /// True when either side of \p V lies on a known-bug line.
  bool isTrueReport(const detect::Violation &V) const;

  /// True when any of the log entry's three statements lies on a
  /// known-bug line.
  bool isTrueLogEntry(const detect::CuLogEntry &E) const;
};

/// Ground-truth tally of one run's detector reports: how many are true
/// or false, dynamically and by static key. Both the sample harness and
/// the serve daemon classify through classifyReports() into it.
struct ReportTally {
  bool DetectedBug = false; ///< any true dynamic report?
  size_t DynamicReports = 0;
  size_t DynamicTrue = 0;
  size_t DynamicFalse = 0;
  size_t StaticReports = 0;
  size_t StaticTrue = 0;
  size_t StaticFalse = 0;
  /// Static identities of the true / false reports, sorted ascending so
  /// equal runs compare equal memberwise regardless of detector-internal
  /// hash iteration order.
  std::vector<uint64_t> StaticTrueKeys;
  std::vector<uint64_t> StaticFalseKeys;
};

/// Classifies \p Reports against \p W's ground truth into \p Out.
void classifyReports(const Workload &W,
                     const std::vector<detect::Violation> &Reports,
                     ReportTally &Out);

/// Sizing knobs shared by the workload constructors.
struct WorkloadParams {
  uint32_t Threads = 4;
  uint32_t Iterations = 40;
  /// apacheLog only: add the missing critical section (fixed version,
  /// used by the BER demo's "after the patch" runs).
  bool WithLock = false;
  /// Per-request busy-work loop iterations (3 instructions each, plus a
  /// random extra up to the same amount), modelling the request parsing
  /// / query planning that dominates real server execution between
  /// shared-state touches. Padding makes the racy windows a small
  /// fraction of execution — like the real programs — and ensures
  /// remote accesses arrive *between* a thread's atomic regions (which
  /// is what lets the FSM cut CUs at region boundaries).
  uint32_t WorkPadding = 25;
  /// Only 1 in this many requests/queries touches the buggy shared
  /// state (apacheLog: writes a log message; mysqlPrepared: runs the
  /// field-marking of a *prepared* query). Real servers hit the
  /// vulnerable window on a fraction of requests, which is what makes
  /// the bugs manifest occasionally rather than on every sample.
  /// 1 = every request (deterministic tests); the Table 2 bench uses
  /// larger values to obtain a mix of erroneous and bug-free samples.
  uint32_t TouchOneIn = 1;
};

/// Apache log_config analog (Figure 2). See file comment.
Workload apacheLog(const WorkloadParams &P = WorkloadParams());

/// MySQL prepared-query analog (Figures 1 and 3). See file comment.
Workload mysqlPrepared(const WorkloadParams &P = WorkloadParams());

/// PostgreSQL DBT-2 analog (correct, race-free). See file comment.
Workload pgsqlOltp(const WorkloadParams &P = WorkloadParams());

/// The isolated Figure 1 fragment (benign race under a table lock).
Workload mysqlTableLock(const WorkloadParams &P = WorkloadParams());

/// Figure 9's shared queue with independent field computations.
Workload sharedQueue(const WorkloadParams &P = WorkloadParams());

/// Consistently locked shared counter; every counter access sits in a
/// statically provable two-phase-locked region (the prove-and-prune
/// showcase — detectors can skip all of them).
Workload lockedCounters(const WorkloadParams &P = WorkloadParams());

/// Tid-strided per-thread slabs of one shared array (value-flow
/// locality proof) plus a locked checksum (atomicity proof).
Workload tidSlab(const WorkloadParams &P = WorkloadParams());

/// Function-structured cache update: each iteration locks, reads the
/// shared value through a `get` proc, bumps it, writes it back through
/// a `put` proc, and unlocks. Correct — the cross-function RMW is
/// two-phase — and every sample exercises Call/Ret under detectors.
Workload procCache(const WorkloadParams &P = WorkloadParams());

/// Buggy twin of procCache: the lock is released before the `put`
/// call, so the cross-function read-modify-write loses updates (the
/// Figure 1 binlog gap split across helper procs).
Workload procGap(const WorkloadParams &P = WorkloadParams());

/// Large-footprint sweep (the shadow bench family): each thread walks
/// its own contiguous \p SlabWords-word slab exactly once, one
/// store+load per word. Touches `Threads * SlabWords` distinct
/// addresses with zero sharing — the workload that made the historical
/// dense per-detector state vectors unaffordable and that the paged
/// shadow tables are sized for. Correct by construction.
Workload sparseSlabSweep(uint32_t Threads, uint32_t SlabWords);

/// Strided scatter (the shadow bench family): each thread performs
/// \p Touches store+load pairs spaced \p Stride words apart inside its
/// own region. With a stride larger than a shadow page's entry count a
/// page materializes per touch — the worst-case bytes-per-address
/// shape for the paged tables. Correct by construction.
Workload stridedScatter(uint32_t Threads, uint32_t Touches,
                        uint32_t Stride);

/// Parameters of the random workload generator.
struct RandomParams {
  uint64_t Seed = 1;
  uint32_t Threads = 4;
  uint32_t SharedVars = 6;
  uint32_t Iterations = 30;
  /// Probability that a generated critical section omits its lock
  /// (injected bug). 0 generates correct programs.
  double OmitLockProbability = 0.0;
  /// Probability that an iteration performs an unsynchronized benign
  /// read of a counter variable (race-detector false-positive fodder).
  double BenignReadProbability = 0.3;
};

/// Seeded random lock-based program with optional injected bugs.
Workload randomWorkload(const RandomParams &P = RandomParams());

/// All Table 1/2 workloads in paper order (Apache, MySQL, PgSQL).
std::vector<Workload> table1Workloads(const WorkloadParams &P = WorkloadParams());

} // namespace workloads
} // namespace svd

#endif // SVD_WORKLOADS_WORKLOADS_H
