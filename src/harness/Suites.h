//===- harness/Suites.h - Named benchmark suites ----------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every paper experiment as a named suite behind one entry point,
/// svd-bench --suite NAME, so all of them share the same
/// --jobs/--seeds/--json handling and the same seed derivation
/// (machineConfigFor). Every suite prints one output, a pure function
/// of its options: no field reads a clock, and the output is
/// bit-identical for every Jobs value. The table suites (Suites.cpp)
/// also emit JSON; the paper-study suites (Studies.cpp) print text
/// only, and svd-bench rejects --json for them. Rates come from
/// perfbench.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_HARNESS_SUITES_H
#define SVD_HARNESS_SUITES_H

#include "workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace svd {
namespace obs {
class Registry;
class TraceCollector;
} // namespace obs

namespace serve {
struct SessionInput;
} // namespace serve

namespace harness {

/// Options shared by every suite.
struct SuiteOptions {
  /// Worker threads for the sample fan-out; 0 = hardware concurrency.
  unsigned Jobs = 1;
  /// Seeds per row; 0 = the suite's paper-default count. Suites without
  /// a seed sweep (table1, predict, fig4) ignore it.
  unsigned Seeds = 0;
  /// Emit a machine-readable JSON document instead of the text tables.
  bool Json = false;
  /// Observability sink for the sample fan-out (svd-bench
  /// --metrics-json); counters are bit-identical at any Jobs. Not owned.
  obs::Registry *Obs = nullptr;
  /// Chrome-trace sink for the sample fan-out (svd-bench --trace-out).
  /// Not owned.
  obs::TraceCollector *Trace = nullptr;
};

/// One named suite.
struct Suite {
  const char *Name;        ///< CLI name (--suite NAME)
  const char *Description; ///< one line for --list
  int (*Run)(const SuiteOptions &O);
  /// Builds the workload set the suite executes (suiteWorkloads). Null
  /// for the paper studies, which build their own programs and print
  /// text only: svd-bench rejects --json for them.
  std::vector<workloads::Workload> (*Workloads)() = nullptr;
};

/// All registered suites, in display order: the table suites, then the
/// paper studies.
const std::vector<Suite> &suites();

/// Finds a suite by name; null when unknown.
const Suite *findSuite(const std::string &Name);

/// The workload set a suite executes, built by its row's Workloads —
/// THE single source of truth shared by the suite bodies and by
/// consumers that re-run suite workloads under different conditions
/// (svd-chaos, svd-serve, perfbench). Returns an empty vector for
/// unknown names and for the paper studies.
std::vector<workloads::Workload> suiteWorkloads(const std::string &Name);

/// Why suiteWorkloads(\p Name) is empty, as one diagnostic line for the
/// tools that run a suite's workloads: \p Name is a paper study, which
/// has no workload set, or no suite at all.
std::string noWorkloadSetMessage(const std::string &Name);

/// The svd-serve session set over \p Ws (which must outlive it): one
/// session per (workload, seed) for seeds 1..Seeds, ids in that order,
/// each machine from machineConfigFor so "seed N" means the same
/// execution as everywhere else. Shared by the serve suite and
/// svd-serve.
std::vector<serve::SessionInput>
serveSessions(const std::vector<workloads::Workload> &Ws, uint32_t Seeds);

} // namespace harness
} // namespace svd

#endif // SVD_HARNESS_SUITES_H
