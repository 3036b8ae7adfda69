//===- tools/svd_bench.cpp - Parallel benchmark suite driver --------------===//
//
// Runs every paper experiment (harness/Suites.h) behind one front end,
// fanning execution samples across a thread pool:
//
//   svd-bench --suite NAME [--jobs N] [--seeds N] [--json]
//             [--metrics-json FILE] [--trace-out FILE]
//   svd-bench --list
//
// Output is bit-identical for every --jobs value (the runner collects
// samples in submission order), and --json output carries no timing or
// thread-count fields, so `--jobs 1` and `--jobs N` diff clean. The
// same invariant holds for the "counters" section of --metrics-json;
// its "timings" section and the whole --trace-out file are wall-clock
// and excluded from comparisons (DESIGN.md section 10).
//
// Exit status: 0 on success, 1 when fig2/fig3 find no erroneous seed,
// 2 on usage errors (including --json for a text-only suite), an
// unknown suite, or an unwritable output file.
//
//===----------------------------------------------------------------------===//

#include "harness/Suites.h"
#include "obs/ChromeTrace.h"
#include "obs/Obs.h"
#include "support/Cli.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

using namespace svd;

namespace {

const char *Usage =
    "usage: svd-bench --suite NAME [options]\n"
    "       svd-bench --list\n"
    "  --suite NAME         suite to run (see --list)\n"
    "  --jobs N             worker threads for the sample fan-out\n"
    "                       (default 1; 0 = all hardware threads)\n"
    "  --seeds N            seeds per table row (default: the suite's\n"
    "                       paper-default count)\n"
    "  --json               emit a JSON document instead of the text tables\n"
    "  --perf               table1, shadow: add the deterministic event /\n"
    "                       shadow-page counts; sec73: add the Section 7.3\n"
    "                       overhead table; exact: add each test's cost\n"
    "  --metrics-json FILE  write the obs registry (deterministic counters\n"
    "                       + timing stats) as svd-metrics-v1 JSON\n"
    "  --trace-out FILE     write a Chrome trace_event JSON of the run\n"
    "                       (open in chrome://tracing or Perfetto)\n"
    "  --list               list the available suites\n";

} // namespace

int main(int Argc, char **Argv) {
  std::string SuiteName, MetricsPath, TracePath;
  bool List = false;
  harness::SuiteOptions O;
  uint32_t Jobs = 1, Seeds = 0;

  support::ArgParser P(Usage);
  P.value("--suite", &SuiteName);
  P.value("--jobs", &Jobs);
  P.value("--seeds", &Seeds);
  P.flag("--json", &O.Json);
  P.flag("--perf", &O.Perf);
  P.flag("--list", &List);
  P.value("--metrics-json", &MetricsPath);
  P.value("--trace-out", &TracePath);
  if (!P.parse(Argc, Argv) || !P.positional().empty())
    return P.usageError();

  if (List) {
    int Width = 0;
    for (const harness::Suite &S : harness::suites())
      Width = std::max(Width, static_cast<int>(std::strlen(S.Name)));
    for (const harness::Suite &S : harness::suites())
      std::printf("%-*s %s\n", Width, S.Name, S.Description);
    return support::ExitClean;
  }

  if (SuiteName.empty())
    return P.usageError();
  const harness::Suite *S = harness::findSuite(SuiteName);
  if (!S) {
    std::fprintf(stderr, "unknown suite '%s'\n", SuiteName.c_str());
    return P.usageError();
  }
  if (O.Json && !S->Workloads) {
    std::fprintf(stderr, "suite %s has no JSON output\n", S->Name);
    return support::ExitUsage;
  }

  obs::Registry Registry;
  obs::TraceCollector Trace;
  O.Jobs = Jobs;
  O.Seeds = Seeds;
  if (!MetricsPath.empty())
    O.Obs = &Registry;
  if (!TracePath.empty())
    O.Trace = &Trace;

  int Rc = S->Run(O);

  if (!MetricsPath.empty() &&
      !support::writeJsonFile(MetricsPath, obs::metricsJson(Registry)))
    return support::ExitUsage;
  if (!TracePath.empty() &&
      !support::writeJsonFile(TracePath, Trace.chromeTraceJson()))
    return support::ExitUsage;
  return Rc;
}
