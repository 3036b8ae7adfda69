//===- tools/svd_chaos.cpp - Robustness matrix under fault injection ------===//
//
// Runs a suite's workload set through a matrix of deterministic fault
// plans (fault/Fault.h) and asserts the pipeline's robustness
// invariants:
//
//   * no fault plan crashes the process — injected crashes, perturbed
//     traces, and exhausted budgets all surface as classified
//     SampleResults (harness/Runner.h);
//   * every sample is classified, and every non-Ok sample carries a
//     non-empty diagnostic;
//   * fault-free baselines complete Ok;
//   * detection is never lost *silently*: when the fault-free baseline
//     of a (workload, detector, seed) cell detects the known bug, every
//     faulted sample of that cell either still reports it or is
//     explicitly non-Ok.
//
//   svd-chaos [--suite NAME] [--plans N] [--seeds N] [--jobs N]
//             [--json] [--report FILE]
//   svd-chaos --list-plans
//
// Output is bit-identical for every --jobs value: fault decisions are
// pure functions of (plan seed, sample seed, step), and the runner
// collects results in submission order. Neither the text report nor the
// JSON document contains timing fields, so runs diff clean.
//
// Exit status: 0 when every invariant holds, 1 when any is violated,
// 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "harness/Runner.h"
#include "harness/Suites.h"
#include "support/Cli.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "svd/HardwareSvd.h"
#include "svd/OfflineDetector.h"
#include "svd/OnlineSvd.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace svd;
using support::formatString;

namespace {

const char *Usage =
    "usage: svd-chaos [options]\n"
    "       svd-chaos --list-plans\n"
    "  --suite NAME   workload set to torture (default table1; any\n"
    "                 svd-bench suite name)\n"
    "  --plans N      fault plans from the canonical matrix (default 4;\n"
    "                 beyond the presets the matrix cycles with fresh\n"
    "                 seeds)\n"
    "  --seeds N      seeds per (workload, detector) cell (default 1)\n"
    "  --jobs N       worker threads (default 1; 0 = all hardware\n"
    "                 threads); output is identical for every value\n"
    "  --json         emit the svd-chaos-v1 JSON document on stdout\n"
    "  --report FILE  also write the JSON document to FILE\n"
    "  --list-plans   list the canonical fault-plan matrix and exit\n";

/// Name of the stop reason for reports (stable, lowercase).
const char *stopName(vm::StopReason R) {
  switch (R) {
  case vm::StopReason::AllHalted:
    return "all-halted";
  case vm::StopReason::Deadlock:
    return "deadlock";
  case vm::StopReason::StepBudget:
    return "step-budget";
  case vm::StopReason::Paused:
    return "paused";
  case vm::StopReason::ReplayDiverged:
    return "replay-diverged";
  }
  return "unknown";
}

/// A detector config carrying only a state budget, for plans with
/// DetectorEntryBudget set. Null when the budget is zero or the
/// detector has no config type (the "none" pseudo-detector).
std::shared_ptr<const detect::DetectorConfig>
budgetConfig(const std::string &Detector, uint64_t Budget) {
  if (Budget == 0)
    return nullptr;
  std::unique_ptr<detect::DetectorConfig> C;
  if (Detector == "svd")
    C = std::make_unique<detect::OnlineSvdDetectorConfig>();
  else if (Detector == "hwsvd")
    C = std::make_unique<detect::HardwareSvdDetectorConfig>();
  else if (Detector == "offline")
    C = std::make_unique<detect::OfflineDetectorConfig>();
  else
    return nullptr;
  C->MaxStateEntries = Budget;
  return std::shared_ptr<const detect::DetectorConfig>(std::move(C));
}

/// One cell of the chaos matrix: the baseline plus one sample per plan.
struct Row {
  std::string Workload;
  std::string Detector;
  uint64_t Seed = 1;
  std::string Plan; ///< "baseline" or the fault plan's name
  harness::SampleResult Result;
};

std::string jsonDocument(const std::string &SuiteName,
                         const std::vector<fault::FaultPlanConfig> &Plans,
                         unsigned Seeds, const std::vector<Row> &Rows,
                         const std::vector<std::string> &Violations) {
  std::string J = "{\"svd-chaos\":\"v1\",\"suite\":\"" +
                  support::jsonEscape(SuiteName) + "\",\"plans\":[";
  for (size_t I = 0; I < Plans.size(); ++I) {
    if (I)
      J += ",";
    J += formatString("{\"name\":\"%s\",\"faults\":\"%s\"}",
                      support::jsonEscape(Plans[I].Name).c_str(),
                      support::jsonEscape(Plans[I].describe()).c_str());
  }
  J += formatString("],\"seeds\":%u,\"rows\":[", Seeds);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    const harness::SampleResult &S = R.Result;
    if (I)
      J += ",";
    J += formatString(
        "{\"workload\":\"%s\",\"detector\":\"%s\",\"seed\":%llu,"
        "\"plan\":\"%s\",\"outcome\":\"%s\",\"attempts\":%u,"
        "\"diagnostic\":\"%s\",\"stop\":\"%s\",\"steps\":%llu,"
        "\"detected\":%s,\"log_found\":%s,\"dynamic_reports\":%zu,"
        "\"degraded\":%s,\"evictions\":%llu}",
        support::jsonEscape(R.Workload).c_str(),
        support::jsonEscape(R.Detector).c_str(),
        static_cast<unsigned long long>(R.Seed),
        support::jsonEscape(R.Plan).c_str(),
        harness::sampleOutcomeName(S.Outcome), S.Attempts,
        support::jsonEscape(S.Diagnostic).c_str(),
        stopName(S.Metrics.Stop),
        static_cast<unsigned long long>(S.Metrics.Steps),
        S.Metrics.DetectedBug ? "true" : "false",
        S.Metrics.LogFoundBug ? "true" : "false",
        S.Metrics.DynamicReports,
        S.Metrics.DetectorDegraded ? "true" : "false",
        static_cast<unsigned long long>(S.Metrics.DetectorEvictions));
  }
  J += "],\"violations\":[";
  for (size_t I = 0; I < Violations.size(); ++I) {
    if (I)
      J += ",";
    J += "\"" + support::jsonEscape(Violations[I]) + "\"";
  }
  size_t Counts[4] = {0, 0, 0, 0};
  for (const Row &R : Rows)
    ++Counts[static_cast<size_t>(R.Result.Outcome)];
  J += formatString("],\"summary\":{\"samples\":%zu,\"ok\":%zu,"
                    "\"degraded\":%zu,\"timed_out\":%zu,\"failed\":%zu,"
                    "\"invariant_violations\":%zu}}\n",
                    Rows.size(), Counts[0], Counts[1], Counts[2], Counts[3],
                    Violations.size());
  return J;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SuiteName = "table1", ReportPath;
  uint32_t PlanCount = 4, Seeds = 1, Jobs = 1;
  bool Json = false, ListPlans = false;

  support::ArgParser P(Usage);
  P.value("--suite", &SuiteName);
  P.value("--plans", &PlanCount);
  P.value("--seeds", &Seeds);
  P.value("--jobs", &Jobs);
  P.flag("--json", &Json);
  P.flag("--list-plans", &ListPlans);
  P.value("--report", &ReportPath);
  if (!P.parse(Argc, Argv) || !P.positional().empty())
    return P.usageError();

  if (ListPlans) {
    for (const fault::FaultPlanConfig &C :
         fault::defaultPlanMatrix(PlanCount))
      std::printf("%-16s %s\n", C.Name.c_str(), C.describe().c_str());
    return support::ExitClean;
  }
  if (PlanCount == 0 || Seeds == 0) {
    std::fprintf(stderr, "--plans and --seeds must be nonzero\n");
    return P.usageError();
  }

  std::vector<workloads::Workload> Ws = harness::suiteWorkloads(SuiteName);
  if (Ws.empty()) {
    std::fprintf(stderr, "unknown suite '%s'\n", SuiteName.c_str());
    return P.usageError();
  }

  std::vector<fault::FaultPlanConfig> Plans =
      fault::defaultPlanMatrix(PlanCount);
  uint32_t HwCpus = detect::HardwareSvdConfig().Cache.NumCpus;

  // Build the sample matrix. Plan instances are per (plan, seed) — the
  // FaultPlan mixes the sample seed at construction — and must outlive
  // the run; they are immutable, so samples sharing one is safe.
  std::vector<std::unique_ptr<fault::FaultPlan>> PlanInstances;
  std::vector<harness::SampleSpec> Specs;
  std::vector<Row> Rows;
  for (const workloads::Workload &W : Ws) {
    std::vector<std::string> Detectors = {"svd", "offline"};
    if (W.Program.numThreads() <= HwCpus)
      Detectors.push_back("hwsvd");
    for (const std::string &D : Detectors)
      for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
        harness::SampleSpec S;
        S.Workload = &W;
        S.Detector = D;
        S.Config.Seed = Seed;
        // Coarse timeslices so preemption-storm plans have slices to
        // cut short; identical for the baseline so plan effects are
        // the only difference within a cell.
        S.Config.MinTimeslice = 1;
        S.Config.MaxTimeslice = 4;
        Specs.push_back(S);
        Rows.push_back({W.Name, D, Seed, "baseline", {}});
        for (const fault::FaultPlanConfig &PC : Plans) {
          PlanInstances.push_back(
              std::make_unique<fault::FaultPlan>(PC, Seed));
          harness::SampleSpec F = S;
          F.Config.Faults = PlanInstances.back().get();
          F.Config.Detector = budgetConfig(D, PC.DetectorEntryBudget);
          Specs.push_back(F);
          Rows.push_back({W.Name, D, Seed, PC.Name, {}});
        }
      }
  }

  harness::RunnerConfig RC;
  RC.Jobs = Jobs;
  std::vector<harness::SampleResult> Results =
      harness::ParallelRunner(RC).runGuarded(Specs);
  for (size_t I = 0; I < Rows.size(); ++I)
    Rows[I].Result = std::move(Results[I]);

  // Check the robustness invariants. Reaching this line already
  // discharged the first one (no plan takes down the process).
  std::vector<std::string> Violations;
  size_t PerCell = 1 + Plans.size();
  for (size_t Base = 0; Base < Rows.size(); Base += PerCell) {
    const Row &B = Rows[Base];
    std::string Cell =
        B.Workload + "/" + B.Detector + formatString("/s%llu",
            static_cast<unsigned long long>(B.Seed));
    if (B.Result.Outcome != harness::SampleOutcome::Ok)
      Violations.push_back("baseline not ok: " + Cell + " is " +
                           harness::sampleOutcomeName(B.Result.Outcome) +
                           " (" + B.Result.Diagnostic + ")");
    bool BaselineDetected =
        B.Result.Metrics.DetectedBug || B.Result.Metrics.LogFoundBug;
    for (size_t I = Base; I < Base + PerCell; ++I) {
      const Row &R = Rows[I];
      if (R.Result.Outcome != harness::SampleOutcome::Ok &&
          R.Result.Diagnostic.empty())
        Violations.push_back("missing diagnostic: " + Cell + " plan " +
                             R.Plan + " is " +
                             harness::sampleOutcomeName(R.Result.Outcome));
      if (I != Base && BaselineDetected &&
          R.Result.Outcome == harness::SampleOutcome::Ok &&
          !R.Result.Metrics.DetectedBug && !R.Result.Metrics.LogFoundBug)
        Violations.push_back("silent detection loss: " + Cell + " plan " +
                             R.Plan +
                             " is ok but no longer reports the bug");
    }
  }

  std::string Doc = jsonDocument(SuiteName, Plans, Seeds, Rows, Violations);
  if (!ReportPath.empty() && !support::writeJsonFile(ReportPath, Doc))
    return support::ExitUsage;

  if (Json) {
    std::fputs(Doc.c_str(), stdout);
    return Violations.empty() ? support::ExitClean : support::ExitFindings;
  }

  std::printf("== svd-chaos: suite %s, %zu plans, %u seed%s, %zu samples "
              "==\n\n",
              SuiteName.c_str(), Plans.size(), Seeds, Seeds == 1 ? "" : "s",
              Rows.size());

  harness::TextTable T(
      {"Plan", "Samples", "Ok", "Degraded", "Timed out", "Failed"});
  std::vector<std::string> PlanNames = {"baseline"};
  for (const fault::FaultPlanConfig &PC : Plans)
    PlanNames.push_back(PC.Name);
  for (const std::string &PN : PlanNames) {
    size_t N = 0, C[4] = {0, 0, 0, 0};
    for (const Row &R : Rows)
      if (R.Plan == PN) {
        ++N;
        ++C[static_cast<size_t>(R.Result.Outcome)];
      }
    T.addRow({PN, formatString("%zu", N), formatString("%zu", C[0]),
              formatString("%zu", C[1]), formatString("%zu", C[2]),
              formatString("%zu", C[3])});
  }
  std::fputs(T.render().c_str(), stdout);

  std::printf("\nnon-ok samples:\n");
  size_t NonOk = 0;
  for (const Row &R : Rows)
    if (R.Result.Outcome != harness::SampleOutcome::Ok) {
      ++NonOk;
      std::printf("  %s/%s/s%llu %-16s %-9s %s\n", R.Workload.c_str(),
                  R.Detector.c_str(),
                  static_cast<unsigned long long>(R.Seed), R.Plan.c_str(),
                  harness::sampleOutcomeName(R.Result.Outcome),
                  R.Result.Diagnostic.c_str());
    }
  if (NonOk == 0)
    std::printf("  (none)\n");

  if (!Violations.empty()) {
    std::printf("\ninvariant violations:\n");
    for (const std::string &V : Violations)
      std::printf("  %s\n", V.c_str());
  }
  std::printf("\nrobustness invariants: %s\n",
              Violations.empty() ? "PASS" : "FAIL");
  return Violations.empty() ? support::ExitClean : support::ExitFindings;
}
