//===- tools/svd_serve.cpp - Streaming detection daemon front end ---------===//
//
// Runs the streaming multi-tenant detection daemon (src/serve,
// DESIGN.md section 17) over a suite's workload set: every (workload,
// seed) pair becomes one client session that streams its execution
// trace as binary frames through bounded rings into sharded detector
// instances, under an optional ingestion fault plan.
//
//   svd-serve [--suite NAME] [--seeds N] [--shards N] [--jobs N]
//             [--shuffle SEED] [--plan NAME] [--chaos] [--verify-batch]
//             [--json] [--report FILE] [--metrics-json FILE]
//   svd-serve --list-plans
//
// --chaos runs the canonical ingestion-fault matrix
// (serve::ingestionPlanMatrix) and asserts the daemon's robustness
// invariants:
//
//   * no plan crashes the process — malformed frames, injected shard
//     crashes, and overload all surface as classified SessionReports;
//   * every non-Ok session carries a non-empty diagnostic;
//   * the fault-free baseline completes Ok on every session with a
//     detection signature byte-identical to the batch pipeline
//     (serve::batchSessionReport);
//   * detection is never corrupted *silently*: a faulted session that
//     still reports Ok must carry the baseline's exact signature.
//
// The JSON document contains session rows only (sorted by session id)
// and no timing fields, so runs at any --jobs and any --shuffle diff
// byte-identical — the determinism half of the acceptance criteria is
// a plain CompareRuns test. The text report adds the per-shard table
// (shard composition legitimately depends on --shuffle).
//
// Exit status: 0 when every invariant holds, 1 when any is violated,
// 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "harness/Suites.h"
#include "obs/Obs.h"
#include "serve/Serve.h"
#include "support/Cli.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace svd;
using support::formatString;

namespace {

const char *Usage =
    "usage: svd-serve [options]\n"
    "       svd-serve --list-plans\n"
    "  --suite NAME        workload set to stream (default serve; any\n"
    "                      svd-bench suite name)\n"
    "  --seeds N           seeds per workload, one session each\n"
    "                      (default 2)\n"
    "  --shards N          detector shards (default 2)\n"
    "  --jobs N            worker threads for the shard fan-out\n"
    "                      (default 1; 0 = all hardware threads);\n"
    "                      session reports are identical for every value\n"
    "  --shuffle SEED      permute the session-to-shard assignment;\n"
    "                      session reports are identical for every value\n"
    "  --plan NAME         run one ingestion fault plan from the\n"
    "                      canonical matrix (default: fault-free)\n"
    "  --chaos             run the full ingestion-fault matrix and\n"
    "                      assert the robustness invariants\n"
    "  --verify-batch      also run the batch twin of every session and\n"
    "                      assert fault-free signature parity\n"
    "  --json              emit the svd-serve-v1 JSON document on stdout\n"
    "  --report FILE       also write the JSON document to FILE\n"
    "  --metrics-json FILE export the serve.* observability counters\n"
    "  --list-plans        list the canonical ingestion-fault matrix\n";

/// One row of the report: a session's result under one plan.
struct Row {
  std::string Plan; ///< "none", "baseline", or the fault plan's name
  serve::SessionReport R;
};

std::string jsonRow(const Row &Rw) {
  const serve::SessionReport &R = Rw.R;
  std::string J = formatString(
      "{\"plan\":\"%s\",\"session\":%u,\"workload\":\"%s\",\"seed\":%llu,"
      "\"outcome\":\"%s\",\"diagnostic\":\"%s\","
      "\"events_streamed\":%llu,\"events_ingested\":%llu,"
      "\"events_shed\":%llu,\"events_budget_dropped\":%llu,"
      "\"frames_sent\":%llu,\"frames_delivered\":%llu,"
      "\"frames_rejected\":%llu,\"frames_duplicated\":%llu,"
      "\"frames_reordered\":%llu,\"frames_lost\":%llu,"
      "\"frames_shed\":%llu,\"backoff_waits\":%llu,\"ticks\":%llu,"
      "\"quarantines\":%u,\"readmissions\":%u,\"rejects\":{",
      support::jsonEscape(Rw.Plan).c_str(), R.SessionId,
      support::jsonEscape(R.Workload).c_str(),
      static_cast<unsigned long long>(R.Seed),
      serve::sessionOutcomeName(R.Outcome),
      support::jsonEscape(R.Diagnostic).c_str(),
      static_cast<unsigned long long>(R.EventsStreamed),
      static_cast<unsigned long long>(R.EventsIngested),
      static_cast<unsigned long long>(R.EventsShed),
      static_cast<unsigned long long>(R.EventsBudgetDropped),
      static_cast<unsigned long long>(R.FramesSent),
      static_cast<unsigned long long>(R.FramesDelivered),
      static_cast<unsigned long long>(R.FramesRejected),
      static_cast<unsigned long long>(R.FramesDuplicated),
      static_cast<unsigned long long>(R.FramesReordered),
      static_cast<unsigned long long>(R.FramesLost),
      static_cast<unsigned long long>(R.FramesShed),
      static_cast<unsigned long long>(R.BackoffWaits),
      static_cast<unsigned long long>(R.Ticks), R.Quarantines,
      R.Readmissions);
  bool First = true;
  for (size_t W = 0; W < serve::RejectCount; ++W)
    if (R.Rejects[W] != 0) {
      if (!First)
        J += ",";
      First = false;
      J += formatString(
          "\"%s\":%llu", serve::rejectName(static_cast<serve::Reject>(W)),
          static_cast<unsigned long long>(R.Rejects[W]));
    }
  J += formatString("},\"signature\":\"%s\"}",
                    support::jsonEscape(R.detectionSignature()).c_str());
  return J;
}

std::string jsonDocument(const std::string &SuiteName, uint32_t Shards,
                         uint32_t Seeds,
                         const std::vector<fault::FaultPlanConfig> &Plans,
                         const std::vector<Row> &Rows,
                         const std::vector<std::string> &Violations) {
  std::string J = "{\"svd-serve\":\"v1\",\"suite\":\"" +
                  support::jsonEscape(SuiteName) +
                  formatString("\",\"shards\":%u,\"seeds\":%u,\"plans\":[",
                               Shards, Seeds);
  for (size_t I = 0; I < Plans.size(); ++I) {
    if (I)
      J += ",";
    J += formatString("{\"name\":\"%s\",\"faults\":\"%s\"}",
                      support::jsonEscape(Plans[I].Name).c_str(),
                      support::jsonEscape(Plans[I].describe()).c_str());
  }
  J += "],\"rows\":[";
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (I)
      J += ",";
    J += jsonRow(Rows[I]);
  }
  J += "],\"violations\":[";
  for (size_t I = 0; I < Violations.size(); ++I) {
    if (I)
      J += ",";
    J += "\"" + support::jsonEscape(Violations[I]) + "\"";
  }
  size_t Counts[5] = {0, 0, 0, 0, 0};
  for (const Row &R : Rows)
    ++Counts[static_cast<size_t>(R.R.Outcome)];
  J += formatString("],\"summary\":{\"sessions\":%zu,\"ok\":%zu,"
                    "\"degraded\":%zu,\"shed\":%zu,\"poisoned\":%zu,"
                    "\"failed\":%zu,\"invariant_violations\":%zu}}\n",
                    Rows.size(), Counts[0], Counts[1], Counts[2], Counts[3],
                    Counts[4], Violations.size());
  return J;
}

std::string cellName(const serve::SessionReport &R) {
  return formatString("%s/s%llu (session %u)", R.Workload.c_str(),
                      static_cast<unsigned long long>(R.Seed), R.SessionId);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SuiteName = "serve", PlanName, ReportPath, MetricsPath;
  uint32_t Seeds = 2, Shards = 2, Jobs = 1;
  uint64_t Shuffle = 0;
  bool Chaos = false, VerifyBatch = false, Json = false, ListPlans = false;

  support::ArgParser P(Usage);
  P.value("--suite", &SuiteName);
  P.value("--seeds", &Seeds);
  P.value("--shards", &Shards);
  P.value("--jobs", &Jobs);
  P.value("--shuffle", &Shuffle);
  P.value("--plan", &PlanName);
  P.flag("--chaos", &Chaos);
  P.flag("--verify-batch", &VerifyBatch);
  P.flag("--json", &Json);
  P.value("--report", &ReportPath);
  P.value("--metrics-json", &MetricsPath);
  P.flag("--list-plans", &ListPlans);
  if (!P.parse(Argc, Argv) || !P.positional().empty())
    return P.usageError();

  std::vector<fault::FaultPlanConfig> Matrix = serve::ingestionPlanMatrix();
  if (ListPlans) {
    for (const fault::FaultPlanConfig &C : Matrix)
      std::printf("%-16s %s\n", C.Name.c_str(), C.describe().c_str());
    return support::ExitClean;
  }
  if (Seeds == 0 || Shards == 0) {
    std::fprintf(stderr, "--seeds and --shards must be nonzero\n");
    return P.usageError();
  }
  if (Chaos && !PlanName.empty()) {
    std::fprintf(stderr, "--chaos and --plan are mutually exclusive\n");
    return P.usageError();
  }

  std::vector<workloads::Workload> Ws = harness::suiteWorkloads(SuiteName);
  if (Ws.empty()) {
    std::fprintf(stderr, "unknown suite '%s'\n", SuiteName.c_str());
    return P.usageError();
  }
  std::vector<serve::SessionInput> Sessions =
      harness::serveSessions(Ws, Seeds);

  // The plan list this invocation runs: the full matrix under --chaos,
  // one named plan under --plan, otherwise just the fault-free run.
  std::vector<fault::FaultPlanConfig> Plans;
  if (Chaos) {
    Plans = Matrix;
  } else if (!PlanName.empty()) {
    const fault::FaultPlanConfig *Found = nullptr;
    for (const fault::FaultPlanConfig &C : Matrix)
      if (C.Name == PlanName)
        Found = &C;
    if (!Found) {
      std::fprintf(stderr, "unknown plan '%s' (see --list-plans)\n",
                   PlanName.c_str());
      return P.usageError();
    }
    Plans.push_back(*Found);
  }

  obs::Registry Metrics;
  serve::ServeConfig Base;
  Base.Shards = Shards;
  Base.ShuffleSeed = Shuffle;
  Base.Jobs = Jobs;
  Base.Obs = MetricsPath.empty() ? nullptr : &Metrics;

  // Batch-twin signatures, computed once per session: the parity
  // oracle for the fault-free baseline and for faulted-but-Ok rows.
  std::vector<std::string> BatchSig(Sessions.size());
  if (Chaos || VerifyBatch)
    for (size_t I = 0; I < Sessions.size(); ++I)
      BatchSig[I] = serve::batchSessionReport(Sessions[I], Base)
                        .detectionSignature();

  std::vector<Row> Rows;
  std::vector<serve::ServeReport> Reports;
  if (Plans.empty()) {
    Reports.push_back(serve::runServe(Sessions, Base));
    for (const serve::SessionReport &R : Reports.back().Sessions)
      Rows.push_back({"none", R});
  } else {
    for (const fault::FaultPlanConfig &PC : Plans) {
      serve::ServeConfig C = Base;
      C.FaultCfg = &PC;
      Reports.push_back(serve::runServe(Sessions, C));
      for (const serve::SessionReport &R : Reports.back().Sessions)
        Rows.push_back({PC.Name, R});
    }
  }

  // Invariant checks. Reaching this line already discharged the
  // process-survival invariant for every plan that ran.
  std::vector<std::string> Violations;
  size_t PerPlan = Sessions.size();
  for (const Row &Rw : Rows)
    if (Rw.R.Outcome != serve::SessionOutcome::Ok && Rw.R.Diagnostic.empty())
      Violations.push_back("missing diagnostic: " + cellName(Rw.R) +
                           " plan " + Rw.Plan + " is " +
                           serve::sessionOutcomeName(Rw.R.Outcome));
  if (Chaos || VerifyBatch) {
    bool HaveBaseline = Chaos || Plans.empty();
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &Rw = Rows[I];
      size_t Session = I % PerPlan;
      bool FaultFree = Rw.Plan == "none" || Rw.Plan == "baseline";
      if (FaultFree && Rw.R.Outcome != serve::SessionOutcome::Ok)
        Violations.push_back(
            "baseline not ok: " + cellName(Rw.R) + " is " +
            serve::sessionOutcomeName(Rw.R.Outcome) + " (" +
            Rw.R.Diagnostic + ")");
      // An Ok session must carry the batch pipeline's exact detection
      // signature — anything else is silent stream corruption. Checked
      // for faulted plans too when the baseline is known good: frame
      // faults that the resequencer heals must not perturb detection.
      if (Rw.R.Outcome == serve::SessionOutcome::Ok &&
          (FaultFree || HaveBaseline) &&
          Rw.R.detectionSignature() != BatchSig[Session])
        Violations.push_back("signature mismatch: " + cellName(Rw.R) +
                             " plan " + Rw.Plan + " ok but got '" +
                             Rw.R.detectionSignature() + "', batch says '" +
                             BatchSig[Session] + "'");
    }
  }

  if (!MetricsPath.empty() &&
      !support::writeJsonFile(MetricsPath, obs::metricsJson(Metrics)))
    return support::ExitUsage;

  std::string Doc =
      jsonDocument(SuiteName, Shards, Seeds, Plans, Rows, Violations);
  if (!ReportPath.empty() && !support::writeJsonFile(ReportPath, Doc))
    return support::ExitUsage;

  if (Json) {
    std::fputs(Doc.c_str(), stdout);
    return Violations.empty() ? support::ExitClean : support::ExitFindings;
  }

  std::string Mode = Chaos ? formatString("%zu-plan chaos matrix",
                                          Plans.size())
                     : Plans.empty() ? std::string("fault-free")
                                     : "plan " + Plans[0].Name;
  std::printf("== svd-serve: suite %s, %zu sessions, %u shards, %s ==\n\n",
              SuiteName.c_str(), Sessions.size(), Shards, Mode.c_str());

  if (Chaos) {
    harness::TextTable T({"Plan", "Sessions", "Ok", "Degraded", "Shed",
                          "Poisoned", "Failed"});
    for (size_t PI = 0; PI < Plans.size(); ++PI) {
      size_t C[5] = {0, 0, 0, 0, 0};
      for (size_t I = PI * PerPlan; I < (PI + 1) * PerPlan; ++I)
        ++C[static_cast<size_t>(Rows[I].R.Outcome)];
      T.addRow({Plans[PI].Name, formatString("%zu", PerPlan),
                formatString("%zu", C[0]), formatString("%zu", C[1]),
                formatString("%zu", C[2]), formatString("%zu", C[3]),
                formatString("%zu", C[4])});
    }
    std::fputs(T.render().c_str(), stdout);
  } else {
    // Shard composition depends on --shuffle by design; it is shown in
    // the text report only, never in the JSON document.
    harness::TextTable ST({"Shard", "Sessions", "Frames", "Events",
                           "Quarantines", "Shadow pages", "Shadow bytes"});
    for (const serve::ShardReport &S : Reports.back().Shards)
      ST.addRow(
          {formatString("%u", S.ShardId),
           formatString("%zu", S.Sessions.size()),
           formatString("%llu",
                        static_cast<unsigned long long>(S.FramesDelivered)),
           formatString("%llu",
                        static_cast<unsigned long long>(S.EventsIngested)),
           formatString("%u", S.Quarantines),
           formatString("%llu",
                        static_cast<unsigned long long>(S.ShadowPages)),
           formatString("%llu",
                        static_cast<unsigned long long>(S.ShadowBytes))});
    std::fputs(ST.render().c_str(), stdout);
    std::puts("");

    harness::TextTable T({"Session", "Workload", "Seed", "Shard", "Outcome",
                          "Streamed", "Ingested", "Rejected", "Shed",
                          "Detected"});
    for (const Row &Rw : Rows) {
      const serve::SessionReport &R = Rw.R;
      T.addRow(
          {formatString("%u", R.SessionId), R.Workload,
           formatString("%llu", static_cast<unsigned long long>(R.Seed)),
           formatString("%u", R.Shard), serve::sessionOutcomeName(R.Outcome),
           formatString("%llu",
                        static_cast<unsigned long long>(R.EventsStreamed)),
           formatString("%llu",
                        static_cast<unsigned long long>(R.EventsIngested)),
           formatString("%llu",
                        static_cast<unsigned long long>(R.FramesRejected)),
           formatString("%llu",
                        static_cast<unsigned long long>(R.EventsShed)),
           R.DetectedBug ? "yes" : "no"});
    }
    std::fputs(T.render().c_str(), stdout);
  }

  std::printf("\nnon-ok sessions:\n");
  size_t NonOk = 0;
  for (const Row &Rw : Rows)
    if (Rw.R.Outcome != serve::SessionOutcome::Ok) {
      ++NonOk;
      std::printf("  %-32s %-16s %-9s %s\n", cellName(Rw.R).c_str(),
                  Rw.Plan.c_str(), serve::sessionOutcomeName(Rw.R.Outcome),
                  Rw.R.Diagnostic.c_str());
    }
  if (NonOk == 0)
    std::printf("  (none)\n");

  if (!Violations.empty()) {
    std::printf("\ninvariant violations:\n");
    for (const std::string &V : Violations)
      std::printf("  %s\n", V.c_str());
  }
  if (Chaos || VerifyBatch)
    std::printf("\nserve robustness invariants: %s\n",
                Violations.empty() ? "PASS" : "FAIL");
  return Violations.empty() ? support::ExitClean : support::ExitFindings;
}
