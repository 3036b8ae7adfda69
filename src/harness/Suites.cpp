//===- harness/Suites.cpp -------------------------------------------------===//
//
// The table suites: Tables 1 and 2, Section 7.3, Figure 1, interproc,
// predict, shadow and serve. Each fans its samples through a
// ParallelRunner and folds the submission-ordered results, so text and
// JSON output are identical at every --jobs value.
//
//===----------------------------------------------------------------------===//

#include "harness/Suites.h"

#include "analysis/AtomicProof.h"
#include "cu/CuPartition.h"
#include "harness/Harness.h"
#include "harness/Runner.h"
#include "harness/Studies.h"
#include "predict/Confirm.h"
#include "serve/Serve.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "svd/OnlineSvd.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

using namespace svd;
using namespace svd::harness;
using support::formatString;
using support::jsonEscape;
using workloads::Workload;

RunnerConfig harness::runnerConfig(const SuiteOptions &O) {
  RunnerConfig RC;
  RC.Jobs = O.Jobs;
  RC.Obs = O.Obs;
  RC.Trace = O.Trace;
  return RC;
}

SampleConfig harness::sweepSample(uint64_t Seed) {
  SampleConfig C;
  C.Seed = Seed;
  C.MinTimeslice = 1;
  C.MaxTimeslice = 4;
  return C;
}

namespace {

// Per-suite workload construction, shared between the suite bodies and
// suiteWorkloads(). Parameters here are THE suite parameters; the run*
// bodies must not duplicate them.

std::vector<Workload> table1SuiteWorkloads() {
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 150;
  P.WorkPadding = 80;
  P.TouchOneIn = 8;
  return workloads::table1Workloads(P);
}

std::vector<Workload> serveSuiteWorkloads() {
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 60;
  P.WorkPadding = 30;
  P.TouchOneIn = 4;
  return workloads::table1Workloads(P);
}

std::vector<Workload> table2SuiteWorkloads() {
  workloads::WorkloadParams AP;
  AP.Threads = 4;
  AP.Iterations = 100;
  AP.WorkPadding = 120;
  AP.TouchOneIn = 10;

  workloads::WorkloadParams MP;
  MP.Threads = 4;
  MP.Iterations = 150;
  MP.WorkPadding = 80;
  MP.TouchOneIn = 8;

  workloads::WorkloadParams GP;
  GP.Threads = 4;
  GP.Iterations = 150;
  GP.WorkPadding = 80;

  std::vector<Workload> Ws;
  Ws.push_back(workloads::apacheLog(AP));
  Ws.push_back(workloads::mysqlPrepared(MP));
  Ws.push_back(workloads::pgsqlOltp(GP));
  return Ws;
}

/// The execution-length sweep of the sec73 suite.
const std::vector<uint32_t> &sec73Iterations() {
  static const std::vector<uint32_t> Iters = {25, 50, 100, 200, 400, 800};
  return Iters;
}

std::vector<Workload> sec73SuiteWorkloads() {
  std::vector<Workload> Ws;
  for (uint32_t Iter : sec73Iterations()) {
    workloads::WorkloadParams P;
    P.Threads = 4;
    P.Iterations = Iter;
    P.WorkPadding = 40;
    Ws.push_back(workloads::pgsqlOltp(P));
  }
  return Ws;
}

std::vector<Workload> fig1SuiteWorkloads() {
  workloads::WorkloadParams P;
  P.Threads = 3;
  P.Iterations = 40;
  std::vector<Workload> Ws;
  Ws.push_back(workloads::mysqlTableLock(P));
  return Ws;
}

std::vector<Workload> interprocSuiteWorkloads() {
  workloads::WorkloadParams P;
  P.Threads = 3;
  P.Iterations = 30;
  P.WorkPadding = 12;
  std::vector<Workload> Ws;
  Ws.push_back(workloads::procCache(P));
  Ws.push_back(workloads::procGap(P));
  return Ws;
}

std::vector<Workload> predictSuiteWorkloads() {
  workloads::WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 4;
  P.WorkPadding = 4;
  P.TouchOneIn = 1;
  return workloads::table1Workloads(P);
}

/// One shadow-suite row: a large-footprint workload plus its analytic
/// address-footprint figures (known from the construction parameters,
/// so the JSON stays deterministic).
struct ShadowSpec {
  Workload W;
  uint64_t DistinctAddrs;
  uint64_t HeapWords;
};

std::vector<ShadowSpec> shadowSuiteSpecs() {
  std::vector<ShadowSpec> Specs;
  // Two million-address sweeps (thread-count sweep at constant
  // footprint) and one stride chosen to dilute shadow pages.
  Specs.push_back({workloads::sparseSlabSweep(4, 262144),
                   uint64_t(4) * 262144, uint64_t(4) * 262144});
  Specs.push_back({workloads::sparseSlabSweep(8, 131072),
                   uint64_t(8) * 131072, uint64_t(8) * 131072});
  Specs.push_back({workloads::stridedScatter(4, 4096, 61),
                   uint64_t(4) * 4096, uint64_t(4) * 4096 * 61});
  return Specs;
}

std::vector<Workload> shadowSuiteWorkloads() {
  std::vector<Workload> Ws;
  for (ShadowSpec &S : shadowSuiteSpecs())
    Ws.push_back(std::move(S.W));
  return Ws;
}

//===----------------------------------------------------------------------===//
// table1 — Table 1 "Test Programs"
//===----------------------------------------------------------------------===//

/// The deterministic counts of a seed-1 run of a workload under
/// OnlineSvd: table1's and shadow's count sections and sec73's
/// Pruned %. Every field is a pure function of the workload and the
/// config (shadow pages materialize in touch order).
struct OnlineCounts {
  uint64_t Events = 0;
  uint64_t PrunedEvents = 0;
  uint64_t FilteredEvents = 0;
  uint64_t BudgetEvictions = 0;
  uint64_t ShadowPages = 0;
  size_t ShadowBytes = 0;

  double prunedPct() const {
    return Events == 0 ? 0.0
                       : 100.0 * static_cast<double>(PrunedEvents) /
                             static_cast<double>(Events);
  }
  double bytesPerAddr(uint64_t DistinctAddrs) const {
    return DistinctAddrs == 0 ? 0.0
                              : static_cast<double>(ShadowBytes) /
                                    static_cast<double>(DistinctAddrs);
  }
};

OnlineCounts onlineCounts(const Workload &W,
                          const detect::OnlineSvdConfig &SC) {
  vm::Machine M(W.Program, machineConfigFor(SampleConfig()));
  detect::OnlineSvd Svd(W.Program, SC);
  M.addObserver(&Svd);
  M.run();
  return {Svd.eventsObserved(), Svd.prunedAccesses(),
          Svd.filteredAccesses(), Svd.budgetEvictions(),
          Svd.shadowPages(),      Svd.shadowBytes()};
}

/// OnlineSvd with both static proofs wired in: \p Proofs' access table
/// filters the run and its proven CUs are pruned.
detect::OnlineSvdConfig provenConfig(const analysis::CuProofs &Proofs) {
  detect::OnlineSvdConfig SC;
  SC.Access = &Proofs.accessTable();
  SC.Proofs = &Proofs;
  return SC;
}

int runTable1(const SuiteOptions &O) {
  std::vector<Workload> Ws = table1SuiteWorkloads();

  std::vector<SampleSpec> Specs;
  for (const Workload &W : Ws) {
    SampleSpec S;
    S.Workload = &W;
    S.Detector = "none";
    S.Config.Seed = 1;
    Specs.push_back(S);
  }
  std::vector<SampleMetrics> Ms = ParallelRunner(runnerConfig(O)).run(Specs);

  std::vector<OnlineCounts> Counts;
  std::vector<size_t> ProvenCus;
  for (const Workload &W : Ws) {
    analysis::CuProofs Proofs = analysis::proveAtomicCus(W.Program);
    Counts.push_back(onlineCounts(W, provenConfig(Proofs)));
    ProvenCus.push_back(Proofs.proven().size());
  }

  if (O.Json) {
    std::string J = "{\"suite\":\"table1\",\"rows\":[";
    for (size_t I = 0; I < Ws.size(); ++I) {
      const Workload &W = Ws[I];
      if (I)
        J += ",";
      J += formatString(
          "{\"name\":\"%s\",\"threads\":%u,\"static_instrs\":%zu,"
          "\"dynamic_instrs\":%llu,\"known_bug\":%s",
          jsonEscape(W.Name).c_str(), W.Program.numThreads(),
          W.Program.numInstructions(),
          static_cast<unsigned long long>(Ms[I].Steps),
          W.HasKnownBug ? "true" : "false");
      const OnlineCounts &R = Counts[I];
      J += formatString(
          ",\"events\":%llu,\"pruned_events\":%llu,"
          "\"filtered_events\":%llu,\"proven_cus\":%zu,"
          "\"pruned_pct\":%.4f}",
          static_cast<unsigned long long>(R.Events),
          static_cast<unsigned long long>(R.PrunedEvents),
          static_cast<unsigned long long>(R.FilteredEvents), ProvenCus[I],
          R.prunedPct());
    }
    J += "]}\n";
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::puts("== Table 1: test programs (synthetic analogs) ==\n");
  TextTable T({"Name", "Threads", "Static instrs", "Dynamic instrs (seed 1)",
               "Known bug"});
  for (size_t I = 0; I < Ws.size(); ++I) {
    const Workload &W = Ws[I];
    T.addRow({W.Name, formatString("%u", W.Program.numThreads()),
              formatString("%zu", W.Program.numInstructions()),
              formatString("%llu",
                           static_cast<unsigned long long>(Ms[I].Steps)),
              W.HasKnownBug ? "yes" : "no"});
  }
  std::fputs(T.render().c_str(), stdout);

  std::puts("\n== Table 1 counts: OnlineSvd with static proofs (seed 1) ==\n");
  TextTable CT({"Name", "Events", "Pruned", "Filtered", "Proven CUs",
                "Pruned %"});
  for (size_t I = 0; I < Ws.size(); ++I) {
    const OnlineCounts &R = Counts[I];
    CT.addRow(
        {Ws[I].Name,
         formatString("%llu", static_cast<unsigned long long>(R.Events)),
         formatString("%llu", static_cast<unsigned long long>(R.PrunedEvents)),
         formatString("%llu",
                      static_cast<unsigned long long>(R.FilteredEvents)),
         formatString("%zu", ProvenCus[I]),
         formatString("%.2f", R.prunedPct())});
  }
  std::fputs(CT.render().c_str(), stdout);

  std::puts("\nDescriptions:");
  for (const Workload &W : Ws)
    std::printf("\n%s\n  %s\n  Erroneous execution: %s\n", W.Name.c_str(),
                W.Description.c_str(), W.ErrorBehaviour.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// The paired SVD/FRD seed sweep of table2, sec73, fig1 and interproc
//===----------------------------------------------------------------------===//

/// One seed's execution under the serializability detector and under
/// the race detector.
struct SvdFrdPair {
  SampleMetrics Svd;
  SampleMetrics Frd;
};

/// Runs every workload of \p Ws under svd and frd for seeds 1..Seeds,
/// seed S configured by \p Config(S), through one ParallelRunner, and
/// returns each workload's pairs in seed order.
std::vector<std::vector<SvdFrdPair>>
runPairedSweep(const SuiteOptions &O, const std::vector<Workload> &Ws,
               unsigned Seeds, SampleConfig (*Config)(uint64_t)) {
  // Spec order: workload-major, then seed, then (svd, frd); the pairing
  // below relies on it.
  std::vector<SampleSpec> Specs;
  for (const Workload &W : Ws)
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      SampleSpec S;
      S.Workload = &W;
      S.Config = Config(Seed);
      S.Detector = "svd";
      Specs.push_back(S);
      S.Detector = "frd";
      Specs.push_back(S);
    }
  std::vector<SampleMetrics> Ms = ParallelRunner(runnerConfig(O)).run(Specs);

  std::vector<std::vector<SvdFrdPair>> Pairs(Ws.size());
  auto It = Ms.begin();
  for (std::vector<SvdFrdPair> &P : Pairs)
    for (unsigned I = 0; I < Seeds; ++I, It += 2)
      P.push_back({std::move(It[0]), std::move(It[1])});
  return Pairs;
}

//===----------------------------------------------------------------------===//
// table2 — Table 2 "Evaluation Results" (SVD vs FRD)
//===----------------------------------------------------------------------===//

struct RowAccum {
  size_t Samples = 0;
  uint64_t Steps = 0;
  size_t ApparentFn = 0;
  std::set<uint64_t> SvdStaticFp;
  std::set<uint64_t> FrdStaticFp;
  size_t SvdDynFp = 0;
  size_t FrdDynFp = 0;
  std::set<uint64_t> LogShapes;
  size_t Cus = 0;

  double perM(size_t N) const {
    return Steps == 0 ? 0.0
                      : static_cast<double>(N) * 1e6 /
                            static_cast<double>(Steps);
  }
};

/// Folds one seed's paired (svd, frd) samples into the erroneous /
/// bug-free rows.
void accumulateRow(const SampleMetrics &S, const SampleMetrics &F,
                   RowAccum &Erroneous, RowAccum &Clean) {
  RowAccum &Row = S.Manifested ? Erroneous : Clean;
  ++Row.Samples;
  Row.Steps += S.Steps;
  bool FrdFound = F.DynamicTrue > 0;
  bool SvdFound = S.DetectedBug || S.LogFoundBug;
  if (S.Manifested && FrdFound && !SvdFound)
    ++Row.ApparentFn;
  Row.SvdStaticFp.insert(S.StaticFalseKeys.begin(), S.StaticFalseKeys.end());
  Row.FrdStaticFp.insert(F.StaticFalseKeys.begin(), F.StaticFalseKeys.end());
  Row.SvdDynFp += S.DynamicFalse;
  Row.FrdDynFp += F.DynamicFalse;
  Row.LogShapes.insert(S.StaticLogKeys.begin(), S.StaticLogKeys.end());
  Row.Cus += S.CusFormed;
}

void addTable2Row(TextTable &T, const std::string &Name, const char *Kind,
                  const RowAccum &R, bool Buggy) {
  if (R.Samples == 0)
    return;
  T.addRow({Name + " (" + Kind + ")",
            formatString("%.2f", static_cast<double>(R.Steps) / 1e6),
            formatString("%zu", R.Samples),
            Buggy ? formatString("%zu", R.ApparentFn) : std::string("N/A"),
            formatString("%zu", R.SvdStaticFp.size()),
            formatString("%zu", R.FrdStaticFp.size()),
            formatString("%.2f (%zu)", R.perM(R.SvdDynFp), R.SvdDynFp),
            formatString("%.2f (%zu)", R.perM(R.FrdDynFp), R.FrdDynFp),
            formatString("%zu", R.LogShapes.size()),
            formatString("%.0f (%zu)", R.perM(R.Cus), R.Cus)});
}

void addTable2Json(std::string &J, const std::string &Name, const char *Kind,
                   const RowAccum &R, bool Buggy) {
  if (R.Samples == 0)
    return;
  if (J.back() == '}')
    J += ",";
  J += formatString(
      "{\"program\":\"%s\",\"kind\":\"%s\",\"samples\":%zu,\"steps\":%llu,"
      "\"apparent_fn\":%s,\"static_fp_svd\":%zu,\"static_fp_frd\":%zu,"
      "\"dyn_fp_svd\":%zu,\"dyn_fp_frd\":%zu,\"a_posteriori\":%zu,"
      "\"cus\":%zu}",
      jsonEscape(Name).c_str(), Kind, R.Samples,
      static_cast<unsigned long long>(R.Steps),
      Buggy ? formatString("%zu", R.ApparentFn).c_str() : "null",
      R.SvdStaticFp.size(), R.FrdStaticFp.size(), R.SvdDynFp, R.FrdDynFp,
      R.LogShapes.size(), R.Cus);
}

int runTable2(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 12;

  std::vector<Workload> Ws = table2SuiteWorkloads();
  std::vector<std::vector<SvdFrdPair>> Pairs =
      runPairedSweep(O, Ws, Seeds, sweepSample);

  if (!O.Json) {
    std::puts("== Table 2: SVD vs FRD over execution samples ==");
    std::puts("(columns follow the paper; rates are per million dynamic");
    std::puts(" instructions, totals in parentheses)\n");
  }

  TextTable T({"Program", "M insts", "Samples", "Apparent FN",
               "Static FP SVD", "Static FP FRD", "Dyn FP/M SVD",
               "Dyn FP/M FRD", "A-posteriori", "CUs/M"});
  std::string J =
      formatString("{\"suite\":\"table2\",\"seeds\":%u,\"rows\":[", Seeds);

  for (size_t WI = 0; WI < Ws.size(); ++WI) {
    const Workload &W = Ws[WI];
    RowAccum Err, Clean;
    for (const auto &[S, F] : Pairs[WI])
      accumulateRow(S, F, Err, Clean);
    if (O.Json) {
      addTable2Json(J, W.Name, "erroneous", Err, true);
      addTable2Json(J, W.Name, "bug-free", Clean, false);
    } else {
      addTable2Row(T, W.Name, "erroneous", Err, true);
      addTable2Row(T, W.Name, "bug-free", Clean, false);
    }
  }

  if (O.Json) {
    J += "]}\n";
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::fputs(T.render().c_str(), stdout);
  std::puts("\nReading guide (expected shape versus the paper):");
  std::puts(" * Apparent FN = 0: SVD (online report or CU log) finds every");
  std::puts("   erroneous sample FRD finds.");
  std::puts(" * Apache/MySQL: SVD's dynamic FP rate is a factor below FRD's.");
  std::puts(" * PgSQL: the relation inverts — FRD ~0, SVD a modest rate");
  std::puts("   (the paper's Section 7.2 observation).");
  return 0;
}

//===----------------------------------------------------------------------===//
// sec73 — Section 7.3 false-positive scaling
//===----------------------------------------------------------------------===//

/// The workloads of the Section 7.3 memory table.
std::vector<Workload> sec73MemoryWorkloads() {
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 60;
  P.WorkPadding = 40;
  P.TouchOneIn = 4;
  return {workloads::pgsqlOltp(P), workloads::mysqlPrepared(P),
          workloads::lockedCounters(P), workloads::tidSlab(P)};
}

/// Section 7.3's space overhead on the seed-1 execution of each memory
/// workload: the detector state of each detector configuration, and
/// the share of events the static proofs prune. The time overhead is
/// perfbench's (online_paper).
void printSec73Memory(const SuiteOptions &O) {
  std::vector<Workload> Ws = sec73MemoryWorkloads();
  std::vector<analysis::CuProofs> Proofs;
  for (const Workload &W : Ws)
    Proofs.push_back(analysis::proveAtomicCus(W.Program));

  struct Config {
    const char *Name;
    const char *Detector;
    bool Access, Prune; ///< svd only: wire in the access table / proofs
  };
  const Config Configs[] = {{"svd", "svd", false, false},
                            {"svd+access table", "svd", true, false},
                            {"svd+proofs", "svd", true, true},
                            {"frd", "frd", false, false},
                            {"lockset", "lockset", false, false}};
  std::vector<SampleSpec> Specs;
  for (size_t WI = 0; WI < Ws.size(); ++WI)
    for (const Config &K : Configs) {
      SampleSpec S;
      S.Workload = &Ws[WI];
      S.Detector = K.Detector;
      if (K.Access) {
        detect::OnlineSvdConfig SC = provenConfig(Proofs[WI]);
        if (!K.Prune)
          SC.Proofs = nullptr;
        S.Config.Detector =
            std::make_shared<detect::OnlineSvdDetectorConfig>(SC);
      }
      Specs.push_back(S);
    }
  std::vector<SampleMetrics> Ms = ParallelRunner(runnerConfig(O)).run(Specs);

  std::puts("\n== Section 7.3 memory: detector state (seed 1) ==\n");
  TextTable T({"Workload", "Configuration", "Detector KiB", "Pruned %"});
  auto M = Ms.begin();
  for (size_t WI = 0; WI < Ws.size(); ++WI) {
    double PrunedPct =
        onlineCounts(Ws[WI], provenConfig(Proofs[WI])).prunedPct();
    for (const Config &K : Configs) {
      size_t Bytes = (M++)->DetectorBytes;
      T.addRow({Ws[WI].Name, K.Name,
                // Lockset does not report its memory.
                Bytes == 0 ? "-"
                           : formatString("%.1f",
                                          static_cast<double>(Bytes) / 1024),
                K.Prune ? formatString("%.2f", PrunedPct) : "-"});
    }
  }
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nsvd+access table skips provably thread-local accesses;\n"
            "svd+proofs also skips the accesses of statically proven\n"
            "atomic CUs (Pruned %). Reports are identical in every SVD\n"
            "configuration. Time overheads are measured by perfbench's\n"
            "online_paper workload.");
}

int runSec73(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 4;
  std::vector<Workload> Ws = sec73SuiteWorkloads();
  const std::vector<uint32_t> &Iters = sec73Iterations();
  std::vector<std::vector<SvdFrdPair>> Pairs =
      runPairedSweep(O, Ws, Seeds, sweepSample);

  if (!O.Json)
    std::puts(
        "== Section 7.3: false-positive growth vs execution length ==\n");

  TextTable T({"Iterations", "M insts", "SVD static FP (avg)",
               "SVD dynamic FP (avg)", "SVD dyn FP/M", "FRD dyn FP (avg)"});
  std::string J =
      formatString("{\"suite\":\"sec73\",\"seeds\":%u,\"rows\":[", Seeds);

  for (size_t WI = 0; WI < Ws.size(); ++WI) {
    double Steps = 0, StaticFp = 0, DynFp = 0, FrdDyn = 0;
    uint64_t StepsTotal = 0;
    size_t StaticTotal = 0, DynTotal = 0, FrdTotal = 0;
    for (const auto &[S, F] : Pairs[WI]) {
      Steps += static_cast<double>(S.Steps);
      StaticFp += static_cast<double>(S.StaticFalse);
      DynFp += static_cast<double>(S.DynamicFalse);
      FrdDyn += static_cast<double>(F.DynamicFalse);
      StepsTotal += S.Steps;
      StaticTotal += S.StaticFalse;
      DynTotal += S.DynamicFalse;
      FrdTotal += F.DynamicFalse;
    }
    Steps /= Seeds;
    StaticFp /= Seeds;
    DynFp /= Seeds;
    FrdDyn /= Seeds;
    if (O.Json) {
      if (WI)
        J += ",";
      J += formatString("{\"iterations\":%u,\"steps_total\":%llu,"
                        "\"svd_static_fp_total\":%zu,"
                        "\"svd_dyn_fp_total\":%zu,\"frd_dyn_fp_total\":%zu}",
                        Iters[WI],
                        static_cast<unsigned long long>(StepsTotal),
                        StaticTotal, DynTotal, FrdTotal);
    } else {
      T.addRow({formatString("%u", Iters[WI]),
                formatString("%.2f", Steps / 1e6),
                formatString("%.1f", StaticFp), formatString("%.1f", DynFp),
                formatString("%.2f", DynFp * 1e6 / Steps),
                formatString("%.1f", FrdDyn)});
    }
  }

  if (O.Json) {
    J += "]}\n";
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::fputs(T.render().c_str(), stdout);
  std::puts("\nExpected shape: the static column saturates (it tracks the");
  std::puts("exercised code, which stops growing), the dynamic column");
  std::puts("grows roughly linearly with length (a roughly constant");
  std::puts("per-million rate), and FRD stays at zero on the race-free");
  std::puts("program.");
  printSec73Memory(O);
  return 0;
}

//===----------------------------------------------------------------------===//
// fig1 — Figure 1 benign race
//===----------------------------------------------------------------------===//

int runFig1(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 8;

  // Plain seeds: one instruction per timeslice, not sweepSample's 1-4.
  std::vector<std::vector<SvdFrdPair>> Pairs =
      runPairedSweep(O, fig1SuiteWorkloads(), Seeds, [](uint64_t Seed) {
        SampleConfig C;
        C.Seed = Seed;
        return C;
      });

  size_t SvdDyn = 0, FrdDyn = 0, FrdStatic = 0;
  for (const auto &[S, F] : Pairs.front()) {
    SvdDyn += S.DynamicReports;
    FrdDyn += F.DynamicReports;
    FrdStatic = std::max(FrdStatic, F.StaticReports);
  }

  if (O.Json) {
    std::string J = formatString(
        "{\"suite\":\"fig1\",\"seeds\":%u,\"rows\":["
        "{\"detector\":\"SVD\",\"dynamic_reports\":%zu,"
        "\"static_reports\":0},"
        "{\"detector\":\"FRD\",\"dynamic_reports\":%zu,"
        "\"static_reports\":%zu}]}\n",
        Seeds, SvdDyn, FrdDyn, FrdStatic);
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::puts("== Figure 1: benign race under a table lock ==\n");
  TextTable T({"Detector",
               formatString("Dynamic reports (%u seeds)", Seeds),
               "Static reports"});
  T.addRow({"SVD", formatString("%zu", SvdDyn), "0"});
  T.addRow({"FRD", formatString("%zu", FrdDyn),
            formatString("%zu", FrdStatic)});
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nThe race detector flags the unlocked read of tot_lock; SVD");
  std::puts("observes that the execution remains serializable and is");
  std::puts("silent — the paper's motivating false-positive avoidance.\n");

  // Show the inferred CUs of a short run (locker thread), mirroring the
  // oval of Figure 1(a).
  workloads::WorkloadParams Small;
  Small.Threads = 2;
  Small.Iterations = 2;
  Workload SW = workloads::mysqlTableLock(Small);
  // Same seed derivation as every execution sample (machineConfigFor):
  // "seed 3" in suite output always means the same machine config.
  SampleConfig Demo;
  Demo.Seed = 3;
  vm::Machine M(SW.Program, machineConfigFor(Demo));
  trace::TraceRecorder R(SW.Program);
  M.addObserver(&R);
  M.run();
  cu::CuPartition CUs = cu::CuPartition::compute(R.trace());
  std::puts("Inferred computational units of a 2-iteration run:");
  std::fputs(CUs.describe(R.trace()).c_str(), stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// interproc — function-structured workloads (Call/Ret under detectors)
//===----------------------------------------------------------------------===//

int runInterproc(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 8;
  std::vector<Workload> Ws = interprocSuiteWorkloads();
  std::vector<std::vector<SvdFrdPair>> Pairs =
      runPairedSweep(O, Ws, Seeds, sweepSample);

  if (!O.Json)
    std::puts("== Interproc: function-structured workloads "
              "(Call/Ret under SVD and FRD) ==\n");

  TextTable T({"Workload", "Known bug", "Samples", "Manifested",
               "SVD found", "FRD reports"});
  std::string J =
      formatString("{\"suite\":\"interproc\",\"seeds\":%u,\"rows\":[",
                   Seeds);

  for (size_t WI = 0; WI < Ws.size(); ++WI) {
    const Workload &W = Ws[WI];
    size_t Manifested = 0, SvdFound = 0, FrdReports = 0;
    uint64_t Steps = 0;
    for (const auto &[S, F] : Pairs[WI]) {
      Manifested += S.Manifested;
      SvdFound += S.DetectedBug || S.LogFoundBug;
      FrdReports += F.DynamicReports;
      Steps += S.Steps;
    }
    if (O.Json) {
      if (WI)
        J += ",";
      J += formatString(
          "{\"workload\":\"%s\",\"known_bug\":%s,\"samples\":%u,"
          "\"manifested\":%zu,\"svd_found\":%zu,\"frd_reports\":%zu,"
          "\"steps_total\":%llu}",
          jsonEscape(W.Name).c_str(), W.HasKnownBug ? "true" : "false",
          Seeds, Manifested, SvdFound, FrdReports,
          static_cast<unsigned long long>(Steps));
    } else {
      T.addRow({W.Name, W.HasKnownBug ? "yes" : "no",
                formatString("%u", Seeds), formatString("%zu", Manifested),
                formatString("%zu", SvdFound),
                formatString("%zu", FrdReports)});
    }
  }

  if (O.Json) {
    J += "]}\n";
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::fputs(T.render().c_str(), stdout);
  std::puts("\nProcCache is the correct twin (lock held across both "
            "helper calls); ProcGap drops the lock between `get` and "
            "`put`, so its cross-function read-modify-write loses "
            "updates that SVD's serializability check catches.");
  return 0;
}

//===----------------------------------------------------------------------===//
// predict — static prediction vs directed confirmation
//===----------------------------------------------------------------------===//

int runPredict(const SuiteOptions &O) {
  std::vector<Workload> Ws = predictSuiteWorkloads();

  // predictAndConfirm is a pure function of the program (its directed
  // runs build private Machines), so workloads fan out like samples.
  std::vector<predict::PredictReport> Reps(Ws.size());
  parallelFor(Ws.size(), O.Jobs, [&](size_t I) {
    Reps[I] = predict::predictAndConfirm(Ws[I].Program);
  });

  size_t BuggyConfirmed = 0, CleanConfirmed = 0;
  for (size_t I = 0; I < Ws.size(); ++I)
    (Ws[I].HasKnownBug ? BuggyConfirmed : CleanConfirmed) +=
        Reps[I].numConfirmed();

  if (O.Json) {
    std::string J = "{\"suite\":\"predict\",\"rows\":[";
    for (size_t I = 0; I < Ws.size(); ++I) {
      if (I)
        J += ",";
      J += formatString(
          "{\"workload\":\"%s\",\"predicted\":%zu,\"confirmed\":%zu,"
          "\"directed_runs\":%llu,\"known_bug\":%s}",
          jsonEscape(Ws[I].Name).c_str(), Reps[I].Predictions.size(),
          Reps[I].numConfirmed(),
          static_cast<unsigned long long>(Reps[I].DirectedRuns),
          Ws[I].HasKnownBug ? "true" : "false");
    }
    J += formatString("],\"confirmed_buggy\":%zu,\"confirmed_clean\":%zu}\n",
                      BuggyConfirmed, CleanConfirmed);
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::puts("== svd-predict over the Table 1 workload analogs ==\n");
  std::printf("%-14s %9s %9s %13s %s\n", "workload", "predicted",
              "confirmed", "directed-runs", "known bug?");
  for (size_t I = 0; I < Ws.size(); ++I)
    std::printf("%-14s %9zu %9zu %13zu %s\n", Ws[I].Name.c_str(),
                Reps[I].Predictions.size(), Reps[I].numConfirmed(),
                static_cast<size_t>(Reps[I].DirectedRuns),
                Ws[I].HasKnownBug ? "yes" : "no");

  std::printf("\nconfirmed on buggy workloads: %zu\n", BuggyConfirmed);
  std::printf("confirmed on clean workloads: %zu (benign scoreboard "
              "races excepted, see tests/PredictTest.cpp)\n",
              CleanConfirmed);
  std::puts("\nEvery count in the 'confirmed' column is backed by a "
            "concrete schedule in which the online detector (or an "
            "assertion) fired; 'predicted' minus 'confirmed' is the "
            "noise the confirmation stage filtered.");
  return 0;
}

//===----------------------------------------------------------------------===//
// shadow — large-footprint heaps over the paged shadow tables
//===----------------------------------------------------------------------===//

int runShadow(const SuiteOptions &O) {
  std::vector<ShadowSpec> Specs = shadowSuiteSpecs();

  std::vector<SampleSpec> SampleSpecs;
  for (const ShadowSpec &S : Specs) {
    SampleSpec Spec;
    Spec.Workload = &S.W;
    Spec.Detector = "none";
    Spec.Config.Seed = 1;
    SampleSpecs.push_back(Spec);
  }
  std::vector<SampleMetrics> Ms =
      ParallelRunner(runnerConfig(O)).run(SampleSpecs);

  // A tight CU budget: millions of addresses must run in O(budget) live
  // detector state, on the shared shadow layer.
  detect::OnlineSvdConfig Budget;
  Budget.MaxCuEntries = 512;
  std::vector<OnlineCounts> Counts;
  for (const ShadowSpec &S : Specs)
    Counts.push_back(onlineCounts(S.W, Budget));

  if (O.Json) {
    std::string J = "{\"suite\":\"shadow\",\"rows\":[";
    for (size_t I = 0; I < Specs.size(); ++I) {
      const ShadowSpec &S = Specs[I];
      if (I)
        J += ",";
      J += formatString(
          "{\"name\":\"%s\",\"threads\":%u,\"heap_words\":%llu,"
          "\"distinct_addrs\":%llu,\"dynamic_instrs\":%llu",
          jsonEscape(S.W.Name).c_str(), S.W.Program.numThreads(),
          static_cast<unsigned long long>(S.HeapWords),
          static_cast<unsigned long long>(S.DistinctAddrs),
          static_cast<unsigned long long>(Ms[I].Steps));
      const OnlineCounts &R = Counts[I];
      J += formatString(
          ",\"events\":%llu,\"budget_evictions\":%llu,"
          "\"shadow_pages\":%llu,\"bytes_per_addr\":%.4f}",
          static_cast<unsigned long long>(R.Events),
          static_cast<unsigned long long>(R.BudgetEvictions),
          static_cast<unsigned long long>(R.ShadowPages),
          R.bytesPerAddr(S.DistinctAddrs));
    }
    J += "]}\n";
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::puts("== shadow: large-footprint heaps on the paged state layer ==\n");
  TextTable T({"Name", "Threads", "Heap words", "Distinct addrs",
               "Dynamic instrs (seed 1)"});
  for (size_t I = 0; I < Specs.size(); ++I) {
    const ShadowSpec &S = Specs[I];
    T.addRow({S.W.Name, formatString("%u", S.W.Program.numThreads()),
              formatString("%llu",
                           static_cast<unsigned long long>(S.HeapWords)),
              formatString("%llu",
                           static_cast<unsigned long long>(S.DistinctAddrs)),
              formatString("%llu",
                           static_cast<unsigned long long>(Ms[I].Steps))});
  }
  std::fputs(T.render().c_str(), stdout);

  std::puts("\n== shadow counts: OnlineSvd, sparse tables, 512-CU budget ==\n");
  TextTable CT({"Name", "Events", "Budget evictions", "Shadow pages",
                "Bytes/addr"});
  for (size_t I = 0; I < Specs.size(); ++I) {
    const OnlineCounts &R = Counts[I];
    CT.addRow(
        {Specs[I].W.Name,
         formatString("%llu", static_cast<unsigned long long>(R.Events)),
         formatString("%llu",
                      static_cast<unsigned long long>(R.BudgetEvictions)),
         formatString("%llu", static_cast<unsigned long long>(R.ShadowPages)),
         formatString("%.2f", R.bytesPerAddr(Specs[I].DistinctAddrs))});
  }
  std::fputs(CT.render().c_str(), stdout);
  std::puts("\nUntouched address-space regions cost one pointer compare; "
            "only touched pages materialize, so bytes/addr stays flat as "
            "the heap grows and the CU budget caps live detector state.");
  return 0;
}

//===----------------------------------------------------------------------===//
// serve — streaming daemon totals at every shard count
//===----------------------------------------------------------------------===//

int runServeSuite(const SuiteOptions &O) {
  std::vector<Workload> Ws = serveSuiteWorkloads();
  std::vector<serve::SessionInput> Sessions =
      serveSessions(Ws, O.Seeds ? O.Seeds : 2);

  // Each shard count runs with one worker per shard. Serve reports are
  // jobs-invariant by contract (the svd-serve CompareRuns tests pin
  // that), so the fan-out width never shows in the output.
  const uint32_t ShardCounts[] = {1, 2, 4};
  struct BenchRow {
    uint32_t Shards = 0;
    uint64_t FramesDelivered = 0;
    uint64_t EventsIngested = 0;
    uint64_t Steps = 0;
    size_t Ok = 0;
  };
  std::vector<BenchRow> Rows;
  for (uint32_t K : ShardCounts) {
    serve::ServeConfig C;
    C.Shards = K;
    C.Jobs = K;
    C.Obs = O.Obs;
    serve::ServeReport R = serve::runServe(Sessions, C);
    BenchRow B;
    B.Shards = K;
    B.Ok = R.countOutcome(serve::SessionOutcome::Ok);
    for (const serve::SessionReport &S : R.Sessions) {
      B.FramesDelivered += S.FramesDelivered;
      B.EventsIngested += S.EventsIngested;
      B.Steps += S.Steps;
    }
    Rows.push_back(B);
  }

  if (O.Json) {
    std::string J = "{\"suite\":\"serve\",\"rows\":[";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const BenchRow &B = Rows[I];
      if (I)
        J += ",";
      J += formatString(
          "{\"name\":\"shards%u\",\"shards\":%u,\"sessions\":%zu,"
          "\"ok\":%zu,\"frames_delivered\":%llu,\"events_ingested\":%llu,"
          "\"steps\":%llu",
          B.Shards, B.Shards, Sessions.size(), B.Ok,
          static_cast<unsigned long long>(B.FramesDelivered),
          static_cast<unsigned long long>(B.EventsIngested),
          static_cast<unsigned long long>(B.Steps));
      J += "}";
    }
    J += "]}\n";
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  std::puts("== serve: streaming daemon totals vs shard count ==\n");
  TextTable T({"Shards", "Sessions", "Ok", "Frames", "Events ingested",
               "Steps"});
  for (const BenchRow &B : Rows)
    T.addRow(
        {formatString("%u", B.Shards), formatString("%zu", Sessions.size()),
         formatString("%zu", B.Ok),
         formatString("%llu",
                      static_cast<unsigned long long>(B.FramesDelivered)),
         formatString("%llu",
                      static_cast<unsigned long long>(B.EventsIngested)),
         formatString("%llu", static_cast<unsigned long long>(B.Steps))});
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nEvery session streams its trace through the framed ring "
            "pipeline (src/serve); every field is identical at every shard "
            "count and every fan-out width. Throughput is measured by "
            "perfbench's serve_stream workload.");
  return 0;
}

} // namespace

const std::vector<Suite> &harness::suites() {
  static const std::vector<Suite> Suites = [] {
    std::vector<Suite> S = {
        {"table1", "Table 1 test-program inventory", runTable1,
         table1SuiteWorkloads},
        {"table2", "Table 2 SVD-vs-FRD evaluation (the headline table)",
         runTable2, table2SuiteWorkloads},
        {"sec73", "Section 7.3 FP growth vs length and detector memory",
         runSec73, sec73SuiteWorkloads},
        {"fig1", "Figure 1 benign table-lock race + CU dump", runFig1,
         fig1SuiteWorkloads},
        {"interproc", "function-structured workloads (Call/Ret) under "
                      "SVD and FRD",
         runInterproc, interprocSuiteWorkloads},
        {"predict", "svd-predict static-vs-confirmed report", runPredict,
         predictSuiteWorkloads},
        {"shadow", "large-footprint heaps (millions of addresses) on the "
                   "paged shadow-state layer",
         runShadow, shadowSuiteWorkloads},
        {"serve", "streaming detection daemon (svd-serve) totals at 1, 2 "
                  "and 4 shards",
         runServeSuite, serveSuiteWorkloads},
    };
    S.insert(S.end(), studySuites().begin(), studySuites().end());
    return S;
  }();
  return Suites;
}

const Suite *harness::findSuite(const std::string &Name) {
  for (const Suite &S : suites())
    if (Name == S.Name)
      return &S;
  return nullptr;
}

std::vector<serve::SessionInput>
harness::serveSessions(const std::vector<Workload> &Ws, uint32_t Seeds) {
  std::vector<serve::SessionInput> Sessions;
  uint32_t Id = 0;
  for (const Workload &W : Ws)
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      serve::SessionInput S;
      S.SessionId = Id++;
      S.Work = &W;
      S.Seed = Seed;
      SampleConfig C;
      C.Seed = Seed;
      S.Machine = machineConfigFor(C);
      Sessions.push_back(S);
    }
  return Sessions;
}

std::vector<Workload> harness::suiteWorkloads(const std::string &Name) {
  const Suite *S = findSuite(Name);
  if (!S || !S->Workloads)
    return {};
  return S->Workloads();
}

std::string harness::noWorkloadSetMessage(const std::string &Name) {
  if (findSuite(Name))
    return "suite '" + Name + "' is a paper study and has no workload set";
  return "unknown suite '" + Name + "'";
}
