//===- tests/HarnessTest.cpp - Experiment harness tests --------------------===//

#include "harness/Harness.h"
#include "harness/Runner.h"
#include "obs/Obs.h"
#include "support/StringUtils.h"
#include "svd/OnlineSvd.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

using namespace svd;
using namespace svd::harness;
using workloads::Workload;
using workloads::WorkloadParams;

TEST(Harness, RegistryKnowsAllDetectors) {
  const detect::DetectorRegistry &R = detectorRegistry();
  EXPECT_EQ(R.find("no-such-detector"), nullptr);
  // names() is sorted and covers exactly the registered set.
  EXPECT_EQ(R.names(),
            (std::vector<std::string>{"frd", "hwsvd", "lockset", "none",
                                      "offline", "svd"}));
}

TEST(Harness, CreatedDetectorsReportTheirName) {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 2;
  Workload W = workloads::pgsqlOltp(P);
  for (const std::string &Name : detectorRegistry().names()) {
    std::unique_ptr<detect::Detector> D =
        detectorRegistry().create(Name, W.Program, nullptr);
    ASSERT_NE(D, nullptr) << Name;
    EXPECT_EQ(Name, D->name());
  }
}

TEST(Harness, SvdDetectsApacheBugOnManifestingSeed) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  Workload W = workloads::apacheLog(P);
  bool FoundManifestingSeed = false;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    SampleConfig C;
    C.Seed = Seed;
    SampleMetrics M = runSample(W, "svd", C);
    if (!M.Manifested)
      continue;
    FoundManifestingSeed = true;
    EXPECT_TRUE(M.DetectedBug) << "seed " << Seed;
    EXPECT_GT(M.DynamicTrue, 0u);
    EXPECT_GT(M.StaticTrue, 0u);
    EXPECT_GT(M.CusFormed, 0u);
  }
  EXPECT_TRUE(FoundManifestingSeed);
}

TEST(Harness, MachineConfigForIsTheOneDerivation) {
  SampleConfig C;
  C.Seed = 42;
  C.MinTimeslice = 3;
  C.MaxTimeslice = 9;
  C.MaxSteps = 1234;
  vm::MachineConfig MC = machineConfigFor(C);
  EXPECT_EQ(MC.SchedSeed, 42u);
  EXPECT_EQ(MC.RndSeed, 42u ^ RndSeedSalt);
  EXPECT_EQ(MC.MinTimeslice, 3u);
  EXPECT_EQ(MC.MaxTimeslice, 9u);
  EXPECT_EQ(MC.MaxSteps, 1234u);
}

TEST(Harness, SuitePathAndDirectMachineAgreeOnSteps) {
  // The pre-PR-4 table1 bench built a bare default-configured Machine
  // (SchedSeed 1, default RndSeed) while the suite path derived its
  // config inside runSample — same "seed 1" caption, different
  // instruction counts. machineConfigFor is now the one derivation: a
  // Machine built directly from it must replay runSample's execution
  // step-for-step.
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 10;
  Workload W = workloads::pgsqlOltp(P);
  SampleConfig C;
  C.Seed = 1;
  SampleMetrics M = runSample(W, "none", C);
  vm::Machine Direct(W.Program, machineConfigFor(C));
  Direct.run();
  EXPECT_EQ(Direct.steps(), M.Steps);
}

TEST(Harness, SameSeedSameStepsAcrossDetectors) {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 10;
  Workload W = workloads::pgsqlOltp(P);
  SampleConfig C;
  C.Seed = 5;
  SampleMetrics A = runSample(W, "svd", C);
  SampleMetrics B = runSample(W, "frd", C);
  SampleMetrics L = runSample(W, "lockset", C);
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Steps, L.Steps);
}

TEST(Harness, BenignRaceSplitsDetectorsOnTableLock) {
  WorkloadParams P;
  P.Threads = 3;
  P.Iterations = 20;
  Workload W = workloads::mysqlTableLock(P);
  size_t FrdReports = 0;
  size_t SvdReports = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SampleConfig C;
    C.Seed = Seed;
    FrdReports += runSample(W, "frd", C).DynamicReports;
    SvdReports += runSample(W, "svd", C).DynamicReports;
  }
  EXPECT_GT(FrdReports, 0u) << "FRD must report the benign race";
  EXPECT_EQ(SvdReports, 0u) << "SVD must stay silent (serializable)";
}

TEST(Harness, PgsqlIsRaceFreeForFrd) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 15;
  Workload W = workloads::pgsqlOltp(P);
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    SampleConfig C;
    C.Seed = Seed;
    SampleMetrics M = runSample(W, "frd", C);
    EXPECT_EQ(M.DynamicReports, 0u) << "seed " << Seed;
  }
}

TEST(Harness, OverheadMeasurementProducesTimes) {
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 30;
  Workload W = workloads::pgsqlOltp(P);
  obs::Registry R;
  SampleConfig C;
  C.Seed = 1;
  C.Obs = &R;
  SampleMetrics M = runSample(W, "svd", C);
  EXPECT_GT(M.DetectorBytes, 0u);
  // The detector run is timed into the registry, once per sample.
  auto Timers = R.timers();
  ASSERT_EQ(Timers.size(), 1u);
  EXPECT_EQ(Timers[0].first, "harness.sample.detector_run");
  EXPECT_EQ(Timers[0].second.Count, 1u);
  EXPECT_GT(Timers[0].second.TotalNs, 0u);
}

TEST(Harness, TextTableRendersAligned) {
  TextTable T({"name", "value"});
  T.addRow({"alpha", "1"});
  T.addRow({"b", "22222"});
  std::string R = T.render();
  EXPECT_NE(R.find("| name"), std::string::npos);
  EXPECT_NE(R.find("| alpha"), std::string::npos);
  EXPECT_NE(R.find("|---"), std::string::npos);
  // All four lines end with a pipe.
  for (const std::string &Line : support::splitString(R, '\n'))
    if (!Line.empty()) {
      EXPECT_EQ(Line.back(), '|');
    }
}

TEST(Harness, TimesliceConfigChangesExecution) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  Workload W = workloads::apacheLog(P);
  SampleConfig Fine;
  Fine.Seed = 3;
  SampleConfig Coarse;
  Coarse.Seed = 3;
  Coarse.MinTimeslice = 40;
  Coarse.MaxTimeslice = 80;
  SampleMetrics A = runSample(W, "svd", Fine);
  SampleMetrics B = runSample(W, "svd", Coarse);
  // Different interleavings; both still execute the whole program.
  EXPECT_GT(A.Steps, 0u);
  EXPECT_GT(B.Steps, 0u);
}

//===----------------------------------------------------------------------===//
// ParallelRunner determinism
//===----------------------------------------------------------------------===//

namespace {

/// Every deterministic field of SampleMetrics (timing excluded) must be
/// identical between a serial and a parallel collection of the same
/// spec.
void expectSameMetrics(const SampleMetrics &A, const SampleMetrics &B,
                       size_t Index) {
  EXPECT_EQ(A.Steps, B.Steps) << "sample " << Index;
  EXPECT_EQ(A.Manifested, B.Manifested) << "sample " << Index;
  EXPECT_EQ(A.DetectedBug, B.DetectedBug) << "sample " << Index;
  EXPECT_EQ(A.LogFoundBug, B.LogFoundBug) << "sample " << Index;
  EXPECT_EQ(A.DynamicReports, B.DynamicReports) << "sample " << Index;
  EXPECT_EQ(A.DynamicTrue, B.DynamicTrue) << "sample " << Index;
  EXPECT_EQ(A.DynamicFalse, B.DynamicFalse) << "sample " << Index;
  EXPECT_EQ(A.StaticReports, B.StaticReports) << "sample " << Index;
  EXPECT_EQ(A.StaticTrue, B.StaticTrue) << "sample " << Index;
  EXPECT_EQ(A.StaticFalse, B.StaticFalse) << "sample " << Index;
  EXPECT_EQ(A.CusFormed, B.CusFormed) << "sample " << Index;
  EXPECT_EQ(A.LogEntries, B.LogEntries) << "sample " << Index;
  EXPECT_EQ(A.StaticLogEntries, B.StaticLogEntries) << "sample " << Index;
  EXPECT_EQ(A.DetectorBytes, B.DetectorBytes) << "sample " << Index;
  EXPECT_EQ(A.StaticFalseKeys, B.StaticFalseKeys) << "sample " << Index;
  EXPECT_EQ(A.StaticTrueKeys, B.StaticTrueKeys) << "sample " << Index;
  EXPECT_EQ(A.StaticLogKeys, B.StaticLogKeys) << "sample " << Index;
}

/// The Table 2-style spec mix: two workloads, several seeds, paired
/// svd/frd samples with coarse timeslices.
std::vector<SampleSpec> makeSpecMix(const Workload &Apache,
                                    const Workload &Pgsql) {
  std::vector<SampleSpec> Specs;
  for (const Workload *W : {&Apache, &Pgsql})
    for (uint64_t Seed = 1; Seed <= 6; ++Seed)
      for (const char *Det : {"svd", "frd"}) {
        SampleSpec S;
        S.Workload = W;
        S.Detector = Det;
        S.Config.Seed = Seed;
        S.Config.MinTimeslice = 1;
        S.Config.MaxTimeslice = 4;
        Specs.push_back(S);
      }
  return Specs;
}

} // namespace

TEST(Runner, ResolveJobs) {
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
  EXPECT_GE(resolveJobs(0), 1u);
}

TEST(Runner, ParallelForRunsEveryIndexOnce) {
  std::vector<std::atomic<int>> Counts(100);
  parallelFor(Counts.size(), 4,
              [&](size_t I) { Counts[I].fetch_add(1); });
  for (size_t I = 0; I < Counts.size(); ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(Runner, ParallelMatchesSerialUnderCompletionPermutations) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  P.TouchOneIn = 4;
  Workload Apache = workloads::apacheLog(P);
  Workload Pgsql = workloads::pgsqlOltp(P);
  std::vector<SampleSpec> Specs = makeSpecMix(Apache, Pgsql);

  RunnerConfig Serial;
  Serial.Jobs = 1;
  std::vector<SampleMetrics> Base = ParallelRunner(Serial).run(Specs);
  ASSERT_EQ(Base.size(), Specs.size());

  // Several pickup permutations: samples complete in a different order
  // each time, results must not.
  for (uint64_t Shuffle : {0ull, 7ull, 0xDEADBEEFull}) {
    RunnerConfig RC;
    RC.Jobs = 4;
    RC.PickupShuffleSeed = Shuffle;
    std::vector<SampleMetrics> Par = ParallelRunner(RC).run(Specs);
    ASSERT_EQ(Par.size(), Base.size());
    for (size_t I = 0; I < Base.size(); ++I)
      expectSameMetrics(Base[I], Par[I], I);

    // The cross-sample static-key unions (the Table 2 "static FP per
    // row" sets) fold identically too.
    std::set<uint64_t> FalseBase, FalsePar, TrueBase, TruePar;
    for (size_t I = 0; I < Base.size(); ++I) {
      FalseBase.insert(Base[I].StaticFalseKeys.begin(),
                       Base[I].StaticFalseKeys.end());
      FalsePar.insert(Par[I].StaticFalseKeys.begin(),
                      Par[I].StaticFalseKeys.end());
      TrueBase.insert(Base[I].StaticTrueKeys.begin(),
                      Base[I].StaticTrueKeys.end());
      TruePar.insert(Par[I].StaticTrueKeys.begin(),
                     Par[I].StaticTrueKeys.end());
    }
    EXPECT_EQ(FalseBase, FalsePar);
    EXPECT_EQ(TrueBase, TruePar);
    EXPECT_FALSE(FalseBase.empty())
        << "spec mix must exercise static false positives";
    EXPECT_FALSE(TrueBase.empty())
        << "spec mix must exercise static true positives";
  }
}

TEST(Runner, PerDetectorConfigTravelsThroughSpecs) {
  WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 20;
  Workload W = workloads::mysqlPrepared(P);
  SampleSpec Paper;
  Paper.Workload = &W;
  Paper.Config.Seed = 2;
  detect::OnlineSvdConfig AllBlocks;
  AllBlocks.CheckInputBlocksOnly = false;
  SampleSpec S = Paper;
  S.Config.Detector =
      std::make_shared<detect::OnlineSvdDetectorConfig>(AllBlocks);
  RunnerConfig RC;
  RC.Jobs = 2;
  std::vector<SampleMetrics> Ms =
      ParallelRunner(RC).run({S, S, Paper}); // configured spec twice
  ASSERT_EQ(Ms.size(), 3u);
  // Checking write sets too can only add reports, and this workload's
  // remote writes hit CU outputs: strictly more than the paper
  // configuration shows each spec carried its config.
  EXPECT_GT(Ms[0].DynamicReports, Ms[2].DynamicReports);
  EXPECT_EQ(Ms[0].DynamicReports, Ms[1].DynamicReports);
  EXPECT_EQ(Ms[0].Steps, Ms[1].Steps);
}
