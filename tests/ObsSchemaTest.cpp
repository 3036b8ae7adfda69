//===- tests/ObsSchemaTest.cpp - Instrument-key schema pin ----------------===//
//
// The obs registry's counter/timer names are a stable schema (DESIGN.md
// section 15): golden counter inventories and svd-metrics-v1 consumers
// key on them. obs::isDocumentedKey is the machine-checkable twin of
// the document; this test drives every registered detector, a faulted
// sweep, a budget-degraded sample, and the parallel runner through one
// registry and fails on any exported key the schema doesn't cover — so
// a new instrument must land together with its documentation.
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "harness/Harness.h"
#include "harness/Runner.h"
#include "obs/Obs.h"
#include "svd/OnlineSvd.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::harness;
using workloads::Workload;
using workloads::WorkloadParams;

TEST(ObsSchema, AcceptsDocumentedKeys) {
  EXPECT_TRUE(obs::isDocumentedKey("vm.instructions"));
  EXPECT_TRUE(obs::isDocumentedKey("harness.samples"));
  EXPECT_TRUE(obs::isDocumentedKey("detect.svd.reports"));
  EXPECT_TRUE(obs::isDocumentedKey("detect.svd.cus_ended"));
  EXPECT_TRUE(obs::isDocumentedKey("detect.frd.events"));
  EXPECT_TRUE(obs::isDocumentedKey("detect.none.memory_bytes"));
  EXPECT_TRUE(obs::isDocumentedKey("detect.hwsvd.cache.hits"));
  EXPECT_TRUE(obs::isDocumentedKey("detect.offline.degraded"));
  EXPECT_TRUE(obs::isDocumentedKey("shadow.svd.pages"));
  EXPECT_TRUE(obs::isDocumentedKey("shadow.lockset.bytes"));
  EXPECT_TRUE(obs::isDocumentedKey("svd.cu_pruned_events"));
  EXPECT_TRUE(obs::isDocumentedKey("analysis.proven_cus"));
  EXPECT_TRUE(obs::isDocumentedKey("fault.preemptions"));
  EXPECT_TRUE(obs::isDocumentedKey("runner.total"));
  EXPECT_TRUE(obs::isDocumentedKey("harness.sample.detector_run"));
}

TEST(ObsSchema, RejectsUndocumentedKeys) {
  EXPECT_FALSE(obs::isDocumentedKey(""));
  EXPECT_FALSE(obs::isDocumentedKey("vm.bogus"));
  EXPECT_FALSE(obs::isDocumentedKey("totally.made.up"));
  EXPECT_FALSE(obs::isDocumentedKey("detect."));
  EXPECT_FALSE(obs::isDocumentedKey("detect.svd"));
  EXPECT_FALSE(obs::isDocumentedKey("detect.svd."));
  EXPECT_FALSE(obs::isDocumentedKey("detect.svd.bogus"));
  EXPECT_FALSE(obs::isDocumentedKey("shadow.svd.bogus"));
  EXPECT_FALSE(obs::isDocumentedKey("shadow..pages"));
  EXPECT_FALSE(obs::isDocumentedKey("fault.bogus"));
}

TEST(ObsSchema, EveryExportedInstrumentIsDocumented) {
  obs::Registry R;

  // Small enough that every registered detector accepts it (hwsvd
  // requires numThreads <= its default 4-CPU cache).
  WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 10;
  Workload W = workloads::apacheLog(P);

  // Every registered detector exports through one registry.
  for (const std::string &Name : detectorRegistry().names()) {
    SampleConfig C;
    C.Seed = 3;
    C.Obs = &R;
    runSample(W, Name, C);
  }

  // The fault counters only appear under an active plan; run the whole
  // default matrix so every fault.* key is exported. Crashing plans
  // throw out of bare runSample (containment lives in ParallelRunner),
  // and a crashed sample skips its export — the non-crashing plans
  // still cover the fault.* namespace.
  for (const fault::FaultPlanConfig &PC : fault::defaultPlanMatrix(4)) {
    fault::FaultPlan Plan(PC, /*Seed=*/5);
    SampleConfig C;
    C.Seed = 5;
    C.Obs = &R;
    C.Faults = &Plan;
    try {
      runSample(W, "svd", C);
    } catch (const fault::InjectedCrash &) {
    }
  }

  // Degradation counters only appear on degraded samples; force one
  // with a tiny state budget through DetectorConfig::MaxStateEntries.
  {
    auto DC = std::make_shared<detect::OnlineSvdDetectorConfig>();
    DC->MaxStateEntries = 2;
    SampleConfig C;
    C.Seed = 3;
    C.Obs = &R;
    C.Detector = DC;
    runSample(W, "svd", C);
  }

  // Runner keys (runner.*) come from the parallel sample engine.
  {
    std::vector<SampleSpec> Specs;
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      SampleSpec S;
      S.Workload = &W;
      S.Detector = "svd";
      S.Config.Seed = Seed;
      Specs.push_back(S);
    }
    RunnerConfig RC;
    RC.Jobs = 2;
    RC.Obs = &R;
    ParallelRunner(RC).run(Specs);
  }

  for (const auto &[Name, V] : R.counters())
    EXPECT_TRUE(obs::isDocumentedKey(Name))
        << "undocumented counter '" << Name
        << "' — add it to DESIGN.md section 15 and obs::isDocumentedKey";
  for (const auto &[Name, S] : R.timers())
    EXPECT_TRUE(obs::isDocumentedKey(Name))
        << "undocumented timer '" << Name
        << "' — add it to DESIGN.md section 15 and obs::isDocumentedKey";
}
