//===- tests/PropertyTest.cpp - Parameterized property sweeps --------------===//
//
// Cross-cutting invariants checked over seed sweeps and workload
// families (TEST_P / INSTANTIATE_TEST_SUITE_P):
//
//  * determinism: a seed fully determines the execution;
//  * non-perturbation: observers never change the execution;
//  * replay: a recorded schedule reproduces the execution and the
//    detector's verdicts exactly;
//  * checkpoint/restore transparency;
//  * structural well-formedness of the d-PDG and the CU partition;
//  * SVD's semantic core: serial executions are serializable (silent),
//    fully locked programs are silent, and the hardware detector agrees
//    with the software detector on ideal caches.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/Error.h"
#include "cu/CuPartition.h"
#include "pdg/Pdg.h"
#include "race/HappensBefore.h"
#include "race/Lockset.h"
#include "svd/HardwareSvd.h"
#include "svd/OfflineDetector.h"
#include "svd/OnlineSvd.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

using namespace svd;
using trace::EventKind;
using trace::ProgramTrace;
using vm::Machine;
using vm::MachineConfig;

namespace {

/// The workload families swept by the structural properties.
enum class Family { Apache, Mysql, Pgsql, Queue, RandomBuggy, RandomLocked };

const char *familyName(Family F) {
  switch (F) {
  case Family::Apache:
    return "Apache";
  case Family::Mysql:
    return "Mysql";
  case Family::Pgsql:
    return "Pgsql";
  case Family::Queue:
    return "Queue";
  case Family::RandomBuggy:
    return "RandomBuggy";
  case Family::RandomLocked:
    return "RandomLocked";
  }
  return "?";
}

workloads::Workload makeWorkload(Family F, uint64_t Seed) {
  workloads::WorkloadParams P;
  P.Threads = 3;
  P.Iterations = 12;
  P.WorkPadding = 10;
  switch (F) {
  case Family::Apache:
    return workloads::apacheLog(P);
  case Family::Mysql:
    return workloads::mysqlPrepared(P);
  case Family::Pgsql:
    return workloads::pgsqlOltp(P);
  case Family::Queue:
    return workloads::sharedQueue(P);
  case Family::RandomBuggy: {
    workloads::RandomParams R;
    R.Seed = Seed * 31 + 7;
    R.Threads = 3;
    R.Iterations = 20;
    R.OmitLockProbability = 0.3;
    return workloads::randomWorkload(R);
  }
  case Family::RandomLocked: {
    workloads::RandomParams R;
    R.Seed = Seed * 31 + 7;
    R.Threads = 3;
    R.Iterations = 20;
    R.OmitLockProbability = 0.0;
    R.BenignReadProbability = 0.0;
    return workloads::randomWorkload(R);
  }
  }
  SVD_UNREACHABLE("covered switch");
}

struct Param {
  Family F;
  uint64_t Seed;
};

std::vector<Param> allParams() {
  std::vector<Param> Out;
  for (Family F : {Family::Apache, Family::Mysql, Family::Pgsql,
                   Family::Queue, Family::RandomBuggy,
                   Family::RandomLocked})
    for (uint64_t Seed : {1, 5, 9})
      Out.push_back({F, Seed});
  return Out;
}

std::string paramName(const testing::TestParamInfo<Param> &Info) {
  return std::string(familyName(Info.param.F)) + "_seed" +
         std::to_string(Info.param.Seed);
}

class WorkloadProperty : public testing::TestWithParam<Param> {
protected:
  workloads::Workload W = makeWorkload(GetParam().F, GetParam().Seed);
  MachineConfig config() const {
    MachineConfig MC;
    MC.SchedSeed = GetParam().Seed;
    MC.MinTimeslice = 1;
    MC.MaxTimeslice = 3;
    return MC;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Execution-substrate properties.
//===----------------------------------------------------------------------===//

TEST_P(WorkloadProperty, SameSeedSameExecution) {
  Machine A(W.Program, config());
  Machine B(W.Program, config());
  A.run();
  B.run();
  ASSERT_EQ(A.steps(), B.steps());
  EXPECT_EQ(A.schedule(), B.schedule());
  for (isa::Addr Ad = 0; Ad < W.Program.MemoryWords; ++Ad)
    ASSERT_EQ(A.readMem(Ad), B.readMem(Ad)) << "word " << Ad;
}

TEST_P(WorkloadProperty, ObserversDoNotPerturbExecution) {
  Machine Bare(W.Program, config());
  Bare.run();

  Machine Observed(W.Program, config());
  detect::OnlineSvd Svd(W.Program);
  race::HappensBeforeDetector Frd(W.Program);
  race::LocksetDetector Ls(W.Program);
  trace::TraceRecorder Rec(W.Program);
  Observed.addObserver(&Svd);
  Observed.addObserver(&Frd);
  Observed.addObserver(&Ls);
  Observed.addObserver(&Rec);
  Observed.run();

  ASSERT_EQ(Bare.steps(), Observed.steps());
  EXPECT_EQ(Bare.schedule(), Observed.schedule());
  for (isa::Addr Ad = 0; Ad < W.Program.MemoryWords; ++Ad)
    ASSERT_EQ(Bare.readMem(Ad), Observed.readMem(Ad));
}

TEST_P(WorkloadProperty, ReplayReproducesDetectorVerdicts) {
  Machine Original(W.Program, config());
  detect::OnlineSvd Svd1(W.Program);
  Original.addObserver(&Svd1);
  Original.run();

  MachineConfig Other;
  Other.SchedSeed = GetParam().Seed + 1000; // irrelevant under replay
  Machine Replayed(W.Program, Other);
  detect::OnlineSvd Svd2(W.Program);
  Replayed.addObserver(&Svd2);
  Replayed.setReplaySchedule(Original.schedule());
  Replayed.run();

  ASSERT_EQ(Svd1.violations().size(), Svd2.violations().size());
  for (size_t I = 0; I < Svd1.violations().size(); ++I) {
    EXPECT_EQ(Svd1.violations()[I].Seq, Svd2.violations()[I].Seq);
    EXPECT_EQ(Svd1.violations()[I].staticKey(),
              Svd2.violations()[I].staticKey());
  }
  EXPECT_EQ(Svd1.cuLog().size(), Svd2.cuLog().size());
}

TEST_P(WorkloadProperty, CheckpointRestoreIsTransparent) {
  Machine A(W.Program, config());
  vm::StopReason R;
  for (int I = 0; I < 50 && A.stepOnce(R); ++I) {
  }
  vm::Checkpoint C = A.checkpoint();
  A.run();
  uint64_t FinalSteps = A.steps();
  std::vector<isa::Word> FinalMem;
  for (isa::Addr Ad = 0; Ad < W.Program.MemoryWords; ++Ad)
    FinalMem.push_back(A.readMem(Ad));

  A.restore(C);
  A.run();
  ASSERT_EQ(A.steps(), FinalSteps);
  for (isa::Addr Ad = 0; Ad < W.Program.MemoryWords; ++Ad)
    ASSERT_EQ(A.readMem(Ad), FinalMem[Ad]) << "word " << Ad;
}

//===----------------------------------------------------------------------===//
// Structural properties of the analyses.
//===----------------------------------------------------------------------===//

TEST_P(WorkloadProperty, PdgArcsAreWellFormed) {
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  for (const pdg::DepArc &A : G.arcs()) {
    ASSERT_LT(A.From, A.To) << "arcs must follow execution order";
    if (A.Kind == pdg::DepKind::Conflict) {
      EXPECT_NE(T[A.From].Tid, T[A.To].Tid);
      EXPECT_TRUE(A.ViaMemory);
    } else {
      EXPECT_EQ(T[A.From].Tid, T[A.To].Tid);
    }
    if (A.Kind == pdg::DepKind::Control) {
      EXPECT_EQ(T[A.From].Kind, EventKind::Branch);
    }
    if (A.Kind == pdg::DepKind::TrueShared) {
      EXPECT_TRUE(A.ViaMemory);
      EXPECT_TRUE(T.isSharedAddress(A.Address));
    }
  }
}

TEST_P(WorkloadProperty, CuPartitionIsWellFormed) {
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  cu::CuPartition CUs = cu::CuPartition::compute(T);

  std::vector<bool> Seen(T.size(), false);
  for (const cu::ComputationalUnit &U : CUs.units()) {
    ASSERT_FALSE(U.Events.empty());
    for (uint32_t E : U.Events) {
      ASSERT_FALSE(Seen[E]) << "event in two CUs";
      Seen[E] = true;
      EXPECT_EQ(T[E].Tid, U.Tid);
      EXPECT_EQ(CUs.unitOf(E), U.Id);
      EXPECT_GE(T[E].Seq, U.BeginSeq);
      EXPECT_LE(T[E].Seq, U.EndSeq);
    }
  }
  // Every dynamic statement is in exactly one CU.
  for (uint32_t E = 0; E < T.size(); ++E) {
    bool IsStatement =
        T[E].Kind == EventKind::Load || T[E].Kind == EventKind::Store ||
        T[E].Kind == EventKind::Alu || T[E].Kind == EventKind::Branch;
    EXPECT_EQ(Seen[E], IsStatement);
  }
}

TEST_P(WorkloadProperty, PdgIncomingVisitsEachArcOnce) {
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  std::vector<uint32_t> Visits(G.arcs().size(), 0);
  for (uint32_t E = 0; E < T.size(); ++E)
    for (const pdg::DepArc &A : G.incoming(E)) {
      size_t Idx = static_cast<size_t>(&A - G.arcs().data());
      ASSERT_LT(Idx, G.arcs().size());
      EXPECT_EQ(A.To, E);
      ++Visits[Idx];
    }
  for (size_t Idx = 0; Idx < Visits.size(); ++Idx)
    ASSERT_EQ(Visits[Idx], 1u) << "arc " << Idx;
}

namespace {

/// The arcs ending at \p E in \p G whose family the conflict walker
/// yields (\p Conflict) or the thread walker yields (!\p Conflict), in
/// stored order.
std::vector<pdg::DepArc> storedFamily(const pdg::DynamicPdg &G, uint32_t E,
                                      bool Conflict) {
  std::vector<pdg::DepArc> Out;
  for (const pdg::DepArc &A : G.incoming(E))
    if ((A.Kind == pdg::DepKind::Conflict) == Conflict)
      Out.push_back(A);
  return Out;
}

void expectSameArcs(std::span<const pdg::DepArc> Walked,
                    const std::vector<pdg::DepArc> &Stored, uint32_t E,
                    const char *Walker) {
  ASSERT_EQ(Walked.size(), Stored.size()) << Walker << ", event " << E;
  for (size_t I = 0; I < Walked.size(); ++I) {
    const pdg::DepArc &A = Walked[I], &B = Stored[I];
    EXPECT_EQ(A.From, B.From) << Walker << ", event " << E << " arc " << I;
    EXPECT_EQ(A.To, B.To) << Walker << ", event " << E << " arc " << I;
    EXPECT_EQ(A.Kind, B.Kind) << Walker << ", event " << E << " arc " << I;
    EXPECT_EQ(A.ViaMemory, B.ViaMemory)
        << Walker << ", event " << E << " arc " << I;
    EXPECT_EQ(A.Address, B.Address)
        << Walker << ", event " << E << " arc " << I;
  }
}

} // namespace

// One property per walker of the d-PDG: each yields, for every event,
// exactly the stored graph's arcs of its family, in stored order. The
// thread walker's property keeps the name of the single walk it split
// from (forEachThreadIncoming and forEachConflictIncoming).
TEST_P(WorkloadProperty, ForEachIncomingMatchesBuild) {
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);

  // True and control arcs, every event exactly once, each thread's
  // events ascending and the threads in Tid order.
  std::vector<uint32_t> Visits(T.size(), 0);
  int64_t Prev = -1;
  pdg::forEachThreadIncoming(
      T, [&](uint32_t E, std::span<const pdg::DepArc> In) {
        ASSERT_LT(E, T.size());
        ++Visits[E];
        if (Prev >= 0) {
          const trace::TraceEvent &P = T[static_cast<uint32_t>(Prev)];
          EXPECT_TRUE(P.Tid < T[E].Tid ||
                      (P.Tid == T[E].Tid && Prev < int64_t(E)))
              << "event " << E << " after event " << Prev;
        }
        Prev = E;
        expectSameArcs(In, storedFamily(G, E, /*Conflict=*/false), E,
                       "thread walker");
      });
  for (uint32_t E = 0; E < T.size(); ++E)
    ASSERT_EQ(Visits[E], 1u) << "thread walker, event " << E;
}

TEST_P(WorkloadProperty, ForEachConflictIncomingMatchesBuild) {
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);

  // Conflict arcs, every event once, ascending.
  uint32_t Next = 0;
  pdg::forEachConflictIncoming(
      T, [&](uint32_t E, std::span<const pdg::DepArc> In) {
        ASSERT_EQ(E, Next++) << "conflict walker: events once, ascending";
        expectSameArcs(In, storedFamily(G, E, /*Conflict=*/true), E,
                       "conflict walker");
      });
  EXPECT_EQ(Next, T.size());
}

TEST_P(WorkloadProperty, StreamedFigure5EqualsStoredGraph) {
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  testutil::expectSamePartition(
      T, cu::CuPartition::compute(T),
      cu::CuPartition::compute(T, pdg::DynamicPdg::build(T)));
}

TEST_P(WorkloadProperty, CuSharedWritesAreTheUnitsSharedStores) {
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  cu::CuPartition CUs = cu::CuPartition::compute(T);
  for (const cu::ComputationalUnit &U : CUs.units()) {
    for (size_t I = 1; I < U.SharedWrites.size(); ++I)
      EXPECT_LT(U.SharedWrites[I - 1], U.SharedWrites[I]) << "CU " << U.Id;
    std::vector<isa::Addr> Stored;
    for (uint32_t E : U.Events)
      if (T[E].Kind == EventKind::Store && T.isSharedAddress(T[E].Address))
        Stored.push_back(T[E].Address);
    std::sort(Stored.begin(), Stored.end());
    Stored.erase(std::unique(Stored.begin(), Stored.end()), Stored.end());
    EXPECT_EQ(U.SharedWrites, Stored) << "CU " << U.Id;
  }
}

TEST_P(WorkloadProperty, NoCuContainsATrueSharedArc) {
  // Definition 2: a true-shared dependence crosses a CU boundary.
  ProgramTrace T = testutil::recordRun(W.Program, GetParam().Seed);
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  cu::CuPartition CUs = cu::CuPartition::compute(T, G);
  for (const pdg::DepArc &A : G.arcs()) {
    if (A.Kind == pdg::DepKind::TrueShared) {
      EXPECT_NE(CUs.unitOf(A.From), CUs.unitOf(A.To))
          << "seq " << T[A.From].Seq << " -> " << T[A.To].Seq;
    }
  }
}

TEST_P(WorkloadProperty, ViolationReportsAreWellFormed) {
  Machine M(W.Program, config());
  detect::OnlineSvd Svd(W.Program);
  M.addObserver(&Svd);
  M.run();
  for (const detect::Violation &V : Svd.violations()) {
    EXPECT_NE(V.Tid, V.OtherTid);
    EXPECT_LT(V.Address, W.Program.MemoryWords);
    EXPECT_LT(V.Pc, W.Program.Threads[V.Tid].Code.size());
    EXPECT_LT(V.OtherPc, W.Program.Threads[V.OtherTid].Code.size());
    EXPECT_LE(V.OtherSeq, V.Seq);
  }
}

//===----------------------------------------------------------------------===//
// Semantic properties of the detectors.
//===----------------------------------------------------------------------===//

TEST_P(WorkloadProperty, SerialExecutionsAreSerializable) {
  // With serial scheduling there is no interleaving inside any CU, so
  // SVD (which checks executions, unlike race detectors) must be
  // silent — even on the buggy programs.
  MachineConfig MC = config();
  MC.SerialMode = true;
  Machine M(W.Program, MC);
  detect::OnlineSvd Svd(W.Program);
  M.addObserver(&Svd);
  vm::StopReason R = M.run();
  if (R != vm::StopReason::AllHalted)
    GTEST_SKIP() << "serial run deadlocked (lock order dependent)";
  EXPECT_TRUE(Svd.violations().empty());
}

TEST_P(WorkloadProperty, HardwareAgreesWithSoftwareOnIdealCache) {
  Machine M(W.Program, config());
  detect::OnlineSvd Sw(W.Program);
  detect::HardwareSvdConfig HC;
  HC.Cache.NumCpus = W.Program.numThreads();
  HC.Cache.Sets = 4096;
  HC.Cache.Ways = 4;
  HC.Cache.LineWords = 1;
  detect::HardwareSvd Hw(W.Program, HC);
  M.addObserver(&Sw);
  M.addObserver(&Hw);
  M.run();
  EXPECT_EQ(Sw.violations().empty(), Hw.violations().empty());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadProperty,
                         testing::ValuesIn(allParams()), paramName);

//===----------------------------------------------------------------------===//
// Seed sweep: fully locked random programs keep every detector silent.
//===----------------------------------------------------------------------===//

class LockedSilence : public testing::TestWithParam<uint64_t> {};

TEST_P(LockedSilence, AllDetectorsSilent) {
  workloads::RandomParams R;
  R.Seed = GetParam();
  R.Threads = 4;
  R.Iterations = 25;
  R.OmitLockProbability = 0.0;
  R.BenignReadProbability = 0.0;
  workloads::Workload W = workloads::randomWorkload(R);

  MachineConfig MC;
  MC.SchedSeed = GetParam() * 17 + 3;
  Machine M(W.Program, MC);
  detect::OnlineSvd Svd(W.Program);
  race::HappensBeforeDetector Frd(W.Program);
  race::LocksetDetector Ls(W.Program);
  M.addObserver(&Svd);
  M.addObserver(&Frd);
  M.addObserver(&Ls);
  M.run();
  EXPECT_TRUE(Svd.violations().empty());
  EXPECT_TRUE(Frd.races().empty());
  EXPECT_TRUE(Ls.reports().empty());
  EXPECT_FALSE(W.Manifested(M));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockedSilence,
                         testing::Range<uint64_t>(1, 11));

//===----------------------------------------------------------------------===//
// Seed sweep: lost updates imply a racy report from FRD and (serial
// scheduling aside) usually from SVD; the manifested bug never hides
// from *both* detector families.
//===----------------------------------------------------------------------===//

class BuggySweep : public testing::TestWithParam<uint64_t> {};

TEST_P(BuggySweep, ManifestedBugsLeaveEvidence) {
  workloads::RandomParams R;
  R.Seed = 77;
  R.Threads = 4;
  R.Iterations = 30;
  R.OmitLockProbability = 0.5;
  workloads::Workload W = workloads::randomWorkload(R);

  MachineConfig MC;
  MC.SchedSeed = GetParam();
  Machine M(W.Program, MC);
  detect::OnlineSvd Svd(W.Program);
  race::HappensBeforeDetector Frd(W.Program);
  M.addObserver(&Svd);
  M.addObserver(&Frd);
  M.run();
  if (!W.Manifested(M))
    GTEST_SKIP() << "bug did not manifest under this seed";
  // A lost update is a data race by construction: FRD must see it.
  EXPECT_FALSE(Frd.races().empty());
  // SVD sees it online or in the a-posteriori log.
  EXPECT_TRUE(!Svd.violations().empty() || !Svd.cuLog().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuggySweep,
                         testing::Range<uint64_t>(1, 11));

//===----------------------------------------------------------------------===//
// Differential validation of the offline algorithm (Figures 5-6): like
// the online detector, it must be silent on serial executions, where
// every inferred CU trivially serializes.
//===----------------------------------------------------------------------===//

class OfflineSerial : public testing::TestWithParam<Param> {};

TEST_P(OfflineSerial, OfflineDetectorSilentOnSerialExecutions) {
  workloads::Workload W = makeWorkload(GetParam().F, GetParam().Seed);
  MachineConfig MC;
  MC.SchedSeed = GetParam().Seed;
  MC.SerialMode = true;
  Machine M(W.Program, MC);
  trace::TraceRecorder Rec(W.Program);
  M.addObserver(&Rec);
  if (M.run() != vm::StopReason::AllHalted)
    GTEST_SKIP() << "serial run deadlocked (lock order dependent)";
  detect::OfflineAnalysis A = detect::runOfflinePipeline(Rec.trace());
  EXPECT_EQ(A.Error, "");
  EXPECT_TRUE(A.Reports.empty());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OfflineSerial,
                         testing::ValuesIn(allParams()), paramName);
