//===- harness/Studies.cpp ------------------------------------------------===//
//
// The paper-study suites: Figures 2, 3, 4 and 9, the Section 4.2-4.3
// ablations, BER bug avoidance, Section 3.3's exact test, Section 4.4's
// hardware SVD, Section 8's detector zoo and Section 4.3's migration
// study. They print text only.
//
// Every seeded execution derives its machine from machineConfigFor, so
// "seed N" means the same execution here as in every other suite.
// Studies that attach several detectors to one Machine, or read its
// reports directly, build that Machine themselves and spread seeds with
// parallelFor; the rest fan their samples through ParallelRunner. The
// replayed micro-scenarios have no seed and run on a default Machine.
//
//===----------------------------------------------------------------------===//

#include "harness/Studies.h"

#include "ber/Recovery.h"
#include "cu/CuPartition.h"
#include "isa/Assembler.h"
#include "pdg/Pdg.h"
#include "race/Atomizer.h"
#include "race/HappensBefore.h"
#include "race/Lockset.h"
#include "race/StaleValue.h"
#include "support/StringUtils.h"
#include "svd/HardwareSvd.h"
#include "svd/OfflineDetector.h"
#include "svd/OnlineSvd.h"
#include "svd/SerializabilityGraph.h"
#include "trace/Trace.h"

#include <cstdio>
#include <map>
#include <set>

using namespace svd;
using namespace svd::harness;
using detect::OnlineSvdConfig;
using support::formatString;
using workloads::Workload;

namespace {

/// Runs Fn(sweepSample(S)) for seeds S = 1..N on O.Jobs workers and
/// returns the results in seed order.
template <typename R, typename Fn>
std::vector<R> forSeeds(const SuiteOptions &O, unsigned N, Fn F) {
  std::vector<R> Out(N);
  parallelFor(N, O.Jobs,
              [&](size_t I) { Out[I] = F(sweepSample(I + 1)); });
  return Out;
}

/// Follows \p Schedule, then runs \p M freely to completion.
void runReplayed(vm::Machine &M, const std::vector<isa::ThreadId> &Schedule) {
  M.setReplaySchedule(Schedule);
  M.run();
  M.clearReplaySchedule();
  M.run();
}

/// Expands (thread, steps) runs into a replay schedule.
std::vector<isa::ThreadId>
sched(std::initializer_list<std::pair<int, int>> Runs) {
  std::vector<isa::ThreadId> S;
  for (const auto &[Tid, N] : Runs)
    S.insert(S.end(), N, static_cast<isa::ThreadId>(Tid));
  return S;
}

size_t countTrue(const Workload &W, const std::vector<detect::Violation> &Vs) {
  size_t N = 0;
  for (const detect::Violation &V : Vs)
    N += W.isTrueReport(V);
  return N;
}

//===----------------------------------------------------------------------===//
// fig2 — Figure 2: the Apache log_config bug
//===----------------------------------------------------------------------===//

// Finds the first seed whose access log is corrupted, prints SVD's
// reports and the instructions the detection hinged on.
int runFig2(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 20;
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 60;
  P.WorkPadding = 60;
  P.TouchOneIn = 4;
  Workload W = workloads::apacheLog(P);

  std::puts("== Figure 2: the Apache log_config bug ==\n");
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    vm::Machine M(W.Program, machineConfigFor(sweepSample(Seed)));
    detect::OnlineSvd Svd(W.Program);
    M.addObserver(&Svd);
    M.run();
    if (!W.Manifested(M))
      continue;

    std::printf("seed %llu: the access log was silently corrupted\n",
                static_cast<unsigned long long>(Seed));
    std::printf("SVD reported %zu serializability violations (%zu on the "
                "buggy code)\n\nFirst reports:\n",
                Svd.violations().size(), countTrue(W, Svd.violations()));
    size_t Shown = 0;
    for (const detect::Violation &V : Svd.violations()) {
      if (!W.isTrueReport(V))
        continue;
      std::printf("  %s\n    detection: %s\n    conflict:  %s\n",
                  V.describe(W.Program).c_str(),
                  isa::formatInstruction(W.Program.Threads[V.Tid].Code[V.Pc])
                      .c_str(),
                  isa::formatInstruction(
                      W.Program.Threads[V.OtherTid].Code[V.OtherPc])
                      .c_str());
      if (++Shown == 3)
        break;
    }
    std::puts("\nInterpretation: the shared index (outcnt) read at the top\n"
              "of the append CU was overwritten by another thread before\n"
              "the CU's buffer/index writes completed — the exact Figure 2\n"
              "scenario. A detector-triggered rollback (--suite ber)\n"
              "avoids the corruption.");
    return 0;
  }
  std::printf("no erroneous seed found in %u tries\n", Seeds);
  return 1;
}

//===----------------------------------------------------------------------===//
// fig3 — Figure 3: the MySQL prepared-query crash
//===----------------------------------------------------------------------===//

// The online check misses the crash (shared dependences cut CUs smaller
// than the atomic region); the a-posteriori CU log's (s, rw, lw)
// triples reveal the root cause (Section 7.1).
int runFig3(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 30;
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 80;
  P.WorkPadding = 40;
  P.TouchOneIn = 2;
  Workload W = workloads::mysqlPrepared(P);

  std::puts("== Figure 3: the MySQL prepared-query crash ==\n");
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    vm::Machine M(W.Program, machineConfigFor(sweepSample(Seed)));
    detect::OnlineSvd Svd(W.Program);
    M.addObserver(&Svd);
    M.run();
    if (M.errors().empty())
      continue;

    std::printf("seed %llu: the server crashed:\n",
                static_cast<unsigned long long>(Seed));
    for (const vm::ProgramError &E : M.errors())
      std::printf("  thread %u pc %u: %s\n", E.Tid, E.Pc, E.Message.c_str());
    std::printf("\nonline serializability violations on the buggy code: "
                "%zu\n",
                countTrue(W, Svd.violations()));
    std::puts("(the paper expects few or none here: the mistakenly shared\n"
              " variables are read back inside the atomic region, cutting\n"
              " the CUs too small for the online check)\n");

    // The a-posteriori examination: group the CU log by code shape.
    std::map<uint64_t, std::pair<size_t, detect::CuLogEntry>> Shapes;
    for (const detect::CuLogEntry &E : Svd.cuLog()) {
      auto &Slot = Shapes[E.staticKey()];
      ++Slot.first;
      Slot.second = E;
    }
    std::printf("a-posteriori CU log: %zu entries, %zu distinct shapes:\n",
                Svd.cuLog().size(), Shapes.size());
    for (const auto &[Key, Slot] : Shapes)
      std::printf("  x%-4zu %s%s\n", Slot.first,
                  Slot.second.describe(W.Program).c_str(),
                  W.isTrueLogEntry(Slot.second) ? "  [ROOT CAUSE]" : "");
    std::puts("\nThe [ROOT CAUSE] shapes show intended-thread-local values\n"
              "(query_id / used_fields) overwritten by other connections —\n"
              "exactly the diagnosis of Figure 3.");
    return 0;
  }
  std::printf("no crashing seed found in %u tries\n", Seeds);
  return 1;
}

//===----------------------------------------------------------------------===//
// fig4 — Figure 4: crossing-arc removal around a shared arc
//===----------------------------------------------------------------------===//

int runFig4(const SuiteOptions &) {
  std::puts("== Figure 4: crossing-arc removal around a shared arc ==\n");

  // Thread a writes shared g, computes, then reads g back: the read
  // must start a new CU even though control/true dependences connect
  // the whole straight-line region.
  isa::Program P = isa::assembleOrDie(R"(
.global g
.thread a
  li r1, 3          ; pc 0   \
  addi r2, r1, 1    ; pc 1    | CU #1: produces the shared value
  st r2, [@g]       ; pc 2   /
  ld r3, [@g]       ; pc 3   \  shared arc (st -> ld) ends CU #1
  add r4, r3, r1    ; pc 4    | CU #2: consumes it
  halt
.thread b
  ld r9, [@g]       ; makes g shared
  halt
)");

  vm::Machine M(P);
  trace::TraceRecorder R(P);
  M.addObserver(&R);
  // Thread a fully first, then b (the partition is order-robust; this
  // order keeps the printed trace readable).
  runReplayed(M, sched({{0, 6}, {1, 2}}));
  const trace::ProgramTrace &T = R.trace();
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);

  std::puts("dynamic statements:");
  for (uint32_t E = 0; E < T.size(); ++E)
    std::printf("  [%u] t%u pc%u: %s\n", E, T[E].Tid, T[E].Pc,
                isa::formatInstruction(*T[E].Instr).c_str());
  std::puts("\ndependence arcs (From -> To):");
  for (const pdg::DepArc &A : G.arcs())
    std::printf("  [%u] -> [%u]  %s%s\n", A.From, A.To,
                pdg::depKindName(A.Kind),
                A.ViaMemory ? (" via " + P.describeAddress(A.Address)).c_str()
                            : "");

  std::puts("\nresulting computational units:");
  std::fputs(cu::CuPartition::compute(T, G).describe(T).c_str(), stdout);
  std::puts("\nNote how the true-shared arc (st -> ld on g) separates the\n"
            "producer statements from the consumer statements, while the\n"
            "register dependence li -> add would otherwise have connected\n"
            "them — that register arc is the removed crossing arc.");
  return 0;
}

//===----------------------------------------------------------------------===//
// fig9 — Figure 9: independent computations in an atomic region
//===----------------------------------------------------------------------===//

// (a) With the queue lock removed, SVD still detects the erroneous
// executions, partly at the address-dependent field stores (Section
// 5.1's mitigation). (b) On the correctly locked queue FRD is silent and
// SVD shows the Section 5.2 "CUs too large" residual.
int runFig9(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 8;
  std::puts("== Figure 9: independent computations in an atomic region ==\n");

  std::puts("-- (a) lock omitted: does SVD miss the bug? --\n");
  // Producers race on the tail index and entry fields.
  isa::Program Buggy = isa::assembleOrDie(R"(
.global qtail
.global qdataa 16
.global qdatab 16
.thread producer x3
  li r10, 40
ploop:
  rnd r1, 100             ; field_a from program input
  rnd r2, 100             ; field_b from program input (independent)
  ld r3, [@qtail]         ; racy index read
  st r1, [r3+@qdataa]     ; address-dependent field store
  st r2, [r3+@qdatab]     ; address-dependent field store
  addi r4, r3, 1
  andi r4, r4, 15
  st r4, [@qtail]         ; racy index write-back
  addi r10, r10, -1
  bnez r10, ploop
  halt
)");
  TextTable A({"Configuration", "Dynamic reports", "Field-store reports",
               "Seeds detected"});
  for (bool AddrDeps : {true, false}) {
    OnlineSvdConfig Cfg;
    Cfg.UseAddressDeps = AddrDeps;
    // Per seed: (all reports, reports at the field stores, pcs 3 and 4).
    auto PerSeed = forSeeds<std::pair<size_t, size_t>>(
        O, Seeds, [&](const SampleConfig &C) {
          vm::Machine M(Buggy, machineConfigFor(C));
          detect::OnlineSvd Svd(Buggy, Cfg);
          M.addObserver(&Svd);
          M.run();
          size_t AtFields = 0;
          for (const detect::Violation &V : Svd.violations())
            AtFields += V.Pc == 3 || V.Pc == 4;
          return std::make_pair(Svd.violations().size(), AtFields);
        });
    size_t Total = 0, AtFieldStores = 0, SeedsDetected = 0;
    for (const auto &[All, AtFields] : PerSeed) {
      Total += All;
      AtFieldStores += AtFields;
      SeedsDetected += All != 0;
    }
    A.addRow({AddrDeps ? "SVD (address deps on)" : "SVD (address deps off)",
              formatString("%zu", Total), formatString("%zu", AtFieldStores),
              formatString("%zu/%u", SeedsDetected, Seeds)});
  }
  std::fputs(A.render().c_str(), stdout);
  std::puts("\nWith address dependences, part of the detection happens at\n"
            "the entry-field stores themselves — the mitigation Section\n"
            "5.1 describes for non-weakly-connected atomic regions.\n");

  std::puts("-- (b) correctly locked queue: residual behaviour --\n");
  workloads::WorkloadParams P;
  P.Threads = 2;
  P.Iterations = 60;
  Workload W = workloads::sharedQueue(P);
  std::vector<SampleSpec> Specs;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed)
    for (const char *Detector : {"svd", "frd"}) {
      SampleSpec S;
      S.Workload = &W;
      S.Detector = Detector;
      // Per-instruction interleaving (timeslice 1), unlike part (a).
      S.Config.Seed = Seed;
      Specs.push_back(S);
    }
  std::vector<SampleMetrics> Ms = ParallelRunner(runnerConfig(O)).run(Specs);
  size_t SvdDyn = 0, Frd = 0;
  std::set<uint64_t> SvdStatic;
  for (size_t I = 0; I < Ms.size(); I += 2) {
    SvdDyn += Ms[I].DynamicReports;
    SvdStatic.insert(Ms[I].StaticFalseKeys.begin(),
                     Ms[I].StaticFalseKeys.end());
    Frd += Ms[I + 1].DynamicReports;
  }
  TextTable B({"Detector", formatString("Dynamic reports (%u seeds)", Seeds),
               "Static reports"});
  B.addRow({"SVD", formatString("%zu", SvdDyn),
            formatString("%zu", SvdStatic.size())});
  B.addRow({"FRD", formatString("%zu", Frd), "0"});
  std::fputs(B.render().c_str(), stdout);
  std::puts("\nFRD is silent (the queue is race-free). SVD's reports are\n"
            "false positives of the Section 5.2 'CUs too large' kind: the\n"
            "consumer only ever *reads* the producer's index, so its CU is\n"
            "never cut by a shared dependence and keeps accumulating input\n"
            "blocks across critical sections.");
  return 0;
}

//===----------------------------------------------------------------------===//
// ablation — the Section 4.2-4.3 heuristics
//===----------------------------------------------------------------------===//

struct Variant {
  const char *Name;
  OnlineSvdConfig Cfg;
};

std::vector<Variant> ablationVariants() {
  std::vector<Variant> Out(6);
  Out[0].Name = "default (paper)";
  Out[1].Name = "no address deps";
  Out[1].Cfg.UseAddressDeps = false;
  Out[2].Name = "no control deps";
  Out[2].Cfg.UseControlDeps = false;
  Out[3].Name = "precise reconvergence";
  Out[3].Cfg.Reconv = OnlineSvdConfig::ReconvPolicy::Precise;
  Out[4].Name = "check write sets too";
  Out[4].Cfg.CheckInputBlocksOnly = false;
  Out[5].Name = "4-word blocks";
  Out[5].Cfg.BlockShift = 2;
  return Out;
}

/// Replays \p Schedule on \p P under \p Cfg (after storing \p Poke at
/// address 0 when nonnegative); returns "pc:N (xK)" of the first report
/// or "-" when silent.
std::string firstReport(const isa::Program &P,
                        const std::vector<isa::ThreadId> &Schedule,
                        const OnlineSvdConfig &Cfg, isa::Word Poke = -1) {
  vm::Machine M(P);
  if (Poke >= 0)
    M.pokeMem(0, Poke);
  detect::OnlineSvd Svd(P, Cfg);
  M.addObserver(&Svd);
  runReplayed(M, Schedule);
  if (Svd.violations().empty())
    return "-";
  return formatString("pc:%u (x%zu)", Svd.violations()[0].Pc,
                      Svd.violations().size());
}

// Part 1 isolates each heuristic in a replayed micro-scenario; part 2
// shows macro totals on the server analogs stay stable across the
// dependence-kind knobs while block granularity trades precision for
// false sharing.
int runAblation(const SuiteOptions &O) {
  std::vector<Variant> Variants = ablationVariants();
  std::puts("== Ablation 1: micro-scenarios (deterministic replays) ==\n");

  // Address dependence: a buffer store indexed by a clobbered counter
  // (the Figure 2 / Section 4.3 "vector, pointer data types" case).
  isa::Program Indexed = isa::assembleOrDie(R"(
.global outcnt
.global buf 8
.thread w x2
  ld r1, [@outcnt]
  li r9, 5
  st r9, [r1+@buf]       ; pc 2: address-dependent store
  addi r2, r1, 1
  st r2, [@outcnt]       ; pc 4: data-dependent store
  halt
)");
  // Control dependence: a store guarded by a predicate over a clobbered
  // flag (ctrlCuSet of Figure 7).
  isa::Program Guarded = isa::assembleOrDie(R"(
.global flag
.global out
.thread a
  ld r1, [@flag]
  beqz r1, skip
  li r2, 1
  st r2, [@out]          ; pc 3: control-dependent store
skip:
  halt
.thread b
  li r3, 2
  st r3, [@flag]
  halt
)");
  // Input-blocks-only: the conflict sits on the CU's *write* set.
  isa::Program WriteSet = isa::assembleOrDie(R"(
.global w
.global x
.global z
.thread a
  ld r1, [@w]
  st r1, [@x]
  nop
  st r1, [@z]            ; pc 3: the checking store
  halt
.thread b
  li r3, 4
  st r3, [@x]
  halt
)");
  // Block granularity: disjoint adjacent words.
  isa::Program Adjacent = isa::assembleOrDie(R"(
.global arr 2
.thread a
  ld r1, [@arr]
  addi r1, r1, 1
  st r1, [@arr]
  halt
.thread b
  li r3, 7
  st r3, [@arr+1]
  halt
)");

  TextTable Micro({"Variant", "indexed write", "guarded store",
                   "write-set conflict", "adjacent words (benign)"});
  for (const Variant &V : Variants)
    Micro.addRow(
        {V.Name, firstReport(Indexed, sched({{0, 1}, {1, 6}, {0, 5}}), V.Cfg),
         firstReport(Guarded, sched({{0, 1}, {1, 3}, {0, 4}}), V.Cfg,
                     /*Poke=*/1),
         firstReport(WriteSet, sched({{0, 2}, {1, 3}, {0, 3}}), V.Cfg),
         firstReport(Adjacent, sched({{0, 1}, {1, 3}, {0, 3}}), V.Cfg)});
  std::fputs(Micro.render().c_str(), stdout);
  std::puts("\nReading guide:\n"
            " * indexed write: address deps catch it at the buffer store\n"
            "   (pc 2); without them detection falls back to the index\n"
            "   write-back (pc 4).\n"
            " * guarded store: only control dependences catch it; both\n"
            "   reconvergence policies work on this shape.\n"
            " * write-set conflict: invisible to the input-blocks-only\n"
            "   check (the paper's default) — visible when write sets are\n"
            "   checked too.\n"
            " * adjacent words: silent with word blocks; a false-sharing\n"
            "   report appears with 4-word blocks.\n");

  std::puts("== Ablation 2: macro metrics on the server analogs ==\n");
  unsigned Seeds = O.Seeds ? O.Seeds : 6;
  workloads::WorkloadParams BP;
  BP.Threads = 4;
  BP.Iterations = 80;
  BP.WorkPadding = 60;
  BP.TouchOneIn = 4;
  Workload Apache = workloads::apacheLog(BP);
  Workload Pgsql = workloads::pgsqlOltp(BP);

  // Spec order: variant, seed, then (Apache, PgSQL).
  std::vector<SampleSpec> Specs;
  for (const Variant &V : Variants) {
    auto Cfg = std::make_shared<detect::OnlineSvdDetectorConfig>(V.Cfg);
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed)
      for (const Workload *W : {&Apache, &Pgsql}) {
        SampleSpec S;
        S.Workload = W;
        S.Config = sweepSample(Seed);
        S.Config.Detector = Cfg;
        Specs.push_back(S);
      }
  }
  std::vector<SampleMetrics> Ms = ParallelRunner(runnerConfig(O)).run(Specs);

  TextTable Macro({"Variant", "Apache true (dyn)",
                   "Apache manifested+detected", "PgSQL FP (dyn)",
                   "PgSQL FP (static)"});
  size_t Idx = 0;
  for (const Variant &V : Variants) {
    size_t ApacheTrue = 0, PgDyn = 0, PgStatic = 0;
    size_t Detected = 0, Manifested = 0;
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      const SampleMetrics &A = Ms[Idx++];
      const SampleMetrics &G = Ms[Idx++];
      ApacheTrue += A.DynamicTrue;
      Manifested += A.Manifested;
      Detected += A.Manifested && A.DetectedBug;
      PgDyn += G.DynamicFalse;
      PgStatic += G.StaticFalse;
    }
    Macro.addRow({V.Name, formatString("%zu", ApacheTrue),
                  formatString("%zu/%zu", Detected, Manifested),
                  formatString("%zu", PgDyn), formatString("%zu", PgStatic)});
  }
  std::fputs(Macro.render().c_str(), stdout);
  std::puts("\nMacro totals are stable across dependence-kind knobs because\n"
            "detection points move between data/address/control paths; the\n"
            "block-size knob visibly trades precision for false sharing.");
  return 0;
}

//===----------------------------------------------------------------------===//
// ber — SVD + backward error recovery (Sections 1-2)
//===----------------------------------------------------------------------===//

/// One seed of the BER study: the bare run and the recovered run of the
/// same machine configuration.
struct BerSample {
  bool BadWithout = false;
  bool BadWith = false;
  bool Completed = false;
  uint64_t Rollbacks = 0;
  uint64_t Wasted = 0;
  uint64_t Steps = 0;
};

void addBerRow(TextTable &T, const SuiteOptions &O, const Workload &W,
               unsigned Seeds) {
  auto PerSeed = forSeeds<BerSample>(O, Seeds, [&](const SampleConfig &C) {
    vm::MachineConfig MC = machineConfigFor(C);
    BerSample S;
    vm::Machine Bare(W.Program, MC);
    Bare.run();
    S.BadWithout = W.Manifested(Bare);
    ber::RecoveryConfig RC;
    RC.CheckpointInterval = 400;
    RC.SerialSlack = 1500;
    RC.MaxRollbacks = 256;
    ber::RecoveryManager RM(W.Program, MC, RC);
    ber::RecoveryStats Stats = RM.run();
    S.BadWith = W.Manifested(RM.machine());
    S.Completed = Stats.Completed;
    S.Rollbacks = Stats.Rollbacks;
    S.Wasted = Stats.WastedSteps;
    S.Steps = Stats.FinalSteps;
    return S;
  });
  size_t BadWithout = 0, BadWith = 0, Incomplete = 0;
  uint64_t Rollbacks = 0, Wasted = 0, Steps = 0;
  for (const BerSample &S : PerSeed) {
    BadWithout += S.BadWithout;
    BadWith += S.BadWith;
    Incomplete += !S.Completed;
    Rollbacks += S.Rollbacks;
    Wasted += S.Wasted;
    Steps += S.Steps;
  }
  T.addRow({W.Name, formatString("%zu/%u", BadWithout, Seeds),
            formatString("%zu/%u", BadWith, Seeds),
            formatString("%llu", static_cast<unsigned long long>(Rollbacks)),
            formatString("%.1f%%",
                         Steps == 0 ? 0.0
                                    : 100.0 * static_cast<double>(Wasted) /
                                          static_cast<double>(Steps + Wasted)),
            formatString("%zu", Incomplete)});
}

// Runs the buggy Apache and MySQL analogs with and without
// detector-triggered rollback, counting corrupted/crashed executions and
// the recovery cost.
int runBer(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 10;
  std::puts("== SVD + backward error recovery: bug avoidance ==\n");
  workloads::WorkloadParams AP;
  AP.Threads = 4;
  AP.Iterations = 40;
  AP.WorkPadding = 80;
  AP.TouchOneIn = 6;
  workloads::WorkloadParams MP = AP;
  MP.Iterations = 80;
  MP.TouchOneIn = 4;

  TextTable T({"Program", "Bad runs w/o BER", "Bad runs with BER",
               "Rollbacks", "Wasted work", "Incomplete"});
  addBerRow(T, O, workloads::apacheLog(AP), Seeds);
  addBerRow(T, O, workloads::mysqlPrepared(MP), Seeds);
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nExpected shape: most corruptions/crashes disappear under\n"
            "BER at the price of re-executed work; MySQL's recovery\n"
            "should be weaker because its online detection is (by the\n"
            "paper's own Figure 3 analysis) largely a-posteriori.");
  return 0;
}

//===----------------------------------------------------------------------===//
// exact — exact serializability vs strict 2PL (Section 3.3)
//===----------------------------------------------------------------------===//

/// One seed of the exact-vs-2PL comparison on one recorded trace.
struct ExactSample {
  size_t TwoPlReports = 0;
  size_t Cycles = 0;
};

ExactSample compareExact(const isa::Program &P, const SampleConfig &C) {
  vm::Machine M(P, machineConfigFor(C));
  trace::TraceRecorder Rec(P);
  M.addObserver(&Rec);
  M.run();
  const trace::ProgramTrace &T = Rec.trace();
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  cu::CuPartition CUs = cu::CuPartition::compute(T, G);
  return {detect::detectOffline(T, CUs).size(),
          detect::SerializabilityGraph::build(T, G, CUs).cycles().size()};
}

// Compares the offline strict-2PL scan (Figure 6) with the exact
// conflict-serializability test (the CU precedence graph) on identical
// traces.
int runExact(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 8;
  std::puts("== Exact serializability vs strict 2PL (Section 3.3) ==\n");

  // The decisive micro-scenario: strict 2PL is violated but the
  // execution is serializable (equivalent to a-then-b).
  isa::Program Micro = isa::assembleOrDie(R"(
.global x
.global out
.thread a
  ld r1, [@x]       ; CU input: x
  addi r1, r1, 5
  nop
  st r1, [@out]     ; private output
  halt
.thread b
  li r2, 9
  st r2, [@x]       ; intervening remote write
  halt
)");
  vm::Machine M(Micro);
  trace::TraceRecorder Rec(Micro);
  M.addObserver(&Rec);
  runReplayed(M, sched({{0, 2}, {1, 3}, {0, 3}}));
  const trace::ProgramTrace &MT = Rec.trace();
  pdg::DynamicPdg MG = pdg::DynamicPdg::build(MT);
  cu::CuPartition MCUs = cu::CuPartition::compute(MT, MG);
  bool TwoPl = !detect::detectOffline(MT, MCUs).empty();
  bool Exact =
      !detect::SerializabilityGraph::build(MT, MG, MCUs).isSerializable();
  std::printf("micro read-then-publish: strict 2PL flags it: %s; exact "
              "test: %s\n\n",
              TwoPl ? "YES" : "no",
              Exact ? "non-serializable (?)" : "serializable");

  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 40;
  P.WorkPadding = 40;
  P.TouchOneIn = 4;
  workloads::RandomParams Unlocked;
  Unlocked.Seed = 5;
  Unlocked.Threads = 4;
  Unlocked.Iterations = 25;
  Unlocked.OmitLockProbability = 0.3;
  workloads::RandomParams Benign = Unlocked;
  Benign.Seed = 6;
  Benign.OmitLockProbability = 0.0;
  Benign.BenignReadProbability = 0.4;
  std::pair<const char *, Workload> Items[] = {
      {"Apache (buggy)", workloads::apacheLog(P)},
      {"PgSQL (race-free)", workloads::pgsqlOltp(P)},
      {"Random (30% unlocked)", workloads::randomWorkload(Unlocked)},
      {"Random (locked+benign)", workloads::randomWorkload(Benign)},
  };

  TextTable T({"Workload", "Samples", "2PL flagged", "Exact flagged",
               "2PL reports", "Cycles"});
  for (const auto &[Name, W] : Items) {
    const isa::Program &Prog = W.Program;
    auto PerSeed = forSeeds<ExactSample>(O, Seeds, [&](const SampleConfig &C) {
      return compareExact(Prog, C);
    });
    size_t TwoPlFlagged = 0, ExactFlagged = 0, Reports = 0, Cycles = 0;
    for (const ExactSample &S : PerSeed) {
      TwoPlFlagged += S.TwoPlReports != 0;
      ExactFlagged += S.Cycles != 0;
      Reports += S.TwoPlReports;
      Cycles += S.Cycles;
    }
    T.addRow({Name, formatString("%u", Seeds),
              formatString("%zu", TwoPlFlagged),
              formatString("%zu", ExactFlagged), formatString("%zu", Reports),
              formatString("%zu", Cycles)});
  }
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nExpected shape: the micro-scenario splits the two tests\n"
            "(2PL flags a serializable execution). On the macro workloads\n"
            "exact flags at most as many executions, and condenses the\n"
            "dynamic 2PL report stream into a few cycle witnesses. The\n"
            "residual PgSQL cycles are artifacts of CU *inference* (units\n"
            "larger than the atomic regions), showing that better\n"
            "serializability testing alone cannot remove all of SVD's\n"
            "false positives — the paper's Section 5.2 point.");
  return 0;
}

//===----------------------------------------------------------------------===//
// hwsvd — hardware SVD on the MESI cache substrate (Section 4.4)
//===----------------------------------------------------------------------===//

/// One seed of one cache design: cache-based vs software SVD on the
/// identical Apache and PgSQL executions.
struct HwSample {
  bool SwDetected = false;
  bool HwDetected = false;
  size_t HwTrue = 0, SwTrue = 0;
  size_t HwPgFp = 0, SwPgFp = 0;
  uint64_t MetaEvict = 0, Coherence = 0, Insts = 0;
  size_t MetaBits = 0;
};

HwSample runHwSample(const Workload &Apache, const Workload &Pgsql,
                     const detect::HardwareSvdConfig &HC,
                     const SampleConfig &C) {
  HwSample S;
  vm::MachineConfig MC = machineConfigFor(C);
  {
    vm::Machine M(Apache.Program, MC);
    detect::OnlineSvd Sw(Apache.Program);
    detect::HardwareSvd Hw(Apache.Program, HC);
    M.addObserver(&Sw);
    M.addObserver(&Hw);
    M.run();
    S.SwTrue = countTrue(Apache, Sw.violations());
    S.HwTrue = countTrue(Apache, Hw.violations());
    S.SwDetected = Apache.Manifested(M) && S.SwTrue > 0;
    S.HwDetected = S.SwDetected && S.HwTrue > 0;
    S.MetaEvict = Hw.metadataEvictions();
    S.Coherence = Hw.cacheStats().Invalidations + Hw.cacheStats().Downgrades;
    S.Insts = M.steps();
    S.MetaBits = Hw.metadataBits();
  }
  detect::HardwareSvdConfig HG = HC;
  HG.Cache.NumCpus = Pgsql.Program.numThreads();
  vm::Machine M(Pgsql.Program, MC);
  detect::OnlineSvd Sw(Pgsql.Program);
  detect::HardwareSvd Hw(Pgsql.Program, HG);
  M.addObserver(&Sw);
  M.addObserver(&Hw);
  M.run();
  S.SwPgFp = Sw.violations().size();
  S.HwPgFp = Hw.violations().size();
  return S;
}

// Detection recall of the cache-based detector versus software SVD as
// the cache shrinks (metadata lost to evictions) and lines widen (false
// sharing), plus the hardware costs: coherence traffic and metadata.
int runHwSvd(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 8;
  std::puts("== Hardware SVD (Section 4.4): cache-based detection ==\n");
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 60;
  P.WorkPadding = 40;
  P.TouchOneIn = 3;
  Workload Apache = workloads::apacheLog(P);
  Workload Pgsql = workloads::pgsqlOltp(P);

  struct Design {
    const char *Name;
    uint32_t Sets, Ways, LineWords;
  };
  const Design Designs[] = {
      {"ideal (4096-line, 1w)", 1024, 4, 1},
      {"large  (512-line, 1w)", 128, 4, 1},
      {"small  (64-line, 1w)", 16, 4, 1},
      {"tiny   (16-line, 1w)", 8, 2, 1},
      {"large, 4-word lines", 128, 4, 4},
  };
  TextTable T({"Design", "Detected (of SW)", "True dyn (HW/SW)",
               "PgSQL FP (HW/SW)", "Meta evictions", "Inval+downgr/Kinst",
               "Metadata KiB"});
  for (const Design &D : Designs) {
    detect::HardwareSvdConfig HC;
    HC.Cache.NumCpus = Apache.Program.numThreads();
    HC.Cache.Sets = D.Sets;
    HC.Cache.Ways = D.Ways;
    HC.Cache.LineWords = D.LineWords;
    auto PerSeed = forSeeds<HwSample>(O, Seeds, [&](const SampleConfig &C) {
      return runHwSample(Apache, Pgsql, HC, C);
    });
    HwSample Sum;
    size_t SwDetected = 0, HwDetected = 0;
    for (const HwSample &S : PerSeed) {
      SwDetected += S.SwDetected;
      HwDetected += S.HwDetected;
      Sum.HwTrue += S.HwTrue;
      Sum.SwTrue += S.SwTrue;
      Sum.HwPgFp += S.HwPgFp;
      Sum.SwPgFp += S.SwPgFp;
      Sum.MetaEvict += S.MetaEvict;
      Sum.Coherence += S.Coherence;
      Sum.Insts += S.Insts;
      Sum.MetaBits = S.MetaBits;
    }
    T.addRow({D.Name, formatString("%zu/%zu", HwDetected, SwDetected),
              formatString("%zu/%zu", Sum.HwTrue, Sum.SwTrue),
              formatString("%zu/%zu", Sum.HwPgFp, Sum.SwPgFp),
              formatString("%llu",
                           static_cast<unsigned long long>(Sum.MetaEvict)),
              formatString("%.1f",
                           Sum.Insts == 0
                               ? 0.0
                               : 1e3 * static_cast<double>(Sum.Coherence) /
                                     static_cast<double>(Sum.Insts)),
              formatString("%.1f",
                           static_cast<double>(Sum.MetaBits) / 8192.0)});
  }
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nReading guide:\n"
            " * The ideal cache matches software SVD's verdicts; shrinking\n"
            "   the cache loses line metadata to evictions and detection\n"
            "   degrades gracefully — the paper's conjectured trade-off.\n"
            " * Wider lines add false-sharing reports (PgSQL FP column).\n"
            " * Coherence messages per kilo-instruction bound the snoop\n"
            "   bandwidth the detector piggybacks on.");
  return 0;
}

//===----------------------------------------------------------------------===//
// related — the Section 8 detector zoo
//===----------------------------------------------------------------------===//

/// One detector family's verdict over all seeds of one workload.
struct Verdict {
  size_t Dynamic = 0;
  std::set<uint64_t> Static;

  std::string cell() const {
    if (Dynamic == 0)
      return "silent";
    return formatString("%zu dyn / %zu static", Dynamic, Static.size());
  }
};

/// Runs SVD, FRD, lockset, Atomizer and stale-value on identical
/// executions of \p W; one Verdict per detector, in that order.
std::vector<Verdict> runAllDetectors(const SuiteOptions &O, const Workload &W,
                                     unsigned Seeds) {
  // Per seed, per detector: the static keys of its dynamic reports.
  using SeedKeys = std::vector<std::vector<uint64_t>>;
  auto PerSeed = forSeeds<SeedKeys>(O, Seeds, [&](const SampleConfig &C) {
    vm::Machine M(W.Program, machineConfigFor(C));
    detect::OnlineSvd Svd(W.Program);
    race::HappensBeforeDetector Frd(W.Program);
    race::LocksetDetector Ls(W.Program);
    race::AtomizerDetector Atom(W.Program);
    race::StaleValueDetector Stale(W.Program);
    for (vm::ExecutionObserver *Obs :
         std::initializer_list<vm::ExecutionObserver *>{&Svd, &Frd, &Ls,
                                                        &Atom, &Stale})
      M.addObserver(Obs);
    M.run();
    SeedKeys Keys;
    for (const std::vector<detect::Violation> *Reports :
         {&Svd.violations(), &Frd.races(), &Ls.reports(), &Atom.reports(),
          &Stale.reports()}) {
      Keys.emplace_back();
      for (const detect::Violation &V : *Reports)
        Keys.back().push_back(V.staticKey());
    }
    return Keys;
  });
  std::vector<Verdict> Out(5);
  for (const SeedKeys &Keys : PerSeed)
    for (size_t D = 0; D < Out.size(); ++D) {
      Out[D].Dynamic += Keys[D].size();
      Out[D].Static.insert(Keys[D].begin(), Keys[D].end());
    }
  return Out;
}

// Five detector families on identical executions of four characteristic
// workloads, making the property differences concrete.
int runRelated(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 6;
  std::printf("== Related-work detector comparison (Section 8) ==\n"
              "(identical executions, %u seeds each)\n\n",
              Seeds);
  workloads::WorkloadParams Small;
  Small.Threads = 3;
  Small.Iterations = 40;
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 60;
  P.WorkPadding = 40;
  P.TouchOneIn = 3;
  // A correct lock-free counter: synchronization nobody annotates.
  Workload LockFree;
  LockFree.Name = "LockFree";
  LockFree.Program = isa::assembleOrDie(R"(
.global counter
.thread t x4
  li r5, 40
loop:
retry:
  ld r1, [@counter]
  addi r2, r1, 1
  cas r3, r1, r2, [@counter]
  beqz r3, retry
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  LockFree.Manifested = [](const vm::Machine &) { return false; };
  const Workload Ws[] = {workloads::mysqlTableLock(Small),
                         workloads::apacheLog(P), workloads::pgsqlOltp(P),
                         LockFree};

  std::vector<std::vector<Verdict>> ByWorkload;
  for (const Workload &W : Ws)
    ByWorkload.push_back(runAllDetectors(O, W, Seeds));
  const char *Detectors[] = {"SVD (serializability of this execution)",
                             "FRD (happens-before races)",
                             "Lockset (consistent locking)",
                             "Atomizer (block reducibility)",
                             "Stale-value (values outliving CS)"};
  TextTable T({"Detector (property)", "Benign race (Fig.1)", "Apache (buggy)",
               "PgSQL (race-free)", "Lock-free counter (correct)"});
  for (size_t D = 0; D < std::size(Detectors); ++D) {
    std::vector<std::string> Row = {Detectors[D]};
    for (const std::vector<Verdict> &V : ByWorkload)
      Row.push_back(V[D].cell());
    T.addRow(Row);
  }
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nReading guide:\n"
            " * Benign race: FRD, lockset, and Atomizer all report the\n"
            "   harmless tot_lock pattern (it is racy, and it makes the\n"
            "   critical section irreducible); SVD, which judges the\n"
            "   execution rather than the synchronization, stays silent.\n"
            " * Buggy Apache: the race families find the missing lock;\n"
            "   SVD's reports are confined to executions where the bug\n"
            "   actually interleaved; the stale-value detector is blind\n"
            "   here because an unlocked region has no protected reads\n"
            "   whose values could outlive a critical section.\n"
            " * Race-free PgSQL: every race/atomicity detector is silent;\n"
            "   the stale-value detector flags the read-then-publish\n"
            "   idiom it was designed to question — the same code shape\n"
            "   behind SVD's residual over-long-CU false positives\n"
            "   (Section 5.2). Each family's blind spot is different.\n"
            " * Lock-free counter: the race families flood (every CAS is\n"
            "   an unannotated race); SVD reports an order of magnitude\n"
            "   less — only contended-retry chains — because successful\n"
            "   CAS attempts are serializable CUs. Annotation-freedom\n"
            "   pays off exactly where annotations do not exist.");
  return 0;
}

//===----------------------------------------------------------------------===//
// migration — threads as processors (Section 4.3)
//===----------------------------------------------------------------------===//

/// One detector lane's true and false reports and detected samples.
struct LaneCounts {
  size_t True = 0, False = 0, Detected = 0;

  void add(const LaneCounts &O) {
    True += O.True;
    False += O.False;
    Detected += O.Detected;
  }
};

// The buggy Apache analog on an OS model that multiplexes and migrates
// threads over CPUs, with a thread-keyed (ideal) and a CPU-keyed (the
// paper's deployment) detector on the identical execution.
int runMigration(const SuiteOptions &O) {
  unsigned Seeds = O.Seeds ? O.Seeds : 8;
  std::puts("== Thread migration vs per-processor SVD (Section 4.3) ==\n");
  workloads::WorkloadParams P;
  P.Threads = 4;
  P.Iterations = 80;
  P.WorkPadding = 40;
  P.TouchOneIn = 3;
  Workload Apache = workloads::apacheLog(P);
  uint32_t NumThreads = Apache.Program.numThreads();

  struct Design {
    const char *Name;
    uint32_t NumCpus;
    uint64_t MigrationInterval;
  };
  const Design Designs[] = {
      {"pinned, 1 CPU/thread", NumThreads, 0},
      {"rare migration (every 5000)", NumThreads, 5000},
      {"frequent migration (every 500)", NumThreads, 500},
      {"storm migration (every 50)", NumThreads, 50},
      {"2 threads per CPU, pinned", (NumThreads + 1) / 2, 0},
      {"2 threads per CPU + migration", (NumThreads + 1) / 2, 500},
  };
  TextTable T({"OS model", "True dyn (cpu/thread-keyed)",
               "False dyn (cpu/thread-keyed)",
               "Detected samples (cpu/thread)"});
  for (const Design &D : Designs) {
    using Lanes = std::pair<LaneCounts, LaneCounts>; // (by CPU, by thread)
    auto PerSeed = forSeeds<Lanes>(O, Seeds, [&](const SampleConfig &C) {
      vm::MachineConfig MC = machineConfigFor(C);
      MC.NumCpus = D.NumCpus;
      MC.MigrationInterval = D.MigrationInterval;
      vm::Machine M(Apache.Program, MC);
      detect::OnlineSvd ByThread(Apache.Program);
      OnlineSvdConfig CpuCfg;
      CpuCfg.NumCpus = D.NumCpus;
      detect::OnlineSvd ByCpu(Apache.Program, CpuCfg);
      M.addObserver(&ByThread);
      M.addObserver(&ByCpu);
      M.run();
      auto Count = [&](const detect::OnlineSvd &Svd) {
        LaneCounts L;
        L.True = countTrue(Apache, Svd.violations());
        L.False = Svd.violations().size() - L.True;
        L.Detected = Apache.Manifested(M) && L.True > 0;
        return L;
      };
      return Lanes(Count(ByCpu), Count(ByThread));
    });
    Lanes Sum;
    for (const Lanes &L : PerSeed) {
      Sum.first.add(L.first);
      Sum.second.add(L.second);
    }
    T.addRow({D.Name,
              formatString("%zu / %zu", Sum.first.True, Sum.second.True),
              formatString("%zu / %zu", Sum.first.False, Sum.second.False),
              formatString("%zu / %zu", Sum.first.Detected,
                           Sum.second.Detected)});
  }
  std::fputs(T.render().c_str(), stdout);
  std::puts("\nReading guide:\n"
            " * Pinned 1 CPU/thread: the approximation is exact (the\n"
            "   paper's evaluation setup).\n"
            " * Migration blends different threads' access streams into\n"
            "   one detector lane: true detections erode and spurious\n"
            "   reports can appear as a lane inherits another thread's\n"
            "   in-flight CU state.\n"
            " * Sharing CPUs outright removes the 'remote' accesses\n"
            "   between co-scheduled threads — their mutual conflicts\n"
            "   become invisible to a per-processor detector.");
  return 0;
}

} // namespace

const std::vector<Suite> &harness::studySuites() {
  static const std::vector<Suite> Studies = {
      {"fig2", "Figure 2 Apache log bug: first corrupting seed + SVD reports",
       runFig2},
      {"fig3", "Figure 3 MySQL crash: online miss, a-posteriori CU log",
       runFig3},
      {"fig4", "Figure 4 crossing-arc removal (d-PDG + CU dump)", runFig4},
      {"fig9", "Figure 9 independent computations (address deps on/off)",
       runFig9},
      {"ablation", "Sections 4.2-4.3 heuristic ablations (micro + macro)",
       runAblation},
      {"ber", "SVD + backward error recovery bug avoidance", runBer},
      {"exact", "Section 3.3 exact serializability vs strict 2PL",
       runExact},
      {"hwsvd", "Section 4.4 hardware SVD over cache designs", runHwSvd},
      {"related", "Section 8 related-work detector comparison", runRelated},
      {"migration", "Section 4.3 thread migration vs per-CPU SVD",
       runMigration},
  };
  return Studies;
}
