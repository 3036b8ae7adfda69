//===- perfbench/bench/Online.cpp - online_paper -------------------------===//
//
// Samples run serially, each on a fresh Machine and OnlineSvd, once on
// the interpreter and once translated; the two runs of every sample
// must agree on every deterministic output. Passes repeat the same
// sample set until the time is up, and each rate divides the set's
// total work by the sum of each sample's best time.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "harness/Suites.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <thread>

using namespace perfbench;
using support::formatString;

namespace {

/// Seeds per program in the sample set.
constexpr uint64_t SeedsPerProgram = 4;

/// The Table 2 analogs at the table2 suite's parameters.
void buildPrograms(ProgramSet &Set, Spans &S) {
  Set.Programs.clear(); // programs point into Works
  Set.Works = harness::suiteWorkloads("table2");
  for (const workloads::Workload &W : Set.Works) {
    Program P;
    P.W = &W;
    P.MaxTimeslice = 4; // the table2 suite's timeslices
    prepare(P, /*WithPlain=*/false, S);
    Set.Programs.push_back(std::move(P));
  }
}

/// The run's samples: SeedsPerProgram seeds of every program, all
/// derived from the workload seed.
std::vector<Sample> sampleSet(const std::vector<Program> &Programs,
                              uint64_t WorkloadSeed) {
  std::vector<Sample> Samples;
  for (uint64_t K = 0; K < SeedsPerProgram; ++K)
    for (size_t I = 0; I < Programs.size(); ++I) {
      Sample S;
      S.P = &Programs[I];
      S.Seed = deriveSeed(WorkloadSeed, K, I);
      S.Id = formatString("%s/s%llu", Programs[I].W->Name.c_str(),
                          static_cast<unsigned long long>(K));
      Samples.push_back(S);
    }
  return Samples;
}

/// Best wall times of each sample of the set, per engine.
struct BestTimes {
  std::vector<double> T[2];
  explicit BestTimes(size_t N) {
    for (std::vector<double> &V : T)
      V.assign(N, 1e300);
  }
};

/// Runs every sample of the set once under both engines (the order
/// alternating with \p InterpFirst), checks the two runs agree and
/// match the sample's first run, and lowers \p Best. The first pass
/// fills \p Ref; later passes, possibly on several threads, only read
/// it.
void runPass(const std::vector<Sample> &Samples,
             std::vector<CheckedRun> &Ref, bool InterpFirst, bool &Corrupt,
             BestTimes &Best, Spans &S, Result &Out) {
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &Smp = Samples[I];
    Spans::Scope SampleSpan(S, "bench.sample", "bench", Smp.Id);
    CheckedRun Run[2];
    for (bool X : {!InterpFirst, InterpFirst}) {
      Spans::Scope Sc(S, X ? "svd.check.translated" : "svd.check", "svd",
                      Smp.Id);
      Run[X] = runChecked(Smp, X);
    }
    if (Ref.size() <= I)
      Ref.push_back(Run[0]);
    CheckedRun Expected = Ref[I];
    if (Corrupt) {
      ++Expected.Steps;
      Corrupt = false;
    }
    std::string Why = compareRuns(Smp, Expected, Run[0]);
    Out.check(Why.empty() ? compareRuns(Smp, Expected, Run[1]) : Why);
    for (int X = 0; X < 2; ++X)
      Best.T[X][I] = std::min(Best.T[X][I], Run[X].Seconds);
  }
}

} // namespace

void perfbench::runOnline(const Options &O, Result &Out, Spans &S) {
  ProgramSet Set;
  {
    Spans::Scope Sc(S, "bench.setup", "bench");
    buildPrograms(Set, S);
  }
  SetupTimer Setup(buildPrograms);
  const std::vector<Sample> Samples = sampleSet(Set.Programs, O.Seed);
  const size_t N = Samples.size();

  // The first runServe call of the process: its cold cost is a ledger
  // metric, so it runs before anything else warms the allocator.
  double ColdCallMs = 0;
  if (O.Trace) {
    std::vector<serve::SessionInput> In = sessionsFor(Samples, false);
    serve::ServeReport R;
    {
      Spans::Scope Sc(S, "serve.cold_call", "serve");
      ColdCallMs =
          timed([&] { R = serve::runServe(In, serveConfig(2)); }) * 1e3;
    }
    checkSessions(R, batchTwins(In, 1), Out);
  }

  // One serial warm-up pass (checked, not timed) records every sample's
  // reference outputs and sets the process's peak memory; timed passes
  // repeat the same samples until the time is up.
  bool Corrupt = O.CorruptReference;
  std::vector<CheckedRun> Ref;
  BestTimes Warm(N), Best(N), TracedBest(N);
  runPass(Samples, Ref, true, Corrupt, Warm, S, Out);
  const double PeakRss = peakRssMb();
  uint64_t Faults0 = minorFaults();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
  auto Running = [](unsigned Passes, Clock::time_point End) {
    return Clock::now() < End || Passes < 3;
  };
  unsigned Passes = 0;
  if (O.Trace) {
    // Traced and untraced passes alternate on one thread, so the
    // tracing overhead is measured under the same conditions.
    for (uint64_t Pass = 1; Running(Passes, Deadline); ++Pass) {
      bool Traced = Pass % 2 == 0;
      S.setEnabled(Traced);
      Spans::Scope Sc(S, "bench.pass", "bench",
                      formatString("pass %llu",
                                   static_cast<unsigned long long>(Pass)));
      runPass(Samples, Ref, (Pass / 2) % 2 == 0, Corrupt,
              Traced ? TracedBest : Best, S, Out);
      Passes += !Traced;
    }
    S.setEnabled(true);
  } else {
    // Workers on several cores repeat the sample set side by side, and
    // each sample keeps its best time over all of them. Every round the
    // workers stop, so that set-ups are timed on this thread alone.
    const unsigned Workers = workerCount();
    const auto Round = std::chrono::milliseconds(1500);
    constexpr unsigned SetupsPerRound = 10;
    std::vector<BestTimes> WorkerBest(Workers, BestTimes(N));
    std::vector<Result> WorkerOut(Workers);
    std::vector<unsigned> WorkerPasses(Workers, 0);
    auto Work = [&](unsigned K, Clock::time_point End) {
      Spans Off(false);
      bool NoCorrupt = false;
      for (unsigned &P = WorkerPasses[K]; Running(P, End); ++P)
        runPass(Samples, Ref, (P + K) % 2 == 0, NoCorrupt, WorkerBest[K], Off,
                WorkerOut[K]);
    };
    for (auto Now = Clock::now(); Now < Deadline; Now = Clock::now()) {
      const auto End = std::min(Deadline, Now + Round);
      std::vector<std::thread> Threads;
      for (unsigned K = 1; K < Workers; ++K)
        Threads.emplace_back(Work, K, End);
      Work(0, End);
      for (std::thread &T : Threads)
        T.join();
      Setup.sample(SetupsPerRound);
    }
    for (unsigned K = 0; K < Workers; ++K) {
      Out.absorb(WorkerOut[K]);
      Passes += WorkerPasses[K];
      for (int X = 0; X < 2; ++X)
        for (size_t I = 0; I < N; ++I)
          Best.T[X][I] = std::min(Best.T[X][I], WorkerBest[K].T[X][I]);
    }
  }
  uint64_t Faults = minorFaults() - Faults0;

  // Rates over the whole sample set from each sample's best time.
  uint64_t Steps = 0, Events = 0;
  double TI = 0, TX = 0, TracedTI = 0;
  for (size_t I = 0; I < N; ++I) {
    Steps += Ref[I].Steps;
    Events += 2 * Ref[I].Events;
    TI += Best.T[0][I];
    TX += Best.T[1][I];
    TracedTI += TracedBest.T[0][I];
  }
  if (!O.Trace) {
    Out.metric("checked_insts_per_sec", Steps / TI, "insts/s");
    Out.metric("checked_insts_per_sec_translated", Steps / TX, "insts/s");
    Out.metric("serve_events_per_sec", Events / (TI + TX), "events/s");
    Out.metric("peak_rss_mb", PeakRss, "MiB");
    Out.metric("setup_s", Setup.seconds(), "s");
    std::printf("%s: %u timed passes over %zu samples, both engines\n",
                O.Workload.c_str(), Passes, N);
    return;
  }
  runLedger(Set.Programs, Samples, ColdCallMs, S, Out);
  Out.metric("proc.minor_faults", static_cast<double>(Faults), "count");
  Out.metric("bench.tracing_overhead", TI / TracedTI, "ratio");
}
