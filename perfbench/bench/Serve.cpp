//===- perfbench/bench/Serve.cpp - serve_stream --------------------------===//
//
// Repeated fault-free, deterministic-mode runServe calls at two shards
// with one worker each. A call streams 12 sessions: the serve suite's
// table1 workloads times four seeds. Calls alternate between
// interpreter and translated producers, and seeds advance every second
// call through a cycle of SeedSets seed sets, so each (seed set,
// engine) pair runs many times and its best call is the estimate that
// moves least on a shared host. Warm-up calls stay out of the timed
// region. Every session is checked against its batch twin after the
// timed region.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "harness/Suites.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace perfbench;
using support::formatString;

namespace {

constexpr uint32_t Shards = 2;
constexpr uint64_t SeedsPerWorkload = 4;
/// Distinct seed sets a run cycles through.
constexpr uint64_t SeedSets = 2;

std::vector<Sample> callSamples(const std::vector<Program> &Programs,
                                uint64_t WorkloadSeed, uint64_t Call) {
  std::vector<Sample> Samples;
  for (size_t I = 0; I < Programs.size(); ++I)
    for (uint64_t K = 0; K < SeedsPerWorkload; ++K) {
      Sample S;
      S.P = &Programs[I];
      S.Seed = deriveSeed(WorkloadSeed, Call, I * SeedsPerWorkload + K);
      S.Id = formatString("%s/c%llu/s%llu", Programs[I].W->Name.c_str(),
                          static_cast<unsigned long long>(Call),
                          static_cast<unsigned long long>(K));
      Samples.push_back(S);
    }
  return Samples;
}

/// One timed call and what its check needs.
struct Call {
  uint64_t Set = 0;
  bool Translated = false;
  bool Traced = false;
  serve::ServeReport Report;
  double Seconds = 0;
};

uint64_t total(const serve::ServeReport &R,
               uint64_t serve::SessionReport::*Field) {
  uint64_t N = 0;
  for (const serve::SessionReport &S : R.Sessions)
    N += S.*Field;
  return N;
}

/// The serve suite's table1 workloads, with the plain caches that
/// translated producers run from.
void buildPrograms(ProgramSet &Set, Spans &S) {
  Set.Programs.clear(); // programs point into Works
  Set.Works = harness::suiteWorkloads("serve");
  for (const workloads::Workload &W : Set.Works) {
    Program P;
    P.W = &W;
    prepare(P, /*WithPlain=*/true, S);
    Set.Programs.push_back(std::move(P));
  }
}

} // namespace

void perfbench::runServeStream(const Options &O, Result &Out, Spans &S) {
  ProgramSet Set;
  {
    Spans::Scope Sc(S, "bench.setup", "bench");
    buildPrograms(Set, S);
  }
  SetupTimer Setup(buildPrograms);
  const std::vector<Program> &Programs = Set.Programs;

  // Call I streams seed set (I / 2) % SeedSets on engine I % 2: seeds
  // advance every second call and engines alternate every call.
  std::vector<std::vector<serve::SessionInput>> Inputs[2];
  for (uint64_t K = 0; K < SeedSets; ++K)
    for (bool X : {false, true})
      Inputs[X].push_back(
          sessionsFor(callSamples(Programs, O.Seed, K), X));
  std::vector<Call> Calls;
  auto RunCall = [&](uint64_t I, bool Traced) {
    S.setEnabled(Traced);
    Call C;
    C.Set = (I / 2) % SeedSets;
    C.Translated = I % 2 == 1;
    C.Traced = Traced;
    const std::vector<serve::SessionInput> &In = Inputs[C.Translated][C.Set];
    Spans::Scope Sc(S, C.Translated ? "serve.call.translated" : "serve.call",
                    "serve",
                    formatString("call %llu set %llu",
                                 static_cast<unsigned long long>(I),
                                 static_cast<unsigned long long>(C.Set)));
    C.Seconds =
        timed([&] { C.Report = serve::runServe(In, serveConfig(Shards)); });
    Calls.push_back(std::move(C));
  };

  // Warm-up, one call per seed set and engine: the first calls of a
  // process pay for fresh heap pages and read several times slower, so
  // they stay out of the timed region; the traced run reports the very
  // first one as serve.cold_call_ms. The peak memory is read after them:
  // later calls only add allocator-history noise to it.
  const size_t Warm = 2 * SeedSets;
  for (uint64_t I = 0; I < Warm; ++I)
    RunCall(I, O.Trace);
  const double ColdCallMs = Calls.front().Seconds * 1e3;
  const double PeakRss = peakRssMb();

  // Timed region. A traced run traces every other cycle of
  // 2 * SeedSets calls, so each (seed set, engine) pair is measured both
  // traced and untraced. An untraced run times four set-ups after every
  // fourth call, on this thread alone.
  uint64_t Faults0 = minorFaults();
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(O.Seconds);
  for (uint64_t I = Warm; std::chrono::steady_clock::now() < Deadline ||
                          Calls.size() < Warm + 4 * SeedSets;
       ++I) {
    RunCall(I, O.Trace && (I / Warm) % 2 == 0);
    if (!O.Trace && I % 4 == 3)
      Setup.sample(4);
  }
  uint64_t Faults = minorFaults() - Faults0;
  S.setEnabled(O.Trace);

  // Correctness: every session Ok and equal to its batch twin, which is
  // computed here, outside the timed region.
  std::vector<std::vector<std::string>> Twins;
  {
    Spans::Scope Sc(S, "serve.batch_twins", "serve");
    for (const std::vector<serve::SessionInput> &In : Inputs[0])
      Twins.push_back(batchTwins(In, std::min(2u, workerCount())));
  }
  if (O.CorruptReference)
    Twins.front().front() += " corrupted";
  for (const Call &C : Calls)
    checkSessions(C.Report, Twins[C.Set], Out);

  // Rates over all seed sets from each (set, engine)'s best call.
  double Best[2][SeedSets], TracedBest[2][SeedSets];
  for (int X = 0; X < 2; ++X)
    for (uint64_t K = 0; K < SeedSets; ++K)
      Best[X][K] = TracedBest[X][K] = 1e300;
  uint64_t Steps[2][SeedSets] = {}, Events[2][SeedSets] = {};
  for (size_t I = Warm; I < Calls.size(); ++I) {
    const Call &C = Calls[I];
    double &B = (C.Traced ? TracedBest : Best)[C.Translated][C.Set];
    B = std::min(B, C.Seconds);
    Steps[C.Translated][C.Set] = total(C.Report, &serve::SessionReport::Steps);
    Events[C.Translated][C.Set] =
        total(C.Report, &serve::SessionReport::EventsIngested);
  }
  double T[2] = {}, TracedT = 0, St[2] = {}, Ev = 0;
  for (int X = 0; X < 2; ++X)
    for (uint64_t K = 0; K < SeedSets; ++K) {
      T[X] += Best[X][K];
      St[X] += static_cast<double>(Steps[X][K]);
      Ev += static_cast<double>(Events[X][K]);
      TracedT += TracedBest[X][K];
    }

  if (!O.Trace) {
    Out.metric("checked_insts_per_sec", St[0] / T[0], "insts/s");
    Out.metric("checked_insts_per_sec_translated", St[1] / T[1], "insts/s");
    Out.metric("serve_events_per_sec", Ev / (T[0] + T[1]), "events/s");
    Out.metric("peak_rss_mb", PeakRss, "MiB");
    Out.metric("setup_s", Setup.seconds(), "s");
    std::printf("serve_stream: %zu timed calls of %zu sessions at %u shards\n",
                Calls.size() - Warm, Inputs[0].front().size(), Shards);
    return;
  }
  Calls.clear();
  runLedger(Programs, callSamples(Programs, O.Seed, 0), ColdCallMs, S, Out);
  Out.metric("proc.minor_faults", static_cast<double>(Faults), "count");
  Out.metric("bench.tracing_overhead", (T[0] + T[1]) / TracedT, "ratio");
}
