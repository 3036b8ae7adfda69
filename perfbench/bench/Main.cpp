//===- perfbench/bench/Main.cpp - Benchmark entry point ------------------===//
//
//   svd-perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                 [--trace-out FILE] [--corrupt-reference]
//
// Runs one workload (online_paper or serve_stream) for S seconds,
// checks its outputs, and prints a text report followed by one
// JSON line: {"correct","attempted","failed","metrics","failures",
// "build"}. --trace 0 measures the end-to-end metrics; --trace 1 the
// per-layer ledger, writing the Chrome trace to FILE. Exit status: 0
// when every check passed, 1 on a failed check, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Cli.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;
using support::formatString;

namespace {

const char *Usage =
    "usage: svd-perfbench --workload online_paper|serve_stream\n"
    "                     --seed N --seconds S [--trace 0|1]\n"
    "                     [--trace-out FILE] [--corrupt-reference]\n";

} // namespace

void Result::metric(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Result::check(const std::string &Failure) {
  ++Attempted;
  if (Failure.empty())
    return;
  ++Failed;
  // The first few diagnostics are enough to locate a divergence.
  if (Failures.size() < 8)
    Failures.push_back(Failure);
}

void Result::absorb(const Result &R) {
  Attempted += R.Attempted;
  Failed += R.Failed;
  for (const std::string &F : R.Failures)
    if (Failures.size() < 8)
      Failures.push_back(F);
}

std::string Result::json() const {
  std::string J = formatString("{\"correct\":%s,\"attempted\":%llu,"
                               "\"failed\":%llu,\"metrics\":{",
                               Failed == 0 ? "true" : "false",
                               static_cast<unsigned long long>(Attempted),
                               static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    // A non-finite value is a bug here; null makes run.py reject
    // the run instead of printing a number that was never measured.
    std::string V = std::isfinite(M.Value) ? formatString("%.17g", M.Value)
                                           : std::string("null");
    J += formatString("%s%s:{\"value\":%s,\"unit\":%s}", I ? "," : "",
                      support::jsonString(M.Name).c_str(), V.c_str(),
                      support::jsonString(M.Unit).c_str());
  }
  J += "},\"failures\":[";
  for (size_t I = 0; I < Failures.size(); ++I)
    J += (I ? "," : "") + support::jsonString(Failures[I]);
  J += formatString("],\"build\":{\"compiler\":%s,\"build_type\":%s}}",
                    support::jsonString(PERFBENCH_COMPILER).c_str(),
                    support::jsonString(PERFBENCH_BUILD_TYPE).c_str());
  return J;
}

Spans::Scope::Scope(Spans &S, const char *Name, const char *Layer,
                    std::string Id)
    : Owner(S), Active(S.On) {
  if (!Active)
    return;
  uint64_t Parent = S.Stack.empty() ? 0 : S.Stack.back().SpanId;
  S.Stack.push_back({Name, Layer, std::move(Id), S.Collector.nowNs(),
                     S.NextId++, Parent, 0});
}

Spans::Scope::~Scope() {
  if (!Active)
    return;
  Open O = std::move(Owner.Stack.back());
  Owner.Stack.pop_back();
  uint64_t Dur = Owner.Collector.nowNs() - O.StartNs;
  if (!Owner.Stack.empty())
    Owner.Stack.back().ChildNs += Dur;
  obs::TraceSpan T;
  T.Name = O.Name;
  T.Cat = O.Layer;
  T.StartNs = O.StartNs;
  T.DurNs = Dur;
  T.Args = {{"span", std::to_string(O.SpanId)},
            {"parent", std::to_string(O.Parent)}};
  if (!O.Id.empty())
    T.Args.push_back({"id", support::jsonString(O.Id)});
  Owner.Collector.add(std::move(T));
  Owner.Done.push_back({O.Name, O.Layer, Dur, O.ChildNs});
}

std::string Spans::selfTimeTable() const {
  struct Row {
    uint64_t Count = 0, TotalNs = 0, SelfNs = 0;
  };
  std::map<std::string, Row> ByLayer;
  std::map<std::pair<std::string, std::string>, Row> BySpan;
  for (const Closed &C : Done) {
    uint64_t Self = C.DurNs > C.ChildNs ? C.DurNs - C.ChildNs : 0;
    for (Row *R : {&ByLayer[C.Layer], &BySpan[{C.Layer, C.Name}]}) {
      ++R->Count;
      R->TotalNs += C.DurNs;
      R->SelfNs += Self;
    }
  }
  std::string Out = "per-layer self time (span duration minus child spans)\n";
  Out += formatString("  %-10s %-28s %8s %12s %12s\n", "layer", "span",
                      "calls", "self_ms", "total_ms");
  for (const auto &[Layer, L] : ByLayer) {
    Out += formatString("  %-10s %-28s %8llu %12.3f %12.3f\n", Layer.c_str(),
                        "(all)", static_cast<unsigned long long>(L.Count),
                        L.SelfNs / 1e6, L.TotalNs / 1e6);
    for (const auto &[Key, R] : BySpan)
      if (Key.first == Layer)
        Out += formatString("  %-10s %-28s %8llu %12.3f %12.3f\n", "",
                            Key.second.c_str(),
                            static_cast<unsigned long long>(R.Count),
                            R.SelfNs / 1e6, R.TotalNs / 1e6);
  }
  return Out;
}

std::string Spans::chromeTraceJson() const {
  return Collector.chromeTraceJson();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

unsigned perfbench::workerCount() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

SetupTimer::SetupTimer(void (*Build)(ProgramSet &, Spans &)) : Build(Build) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Cores.push_back(C);
}

void SetupTimer::sample(unsigned N) {
  // Co-tenants slow single cores by about 1.5x, in phases that last from
  // a tenth of a second to minutes, and at times every core at once. So
  // set-ups are timed in small groups spread over the whole run, one at
  // a time (side by side they slow each other), each group on the next
  // allowed core, and the median of the fastest tenth counts: it needs
  // only a few quiet moments.
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  if (!Cores.empty()) {
    CPU_SET(Cores[NextCore++ % Cores.size()], &Mask);
    sched_setaffinity(0, sizeof(Mask), &Mask);
  }
  for (unsigned K = 0; K < N; ++K) {
    ProgramSet Scratch;
    Spans Off(false);
    Times.push_back(timed([&] { Build(Scratch, Off); }));
  }
  // Threads this one starts later inherit its affinity.
  CPU_ZERO(&Mask);
  for (int C : Cores)
    CPU_SET(C, &Mask);
  if (!Cores.empty())
    sched_setaffinity(0, sizeof(Mask), &Mask);
}

double SetupTimer::seconds() const {
  std::vector<double> T = Times;
  std::sort(T.begin(), T.end());
  T.resize((T.size() + 9) / 10);
  return median(T);
}

uint64_t perfbench::deriveSeed(uint64_t WorkloadSeed, uint64_t A, uint64_t B) {
  uint64_t Z = WorkloadSeed * 0x9E3779B97F4A7C15ULL + (A << 20) + B + 1;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return (Z ^ (Z >> 31)) | 1;
}

uint64_t perfbench::minorFaults() {
  struct rusage U = {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_minflt);
}

double perfbench::peakRssMb() {
  std::ifstream F("/proc/self/status");
  for (std::string Line; std::getline(F, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in KiB
  return 0.0;
}

int main(int Argc, char **Argv) {
  Options O;
  uint64_t Seconds = 0, Trace = 0;
  support::ArgParser P(Usage);
  P.value("--workload", &O.Workload);
  P.value("--seed", &O.Seed);
  P.value("--seconds", &Seconds);
  P.value("--trace", &Trace);
  P.value("--trace-out", &O.TraceOut);
  P.flag("--corrupt-reference", &O.CorruptReference);
  if (!P.parse(Argc, Argv) || !P.positional().empty() || Seconds == 0 ||
      Seconds > 600 || Trace > 1)
    return P.usageError();
  O.Seconds = static_cast<double>(Seconds);
  O.Trace = Trace == 1;

  Result R;
  Spans S(O.Trace);
  if (O.Workload == "online_paper")
    runOnline(O, R, S);
  else if (O.Workload == "serve_stream")
    runServeStream(O, R, S);
  else
    return P.usageError();

  if (O.Trace) {
    std::fputs(S.selfTimeTable().c_str(), stdout);
    if (!O.TraceOut.empty()) {
      std::ofstream F(O.TraceOut, std::ios::binary);
      F << S.chromeTraceJson();
      if (!F) {
        std::fprintf(stderr, "cannot write '%s'\n", O.TraceOut.c_str());
        return support::ExitUsage;
      }
    }
  }
  std::printf("%s\n", R.json().c_str());
  return R.failed() == 0 ? 0 : 1;
}
