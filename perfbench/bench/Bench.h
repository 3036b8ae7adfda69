//===- perfbench/bench/Bench.h - Benchmark internals -----------*- C++ -*-===//
//
// Shared types of the benchmark program: the result sink, the span
// recorder behind the traced run, the prepared programs every workload
// runs, and the per-layer ledger. The program calls only the public
// functions of the repository's libraries; spans are recorded around
// those calls, never inside them.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_BENCH_H
#define PERFBENCH_BENCH_BENCH_H

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "obs/ChromeTrace.h"
#include "serve/Serve.h"
#include "vm/Machine.h"
#include "vm/Translate.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using namespace svd;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Chrome trace destination of the traced run (empty = none).
  std::string TraceOut;
  /// Perturbs the first reference the checks compare against, so the
  /// benchmark's own test can show a mismatch fails the run.
  bool CorruptReference = false;
};

/// Metrics and correctness accounting of one run.
class Result {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  /// Counts one checked sample or session; \p Failure empty means it
  /// passed, otherwise it is the diagnostic of the mismatch.
  void check(const std::string &Failure);
  /// Adds \p R's checks (not its metrics) to this result.
  void absorb(const Result &R);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  std::string json() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Records one span per layer call of the traced run: each carries its
/// sample or session id and its parent span in Args, and the whole set
/// exports through obs::TraceCollector as a Chrome trace. Disabled
/// recorders cost one branch per call.
class Spans {
public:
  explicit Spans(bool Enabled) : On(Enabled) {}

  /// RAII span; nests under whichever span is open when it starts.
  class Scope {
  public:
    Scope(Spans &S, const char *Name, const char *Layer, std::string Id = "");
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &Owner;
    bool Active;
  };

  void setEnabled(bool Enabled) { On = Enabled; }

  /// Per-layer and per-span self time (duration minus the part covered
  /// by child spans), as a text table.
  std::string selfTimeTable() const;

  /// The Chrome trace_event document of every span recorded.
  std::string chromeTraceJson() const;

private:
  struct Open {
    std::string Name;
    const char *Layer;
    std::string Id;
    uint64_t StartNs;
    uint64_t SpanId;
    uint64_t Parent;
    uint64_t ChildNs;
  };
  struct Closed {
    std::string Name;
    const char *Layer;
    uint64_t DurNs;
    uint64_t ChildNs;
  };
  bool On;
  obs::TraceCollector Collector;
  std::vector<Open> Stack;
  std::vector<Closed> Done;
  uint64_t NextId = 1;
};

/// One workload program with everything its runs share: the static
/// analysis the online detector is configured with and the translation
/// caches (hinted for the online detector, plain for serve producers).
struct Program {
  const workloads::Workload *W = nullptr;
  /// Longest scheduler timeslice of the suite the program comes from.
  uint32_t MaxTimeslice = 1;
  analysis::AccessTable Table;
  analysis::CuProofs Proofs;
  std::unique_ptr<vm::TransCache> Hinted;
  std::unique_ptr<vm::TransCache> Plain;
};

/// A workload's programs; Programs point into Works.
struct ProgramSet {
  std::vector<workloads::Workload> Works;
  std::vector<Program> Programs;
};

/// Worker threads for measurements that repeat side by side: up to
/// four, never more than the host's cores.
unsigned workerCount();

/// Times set-ups of a workload (\p Build builds a ProgramSet from
/// scratch) in groups spread over a run, and gives setup_s: the median
/// of the fastest tenth of them.
class SetupTimer {
public:
  explicit SetupTimer(void (*Build)(ProgramSet &, Spans &));
  /// Times \p N set-ups on the calling thread, on the next allowed core.
  void sample(unsigned N);
  double seconds() const;

private:
  void (*Build)(ProgramSet &, Spans &);
  std::vector<int> Cores;
  size_t NextCore = 0;
  std::vector<double> Times;
};

/// Wall seconds of the three steps of prepare().
struct PrepareTimes {
  double AccessTable = 0, Proofs = 0, TransCache = 0;
};

/// Runs the static analysis and builds the hinted cache of \p P (and a
/// plain cache when \p WithPlain), recording one span per layer call.
PrepareTimes prepare(Program &P, bool WithPlain, Spans &S);

/// One (program, seed) execution sample.
struct Sample {
  const Program *P = nullptr;
  uint64_t Seed = 1;
  std::string Id;
};

/// The machine configuration of a sample, through THE seed derivation
/// (harness::machineConfigFor); a non-null \p Cache selects the
/// translated engine executing from it.
vm::MachineConfig machineFor(const Sample &S, const vm::TransCache *Cache);

/// Deterministic outputs and wall time of one OnlineSvd-checked run.
struct CheckedRun {
  uint64_t Steps = 0;
  uint64_t Events = 0;
  uint64_t Filtered = 0;
  uint64_t Pruned = 0;
  uint64_t CusFormed = 0;
  uint64_t Violations = 0;
  uint64_t ViolationDigest = 0;
  uint64_t CuLog = 0;
  uint64_t ShadowPages = 0;
  uint64_t ShadowBytes = 0;
  double Seconds = 0;
};

/// Runs \p S under a fresh Machine and OnlineSvd with the access table
/// and CU proofs wired in; translated runs use the hinted cache and
/// trust its hints (the `svd-bench --perf --translate` configuration).
CheckedRun runChecked(const Sample &S, bool Translated);

/// Empty when two runs of \p S (interpreter and translated, or a run
/// and the sample's first run) agree on every deterministic output,
/// else a diagnostic.
std::string compareRuns(const Sample &S, const CheckedRun &Interp,
                           const CheckedRun &Translated);

/// Serve session inputs for \p Samples (one session per sample).
std::vector<serve::SessionInput> sessionsFor(const std::vector<Sample> &Samples,
                                             bool Translated);

/// The daemon configuration every workload uses: fault-free,
/// deterministic mode, \p Shards shards with one worker each.
serve::ServeConfig serveConfig(uint32_t Shards);

/// Checks every session of \p R against its batch twin in \p Twins:
/// outcome Ok and identical detectionSignature(). Counts each session.
void checkSessions(const serve::ServeReport &R,
                   const std::vector<std::string> &Twins, Result &Out);

/// detectionSignature() of every session's batch twin, computed on the
/// interpreter so translated producers are checked against it too.
std::vector<std::string>
batchTwins(const std::vector<serve::SessionInput> &Sessions, unsigned Jobs);

/// Fills every per-layer metric from a fixed set of samples (so the
/// counts are pure functions of the workload seed). \p ColdCallMs is the
/// first runServe call of the process, measured by the caller.
void runLedger(const std::vector<Program> &Programs,
               const std::vector<Sample> &Samples, double ColdCallMs,
               Spans &S, Result &Out);

/// Seconds of \p F's wall time.
template <typename Fn> double timed(Fn &&F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

double median(std::vector<double> V);

/// A per-sample seed derived from the workload seed (splitmix64 mix).
uint64_t deriveSeed(uint64_t WorkloadSeed, uint64_t A, uint64_t B);

/// Minor page faults of this process so far (getrusage).
uint64_t minorFaults();

/// Peak resident set of this process image in MiB (VmHWM; unlike
/// getrusage's ru_maxrss it does not inherit the parent's peak).
double peakRssMb();

void runOnline(const Options &O, Result &Out, Spans &S);
void runServeStream(const Options &O, Result &Out, Spans &S);

} // namespace perfbench

#endif // PERFBENCH_BENCH_BENCH_H
