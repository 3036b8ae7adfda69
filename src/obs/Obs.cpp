//===- obs/Obs.cpp --------------------------------------------------------===//

#include "obs/Obs.h"

#include "support/StringUtils.h"

using namespace svd;
using namespace svd::obs;
using support::formatString;

void TimerStat::recordNs(uint64_t Ns) {
  std::lock_guard<std::mutex> Lock(M);
  if (S.Count == 0) {
    S.MinNs = Ns;
    S.MaxNs = Ns;
  } else {
    if (Ns < S.MinNs)
      S.MinNs = Ns;
    if (Ns > S.MaxNs)
      S.MaxNs = Ns;
  }
  ++S.Count;
  S.TotalNs += Ns;
}

TimerStat::Snapshot TimerStat::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  return S;
}

Counter &Registry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

TimerStat &Registry::timer(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<TimerStat> &Slot = Timers[Name];
  if (!Slot)
    Slot = std::make_unique<TimerStat>();
  return *Slot;
}

std::vector<std::pair<std::string, uint64_t>> Registry::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    Out.emplace_back(Name, C->value());
  return Out;
}

std::vector<std::pair<std::string, TimerStat::Snapshot>>
Registry::timers() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::pair<std::string, TimerStat::Snapshot>> Out;
  Out.reserve(Timers.size());
  for (const auto &[Name, T] : Timers)
    Out.emplace_back(Name, T->snapshot());
  return Out;
}

std::string obs::metricsJson(const Registry &R) {
  // Instrument names are code constants (no user input), so they are
  // emitted verbatim; one entry per line keeps the document diffable
  // and lets ObsCheck.cmake cut it at the "timings" line.
  std::string J = "{\n  \"schema\": \"svd-metrics-v1\",\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, V] : R.counters()) {
    J += First ? "\n" : ",\n";
    First = false;
    J += formatString("    \"%s\": %llu", Name.c_str(),
                      static_cast<unsigned long long>(V));
  }
  J += "\n  },\n  \"timings\": {";
  First = true;
  for (const auto &[Name, S] : R.timers()) {
    J += First ? "\n" : ",\n";
    First = false;
    J += formatString(
        "    \"%s\": {\"count\": %llu, \"total_ns\": %llu, "
        "\"min_ns\": %llu, \"max_ns\": %llu}",
        Name.c_str(), static_cast<unsigned long long>(S.Count),
        static_cast<unsigned long long>(S.TotalNs),
        static_cast<unsigned long long>(S.MinNs),
        static_cast<unsigned long long>(S.MaxNs));
  }
  J += "\n  }\n}\n";
  return J;
}

bool obs::isDocumentedKey(const std::string &Name) {
  // The fixed keys of DESIGN.md section 15, sorted for review against
  // the document (the leading namespace is the owning layer).
  static const char *const Exact[] = {
      "analysis.proven_cus",
      "detect.hwsvd.cache.accesses",
      "detect.hwsvd.cache.evictions",
      "detect.hwsvd.cache.hits",
      "detect.hwsvd.cache.invalidations",
      "detect.hwsvd.cache.misses",
      "detect.hwsvd.filtered_accesses",
      "detect.hwsvd.metadata_evictions",
      "detect.offline.trace_events",
      "detect.svd.cus_ended",
      "detect.svd.filtered_loads",
      "detect.svd.filtered_stores",
      "fault.lock_failures",
      "fault.preemptions",
      "fault.stalls",
      "harness.sample.detector_run",
      "harness.samples",
      "runner.sample.queue_wait",
      "runner.sample.run",
      "runner.sample_retries",
      "runner.samples_degraded",
      "runner.samples_failed",
      "runner.samples_timed_out",
      "runner.total",
      "serve.backoff_ticks",
      "serve.backoff_waits",
      "serve.events_budget_dropped",
      "serve.events_ingested",
      "serve.events_shed",
      "serve.events_streamed",
      "serve.frames_delivered",
      "serve.frames_duplicated",
      "serve.frames_lost",
      "serve.frames_rejected",
      "serve.frames_reordered",
      "serve.frames_sent",
      "serve.frames_shed",
      "serve.quarantines",
      "serve.readmissions",
      "serve.session.detect",
      "serve.session.produce",
      "serve.session.stream",
      "serve.sessions",
      "serve.sessions_degraded",
      "serve.sessions_failed",
      "serve.sessions_ok",
      "serve.sessions_poisoned",
      "serve.sessions_shed",
      "serve.shards",
      "serve.stall_ticks",
      "serve.ticks",
      "svd.cu_pruned_events",
      "vm.alu",
      "vm.branches",
      "vm.instructions",
      "vm.loads",
      "vm.lock_acquires",
      "vm.lock_spins",
      "vm.program_errors",
      "vm.stores",
      "vm.unlocks",
  };
  for (const char *K : Exact)
    if (Name == K)
      return true;

  // Per-detector families: the middle segment is a detector registry
  // key (open set — out-of-tree detectors register too), the leaf must
  // be one of the documented per-detector instruments.
  auto LeafIn = [](const std::string &Leaf,
                   std::initializer_list<const char *> Allowed) {
    for (const char *A : Allowed)
      if (Leaf == A)
        return true;
    return false;
  };
  auto SplitTail = [](const std::string &S, const char *NsPrefix,
                      std::string &Leaf) {
    size_t NsLen = std::char_traits<char>::length(NsPrefix);
    if (S.compare(0, NsLen, NsPrefix) != 0)
      return false;
    size_t Dot = S.find('.', NsLen);
    if (Dot == std::string::npos || Dot == NsLen ||
        Dot + 1 >= S.size())
      return false;
    Leaf = S.substr(Dot + 1);
    return true;
  };

  // serve.rejects.<reason>: one counter per serve::Reject frame
  // classification (serve/Frame.h rejectName). The reason inventory is
  // owned by the serve layer; anything under the family is documented.
  if (Name.compare(0, 14, "serve.rejects.") == 0 && Name.size() > 14)
    return true;

  std::string Leaf;
  if (SplitTail(Name, "detect.", Leaf))
    return LeafIn(Leaf, {"reports", "cus_formed", "log_entries",
                         "memory_bytes", "degraded", "degraded_evictions",
                         "events"});
  if (SplitTail(Name, "shadow.", Leaf))
    return LeafIn(Leaf, {"pages", "bytes"});
  return false;
}
