//===- svd/Detector.cpp ---------------------------------------------------===//

#include "svd/Detector.h"

#include "obs/Obs.h"
#include "support/Error.h"

#include <algorithm>
#include <cstring>

using namespace svd;
using namespace svd::detect;

DetectorConfig::~DetectorConfig() = default;

Detector::~Detector() = default;

void Detector::finish(const vm::Machine &) {}

uint64_t Detector::shadowPages() const { return 0; }

size_t Detector::shadowBytes() const { return 0; }

void Detector::injectFaults(const fault::FaultPlan *) {}

const DetectorHealth &Detector::health() const {
  static const DetectorHealth Clean;
  return Clean;
}

const std::vector<CuLogEntry> &Detector::cuLog() const {
  static const std::vector<CuLogEntry> Empty;
  return Empty;
}

size_t Detector::approxMemoryBytes() const { return 0; }

uint64_t Detector::numCusFormed() const { return 0; }

void Detector::exportStats(obs::Registry &R) const {
  std::string Prefix = std::string("detect.") + name() + ".";
  R.counter(Prefix + "reports").add(reports().size());
  R.counter(Prefix + "cus_formed").add(numCusFormed());
  R.counter(Prefix + "log_entries").add(cuLog().size());
  R.counter(Prefix + "memory_bytes").add(approxMemoryBytes());
  // Degradation counters appear only when degradation happened, so the
  // counter inventory of fault-free runs stays byte-identical to the
  // pinned golden (tests/golden/bench_table1_counters.txt).
  const DetectorHealth &H = health();
  if (H.Degraded) {
    R.counter(Prefix + "degraded").add(1);
    R.counter(Prefix + "degraded_evictions").add(H.Evictions);
  }
  // Shadow-footprint counters appear only for shadow-backed detectors
  // that actually materialized pages, for the same golden-stability
  // reason.
  if (uint64_t Pages = shadowPages()) {
    std::string ShadowPrefix = std::string("shadow.") + name() + ".";
    R.counter(ShadowPrefix + "pages").add(Pages);
    R.counter(ShadowPrefix + "bytes").add(shadowBytes());
  }
}

void DetectorRegistry::add(Entry E) {
  if (find(E.Name))
    support::fatalError("detector '" + E.Name + "' registered twice");
  Entries.push_back(std::move(E));
}

const DetectorRegistry::Entry *
DetectorRegistry::find(const std::string &Name) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

std::unique_ptr<Detector>
DetectorRegistry::create(const std::string &Name, const isa::Program &P,
                         const DetectorConfig *Cfg) const {
  const Entry *E = find(Name);
  if (!E)
    support::fatalError("unknown detector '" + Name + "'");
  return E->Create(P, Cfg);
}

std::vector<std::string> DetectorRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Entries.size());
  for (const Entry &E : Entries)
    Out.push_back(E.Name);
  // Sorted, so listings don't leak registration order.
  std::sort(Out.begin(), Out.end());
  return Out;
}

const DetectorConfig *detect::checkConfigKind(const DetectorConfig *Cfg,
                                              const char *Name) {
  if (Cfg && std::strcmp(Cfg->detectorName(), Name) != 0)
    support::fatalError(std::string("config for detector '") +
                        Cfg->detectorName() + "' passed to detector '" +
                        Name + "'");
  return Cfg;
}

namespace {

/// The bare-execution pseudo-detector.
class BareDetector final : public Detector {
public:
  const char *name() const override { return "none"; }
  void attach(vm::Machine &) override {}
  const std::vector<Violation> &reports() const override {
    static const std::vector<Violation> Empty;
    return Empty;
  }
};

} // namespace

void detect::registerBareDetector(DetectorRegistry &R) {
  R.add({"none",
         [](const isa::Program &, const DetectorConfig *Cfg) {
           checkConfigKind(Cfg, "none");
           return std::make_unique<BareDetector>();
         }});
}
