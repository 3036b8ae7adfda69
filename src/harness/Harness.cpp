//===- harness/Harness.cpp ------------------------------------------------===//

#include "harness/Harness.h"

#include "fault/Fault.h"
#include "obs/Obs.h"
#include "race/HappensBefore.h"
#include "race/Lockset.h"
#include "svd/HardwareSvd.h"
#include "svd/OfflineDetector.h"
#include "svd/OnlineSvd.h"
#include "support/Error.h"

#include <algorithm>
#include <unordered_set>

using namespace svd;
using namespace svd::harness;
using workloads::Workload;

const detect::DetectorRegistry &harness::detectorRegistry() {
  // Magic-static initialization keeps the first concurrent call safe;
  // afterwards the registry is immutable.
  static const detect::DetectorRegistry Registry = [] {
    detect::DetectorRegistry R;
    detect::registerOnlineSvdDetector(R);
    race::registerHappensBeforeDetector(R);
    race::registerLocksetDetector(R);
    detect::registerHardwareSvdDetector(R);
    detect::registerOfflineDetector(R);
    detect::registerBareDetector(R);
    return R;
  }();
  return Registry;
}

vm::MachineConfig harness::machineConfigFor(const SampleConfig &C) {
  vm::MachineConfig MC;
  MC.SchedSeed = C.Seed;
  MC.RndSeed = C.Seed ^ RndSeedSalt;
  MC.MinTimeslice = C.MinTimeslice;
  MC.MaxTimeslice = C.MaxTimeslice;
  MC.MaxSteps = C.MaxSteps;
  MC.Faults = C.Faults;
  return MC;
}

SampleMetrics harness::runSample(const Workload &W,
                                 const std::string &Detector,
                                 const SampleConfig &C) {
  std::unique_ptr<detect::Detector> D =
      detectorRegistry().create(Detector, W.Program, C.Detector.get());
  if (C.Faults)
    D->injectFaults(C.Faults);

  vm::Machine Machine(W.Program, machineConfigFor(C));
  D->attach(Machine);
  SampleMetrics M;
  {
    obs::ScopedTimer Run(
        C.Obs ? &C.Obs->timer("harness.sample.detector_run") : nullptr);
    M.Stop = Machine.run();
    D->finish(Machine);
  }

  const detect::DetectorHealth &H = D->health();
  M.DetectorDegraded = H.Degraded;
  M.DegradedReason = H.Reason;
  M.DetectorEvictions = H.Evictions;

  workloads::classifyReports(W, D->reports(), M);
  M.CusFormed = D->numCusFormed();
  M.LogEntries = D->cuLog().size();
  if (!D->cuLog().empty()) {
    std::unordered_set<uint64_t> StaticLog;
    for (const detect::CuLogEntry &E : D->cuLog()) {
      StaticLog.insert(E.staticKey());
      if (W.isTrueLogEntry(E))
        M.LogFoundBug = true;
    }
    M.StaticLogEntries = StaticLog.size();
    M.StaticLogKeys.assign(StaticLog.begin(), StaticLog.end());
    std::sort(M.StaticLogKeys.begin(), M.StaticLogKeys.end());
  }
  M.DetectorBytes = D->approxMemoryBytes();

  M.Steps = Machine.steps();
  M.Manifested = W.Manifested(Machine);

  if (C.Obs) {
    obs::Registry &R = *C.Obs;
    R.counter("harness.samples").add(1);
    Machine.exportStats(R);
    D->exportStats(R);
  }
  return M;
}

TextTable::TextTable(std::vector<std::string> Headers) {
  Rows.push_back(std::move(Headers));
}

void TextTable::addRow(std::vector<std::string> Cells) {
  Rows.push_back(std::move(Cells));
}

std::string TextTable::render() const {
  std::vector<size_t> Widths;
  for (const auto &Row : Rows) {
    if (Widths.size() < Row.size())
      Widths.resize(Row.size(), 0);
    for (size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());
  }
  std::string Out;
  for (size_t R = 0; R < Rows.size(); ++R) {
    const auto &Row = Rows[R];
    for (size_t I = 0; I < Row.size(); ++I) {
      Out += "| ";
      Out += Row[I];
      Out.append(Widths[I] - Row[I].size() + 1, ' ');
    }
    Out += "|\n";
    if (R == 0) {
      for (size_t I = 0; I < Widths.size(); ++I) {
        Out += "|";
        Out.append(Widths[I] + 2, '-');
      }
      Out += "|\n";
    }
  }
  return Out;
}
