//===- svd/OfflineDetector.cpp --------------------------------------------===//

#include "svd/OfflineDetector.h"

#include "fault/Fault.h"
#include "obs/Obs.h"
#include "shadow/Shadow.h"
#include "support/StringUtils.h"
#include "vm/Machine.h"

#include <optional>

using namespace svd;
using namespace svd::detect;
using cu::CuPartition;
using trace::EventKind;
using trace::ProgramTrace;
using trace::TraceEvent;

namespace {

/// Registry adapter: records a trace while the machine runs, then
/// executes the three offline passes in finish(). The recorded trace
/// passes through the sample's fault plan (corruption/truncation) and
/// trace::validate before analysis; an invalid trace yields zero
/// reports and a Degraded health with the validator's diagnostic.
class OfflineSvdDetector final : public Detector {
public:
  OfflineSvdDetector(const isa::Program &P, uint64_t MaxEvents) : Rec(P) {
    Rec.setMaxEvents(MaxEvents);
  }

  const char *name() const override { return "offline"; }
  void attach(vm::Machine &M) override { M.addObserver(&Rec); }
  void injectFaults(const fault::FaultPlan *P) override { Plan = P; }
  void finish(const vm::Machine &) override {
    const ProgramTrace *T = &Rec.trace();
    uint64_t CorruptCount = 0;
    if (Plan && Plan->perturbsTrace()) {
      Perturbed.emplace(Plan->corruptedCopy(Rec.trace(), CorruptCount));
      T = &*Perturbed;
    }
    AnalyzedEvents = T->size();
    uint64_t Lost = CorruptCount + Rec.droppedEvents();
    OfflineAnalysis A = runOfflinePipeline(*T);
    if (!A.Error.empty()) {
      H.Degraded = true;
      H.Reason = std::move(A.Error);
      H.Evictions = Lost;
      return; // an unparseable trace yields no reports, only health
    }
    CusFormed = A.CusFormed;
    Reports_ = std::move(A.Reports);
    if (Lost != 0) {
      // The trace is still well-formed but incomplete: analysis ran,
      // yet violations in the lost suffix may be missing.
      H.Degraded = true;
      H.Reason = support::formatString(
          "trace incomplete: %llu events dropped or corrupted",
          static_cast<unsigned long long>(Lost));
      H.Evictions = Lost;
    }
  }
  const std::vector<Violation> &reports() const override { return Reports_; }
  uint64_t numCusFormed() const override { return CusFormed; }
  const DetectorHealth &health() const override { return H; }
  void exportStats(obs::Registry &R) const override {
    Detector::exportStats(R);
    R.counter("detect.offline.trace_events").add(AnalyzedEvents);
  }

private:
  trace::TraceRecorder Rec;
  const fault::FaultPlan *Plan = nullptr;
  std::optional<ProgramTrace> Perturbed;
  std::vector<Violation> Reports_;
  uint64_t CusFormed = 0;
  uint64_t AnalyzedEvents = 0;
  DetectorHealth H;
};

} // namespace

void detect::registerOfflineDetector(DetectorRegistry &R) {
  R.add({"offline",
         [](const isa::Program &P, const DetectorConfig *Cfg) {
           const auto *C = configAs<OfflineDetectorConfig>(Cfg, "offline");
           return std::make_unique<OfflineSvdDetector>(
               P, C ? C->MaxStateEntries : 0);
         }});
}

namespace {

/// Figure 6's scan over \p T. \p EndSeqOf(E) is the Seq of the last
/// statement of memory access E's CU (its cu.maxSeqId), or 0 when E
/// has no CU. Returns the strict-2PL violations in detection order.
template <typename EndSeqFn>
std::vector<Violation> scanOpenCus(const ProgramTrace &T,
                                   EndSeqFn &&EndSeqOf) {
  std::vector<Violation> Out;

  // Per word: the memory accesses whose owning CU has not yet finished.
  // An entry stays relevant while its CU's EndSeq exceeds the scanner's
  // position; stale entries are pruned on touch.
  struct OpenAccess {
    uint32_t Event;
    uint64_t CuEndSeq;
    bool IsWrite;
  };
  // Paged per-word open-access lists: only the address-space slices
  // the trace actually touches materialize shadow pages.
  shadow::Table<std::vector<OpenAccess>> Open(T.program().MemoryWords);

  for (uint32_t E = 0; E < T.size(); ++E) {
    const TraceEvent &Ev = T[E];
    if (!Ev.isMemory())
      continue;
    bool IsWrite = Ev.Kind == EventKind::Store;
    std::vector<OpenAccess> &Slot = Open.touch(Ev.Address);

    // Prune accesses whose CU already finished (cu.maxSeqId <= s.seqId
    // fails Figure 6's "cu.maxSeqId > s.seqId" condition).
    size_t Keep = 0;
    for (size_t I = 0; I < Slot.size(); ++I)
      if (Slot[I].CuEndSeq > Ev.Seq)
        Slot[Keep++] = Slot[I];
    Slot.resize(Keep);

    // Report conflicts against other threads' unfinished CUs.
    for (const OpenAccess &A : Slot) {
      const TraceEvent &Prev = T[A.Event];
      if (Prev.Tid == Ev.Tid)
        continue;
      if (!IsWrite && !A.IsWrite)
        continue; // read-read never conflicts
      Violation V;
      V.Seq = Ev.Seq;
      V.Tid = Ev.Tid;
      V.Pc = Ev.Pc;
      V.OtherTid = Prev.Tid;
      V.OtherPc = Prev.Pc;
      V.Address = Ev.Address;
      Out.push_back(V);
    }

    // This access joins its own CU's open window.
    uint64_t End = EndSeqOf(E);
    if (End > Ev.Seq)
      Slot.push_back({E, End, IsWrite});
  }
  return Out;
}

} // namespace

std::vector<Violation> detect::detectOffline(const ProgramTrace &T,
                                             const CuPartition &CUs) {
  return scanOpenCus(T, [&CUs](uint32_t E) { return CUs.endSeqOf(E); });
}

OfflineAnalysis detect::runOfflinePipeline(const ProgramTrace &T) {
  OfflineAnalysis A;
  std::string Err;
  if (!trace::validate(T, Err)) {
    A.Error = "trace validation failed: " + Err;
    return A;
  }
  // Figure 6 reads one fact of a CU, its end, so it scans straight off
  // Figure 5's final union-find; no CU record is built.
  cu::CuForest CUs = cu::CuForest::compute(T);
  A.CusFormed = CUs.numUnits();
  A.Reports = scanOpenCus(
      T, [&](uint32_t E) { return T[CUs.lastMemberOf(E)].Seq; });
  return A;
}
