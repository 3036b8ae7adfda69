//===- race/HappensBefore.cpp ---------------------------------------------===//

#include "race/HappensBefore.h"

#include "obs/Obs.h"
#include "vm/Machine.h"

using namespace svd;
using namespace svd::race;
using detect::Violation;
using vm::EventCtx;

namespace {

/// Registry adapter around one HappensBeforeDetector instance.
class FrdDetector final : public detect::Detector {
public:
  explicit FrdDetector(const isa::Program &P) : Impl(P) {}

  const char *name() const override { return "frd"; }
  void attach(vm::Machine &M) override { M.addObserver(&Impl); }
  const std::vector<Violation> &reports() const override {
    return Impl.races();
  }
  size_t approxMemoryBytes() const override {
    return Impl.approxMemoryBytes();
  }
  uint64_t shadowPages() const override { return Impl.shadowPages(); }
  size_t shadowBytes() const override { return Impl.shadowBytes(); }
  void exportStats(obs::Registry &R) const override {
    detect::Detector::exportStats(R);
    R.counter("detect.frd.events").add(Impl.eventsObserved());
  }

private:
  HappensBeforeDetector Impl;
};

} // namespace

void race::registerHappensBeforeDetector(detect::DetectorRegistry &R) {
  R.add({"frd",
         [](const isa::Program &P, const detect::DetectorConfig *Cfg) {
           detect::checkConfigKind(Cfg, "frd");
           return std::make_unique<FrdDetector>(P);
         }});
}

HappensBeforeDetector::HappensBeforeDetector(const isa::Program &P)
    : Prog(P), NumThreads(P.numThreads()), Words(P.MemoryWords + 1) {
  ThreadVC.assign(NumThreads, std::vector<Clock>(NumThreads, 0));
  for (uint32_t Tid = 0; Tid < NumThreads; ++Tid)
    ThreadVC[Tid][Tid] = 1;
  MutexVC.assign(P.Mutexes.size(), std::vector<Clock>(NumThreads, 0));
}

HappensBeforeDetector::WordState &
HappensBeforeDetector::stateOf(isa::Addr A) {
  WordState &S = Words.touch(A);
  if (S.ReadClock.empty()) {
    S.ReadClock.assign(NumThreads, 0);
    S.ReadPc.assign(NumThreads, 0);
    ++InitializedWords;
  }
  return S;
}

void HappensBeforeDetector::report(const EventCtx &Ctx, isa::Addr A,
                                   isa::ThreadId OtherTid,
                                   uint32_t OtherPc) {
  Violation V;
  V.Seq = Ctx.Seq;
  V.Tid = Ctx.Tid;
  V.Pc = Ctx.Pc;
  V.OtherTid = OtherTid;
  V.OtherPc = OtherPc;
  V.Address = A;
  Races.push_back(V);
}

void HappensBeforeDetector::onLoad(const EventCtx &Ctx, isa::Addr A,
                                   isa::Word) {
  ++Events;
  WordState &S = stateOf(A);
  std::vector<Clock> &VC = ThreadVC[Ctx.Tid];
  // Write-read race: the last write is not ordered before this read.
  if (S.WriteTid >= 0 && S.WriteTid != static_cast<int32_t>(Ctx.Tid) &&
      S.WriteClock > VC[S.WriteTid])
    report(Ctx, A, static_cast<isa::ThreadId>(S.WriteTid), S.WritePc);
  S.ReadClock[Ctx.Tid] = VC[Ctx.Tid];
  S.ReadPc[Ctx.Tid] = Ctx.Pc;
}

void HappensBeforeDetector::onStore(const EventCtx &Ctx, isa::Addr A,
                                    isa::Word) {
  ++Events;
  WordState &S = stateOf(A);
  std::vector<Clock> &VC = ThreadVC[Ctx.Tid];
  // Write-write race.
  if (S.WriteTid >= 0 && S.WriteTid != static_cast<int32_t>(Ctx.Tid) &&
      S.WriteClock > VC[S.WriteTid])
    report(Ctx, A, static_cast<isa::ThreadId>(S.WriteTid), S.WritePc);
  // Read-write races against every unordered remote read.
  for (uint32_t U = 0; U < NumThreads; ++U) {
    if (U == Ctx.Tid)
      continue;
    if (S.ReadClock[U] > VC[U])
      report(Ctx, A, U, S.ReadPc[U]);
  }
  // This write supersedes earlier accesses.
  S.WriteTid = static_cast<int32_t>(Ctx.Tid);
  S.WriteClock = VC[Ctx.Tid];
  S.WritePc = Ctx.Pc;
  std::fill(S.ReadClock.begin(), S.ReadClock.end(), 0);
}

void HappensBeforeDetector::onAlu(const EventCtx &) { ++Events; }

void HappensBeforeDetector::onBranch(const EventCtx &, bool, uint32_t) {
  ++Events;
}

void HappensBeforeDetector::onLock(const EventCtx &Ctx, uint32_t MutexId) {
  ++Events;
  // Acquire: join the mutex's clock into the thread's.
  std::vector<Clock> &VC = ThreadVC[Ctx.Tid];
  const std::vector<Clock> &L = MutexVC[MutexId];
  for (uint32_t U = 0; U < NumThreads; ++U)
    if (L[U] > VC[U])
      VC[U] = L[U];
}

void HappensBeforeDetector::onUnlock(const EventCtx &Ctx,
                                     uint32_t MutexId) {
  ++Events;
  // Release: publish the thread's clock, then advance its epoch.
  MutexVC[MutexId] = ThreadVC[Ctx.Tid];
  ++ThreadVC[Ctx.Tid][Ctx.Tid];
}

size_t HappensBeforeDetector::approxMemoryBytes() const {
  size_t Bytes = 0;
  for (const auto &VC : ThreadVC)
    Bytes += VC.capacity() * sizeof(Clock);
  for (const auto &VC : MutexVC)
    Bytes += VC.capacity() * sizeof(Clock);
  Bytes += Words.approxMemoryBytes();
  // The lazy per-word read vectors live outside the shadow pages.
  Bytes += InitializedWords * NumThreads * (sizeof(Clock) + sizeof(uint32_t));
  Bytes += Races.capacity() * sizeof(Violation);
  return Bytes;
}
