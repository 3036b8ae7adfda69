//===- race/Lockset.cpp ---------------------------------------------------===//

#include "race/Lockset.h"

#include "obs/Obs.h"
#include "vm/Machine.h"

#include <algorithm>
#include <iterator>

using namespace svd;
using namespace svd::race;
using detect::Violation;
using vm::EventCtx;

namespace {

/// Registry adapter around one LocksetDetector instance.
class LocksetRegistryDetector final : public detect::Detector {
public:
  explicit LocksetRegistryDetector(const isa::Program &P) : Impl(P) {}

  const char *name() const override { return "lockset"; }
  void attach(vm::Machine &M) override { M.addObserver(&Impl); }
  const std::vector<Violation> &reports() const override {
    return Impl.reports();
  }
  uint64_t shadowPages() const override { return Impl.shadowPages(); }
  size_t shadowBytes() const override { return Impl.shadowBytes(); }
  void exportStats(obs::Registry &R) const override {
    detect::Detector::exportStats(R);
    R.counter("detect.lockset.events").add(Impl.eventsObserved());
  }

private:
  LocksetDetector Impl;
};

} // namespace

void race::registerLocksetDetector(detect::DetectorRegistry &R) {
  R.add({"lockset",
         [](const isa::Program &P, const detect::DetectorConfig *Cfg) {
           detect::checkConfigKind(Cfg, "lockset");
           return std::make_unique<LocksetRegistryDetector>(P);
         }});
}

LocksetDetector::LocksetDetector(const isa::Program &P)
    : Prog(P), Words(P.MemoryWords) {
  Held.resize(P.numThreads());
}

bool EraserWord::access(int32_t Tid, bool IsWrite,
                        const std::set<uint32_t> &Held) {
  switch (S) {
  case State::Virgin:
    S = State::Exclusive;
    FirstTid = Tid;
    return false;
  case State::Exclusive:
    if (Tid == FirstTid)
      return false;
    S = IsWrite ? State::SharedModified : State::Shared;
    break;
  case State::Shared:
    if (IsWrite)
      S = State::SharedModified;
    break;
  case State::SharedModified:
    break;
  }
  if (!LocksetInitialized) {
    Lockset = Held;
    LocksetInitialized = true;
  } else {
    std::set<uint32_t> Inter;
    std::set_intersection(Lockset.begin(), Lockset.end(), Held.begin(),
                          Held.end(), std::inserter(Inter, Inter.begin()));
    Lockset = std::move(Inter);
  }
  return S == State::SharedModified && Lockset.empty();
}

void LocksetDetector::access(const EventCtx &Ctx, isa::Addr A,
                             bool IsWrite) {
  WordState &W = Words.touch(A);
  int32_t Tid = static_cast<int32_t>(Ctx.Tid);
  if (W.access(Tid, IsWrite, Held[Ctx.Tid])) {
    Violation V;
    V.Seq = Ctx.Seq;
    V.Tid = Ctx.Tid;
    V.Pc = Ctx.Pc;
    if (W.LastTid >= 0 && W.LastTid != Tid) {
      V.OtherTid = static_cast<isa::ThreadId>(W.LastTid);
      V.OtherPc = W.LastPc;
    } else {
      V.OtherTid = Ctx.Tid;
      V.OtherPc = Ctx.Pc;
    }
    V.Address = A;
    Reports.push_back(V);
  }
  W.LastTid = Tid;
  W.LastPc = Ctx.Pc;
}

void LocksetDetector::onLoad(const EventCtx &Ctx, isa::Addr A, isa::Word) {
  ++Events;
  access(Ctx, A, /*IsWrite=*/false);
}

void LocksetDetector::onStore(const EventCtx &Ctx, isa::Addr A,
                              isa::Word) {
  ++Events;
  access(Ctx, A, /*IsWrite=*/true);
}

void LocksetDetector::onAlu(const EventCtx &) { ++Events; }

void LocksetDetector::onBranch(const EventCtx &, bool, uint32_t) {
  ++Events;
}

void LocksetDetector::onLock(const EventCtx &Ctx, uint32_t MutexId) {
  ++Events;
  Held[Ctx.Tid].insert(MutexId);
}

void LocksetDetector::onUnlock(const EventCtx &Ctx, uint32_t MutexId) {
  ++Events;
  Held[Ctx.Tid].erase(MutexId);
}
