//===- race/Lockset.cpp ---------------------------------------------------===//

#include "race/Lockset.h"

#include "obs/Obs.h"
#include "vm/Machine.h"

#include <algorithm>

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

void LocksetDetector::access(const EventCtx &Ctx, isa::Addr A,
                             bool IsWrite) {
  WordState &W = Words.touch(A);
  int32_t Tid = static_cast<int32_t>(Ctx.Tid);

  switch (W.S) {
  case State::Virgin:
    W.S = State::Exclusive;
    W.FirstTid = Tid;
    break;
  case State::Exclusive:
    if (Tid != W.FirstTid)
      W.S = IsWrite ? State::SharedModified : State::Shared;
    break;
  case State::Shared:
    if (IsWrite)
      W.S = State::SharedModified;
    break;
  case State::SharedModified:
    break;
  }

  // Refine the candidate set once the word is shared. Reads in the
  // plain Shared state refine but never report (Eraser's refinement).
  if (W.S == State::Shared || W.S == State::SharedModified) {
    const std::set<uint32_t> &H = Held[Ctx.Tid];
    if (!W.LocksetInitialized) {
      W.Lockset = H;
      W.LocksetInitialized = true;
    } else {
      std::set<uint32_t> Inter;
      std::set_intersection(W.Lockset.begin(), W.Lockset.end(), H.begin(),
                            H.end(), std::inserter(Inter, Inter.begin()));
      W.Lockset = std::move(Inter);
    }
    if (W.S == State::SharedModified && W.Lockset.empty()) {
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
