//===- race/Atomizer.cpp --------------------------------------------------===//

#include "race/Atomizer.h"

using namespace svd;
using namespace svd::race;
using detect::Violation;
using vm::EventCtx;

AtomizerDetector::AtomizerDetector(const isa::Program &P) : Prog(P) {
  Words.resize(P.MemoryWords);
  Held.resize(P.numThreads());
  Threads.resize(P.numThreads());
}

void AtomizerDetector::report(const EventCtx &Ctx, isa::Addr A) {
  ThreadState &T = Threads[Ctx.Tid];
  Violation V;
  V.Seq = Ctx.Seq;
  V.Tid = Ctx.Tid;
  V.Pc = Ctx.Pc;
  V.OtherTid = Ctx.Tid;
  V.OtherPc = T.CommitSeen ? T.CommitPc : Ctx.Pc;
  V.OtherSeq = T.CommitSeen ? T.CommitSeq : Ctx.Seq;
  V.Address = A;
  Reports.push_back(V);
}

void AtomizerDetector::access(const EventCtx &Ctx, isa::Addr A,
                              bool IsWrite) {
  bool Racy = Words[A].access(static_cast<int32_t>(Ctx.Tid), IsWrite,
                              Held[Ctx.Tid]);
  ThreadState &T = Threads[Ctx.Tid];
  if (T.HeldCount == 0)
    return; // outside any atomic block
  if (!Racy)
    return; // both-mover: fine in either phase
  // A non-mover: the block's single commit point — or a violation.
  if (T.InPostCommit) {
    report(Ctx, A);
    return;
  }
  T.InPostCommit = true;
  T.CommitSeen = true;
  T.CommitPc = Ctx.Pc;
  T.CommitSeq = Ctx.Seq;
}

void AtomizerDetector::onLoad(const EventCtx &Ctx, isa::Addr A,
                              isa::Word) {
  access(Ctx, A, /*IsWrite=*/false);
}

void AtomizerDetector::onStore(const EventCtx &Ctx, isa::Addr A,
                               isa::Word) {
  access(Ctx, A, /*IsWrite=*/true);
}

void AtomizerDetector::onLock(const EventCtx &Ctx, uint32_t MutexId) {
  ThreadState &T = Threads[Ctx.Tid];
  if (T.HeldCount > 0 && T.InPostCommit) {
    // An acquire is a right-mover: illegal after the commit point.
    report(Ctx, 0);
  }
  if (T.HeldCount == 0) {
    // A new outermost atomic block begins.
    T.InPostCommit = false;
    T.CommitSeen = false;
    ++Blocks;
  }
  ++T.HeldCount;
  Held[Ctx.Tid].insert(MutexId);
}

void AtomizerDetector::onUnlock(const EventCtx &Ctx, uint32_t MutexId) {
  ThreadState &T = Threads[Ctx.Tid];
  Held[Ctx.Tid].erase(MutexId);
  if (T.HeldCount > 0)
    --T.HeldCount;
  // A release is a left-mover: the block is committed from here on.
  if (T.HeldCount > 0)
    T.InPostCommit = true;
}
