//===- analysis/AccessTable.cpp -------------------------------------------===//

#include "analysis/AccessTable.h"

#include "analysis/ProgramPasses.h"

using namespace svd;
using namespace svd::analysis;

const char *analysis::accessClassName(AccessClass C) {
  switch (C) {
  case AccessClass::PossiblyShared:
    return "shared";
  case AccessClass::ThreadLocal:
    return "local";
  case AccessClass::LockProtected:
    return "locked";
  }
  return "?";
}

uint64_t analysis::countAccessSites(const isa::Program &P,
                                    const AccessTable &T, AccessClass C) {
  uint64_t N = 0;
  for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    const std::vector<isa::Instruction> &Code = P.Threads[Tid].Code;
    for (uint32_t Pc = 0; Pc < Code.size(); ++Pc)
      N += isa::isMemoryAccess(Code[Pc].Op) && T.classify(Tid, Pc) == C;
  }
  return N;
}

AccessTable analysis::buildAccessTable(const isa::Program &P,
                                       uint32_t BlockShift) {
  return buildAccessTable(ProgramPasses(P, /*ValueFlow=*/true), BlockShift);
}

AccessTable analysis::buildAccessTable(const ProgramPasses &PP,
                                       uint32_t BlockShift) {
  const isa::Program &P = PP.program();
  uint32_t NumThreads = P.numThreads();
  AccessTable Table(BlockShift, NumThreads);
  for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid)
    Table.resizeThread(Tid, P.Threads[Tid].Code.size());

  // Block-expanded address bound of every access, for the cross-thread
  // alias check.
  std::vector<std::vector<Interval>> Expanded(NumThreads);
  for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid)
    for (const AccessSite &S : PP.escape(Tid).accesses())
      Expanded[Tid].push_back(
          blockExpand(PP.addressOf(Tid, S.Pc), BlockShift));

  auto OtherThreadMayTouch = [&](isa::ThreadId Tid, const Interval &Range) {
    for (isa::ThreadId U = 0; U < NumThreads; ++U) {
      if (U == Tid)
        continue;
      for (const Interval &A : Expanded[U])
        if (A.intersects(Range))
          return true;
    }
    return false;
  };

  for (isa::ThreadId Tid = 0; Tid < NumThreads; ++Tid) {
    const std::vector<AccessSite> &Sites = PP.escape(Tid).accesses();
    for (size_t K = 0; K < Sites.size(); ++K) {
      const AccessSite &S = Sites[K];
      const Interval &Range = Expanded[Tid][K];
      if (Range.empty() || Range.isFull() || Range.Lo < 0)
        continue; // stays PossiblyShared

      // Cas is the annotation-free synchronization primitive: even when
      // its (absolute) address happens to land in this thread's own
      // .local copy, other threads synchronize through exactly such
      // words, and a thread-local proof would silently filter the sync
      // out of every detector. Cas sites always stay PossiblyShared.
      if (S.IsCas)
        continue;

      // ThreadLocal. The classic rule needs the range inside this
      // thread's own copy of a .local symbol; the ValueFlow slab rule
      // relaxes that to any single symbol — a Tid-strided slab of a
      // .global array is just as private once no other thread's
      // (sharpened) range can reach it. Both demand exclusivity at
      // block granularity, which is the actual proof.
      bool Local = false;
      for (const isa::DataSymbol &Sym : P.Symbols) {
        if (PP.hasValueFlow()) {
          int64_t Size = Sym.IsThreadLocal
                             ? int64_t(P.numThreads()) * Sym.Size
                             : Sym.Size;
          if (Range.within(Sym.Base, static_cast<int64_t>(Sym.Base) + Size -
                                         1)) {
            Local = !OtherThreadMayTouch(Tid, Range);
            break;
          }
        } else {
          if (!Sym.IsThreadLocal)
            continue;
          int64_t Base =
              static_cast<int64_t>(Sym.Base) + int64_t(Tid) * Sym.Size;
          if (Range.within(Base, Base + Sym.Size - 1)) {
            Local = !OtherThreadMayTouch(Tid, Range);
            break;
          }
        }
      }
      if (Local) {
        Table.set(Tid, S.Pc, AccessClass::ThreadLocal);
        continue;
      }

      // LockProtected: bounded within one symbol and under a non-empty
      // must-lockset. (Informational — the detectors never filter on it.)
      if (PP.lockset(Tid).mustHeldBefore(S.Pc) == 0)
        continue;
      for (const isa::DataSymbol &Sym : P.Symbols) {
        int64_t Base = Sym.Base;
        int64_t Size = Sym.IsThreadLocal
                           ? int64_t(P.numThreads()) * Sym.Size
                           : Sym.Size;
        if (Range.within(Base, Base + Size - 1)) {
          Table.set(Tid, S.Pc, AccessClass::LockProtected);
          break;
        }
      }
    }
  }
  return Table;
}
