//===- analysis/ConflictPairs.cpp -----------------------------------------===//

#include "analysis/ConflictPairs.h"

#include "analysis/ProgramPasses.h"

using namespace svd;
using namespace svd::analysis;

bool ConflictPairs::conflicts(const ConflictSite &A, const ConflictSite &B) {
  if (!mayHappenInParallel(A.Tid, B.Tid))
    return false;
  if (!A.IsWrite && !B.IsWrite)
    return false;
  if (!A.Addr.intersects(B.Addr))
    return false;
  // A common must-held mutex serializes the two critical sections; no
  // interleaving can place B between A's read and write halves.
  if (A.MustLocks & B.MustLocks)
    return false;
  return true;
}

ConflictPairs::ConflictPairs(const ProgramPasses &PP, uint32_t BlockShift)
    : Shift(BlockShift), Sites(PP.program().numThreads()) {
  const isa::Program &P = PP.program();
  for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    const StaticLockset &LS = PP.lockset(Tid);
    for (const AccessSite &S : PP.escape(Tid).accesses()) {
      ConflictSite C;
      C.Tid = Tid;
      C.Pc = S.Pc;
      C.IsCas = S.IsCas;
      C.IsWrite = S.IsWrite;
      C.IsRead = !S.IsWrite || S.IsCas;
      C.Addr = blockExpand(S.Addr, Shift);
      C.MustLocks = LS.analyzable() ? LS.mustHeldBefore(S.Pc) : 0;
      Sites[Tid].push_back(C);
    }
  }

  for (isa::ThreadId TA = 0; TA < P.numThreads(); ++TA)
    for (isa::ThreadId TB = TA + 1; TB < P.numThreads(); ++TB)
      for (const ConflictSite &A : Sites[TA])
        for (const ConflictSite &B : Sites[TB])
          if (conflicts(A, B))
            Pairs.push_back({A, B});
}

std::vector<ConflictSite> ConflictPairs::conflictsWith(isa::ThreadId Tid,
                                                       uint32_t Pc) const {
  std::vector<ConflictSite> Out;
  for (const ConflictPair &P : Pairs) {
    if (P.A.Tid == Tid && P.A.Pc == Pc)
      Out.push_back(P.B);
    else if (P.B.Tid == Tid && P.B.Pc == Pc)
      Out.push_back(P.A);
  }
  return Out;
}
