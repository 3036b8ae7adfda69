//===- analysis/Predict.cpp -----------------------------------------------===//

#include "analysis/Predict.h"

#include "analysis/AccessTable.h"
#include "analysis/ProgramPasses.h"
#include "analysis/StaticCu.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

using namespace svd;
using namespace svd::analysis;
using isa::Instruction;
using isa::Opcode;

const char *analysis::patternKindName(PatternKind K) {
  switch (K) {
  case PatternKind::LostUpdate:
    return "lost-update";
  case PatternKind::StaleRead:
    return "stale-read";
  case PatternKind::DirtyRead:
    return "dirty-read";
  case PatternKind::NonRepeatableRead:
    return "non-repeatable-read";
  }
  return "?";
}

namespace {

bool sameCode(const std::vector<Instruction> &A,
              const std::vector<Instruction> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Op != B[I].Op || A[I].Rd != B[I].Rd || A[I].Ra != B[I].Ra ||
        A[I].Rb != B[I].Rb || A[I].Imm != B[I].Imm)
      return false;
  return true;
}

/// Code-equality classes over threads: `.thread worker x8` replicas all
/// map to the class of the first replica, so a symmetric prediction is
/// emitted once.
std::vector<uint32_t> codeClasses(const isa::Program &P) {
  std::vector<uint32_t> Class(P.numThreads());
  for (isa::ThreadId T = 0; T < P.numThreads(); ++T) {
    Class[T] = T;
    for (isa::ThreadId U = 0; U < T; ++U)
      if (sameCode(P.Threads[U].Code, P.Threads[T].Code)) {
        Class[T] = Class[U];
        break;
      }
  }
  return Class;
}

} // namespace

std::vector<Prediction> analysis::predictProgram(const isa::Program &P,
                                                 const PredictOptions &O) {
  std::vector<Prediction> Out;
  if (P.numThreads() < 2)
    return Out; // nothing may-happen-in-parallel

  // The predictor maximizes recall, so it sticks with the classic
  // Escape-only classifier: ValueFlow's slab rule proves whole-program
  // exclusivity of e.g. single-writer globals — sound for pruning
  // dynamic detection of this exact program, but a predictor silent
  // about such publish sites would miss precisely the patterns that
  // surface when a concurrent reader is added later. One escape-only
  // bundle feeds the table, the conflict pairs and the per-thread
  // unit inference below.
  ProgramPasses PP(P, /*ValueFlow=*/false);
  AccessTable Table = buildAccessTable(PP, O.BlockShift);
  ConflictPairs CP(PP, O.BlockShift);
  std::vector<uint32_t> Class = codeClasses(P);

  // (local class, pcs, kind, remote class, remote pc) — one prediction
  // per equivalence class of thread replicas.
  std::set<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint8_t,
                      uint32_t, uint32_t>>
      Seen;

  for (isa::ThreadId L = 0; L < P.numThreads(); ++L) {
    const std::vector<Instruction> &Code = P.Threads[L].Code;
    const EscapeAnalysis &EA = PP.escape(L);
    const StaticLockset &LS = PP.lockset(L);
    const ReachingDefs &RD = PP.reachingDefs(L);
    StaticCuInference CU(PP.cfg(L), Code, EA, RD, [&Table, L](uint32_t Pc) {
      return Table.classify(L, Pc) != AccessClass::ThreadLocal;
    });

    // Block-expanded bound of a local access, for same-variable tests at
    // the granularity the detector uses.
    auto AddrOf = [&](uint32_t Pc) {
      return blockExpand(EA.addressOf(Pc), O.BlockShift);
    };

    // Mutexes must-held at *every* reachable pc of [Lo, Hi]. A remote
    // site needing one of these can never interleave into the span.
    // (The pc range over-approximates the paths between the endpoints;
    // extra pcs only shrink the mask, i.e. prune less — conservative.)
    auto HeldThrough = [&](uint32_t Lo, uint32_t Hi) -> uint64_t {
      if (!LS.analyzable())
        return 0;
      uint64_t Held = ~uint64_t(0);
      for (uint32_t Pc = Lo; Pc <= Hi && Pc < Code.size(); ++Pc)
        if (EA.reachable(Pc))
          Held &= LS.mustHeldBefore(Pc);
      return Held == ~uint64_t(0) ? 0 : Held;
    };

    auto Emit = [&](PatternKind Kind, uint32_t FirstPc, uint32_t SecondPc,
                    uint32_t CheckPc, uint32_t UnitId,
                    const ConflictSite &Remote) {
      uint32_t Lo = std::min({FirstPc, SecondPc, CheckPc});
      uint32_t Hi = std::max({FirstPc, SecondPc, CheckPc});
      if (HeldThrough(Lo, Hi) & Remote.MustLocks)
        return; // serialized by a common mutex
      if (!Seen
               .insert({Class[L], FirstPc, SecondPc, CheckPc,
                        static_cast<uint8_t>(Kind), Class[Remote.Tid],
                        Remote.Pc})
               .second)
        return; // replica-symmetric duplicate
      Prediction Pr;
      Pr.Kind = Kind;
      Pr.LocalTid = L;
      Pr.FirstPc = FirstPc;
      Pr.SecondPc = SecondPc;
      Pr.CheckPc = CheckPc;
      Pr.UnitId = UnitId;
      Pr.RemoteTid = Remote.Tid;
      Pr.RemotePc = Remote.Pc;
      Pr.RemoteIsWrite = Remote.IsWrite;
      Pr.FirstAddr = AddrOf(FirstPc);
      Pr.FirstLine = Code[FirstPc].Line;
      Pr.SecondLine = Code[SecondPc].Line;
      Pr.CheckLine = Code[CheckPc].Line;
      Pr.RemoteLine = P.Threads[Remote.Tid].Code[Remote.Pc].Line;
      Out.push_back(Pr);
    };

    for (const StaticCu &U : CU.units()) {
      // lost-update / stale-read: read feeding a dependent write; a
      // remote write to the read's variable lands between them.
      for (uint32_t R : U.SharedReads) {
        for (uint32_t W : U.SharedWrites) {
          if (!CU.dependsOn(W, R))
            continue;
          PatternKind Kind = AddrOf(R).intersects(AddrOf(W))
                                 ? PatternKind::LostUpdate
                                 : PatternKind::StaleRead;
          for (const ConflictSite &M : CP.conflictsWith(L, R))
            if (M.IsWrite)
              Emit(Kind, R, W, W, U.Id, M);
        }
      }

      // non-repeatable-read: two reads of one variable feeding one
      // store; a remote write between the reads splits their value.
      for (size_t I = 0; I < U.SharedReads.size(); ++I) {
        for (size_t J = I + 1; J < U.SharedReads.size(); ++J) {
          uint32_t R1 = U.SharedReads[I], R2 = U.SharedReads[J];
          if (!AddrOf(R1).intersects(AddrOf(R2)))
            continue;
          // The check fires at the first store depending on both reads.
          uint32_t S = StaticCuInference::NoUnit;
          for (uint32_t W : U.SharedWrites)
            if (CU.dependsOn(W, R1) && CU.dependsOn(W, R2)) {
              S = W;
              break;
            }
          if (S == StaticCuInference::NoUnit)
            continue;
          for (const ConflictSite &M : CP.conflictsWith(L, R1))
            if (M.IsWrite)
              Emit(PatternKind::NonRepeatableRead, R1, R2, S, U.Id, M);
        }
      }

      // dirty-read: two connected writes of one variable; a remote read
      // between them observes the intermediate value.
      for (size_t I = 0; I < U.SharedWrites.size(); ++I) {
        for (size_t J = I + 1; J < U.SharedWrites.size(); ++J) {
          uint32_t W1 = U.SharedWrites[I], W2 = U.SharedWrites[J];
          if (!AddrOf(W1).intersects(AddrOf(W2)))
            continue;
          // The online check at W2 only covers CUs its value/address/
          // control registers carry, so demand a dependence connection
          // (stores define no registers — a shared ancestor is how two
          // stores end up in one dynamic CU's check set).
          if (!CU.dependsOn(W2, W1) && !CU.shareAncestor(W1, W2))
            continue;
          for (const ConflictSite &M : CP.conflictsWith(L, W1))
            if (M.IsRead)
              Emit(PatternKind::DirtyRead, W1, W2, W2, U.Id, M);
        }
      }
    }
  }

  sortPredictions(Out);
  return Out;
}

void analysis::sortPredictions(std::vector<Prediction> &Ps) {
  std::sort(Ps.begin(), Ps.end(),
            [](const Prediction &A, const Prediction &B) {
              auto Key = [](const Prediction &P) {
                return std::make_tuple(P.FirstLine, P.CheckLine,
                                       static_cast<uint8_t>(P.Kind),
                                       P.LocalTid, P.FirstPc, P.SecondPc,
                                       P.RemoteTid, P.RemotePc);
              };
              return Key(A) < Key(B);
            });
}

std::string analysis::formatPrediction(const isa::Program &P,
                                       const Prediction &Pr) {
  std::ostringstream OS;
  OS << "thread '" << P.Threads[Pr.LocalTid].Name << "' pcs " << Pr.FirstPc
     << "->" << Pr.CheckPc;
  if (Pr.FirstLine)
    OS << " (lines " << Pr.FirstLine << "->" << Pr.CheckLine << ")";
  OS << ": " << patternKindName(Pr.Kind) << " on ";
  if (Pr.FirstAddr.isConstant())
    OS << P.describeAddress(static_cast<isa::Addr>(Pr.FirstAddr.Lo));
  else if (Pr.FirstAddr.isFull() || Pr.FirstAddr.Lo < 0)
    OS << "unbounded address";
  else
    OS << "words [" << Pr.FirstAddr.Lo << ".." << Pr.FirstAddr.Hi << "]";
  OS << ": remote " << (Pr.RemoteIsWrite ? "write" : "read") << " by '"
     << P.Threads[Pr.RemoteTid].Name << "' pc " << Pr.RemotePc;
  if (Pr.RemoteLine)
    OS << " (line " << Pr.RemoteLine << ")";
  OS << " may interleave";
  return OS.str();
}
