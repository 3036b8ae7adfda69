//===- analysis/Lint.cpp --------------------------------------------------===//

#include "analysis/Lint.h"

#include "analysis/ProgramPasses.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <sstream>
#include <tuple>

using namespace svd;
using namespace svd::analysis;
using isa::Instruction;

namespace {

std::string mutexName(const isa::Program &P, uint32_t Id) {
  if (Id < P.Mutexes.size())
    return "'" + P.Mutexes[Id] + "'";
  return support::formatString("#%u", Id);
}

void lintLocksets(const isa::Program &P, isa::ThreadId Tid,
                  const StaticLockset &LS, std::vector<LintDiag> &Out) {
  for (const LocksetDiag &D : LS.diagnostics()) {
    LintDiag L;
    L.Tid = Tid;
    L.Pc = D.Pc;
    L.Line = D.Line;
    L.Severity = D.Definite ? LintSeverity::Error : LintSeverity::Warning;
    std::string M = mutexName(P, D.MutexId);
    switch (D.K) {
    case LocksetDiag::Kind::DoubleAcquire:
      L.Category = "double-acquire";
      L.Message = "mutex " + M +
                  " acquired while already held (self-deadlock: the "
                  "mutexes of this machine are non-recursive)";
      break;
    case LocksetDiag::Kind::MayDoubleAcquire:
      L.Category = "double-acquire";
      L.Message =
          "mutex " + M + " may already be held on some path to this lock";
      break;
    case LocksetDiag::Kind::UnlockNotHeld:
      L.Category = "unlock-not-held";
      L.Message = "mutex " + M + " released but never held at this point";
      break;
    case LocksetDiag::Kind::MayUnlockNotHeld:
      L.Category = "unlock-not-held";
      L.Message = "mutex " + M + " may not be held on some path to this "
                                 "unlock";
      break;
    case LocksetDiag::Kind::HeldAtExit:
      L.Category = "lock-imbalance";
      L.Message = "thread exits holding mutex " + M +
                  " (lock/unlock imbalance)";
      break;
    }
    Out.push_back(std::move(L));
  }
}

void lintUninitReads(isa::ThreadId Tid, const ReachingDefs &RD,
                     const std::vector<Instruction> &Code,
                     std::vector<LintDiag> &Out) {
  for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
    if (!RD.reachable(Pc))
      continue;
    const Instruction &I = Code[Pc];
    uint32_t Used = Liveness::usedRegs(I);
    for (isa::Reg R = 1; R < isa::NumRegs; ++R) {
      if (!(Used & (uint32_t(1) << R)))
        continue;
      if (RD.mustBeUninitAt(Pc, R)) {
        Out.push_back({LintSeverity::Warning, "uninit-read", Tid, Pc,
                       I.Line,
                       support::formatString(
                           "r%u read but never written on any path "
                           "(always the initial zero)",
                           R)});
      } else if (RD.mayBeUninitAt(Pc, R)) {
        Out.push_back({LintSeverity::Warning, "uninit-read", Tid, Pc,
                       I.Line,
                       support::formatString(
                           "r%u may be read before its first write "
                           "(initialized on some paths only)",
                           R)});
      }
    }
  }
}

void lintDeadWrites(isa::ThreadId Tid, const Liveness &LV,
                    const std::vector<Instruction> &Code,
                    std::vector<LintDiag> &Out) {
  for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
    if (!LV.isDeadWrite(Pc))
      continue;
    const Instruction &I = Code[Pc];
    Out.push_back({LintSeverity::Warning, "dead-store", Tid, Pc, I.Line,
                   support::formatString(
                       "r%u written here but never read afterwards",
                       I.Rd)});
  }
}

void lintProofs(const CuProofs &Proofs, std::vector<LintDiag> &Out) {
  for (const ProofDiag &D : Proofs.diagnostics()) {
    LintDiag L;
    L.Severity = LintSeverity::Warning;
    L.Tid = D.Tid;
    L.Pc = D.Pc;
    L.Line = D.Line;
    L.Message = D.Message;
    switch (D.K) {
    case ProofDiag::Kind::InconsistentLock:
      L.Category = "inconsistent-lock";
      break;
    case ProofDiag::Kind::NonTwoPhase:
      L.Category = "non-two-phase";
      break;
    case ProofDiag::Kind::LockOrderCycle:
      L.Category = "lock-order-cycle";
      break;
    }
    Out.push_back(std::move(L));
  }
}

/// Qualifies a diagnostic at a pc inside a materialized proc body with
/// the proc and its call path. Main-body diagnostics carry no
/// qualifier, so flat-program output is byte-identical to what it was
/// before procs existed.
void qualifyProc(const ProgramPasses &PP, LintDiag &D) {
  const isa::Program &P = PP.program();
  if (D.Tid >= P.numThreads())
    return;
  const isa::ThreadCode &T = P.Threads[D.Tid];
  const isa::ProcInfo *Proc = T.procAt(D.Pc);
  if (!Proc)
    return;
  D.Proc = Proc->Name;
  const isa::ThreadCallGraph &Cg = PP.callGraph(D.Tid);
  const isa::RegionMap &RM = Cg.regions();
  for (uint32_t Region : Cg.pathFromMain(RM.regionOf(D.Pc))) {
    if (Region == 0) {
      D.CallPath.push_back("main");
      continue;
    }
    const isa::ProcInfo *PI = T.procAt(RM.entryOf(Region));
    D.CallPath.push_back(PI ? PI->Name
                            : support::formatString(
                                  "pc%u", RM.entryOf(Region)));
  }
}

} // namespace

std::vector<LintDiag> analysis::lintProgram(const isa::Program &P,
                                            const LintOptions &O) {
  return lintProgram(ProgramPasses(P, /*ValueFlow=*/O.Prove), O).Diags;
}

LintReport analysis::lintProgram(const ProgramPasses &PP,
                                 const LintOptions &O) {
  const isa::Program &P = PP.program();
  LintReport R;
  std::vector<LintDiag> &Out = R.Diags;
  for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    const std::vector<Instruction> &Code = P.Threads[Tid].Code;
    if (O.Lockset)
      lintLocksets(P, Tid, PP.lockset(Tid), Out);
    if (O.UninitReads)
      lintUninitReads(Tid, PP.reachingDefs(Tid), Code, Out);
    if (O.DeadWrites)
      lintDeadWrites(Tid, PP.liveness(Tid), Code, Out);
  }
  if (O.Prove) {
    R.Proofs = proveAtomicCus(PP, O.BlockShift);
    lintProofs(R.Proofs, Out);
  }
  for (LintDiag &D : Out)
    qualifyProc(PP, D);
  sortLintDiags(Out);
  return R;
}

void analysis::sortLintDiags(std::vector<LintDiag> &Ds) {
  std::sort(Ds.begin(), Ds.end(), [](const LintDiag &A, const LintDiag &B) {
    auto Key = [](const LintDiag &D) {
      return std::tie(D.Line, D.Category, D.Tid, D.Pc, D.Message);
    };
    return Key(A) < Key(B);
  });
}

std::string analysis::lintDiagsToJson(const isa::Program &P,
                                      const std::string &File,
                                      const std::vector<LintDiag> &Ds) {
  using support::jsonString;
  std::ostringstream OS;
  OS << "{\"file\":" << jsonString(File) << ",\"diagnostics\":[";
  for (size_t I = 0; I < Ds.size(); ++I) {
    const LintDiag &D = Ds[I];
    if (I)
      OS << ",";
    OS << "{\"severity\":"
       << jsonString(D.Severity == LintSeverity::Error ? "error"
                                                       : "warning")
       << ",\"category\":" << jsonString(D.Category) << ",\"thread\":"
       << jsonString(D.Tid < P.numThreads() ? P.Threads[D.Tid].Name : "?")
       << ",\"tid\":" << D.Tid << ",\"pc\":" << D.Pc
       << ",\"line\":" << D.Line
       << ",\"message\":" << jsonString(D.Message);
    if (!D.Proc.empty()) {
      OS << ",\"proc\":" << jsonString(D.Proc) << ",\"call_path\":[";
      for (size_t J = 0; J < D.CallPath.size(); ++J)
        OS << (J ? "," : "") << jsonString(D.CallPath[J]);
      OS << "]";
    }
    OS << "}";
  }
  OS << "],\"num_diagnostics\":" << Ds.size() << "}";
  return OS.str();
}

std::string analysis::formatLintDiag(const isa::Program &P,
                                     const LintDiag &D) {
  const char *Sev = D.Severity == LintSeverity::Error ? "error" : "warning";
  std::string Where =
      D.Tid < P.numThreads()
          ? support::formatString("thread '%s' pc %u",
                                  P.Threads[D.Tid].Name.c_str(), D.Pc)
          : support::formatString("thread %u pc %u", D.Tid, D.Pc);
  if (D.Line != 0)
    Where += support::formatString(" (line %u)", D.Line);
  std::string Out =
      Where + ": " + Sev + ": [" + D.Category + "] " + D.Message;
  if (!D.Proc.empty()) {
    Out += " [proc '" + D.Proc + "'";
    if (!D.CallPath.empty()) {
      Out += "; call path ";
      for (size_t J = 0; J < D.CallPath.size(); ++J)
        Out += (J ? " -> " : "") + D.CallPath[J];
    }
    Out += "]";
  }
  return Out;
}
