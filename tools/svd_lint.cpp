//===- tools/svd_lint.cpp - Static analysis front end ---------------------===//
//
// Assembles one or more programs and runs the static passes over every
// thread, printing diagnostics with instruction locations:
//
//   svd-lint FILE.asm... [--dead-stores] [--no-uninit] [--no-lockset]
//            [--escape] [--prove] [--block-shift N] [--json]
//
// Exit status: 0 when every file is clean, 1 when any diagnostic fired,
// 2 on usage or assembly errors. --escape additionally prints the
// access-classification table the detectors consume (which loads/stores
// are provably thread-local, lock-protected, or possibly shared).
// --prove runs the whole-program atomicity proofs (DESIGN.md section
// 12): it adds the inconsistent-lock / non-two-phase / lock-order-cycle
// diagnostic families and reports how many static CUs are proven
// serializable (and how many access sites the detectors may prune).
// --json emits one JSON document per file instead of text (schema in
// DESIGN.md section 8; shared with svd-predict --json); with --prove
// the document gains a "proof" object.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "analysis/Lint.h"
#include "analysis/ProgramPasses.h"
#include "isa/Assembler.h"
#include "support/Cli.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace svd;

namespace {

const char *Usage =
    "usage: svd-lint FILE.asm... [options]\n"
    "  --dead-stores    also warn about registers written but never read\n"
    "  --no-uninit      disable read-before-write warnings\n"
    "  --no-lockset     disable lock imbalance / double-acquire checks\n"
    "  --escape         print the static access classification per access\n"
    "  --prove          run the static CU atomicity proofs (adds the\n"
    "                   inconsistent-lock / non-two-phase / lock-order-cycle\n"
    "                   families and a proven-CU summary)\n"
    "  --block-shift N  classify/prove at 2^N-word block granularity\n"
    "  --json           emit one JSON document per file instead of text\n";

struct Options {
  std::vector<std::string> Files;
  analysis::LintOptions Lint;
  bool Escape = false;
  bool Json = false;
  uint32_t BlockShift = 0;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  support::ArgParser P(Usage);
  P.flag("--dead-stores", &O.Lint.DeadWrites);
  P.flag("--no-uninit", &O.Lint.UninitReads, false);
  P.flag("--no-lockset", &O.Lint.Lockset, false);
  P.flag("--escape", &O.Escape);
  P.flag("--prove", &O.Lint.Prove);
  P.flag("--json", &O.Json);
  P.value("--block-shift", &O.BlockShift);
  if (!P.parse(Argc, Argv))
    return false;
  O.Lint.BlockShift = O.BlockShift;
  O.Files = P.positional();
  return !O.Files.empty();
}

void printEscapeTable(const isa::Program &P,
                      const analysis::AccessTable &Table) {
  std::printf("access classification (block shift %u): %llu local, "
              "%llu locked, %llu shared\n",
              Table.blockShift(),
              static_cast<unsigned long long>(analysis::countAccessSites(
                  P, Table, analysis::AccessClass::ThreadLocal)),
              static_cast<unsigned long long>(analysis::countAccessSites(
                  P, Table, analysis::AccessClass::LockProtected)),
              static_cast<unsigned long long>(analysis::countAccessSites(
                  P, Table, analysis::AccessClass::PossiblyShared)));
  for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    const std::vector<isa::Instruction> &Code = P.Threads[Tid].Code;
    for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
      if (!isa::isMemoryAccess(Code[Pc].Op))
        continue;
      std::printf("  thread '%s' pc %u (line %u): %-6s %s\n",
                  P.Threads[Tid].Name.c_str(), Pc, Code[Pc].Line,
                  analysis::accessClassName(Table.classify(Tid, Pc)),
                  isa::opcodeName(Code[Pc].Op));
    }
  }
}

/// Lints one file. Returns 0 (clean), 1 (diagnostics), or 2 (bad input).
int lintFile(const std::string &File, const Options &O) {
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return 2;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  isa::Program P;
  std::vector<isa::AsmError> Errors;
  if (!isa::assembleProgram(SS.str(), P, Errors)) {
    for (const isa::AsmError &E : Errors)
      std::fprintf(stderr, "%s:%u: error: %s\n", File.c_str(), E.Line,
                   E.Message.c_str());
    return 2;
  }

  // One set of passes serves the lint families, the proofs and the
  // access table. lintProgram proves once and hands the proofs back: the
  // summary line reads them, and --escape prints the table they
  // classified with (building one only when nothing was proven).
  analysis::ProgramPasses Passes(P, /*ValueFlow=*/O.Lint.Prove || O.Escape);
  analysis::LintReport Report = analysis::lintProgram(Passes, O.Lint);
  const std::vector<analysis::LintDiag> &Diags = Report.Diags;
  const analysis::CuProofs &Proofs = Report.Proofs;

  if (O.Json) {
    std::string J = analysis::lintDiagsToJson(P, File, Diags);
    if (O.Lint.Prove) {
      // Splice a "proof" object before the document's closing brace so
      // the --prove-less schema stays byte-identical.
      J.pop_back();
      J += support::formatString(
          ",\"proof\":{\"proven_cus\":%zu,\"prunable_sites\":%llu}}",
          Proofs.proven().size(),
          static_cast<unsigned long long>(Proofs.prunableSites()));
    }
    std::printf("%s\n", J.c_str());
    return Diags.empty() ? 0 : 1;
  }
  for (const analysis::LintDiag &D : Diags)
    std::printf("%s: %s\n", File.c_str(),
                analysis::formatLintDiag(P, D).c_str());
  std::printf("%s: %zu diagnostic%s\n", File.c_str(), Diags.size(),
              Diags.size() == 1 ? "" : "s");
  if (O.Lint.Prove)
    std::printf("%s: proof: %zu proven CU%s, %llu prunable access site%s\n",
                File.c_str(), Proofs.proven().size(),
                Proofs.proven().size() == 1 ? "" : "s",
                static_cast<unsigned long long>(Proofs.prunableSites()),
                Proofs.prunableSites() == 1 ? "" : "s");
  if (O.Escape && O.Lint.Prove)
    printEscapeTable(P, Proofs.accessTable());
  else if (O.Escape)
    printEscapeTable(P, analysis::buildAccessTable(Passes, O.BlockShift));
  return Diags.empty() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fputs(Usage, stderr);
    return support::ExitUsage;
  }
  int Status = support::ExitClean;
  for (const std::string &File : O.Files)
    Status = std::max(Status, lintFile(File, O));
  return Status;
}
