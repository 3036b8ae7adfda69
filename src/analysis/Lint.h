//===- analysis/Lint.h - Whole-program static diagnostics -------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostic front half of `svd-lint`: runs the static passes over
/// every thread of a program and collects the diagnostics no single
/// dynamic schedule can promise to expose — lock imbalance, double
/// acquires, unlock-without-lock, reads of never-written registers, and
/// (optionally) dead register writes. Shared between the CLI tool and
/// the test suite.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_LINT_H
#define SVD_ANALYSIS_LINT_H

#include "analysis/AtomicProof.h"
#include "isa/Program.h"

#include <string>
#include <vector>

namespace svd {
namespace analysis {

enum class LintSeverity : uint8_t { Error, Warning };

/// One diagnostic, attributed to a thread-local pc and, when the program
/// came from assembly text, a 1-based source line.
struct LintDiag {
  LintSeverity Severity = LintSeverity::Warning;
  /// Stable category slug: "lock-imbalance", "double-acquire",
  /// "unlock-not-held", "uninit-read", "dead-store", and (with Prove)
  /// "inconsistent-lock", "non-two-phase", "lock-order-cycle".
  std::string Category;
  isa::ThreadId Tid = 0;
  uint32_t Pc = 0;
  uint32_t Line = 0;
  std::string Message;
  /// The materialized proc whose body holds Pc, and the region names of
  /// its call path main -> ... -> Proc (empty when the proc is not
  /// reachable from the main body). Both empty for main-body pcs.
  /// lintProgram fills them from the bundle's call graph.
  std::string Proc{};
  std::vector<std::string> CallPath{};
};

/// Which diagnostic families to run.
struct LintOptions {
  bool Lockset = true;
  bool UninitReads = true;
  /// Off by default: a written-but-never-read register is often benign
  /// scaffolding (e.g. counters kept for symmetry), so this family is
  /// opt-in.
  bool DeadWrites = false;
  /// Off by default: runs the whole-program atomicity-proof machinery
  /// (AtomicProof.h) and surfaces its diagnostics — "inconsistent-lock"
  /// (Eraser-style mixed locked/bare access to one alias group),
  /// "non-two-phase" (a unit's common lock released inside it), and
  /// "lock-order-cycle" (AB-BA acquisition orders). Opt-in because
  /// deliberately-racy demo programs would otherwise stop linting clean
  /// for the families they do not seed.
  bool Prove = false;
  /// Block granularity for the proof pass (with Prove).
  uint32_t BlockShift = 0;
};

class ProgramPasses;

/// What lintProgram found on a bundle: the diagnostics, and the proofs
/// it ran for them (empty without Prove), so a caller that also reports
/// the proven CUs or the access table reads them here instead of proving
/// again.
struct LintReport {
  std::vector<LintDiag> Diags;
  CuProofs Proofs;
};

/// Runs all enabled checks on every thread of the bundle's program;
/// diagnostics come out in sortLintDiags order. Every family reads the
/// bundle's passes: the lockset family its StaticLockset, the register
/// families its ReachingDefs and Liveness, and Prove proves on the same
/// bundle (which must then carry value flow).
LintReport lintProgram(const ProgramPasses &PP, const LintOptions &O);

/// As above, on a bundle built for \p P alone (with value flow exactly
/// when O.Prove is set).
std::vector<LintDiag> lintProgram(const isa::Program &P,
                                  const LintOptions &O = LintOptions());

/// Canonical diagnostic order: (line, category, thread, pc, message) —
/// source order first, so reports read top-down like a compiler's
/// regardless of which pass produced them, with the message as the last
/// tie-break so two findings at the same pc (e.g. two uninitialized
/// operands of one instruction) come out in a pinned order. Programs
/// built in memory (all lines 0) fall back to (category, thread, pc,
/// message).
void sortLintDiags(std::vector<LintDiag> &Ds);

/// Renders \p D like "thread 'worker' pc 12 (line 7): error: ..." for
/// terminal output, with its proc and call path when it has one.
std::string formatLintDiag(const isa::Program &P, const LintDiag &D);

/// Renders one file's diagnostics as a JSON document:
/// {"file":..., "diagnostics":[{severity, category, thread, tid, pc,
/// line, message[, proc, call_path]}...], "num_diagnostics":N}. Shared by
/// `svd-lint --json` and the tests that pin the schema.
std::string lintDiagsToJson(const isa::Program &P, const std::string &File,
                            const std::vector<LintDiag> &Ds);

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_LINT_H
