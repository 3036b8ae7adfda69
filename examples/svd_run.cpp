//===- examples/svd_run.cpp - Command-line detector driver ----------------===//
//
// Runs the detectors on an assembly file:
//
//   svd_run FILE.asm [--seed N] [--runs N] [--detector svd|frd|lockset|all]
//           [--timeslice MIN:MAX] [--log] [--disasm]
//           [--record FILE] [--replay FILE]
//
// --record saves the last run's schedule so a failing execution can be
// shipped and replayed deterministically with --replay (the paper's
// flight-data-recorder workflow).
//
// With no arguments it prints usage plus a demo on a built-in program,
// so it is safe to invoke from scripts. A malformed option or value
// prints usage and exits 2, and so do the bad input files: an unreadable
// .asm file, an assembly error or a schedule file that fails to load. A
// replay that diverges from its schedule exits 1.
//
//===----------------------------------------------------------------------===//

#include "isa/Assembler.h"
#include "race/HappensBefore.h"
#include "race/Lockset.h"
#include "support/Cli.h"
#include "svd/OnlineSvd.h"
#include "vm/Machine.h"
#include "vm/ScheduleFile.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace svd;

namespace {

const char *Usage =
    "usage: svd_run FILE.asm [options]\n"
    "  --seed N            scheduler seed of the first run (default 1)\n"
    "  --runs N            number of seeded runs (default 1)\n"
    "  --detector KIND     svd | frd | lockset | all (default all)\n"
    "  --timeslice MIN:MAX scheduler timeslice range (default 1:1)\n"
    "  --log               print SVD's a-posteriori CU log\n"
    "  --disasm            print the assembled program and exit\n"
    "  --record FILE       save the last run's schedule for replay\n"
    "  --replay FILE       replay a recorded schedule (ignores --seed)\n";

const char *DemoProgram = R"(
.global counter
.thread worker x2
  li r5, 10
loop:
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  addi r5, r5, -1
  bnez r5, loop
  halt
)";

struct Options {
  std::string File;
  uint64_t Seed = 1;
  uint32_t Runs = 1;
  std::string Detector = "all";
  uint32_t TsMin = 1;
  uint32_t TsMax = 1;
  bool PrintLog = false;
  bool Disasm = false;
  std::string RecordFile;
  std::string ReplayFile;
};

/// Parses a decimal uint32_t with no sign, space or trailing garbage.
bool parseU32(const std::string &S, uint32_t &Out) {
  if (S.empty() || S.size() > 10 ||
      S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  uint64_t V = std::strtoull(S.c_str(), nullptr, 10);
  if (V > UINT32_MAX)
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  support::ArgParser P(Usage);
  std::string Timeslice;
  P.value("--seed", &O.Seed);
  P.value("--runs", &O.Runs);
  P.value("--detector", &O.Detector);
  P.value("--timeslice", &Timeslice);
  P.flag("--log", &O.PrintLog);
  P.flag("--disasm", &O.Disasm);
  P.value("--record", &O.RecordFile);
  P.value("--replay", &O.ReplayFile);
  if (!P.parse(Argc, Argv))
    return false;
  if (!Timeslice.empty()) {
    size_t Colon = Timeslice.find(':');
    if (Colon == std::string::npos ||
        !parseU32(Timeslice.substr(0, Colon), O.TsMin) ||
        !parseU32(Timeslice.substr(Colon + 1), O.TsMax)) {
      std::fprintf(stderr, "option '--timeslice' expects MIN:MAX, got '%s'\n",
                   Timeslice.c_str());
      return false;
    }
  }
  if (P.positional().size() > 1) {
    std::fprintf(stderr, "expected one FILE.asm, got %zu\n",
                 P.positional().size());
    return false;
  }
  if (!P.positional().empty())
    O.File = P.positional()[0];
  return true;
}

/// Runs \p P once and prints its outcome; false when a replayed
/// schedule diverged from the program (diagnosed on stderr).
bool runOnce(const isa::Program &P, const Options &O, uint64_t Seed,
             const vm::RecordedSchedule *Replay) {
  vm::MachineConfig MC;
  MC.SchedSeed = Seed;
  MC.MinTimeslice = O.TsMin;
  MC.MaxTimeslice = O.TsMax;
  if (Replay)
    MC.RndSeed = Replay->RndSeed;
  vm::Machine M(P, MC);
  if (Replay)
    M.setReplaySchedule(Replay->Schedule);

  bool WantSvd = O.Detector == "svd" || O.Detector == "all";
  bool WantFrd = O.Detector == "frd" || O.Detector == "all";
  bool WantLockset = O.Detector == "lockset" || O.Detector == "all";

  detect::OnlineSvd Svd(P);
  race::HappensBeforeDetector Frd(P);
  race::LocksetDetector Lockset(P);
  if (WantSvd)
    M.addObserver(&Svd);
  if (WantFrd)
    M.addObserver(&Frd);
  if (WantLockset)
    M.addObserver(&Lockset);

  vm::StopReason R = M.run();
  if (R == vm::StopReason::ReplayDiverged) {
    std::fprintf(stderr, "error: %s\n", M.stopDiagnostic().c_str());
    return false;
  }
  const char *Why = R == vm::StopReason::AllHalted  ? "all threads halted"
                    : R == vm::StopReason::Deadlock ? "DEADLOCK"
                    : R == vm::StopReason::Paused   ? "replay exhausted"
                                                    : "step budget reached";
  std::printf("--- seed %llu: %llu instructions, %s\n",
              static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(M.steps()), Why);
  for (const vm::ProgramError &E : M.errors())
    std::printf("    program error: thread %u pc %u: %s\n", E.Tid, E.Pc,
                E.Message.c_str());
  for (const vm::PrintedValue &V : M.printed())
    std::printf("    print (thread %u): %lld\n", V.Tid,
                static_cast<long long>(V.Value));

  if (WantSvd) {
    std::printf("  SVD: %zu violations, %zu CU-log entries, %llu CUs\n",
                Svd.violations().size(), Svd.cuLog().size(),
                static_cast<unsigned long long>(Svd.numCusFormed()));
    for (const detect::Violation &V : Svd.violations())
      std::printf("    %s\n", V.describe(P).c_str());
    if (O.PrintLog)
      for (const detect::CuLogEntry &E : Svd.cuLog())
        std::printf("    log: %s\n", E.describe(P).c_str());
  }
  if (WantFrd) {
    std::printf("  FRD: %zu races\n", Frd.races().size());
    for (const detect::Violation &V : Frd.races())
      std::printf("    %s\n", V.describe(P).c_str());
  }
  if (WantLockset) {
    std::printf("  Lockset: %zu reports\n", Lockset.reports().size());
    for (const detect::Violation &V : Lockset.reports())
      std::printf("    %s\n", V.describe(P).c_str());
  }

  if (!O.RecordFile.empty()) {
    vm::RecordedSchedule Rec;
    Rec.RndSeed = MC.RndSeed;
    Rec.Schedule = M.schedule();
    if (vm::saveSchedule(O.RecordFile, Rec))
      std::printf("  recorded %zu scheduling decisions to %s\n",
                  Rec.Schedule.size(), O.RecordFile.c_str());
    else
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   O.RecordFile.c_str());
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fputs(Usage, stderr);
    return support::ExitUsage;
  }

  std::string Source;
  if (O.File.empty()) {
    std::fputs(Usage, stdout);
    std::puts("\nno file given; running the built-in demo program:\n");
    Source = DemoProgram;
  } else {
    std::ifstream In(O.File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", O.File.c_str());
      return support::ExitUsage;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  }

  isa::Program P;
  std::vector<isa::AsmError> Errors;
  if (!isa::assembleProgram(Source, P, Errors)) {
    for (const isa::AsmError &E : Errors)
      std::fprintf(stderr, "%s:%u: error: %s\n",
                   O.File.empty() ? "<demo>" : O.File.c_str(), E.Line,
                   E.Message.c_str());
    return support::ExitUsage;
  }
  if (O.Disasm) {
    std::fputs(P.disassemble().c_str(), stdout);
    return 0;
  }

  if (!O.ReplayFile.empty()) {
    vm::RecordedSchedule Rec;
    std::string Error;
    if (!vm::loadSchedule(O.ReplayFile, Rec, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return support::ExitUsage;
    }
    std::printf("replaying %zu recorded scheduling decisions from %s\n",
                Rec.Schedule.size(), O.ReplayFile.c_str());
    return runOnce(P, O, O.Seed, &Rec) ? 0 : 1;
  }

  for (uint32_t I = 0; I < O.Runs; ++I)
    runOnce(P, O, O.Seed + I, nullptr);
  return 0;
}
