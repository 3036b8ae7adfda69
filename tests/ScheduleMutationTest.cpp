//===- tests/ScheduleMutationTest.cpp - Mutated schedules through replay --===//
//
// A fixed-seed mutation gate for schedule files, the untrusted input of
// svd_run --replay. One schedule is recorded per example program under
// examples/asm and serialized; each is mutated 50 times with the frame
// mutators of the fault layer: even mutants get 1-3 bytes flipped
// (FaultPlan::mangleFrameBytes), odd ones are cut short
// (FaultPlan::truncatedFrameSize). Every mutant goes through
// parseSchedule, and the ones that parse are replayed under the file's
// rndseed, with a small step budget. None may crash, and the histogram
// of outcome classes is pinned, so a change to the parser or to the replay path cannot move
// what any mutant does unnoticed.
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "isa/Assembler.h"
#include "vm/Machine.h"
#include "vm/ScheduleFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace svd;

namespace {

constexpr uint64_t MutantsPerFile = 50;
/// Step budget of the recording and of every replay.
constexpr uint64_t MaxSteps = 2000;

/// The outcome class of one mutant: "parse-error", or why its replay
/// stopped.
std::string classify(const isa::Program &P, const std::string &Text) {
  vm::RecordedSchedule R;
  std::string Error;
  if (!vm::parseSchedule(Text, R, Error))
    return "parse-error";
  vm::MachineConfig MC;
  MC.RndSeed = R.RndSeed;
  MC.MaxSteps = MaxSteps;
  vm::Machine M(P, MC);
  M.setReplaySchedule(std::move(R.Schedule));
  switch (M.run()) {
  case vm::StopReason::AllHalted:
    return "all-halted";
  case vm::StopReason::Deadlock:
    return "deadlock";
  case vm::StopReason::StepBudget:
    return "step-budget";
  case vm::StopReason::Paused:
    return "replay-exhausted";
  case vm::StopReason::ReplayDiverged:
    return "replay-diverged";
  }
  return "unknown";
}

} // namespace

TEST(ScheduleMutation, ReplayClassifiesEveryMutant) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(SVD_EXAMPLES_ASM_DIR))
    if (E.path().extension() == ".asm")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  fault::FaultPlanConfig Cfg;
  Cfg.Name = "schedule-mutation";
  Cfg.PlanSeed = 0x5eed;
  std::map<std::string, unsigned> Originals, Histogram;
  for (size_t F = 0; F < Files.size(); ++F) {
    std::ifstream In(Files[F], std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    isa::Program P = isa::assembleOrDie(SS.str());

    vm::MachineConfig MC;
    MC.MaxSteps = MaxSteps;
    vm::Machine Recorder(P, MC);
    Recorder.run();
    vm::RecordedSchedule Rec;
    Rec.RndSeed = MC.RndSeed;
    Rec.Schedule = Recorder.schedule();
    const std::string Orig = vm::serializeSchedule(Rec);
    ++Originals[classify(P, Orig)];

    fault::FaultPlan Plan(Cfg, /*SampleSeed=*/F + 1);
    for (uint64_t M = 0; M < MutantsPerFile; ++M) {
      std::vector<uint8_t> Bytes(Orig.begin(), Orig.end());
      if (M % 2 == 0)
        Plan.mangleFrameBytes(Bytes, M);
      else
        Bytes.resize(Plan.truncatedFrameSize(Bytes.size(), M));
      ++Histogram[classify(P, std::string(Bytes.begin(), Bytes.end()))];
    }
  }

  auto Render = [](const std::map<std::string, unsigned> &H) {
    std::string Rows;
    for (const auto &[Class, Count] : H)
      Rows += Class + " " + std::to_string(Count) + "\n";
    return Rows;
  };
  // The unmutated recordings replay cleanly. lock_order_cycle's recording
  // ends in a deadlock, and so does its replay: the schedule runs out at
  // the decision where the recording found no thread ready.
  EXPECT_EQ(Render(Originals), "all-halted 11\n"
                               "deadlock 1\n");
  // Almost every flipped byte leaves a token that is not a digit string
  // or a step count that no longer matches the header, and almost every
  // cut drops steps the header declares.
  EXPECT_EQ(Render(Histogram), "all-halted 5\n"
                               "deadlock 1\n"
                               "parse-error 594\n")
      << "over " << Files.size() * MutantsPerFile << " mutants";
}
