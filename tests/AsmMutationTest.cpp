//===- tests/AsmMutationTest.cpp - Mutated .asm through the static layer --===//
//
// A fixed-seed mutation gate for the static clients. Every example
// program under examples/asm is mutated 50 times with the frame
// mutators of the fault layer: even mutants get 1-3 bytes flipped
// (FaultPlan::mangleFrameBytes), odd ones are cut short
// (FaultPlan::truncatedFrameSize). Each mutant goes through the
// assembler, then lintProgram with every family on (dead stores and
// proofs included), then predictProgram. None may crash, and the
// histogram of outcome classes is pinned, so a change to how the static
// passes are built cannot move what any mutant lints or predicts
// unnoticed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "analysis/Predict.h"
#include "fault/Fault.h"
#include "isa/Assembler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace svd;

namespace {

constexpr uint64_t MutantsPerFile = 50;

/// The outcome class of one mutant: "asm-error", or the lint verdict
/// ("clean"/"diagnostics") and whether the predictor found anything
/// ("none"/"some").
std::string classify(const std::string &Text) {
  isa::Program P;
  std::vector<isa::AsmError> Errors;
  if (!isa::assembleProgram(Text, P, Errors))
    return "asm-error";
  analysis::LintOptions LO;
  LO.DeadWrites = true;
  LO.Prove = true;
  bool Clean = analysis::lintProgram(P, LO).empty();
  bool None = analysis::predictProgram(P).empty();
  return std::string(Clean ? "clean" : "diagnostics") + "/" +
         (None ? "none" : "some");
}

} // namespace

TEST(AsmMutation, StaticClientsClassifyEveryMutant) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(SVD_EXAMPLES_ASM_DIR))
    if (E.path().extension() == ".asm")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  fault::FaultPlanConfig Cfg;
  Cfg.Name = "asm-mutation";
  Cfg.PlanSeed = 0x5eed;
  std::map<std::string, unsigned> Histogram;
  for (size_t F = 0; F < Files.size(); ++F) {
    std::ifstream In(Files[F], std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    const std::string Orig = SS.str();
    fault::FaultPlan Plan(Cfg, /*SampleSeed=*/F + 1);
    for (uint64_t M = 0; M < MutantsPerFile; ++M) {
      std::vector<uint8_t> Bytes(Orig.begin(), Orig.end());
      if (M % 2 == 0)
        Plan.mangleFrameBytes(Bytes, M);
      else
        Bytes.resize(Plan.truncatedFrameSize(Bytes.size(), M));
      ++Histogram[classify(std::string(Bytes.begin(), Bytes.end()))];
    }
  }

  std::string Rows;
  for (const auto &[Class, Count] : Histogram)
    Rows += Class + " " + std::to_string(Count) + "\n";
  EXPECT_EQ(Rows, "asm-error 420\n"
                  "clean/none 89\n"
                  "clean/some 13\n"
                  "diagnostics/none 50\n"
                  "diagnostics/some 28\n")
      << "over " << Files.size() * MutantsPerFile << " mutants";
}
