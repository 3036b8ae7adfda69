//===- tests/StaticCuTest.cpp - Static CU inference tests -----------------===//

#include "analysis/StaticCu.h"
#include "isa/Assembler.h"
#include "isa/Cfg.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::analysis;
using isa::Program;

namespace {

/// Thread-0 pass stack with every access treated as possibly shared
/// (the partition mechanics under test are orthogonal to the escape
/// filter, which PredictTest exercises through the full pipeline).
struct CuHarness {
  Program P;
  isa::ThreadCfg Cfg;
  EscapeAnalysis EA;
  ReachingDefs RD;
  StaticCuInference CU;

  explicit CuHarness(const std::string &Src)
      : P(isa::assembleOrDie(Src)), Cfg(P.Threads[0].Code),
        EA(Cfg, P.Threads[0].Code, 0), RD(Cfg, P.Threads[0].Code),
        CU(Cfg, P.Threads[0].Code, EA, RD, [](uint32_t) { return true; }) {}
};

} // namespace

TEST(StaticCu, ReadModifyWriteFormsOneUnit) {
  CuHarness H(R"(
.global x
.thread t
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  halt
)");
  ASSERT_EQ(H.CU.units().size(), 1u);
  const StaticCu &U = H.CU.units()[0];
  EXPECT_EQ(U.Pcs, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(U.SharedReads, (std::vector<uint32_t>{0}));
  EXPECT_EQ(U.SharedWrites, (std::vector<uint32_t>{2}));
  // Halt lives outside every unit, like thread-end events dynamically.
  EXPECT_EQ(H.CU.unitOf(3), StaticCuInference::NoUnit);
}

TEST(StaticCu, IndependentRmwSequencesStayApart) {
  // The second read-modify-write has no dependence edge into the first,
  // so the units stay separate — the static analog of a CU ending
  // between two atomic regions.
  CuHarness H(R"(
.global x
.thread t
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  ld r2, [@x]
  addi r2, r2, 1
  st r2, [@x]
  halt
)");
  ASSERT_EQ(H.CU.units().size(), 2u);
  EXPECT_EQ(H.CU.unitOf(0), H.CU.unitOf(2));
  EXPECT_EQ(H.CU.unitOf(3), H.CU.unitOf(5));
  EXPECT_NE(H.CU.unitOf(0), H.CU.unitOf(3));
}

TEST(StaticCu, ReadBackOfOwnSharedWriteCutsTheUnit) {
  // pc 3's address depends on r2 (defined inside the first unit), and
  // its unbounded bound may alias the unit's recorded shared write — the
  // crossing-arc cut of Definition 2 deactivates the unit instead of
  // growing it.
  CuHarness H(R"(
.global buf 4
.global idx
.thread t
  ld r1, [@idx]
  addi r2, r1, 0
  st r1, [@idx]
  ld r3, [r2+@idx]
  st r3, [@buf]
  halt
)");
  EXPECT_EQ(H.CU.unitOf(0), H.CU.unitOf(2));
  EXPECT_NE(H.CU.unitOf(3), H.CU.unitOf(0));
  EXPECT_EQ(H.CU.unitOf(3), H.CU.unitOf(4));
}

TEST(StaticCu, WithoutTheWriteTheLoadJoinsTheUnit) {
  // Same shape minus the shared write: nothing to read back, so the
  // dependent load merges into its predecessor's unit.
  CuHarness H(R"(
.global buf 4
.global idx
.thread t
  ld r1, [@idx]
  addi r2, r1, 0
  ld r3, [r2+@idx]
  st r3, [@buf]
  halt
)");
  ASSERT_EQ(H.CU.units().size(), 1u);
  EXPECT_EQ(H.CU.unitOf(0), H.CU.unitOf(2));
  EXPECT_EQ(H.CU.unitOf(2), H.CU.unitOf(3));
}

TEST(StaticCu, LockUnlockStayOutsideUnits) {
  CuHarness H(R"(
.global x
.lock m
.thread t
  lock @m
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  unlock @m
  halt
)");
  EXPECT_EQ(H.CU.unitOf(0), StaticCuInference::NoUnit);
  EXPECT_EQ(H.CU.unitOf(4), StaticCuInference::NoUnit);
  EXPECT_EQ(H.CU.unitOf(1), H.CU.unitOf(3));
}

TEST(StaticCu, ControlDependenceGrowsTheUnit) {
  // The guarded store is control-dependent on the branch, which is
  // data-dependent on the load: one read→compute→write unit.
  CuHarness H(R"(
.global x
.global y
.thread t
  ld r1, [@x]
  beqz r1, skip
  li r2, 1
  st r2, [@y]
skip:
  halt
)");
  EXPECT_EQ(H.CU.unitOf(0), H.CU.unitOf(1));
  EXPECT_EQ(H.CU.unitOf(1), H.CU.unitOf(2));
  EXPECT_EQ(H.CU.unitOf(2), H.CU.unitOf(3));
}

TEST(StaticCu, CasIsMemberButNeverEndpoint) {
  CuHarness H(R"(
.global g
.thread t
  li r1, 0
  li r2, 1
  cas r3, r1, r2, [@g]
  st r3, [@g]
  halt
)");
  ASSERT_EQ(H.CU.units().size(), 1u);
  const StaticCu &U = H.CU.units()[0];
  EXPECT_EQ(H.CU.unitOf(2), H.CU.unitOf(3));
  // The atomic RMW cannot be a pattern endpoint: nothing can land
  // between its load and store halves.
  EXPECT_TRUE(U.SharedReads.empty());
  EXPECT_EQ(U.SharedWrites, (std::vector<uint32_t>{3}));
}

TEST(StaticCu, DependsOnAndShareAncestor) {
  CuHarness H(R"(
.global x
.global y
.global z
.thread t
  ld r1, [@x]
  addi r2, r1, 1
  addi r3, r1, 2
  st r2, [@y]
  st r3, [@z]
  halt
)");
  EXPECT_TRUE(H.CU.dependsOn(3, 0));
  EXPECT_TRUE(H.CU.dependsOn(4, 0));
  EXPECT_FALSE(H.CU.dependsOn(3, 4));
  EXPECT_FALSE(H.CU.dependsOn(4, 3));
  // The two stores define no registers, but their value chains meet at
  // the load — the static stand-in for "one dynamic CU".
  EXPECT_TRUE(H.CU.shareAncestor(3, 4));
  EXPECT_FALSE(H.CU.shareAncestor(3, 5));
}
