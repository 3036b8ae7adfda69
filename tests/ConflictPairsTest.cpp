//===- tests/ConflictPairsTest.cpp - Conflict-pair enumeration tests ------===//

#include "analysis/ConflictPairs.h"
#include "analysis/ProgramPasses.h"
#include "isa/Assembler.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::analysis;
using isa::Program;

namespace {

Program asmProg(const std::string &Src) { return isa::assembleOrDie(Src); }

} // namespace

TEST(ConflictPairs, UnlockedSharedWritesConflict) {
  Program P = asmProg(R"(
.global x
.thread t x2
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  halt
)");
  ConflictPairs CP(ProgramPasses(P, false));
  // (ld0, st1), (st0, ld1), (st0, st1): every cross-thread pair with at
  // least one write; read-read does not conflict.
  ASSERT_EQ(CP.pairs().size(), 3u);
  for (const ConflictPair &Pr : CP.pairs()) {
    EXPECT_LT(Pr.A.Tid, Pr.B.Tid);
    EXPECT_TRUE(Pr.A.IsWrite || Pr.B.IsWrite);
  }
  // conflictsWith is symmetric over the pair list.
  EXPECT_EQ(CP.conflictsWith(0, 0).size(), 1u); // ld vs remote st
  EXPECT_EQ(CP.conflictsWith(0, 2).size(), 2u); // st vs remote ld + st
}

TEST(ConflictPairs, CommonMustLockOrdersThePair) {
  Program P = asmProg(R"(
.global x
.lock m
.thread t x2
  lock @m
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  unlock @m
  halt
)");
  ConflictPairs CP(ProgramPasses(P, false));
  EXPECT_TRUE(CP.pairs().empty());
}

TEST(ConflictPairs, LockOnOneSideOnlyStillConflicts) {
  // Thread a holds the lock, thread b does not: no *common* mutex, so
  // mutual exclusion orders nothing.
  Program P = asmProg(R"(
.global x
.lock m
.thread a
  lock @m
  ld r1, [@x]
  st r1, [@x]
  unlock @m
  halt
.thread b
  li r1, 7
  st r1, [@x]
  halt
)");
  ConflictPairs CP(ProgramPasses(P, false));
  EXPECT_FALSE(CP.pairs().empty());
}

TEST(ConflictPairs, ThreadLocalCopiesDoNotAlias) {
  // Each thread's .local copy occupies a disjoint interval; the escape
  // bounds prove the accesses never meet.
  Program P = asmProg(R"(
.local scratch 1
.thread t x2
  tid r1
  li r2, 5
  st r2, [r1+@scratch]
  halt
)");
  ConflictPairs CP(ProgramPasses(P, false));
  // The effective address is Tid-indexed, which the interval analysis
  // resolves per thread to disjoint singletons.
  EXPECT_TRUE(CP.pairs().empty());
}

TEST(ConflictPairs, CasCountsAsReadAndWrite) {
  Program P = asmProg(R"(
.global g
.thread a
  li r1, 0
  li r2, 1
  cas r3, r1, r2, [@g]
  halt
.thread b
  ld r1, [@g]
  halt
)");
  ConflictPairs CP(ProgramPasses(P, false));
  // Remote read vs local Cas: the Cas's write half makes it a conflict.
  ASSERT_EQ(CP.pairs().size(), 1u);
  EXPECT_TRUE(CP.pairs()[0].A.IsCas);
  EXPECT_TRUE(CP.pairs()[0].A.IsWrite);
  EXPECT_TRUE(CP.pairs()[0].A.IsRead);
  EXPECT_FALSE(CP.pairs()[0].B.IsWrite);
}

TEST(ConflictPairs, BlockGranularityMergesNeighbours) {
  // Disjoint words, but within one 2-word detector block: conflicting
  // at shift 1, disjoint at shift 0 (the false-sharing ablation).
  Program P = asmProg(R"(
.global arr 2
.thread a
  li r1, 1
  st r1, [@arr]
  halt
.thread b
  li r1, 2
  st r1, [@arr+1]
  halt
)");
  ProgramPasses PP(P, false);
  EXPECT_TRUE(ConflictPairs(PP, 0).pairs().empty());
  EXPECT_EQ(ConflictPairs(PP, 1).pairs().size(), 1u);
  EXPECT_EQ(ConflictPairs(PP, 1).blockShift(), 1u);
}

TEST(ConflictPairs, MayHappenInParallelIsCrossThread) {
  EXPECT_FALSE(ConflictPairs::mayHappenInParallel(0, 0));
  EXPECT_TRUE(ConflictPairs::mayHappenInParallel(0, 1));
}
