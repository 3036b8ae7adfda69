//===- tests/SerializabilityGraphTest.cpp - Exact checker tests ------------===//

#include "TestUtil.h"
#include "svd/OfflineDetector.h"
#include "workloads/Workloads.h"
#include "svd/SerializabilityGraph.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::detect;
using isa::assembleOrDie;
using testutil::recordRun;
using testutil::recordWithPrefix;
using testutil::sched;
using trace::ProgramTrace;

namespace {

SerializabilityGraph graphOf(const ProgramTrace &T) {
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  cu::CuPartition CUs = cu::CuPartition::compute(T, G);
  return SerializabilityGraph::build(T, G, CUs);
}

const char *RmwSource = R"(
.global outcnt
.thread w x2
  ld r1, [@outcnt]
  addi r2, r1, 1
  st r2, [@outcnt]
  halt
)";

} // namespace

TEST(SerializabilityGraph, InterleavedRmwIsNotSerializable) {
  isa::Program P = assembleOrDie(RmwSource);
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  SerializabilityGraph G = graphOf(T);
  EXPECT_FALSE(G.isSerializable());
  ASSERT_EQ(G.cycles().size(), 1u);
  EXPECT_GE(G.cycles()[0].size(), 2u);
}

TEST(SerializabilityGraph, SerializedRmwIsSerializable) {
  isa::Program P = assembleOrDie(RmwSource);
  ProgramTrace T = recordWithPrefix(P, sched({{0, 4}, {1, 4}}));
  SerializabilityGraph G = graphOf(T);
  EXPECT_TRUE(G.isSerializable());
}

TEST(SerializabilityGraph, SingleThreadIsAlwaysSerializable) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t
  li r5, 10
loop:
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  SerializabilityGraph G = graphOf(recordRun(P));
  EXPECT_TRUE(G.isSerializable());
  // No conflict edges at all; only program order.
  for (const PrecedenceEdge &E : G.edges())
    EXPECT_TRUE(E.ProgramOrder);
}

TEST(SerializabilityGraph, StrictTwoPlViolationCanStillBeSerializable) {
  // The gap the paper's Section 3.3 describes: thread a reads x early
  // and writes its private result later; thread b updates x in between.
  // Strict 2PL is violated (a's CU lost exclusive access to x before
  // finishing) but the execution is equivalent to serial a-then-b.
  isa::Program P = assembleOrDie(R"(
.global x
.global out
.thread a
  ld r1, [@x]       ; CU input: x
  addi r1, r1, 5
  nop
  st r1, [@out]     ; CU output: out (b never touches it)
  halt
.thread b
  li r2, 9
  st r2, [@x]       ; intervening remote write
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 2}, {1, 3}, {0, 3}}));

  // The Figure 6 offline scan flags it...
  std::vector<Violation> TwoPl = runOfflinePipeline(T).Reports;
  EXPECT_FALSE(TwoPl.empty());

  // ...but the exact precedence-graph test does not: a -> b only.
  SerializabilityGraph G = graphOf(T);
  EXPECT_TRUE(G.isSerializable());
}

TEST(SerializabilityGraph, WriteWriteCycleDetected) {
  // a writes x then y; b writes y then x, interleaved so that a
  // precedes b on x and b precedes a on y: a classic cycle.
  isa::Program P = assembleOrDie(R"(
.global x
.global y
.thread a
  li r1, 1
  st r1, [@x]
  ld r9, [@x]       ; keeps x and y in one CU? no: reads own write ->
  st r9, [@y]       ; one connected unit writing both
  halt
.thread b
  li r2, 2
  st r2, [@y]
  ld r8, [@y]
  st r8, [@x]
  halt
)");
  // a: st x ... b: st y, st x ... a: st y — a->b on x, b->a on y.
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 3}, {1, 5}, {0, 2}}));
  SerializabilityGraph G = graphOf(T);
  EXPECT_FALSE(G.isSerializable());
}

TEST(SerializabilityGraph, ProgramOrderEdgesChainThreadUnits) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 1
  st r1, [@g]
  ld r2, [@g]       ; shared RAW cut -> two CUs for thread a
  addi r2, r2, 1
  halt
.thread b
  ld r9, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 5}, {1, 2}}));
  SerializabilityGraph G = graphOf(T);
  size_t ProgramOrder = 0;
  for (const PrecedenceEdge &E : G.edges())
    if (E.ProgramOrder)
      ++ProgramOrder;
  EXPECT_GE(ProgramOrder, 1u);
  EXPECT_TRUE(G.isSerializable());
}

TEST(SerializabilityGraph, DescribeCyclesNamesCusAndWords) {
  isa::Program P = assembleOrDie(RmwSource);
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  cu::CuPartition CUs = cu::CuPartition::compute(T, G);
  SerializabilityGraph SG = SerializabilityGraph::build(T, G, CUs);
  ASSERT_FALSE(SG.isSerializable());
  std::string D = SG.describeCycles(T, CUs);
  EXPECT_NE(D.find("non-serializable"), std::string::npos);
  EXPECT_NE(D.find("outcnt"), std::string::npos);
}

TEST(SerializabilityGraph, ExactNeverFlagsMoreThanTwoPl) {
  // Property: on a batch of random buggy programs, executions the exact
  // test calls non-serializable are (weakly) fewer than executions the
  // conservative strict-2PL scan flags.
  size_t ExactFlags = 0;
  size_t TwoPlFlags = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    workloads::RandomParams RP;
    RP.Seed = Seed;
    RP.Threads = 3;
    RP.Iterations = 15;
    RP.OmitLockProbability = 0.4;
    workloads::Workload W = workloads::randomWorkload(RP);
    ProgramTrace T = recordRun(W.Program, Seed);
    if (!runOfflinePipeline(T).Reports.empty())
      ++TwoPlFlags;
    if (!graphOf(T).isSerializable())
      ++ExactFlags;
  }
  EXPECT_LE(ExactFlags, TwoPlFlags);
  EXPECT_GT(TwoPlFlags, 0u);
}
