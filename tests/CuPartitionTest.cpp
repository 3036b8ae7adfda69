//===- tests/CuPartitionTest.cpp - Unit tests for offline CU inference ----===//

#include "TestUtil.h"
#include "cu/CuPartition.h"
#include "pdg/Pdg.h"

#include <gtest/gtest.h>

#include <set>

using namespace svd;
using namespace svd::cu;
using isa::assembleOrDie;
using testutil::recordRun;
using testutil::recordWithPrefix;
using testutil::sched;
using trace::EventKind;
using trace::ProgramTrace;

namespace {

/// Figure 5 over \p T through both entry points, which must agree.
CuPartition partitionOf(const ProgramTrace &T) {
  CuPartition Streamed = CuPartition::compute(T);
  testutil::expectSamePartition(
      T, Streamed, CuPartition::compute(T, pdg::DynamicPdg::build(T)));
  return Streamed;
}

/// Number of CUs owned by thread \p Tid.
size_t unitsOfThread(const CuPartition &CUs, isa::ThreadId Tid) {
  size_t N = 0;
  for (const ComputationalUnit &U : CUs.units())
    if (U.Tid == Tid)
      ++N;
  return N;
}

} // namespace

TEST(CuPartition, DependentChainFormsOneUnit) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  addi r2, r1, 1
  add r3, r2, r1
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  ASSERT_EQ(CUs.units().size(), 1u);
  EXPECT_EQ(CUs.units()[0].Events.size(), 3u);
}

TEST(CuPartition, IndependentChainsFormSeparateUnits) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  addi r1, r1, 1
  li r2, 5
  addi r2, r2, 2
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  EXPECT_EQ(CUs.units().size(), 2u);
  // The two chains are in different units.
  EXPECT_NE(CUs.unitOf(0), CUs.unitOf(2));
  EXPECT_EQ(CUs.unitOf(0), CUs.unitOf(1));
  EXPECT_EQ(CUs.unitOf(2), CUs.unitOf(3));
}

TEST(CuPartition, SharedRawCutsUnit) {
  // Thread a writes shared g then reads it back: the region hypothesis
  // forbids a true-shared arc inside a CU, so the read starts a new CU.
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 3
  st r1, [@g]
  ld r2, [@g]
  addi r3, r2, 1
  halt
.thread b
  ld r9, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 5}, {1, 2}}));
  CuPartition CUs = partitionOf(T);
  EXPECT_EQ(unitsOfThread(CUs, 0), 2u);
  // li+st together; ld+addi together; and they differ.
  EXPECT_EQ(CUs.unitOf(0), CUs.unitOf(1));
  EXPECT_EQ(CUs.unitOf(2), CUs.unitOf(3));
  EXPECT_NE(CUs.unitOf(1), CUs.unitOf(2));
}

TEST(CuPartition, UnsharedRawDoesNotCut) {
  // Same shape but g is private: one CU.
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 3
  st r1, [@g]
  ld r2, [@g]
  addi r3, r2, 1
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  EXPECT_EQ(CUs.units().size(), 1u);
  EXPECT_EQ(CUs.units()[0].Events.size(), 4u);
}

TEST(CuPartition, SharedWritesRecorded) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 3
  st r1, [@g]
  halt
.thread b
  ld r9, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 3}, {1, 2}}));
  CuPartition CUs = partitionOf(T);
  bool Found = false;
  for (const ComputationalUnit &U : CUs.units())
    for (isa::Addr A : U.SharedWrites)
      if (A == P.addressOf("g"))
        Found = true;
  EXPECT_TRUE(Found);
}

TEST(CuPartition, ControlDependenceConnectsBody) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 0
  bnez r1, skip
  li r2, 9
skip:
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  // li r1 -> bnez (true dep), bnez -> li r2 (control dep): one CU.
  ASSERT_EQ(CUs.units().size(), 1u);
  EXPECT_EQ(CUs.units()[0].Events.size(), 3u);
}

TEST(CuPartition, SyncEventsBelongToNoUnit) {
  isa::Program P = assembleOrDie(R"(
.global g
.lock m
.thread t
  lock @m
  li r1, 1
  st r1, [@g]
  unlock @m
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  for (uint32_t E = 0; E < T.size(); ++E) {
    bool IsStatement = T[E].Kind == EventKind::Load ||
                       T[E].Kind == EventKind::Store ||
                       T[E].Kind == EventKind::Alu ||
                       T[E].Kind == EventKind::Branch;
    if (IsStatement)
      EXPECT_NE(CUs.unitOf(E), CuPartition::NoUnit);
    else
      EXPECT_EQ(CUs.unitOf(E), CuPartition::NoUnit);
  }
}

TEST(CuPartition, BeginEndSeqBracketMembers) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t x2
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  halt
)");
  ProgramTrace T = recordRun(P, 5);
  CuPartition CUs = partitionOf(T);
  for (const ComputationalUnit &U : CUs.units()) {
    ASSERT_FALSE(U.Events.empty());
    EXPECT_LE(U.BeginSeq, U.EndSeq);
    for (uint32_t E : U.Events) {
      EXPECT_GE(T[E].Seq, U.BeginSeq);
      EXPECT_LE(T[E].Seq, U.EndSeq);
      EXPECT_EQ(T[E].Tid, U.Tid);
      EXPECT_EQ(CUs.unitOf(E), U.Id);
    }
  }
}

TEST(CuPartition, LockedIterationsSplitAtSharedRaw) {
  // A locked increment loop re-reads the shared counter each iteration:
  // each read must start a fresh CU (the cut is at the CS boundary + 1).
  isa::Program P = assembleOrDie(R"(
.global counter
.lock m
.thread worker x2
  li r5, 3
loop:
  lock @m
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  ProgramTrace T = recordRun(P, 2);
  CuPartition CUs = partitionOf(T);
  // Each thread runs 3 iterations; at least 3 CUs per thread (each
  // iteration's ld starts a new one after the first).
  EXPECT_GE(unitsOfThread(CUs, 0), 3u);
  EXPECT_GE(unitsOfThread(CUs, 1), 3u);
}

TEST(CuPartition, LongUnitAbsorbingSharedWriterKeepsItsShVars) {
  // The long r1 chain writes no shared word; the short li r2 + st unit
  // writes shared x. The add merges them, and union by size keeps the
  // long unit's root, so the short unit's shVars set must move to that
  // root: the merged unit still records x, and the later same-thread
  // read of x cuts it (Figure 5, lines 4-9).
  std::string Src = ".global x\n.thread a\n  li r1, 1\n";
  const int Chain = 24;
  for (int I = 0; I < Chain; ++I)
    Src += "  addi r1, r1, 1\n";
  Src += R"(  li r2, 7
  st r2, [@x]
  add r3, r1, r2
  ld r4, [@x]
  addi r5, r4, 1
  halt
.thread b
  ld r9, [@x]
  halt
)";
  isa::Program P = assembleOrDie(Src);
  const int ThreadA = 1 + Chain + 6;
  ProgramTrace T = recordWithPrefix(P, sched({{0, ThreadA}, {1, 2}}));
  CuPartition CUs = partitionOf(T);
  const uint32_t St = 1 + Chain + 1, Add = St + 1, Ld = Add + 1;
  ASSERT_EQ(T[St].Kind, EventKind::Store);
  ASSERT_EQ(T[Ld].Kind, EventKind::Load);

  const uint32_t Merged = CUs.unitOf(0);
  EXPECT_EQ(CUs.unitOf(St), Merged);
  EXPECT_EQ(CUs.unitOf(Add), Merged);
  EXPECT_EQ(CUs.units()[Merged].Events.size(), size_t{Chain} + 4);
  EXPECT_EQ(CUs.units()[Merged].SharedWrites,
            std::vector<isa::Addr>{P.addressOf("x")});
  // The read of x starts a fresh unit with its dependent addi.
  EXPECT_NE(CUs.unitOf(Ld), Merged);
  EXPECT_EQ(CUs.unitOf(Ld + 1), CUs.unitOf(Ld));
  EXPECT_EQ(unitsOfThread(CUs, 0), 2u);
}

TEST(CuPartition, LongDependentChainStaysOneUnit) {
  // A 50k-statement chain: the r1 ALU chain and the loop counter join
  // through the branch's control dependences, so every statement lands
  // in one unit that absorbs one new statement at a time.
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 0
  li r2, 16666
loop:
  addi r1, r1, 1
  addi r2, r2, -1
  bnez r2, loop
  halt
)");
  const size_t Statements = 2 + 3 * 16666;
  ProgramTrace T = recordRun(P);
  ASSERT_EQ(T.size(), Statements + 1); // + the halt's ThreadEnd
  CuPartition CUs = partitionOf(T);
  ASSERT_EQ(CUs.units().size(), 1u);
  EXPECT_EQ(CUs.units()[0].Events.size(), Statements);
  EXPECT_EQ(CUs.units()[0].EndSeq, T[Statements - 1].Seq);
}

TEST(CuPartition, DescribeMentionsUnits) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  addi r1, r1, 1
  halt
)");
  ProgramTrace T = recordRun(P);
  CuPartition CUs = partitionOf(T);
  std::string D = CUs.describe(T);
  EXPECT_NE(D.find("CU 0"), std::string::npos);
  EXPECT_NE(D.find("addi"), std::string::npos);
}
