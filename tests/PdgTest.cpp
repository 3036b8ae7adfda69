//===- tests/PdgTest.cpp - Unit tests for d-PDG construction --------------===//

#include "TestUtil.h"
#include "pdg/Pdg.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::pdg;
using isa::assembleOrDie;
using testutil::recordRun;
using testutil::recordWithPrefix;
using testutil::sched;
using trace::EventKind;
using trace::ProgramTrace;

namespace {

/// Returns the arcs of kind \p K ending at event \p To.
std::vector<DepArc> incomingOfKind(const DynamicPdg &G, uint32_t To,
                                   DepKind K) {
  std::vector<DepArc> Out;
  for (const DepArc &A : G.incoming(To))
    if (A.Kind == K)
      Out.push_back(A);
  return Out;
}

/// Finds the single event with the given pc and thread.
uint32_t eventAt(const ProgramTrace &T, isa::ThreadId Tid, uint32_t Pc) {
  for (uint32_t E = 0; E < T.size(); ++E)
    if (T[E].Tid == Tid && T[E].Pc == Pc &&
        T[E].Kind != EventKind::ThreadEnd)
      return E;
  ADD_FAILURE() << "no event at tid " << Tid << " pc " << Pc;
  return 0;
}

} // namespace

TEST(Pdg, RegisterTrueDependences) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  addi r2, r1, 1
  add r3, r2, r1
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  // addi depends on li; add depends on both li and addi.
  EXPECT_EQ(incomingOfKind(G, 1, DepKind::TrueLocal).size(), 1u);
  EXPECT_EQ(incomingOfKind(G, 2, DepKind::TrueLocal).size(), 2u);
  EXPECT_EQ(G.countArcs(DepKind::Conflict), 0u);
  EXPECT_EQ(G.countArcs(DepKind::TrueShared), 0u);
}

TEST(Pdg, RegisterRedefinitionBreaksDependence) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  li r1, 2
  addi r2, r1, 0
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  auto Arcs = incomingOfKind(G, 2, DepKind::TrueLocal);
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(Arcs[0].From, 1u); // the second li
}

TEST(Pdg, ZeroRegisterCarriesNoDependence) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r0, 9
  addi r2, r0, 1
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  EXPECT_TRUE(incomingOfKind(G, 1, DepKind::TrueLocal).empty());
}

TEST(Pdg, MemoryTrueLocalDependence) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t
  li r1, 5
  st r1, [@g]
  ld r2, [@g]
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  auto Arcs = incomingOfKind(G, 2, DepKind::TrueLocal);
  // The load depends on the store via memory (g is unshared here).
  bool FoundMem = false;
  for (const DepArc &A : Arcs)
    if (A.ViaMemory && A.From == 1u)
      FoundMem = true;
  EXPECT_TRUE(FoundMem);
}

TEST(Pdg, MemoryTrueSharedDependence) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 5
  st r1, [@g]
  ld r2, [@g]
  halt
.thread b
  ld r3, [@g]
  halt
)");
  // Run thread a fully, then thread b: a's store->load arc is TrueShared
  // because b also touches g.
  ProgramTrace T = recordWithPrefix(P, sched({{0, 4}, {1, 2}}));
  DynamicPdg G = DynamicPdg::build(T);
  EXPECT_EQ(G.countArcs(DepKind::TrueShared), 1u);
  const DepArc *Shared = nullptr;
  for (const DepArc &A : G.arcs())
    if (A.Kind == DepKind::TrueShared)
      Shared = &A;
  ASSERT_NE(Shared, nullptr);
  EXPECT_EQ(T[Shared->From].Kind, EventKind::Store);
  EXPECT_EQ(T[Shared->To].Kind, EventKind::Load);
  EXPECT_TRUE(Shared->ViaMemory);
}

TEST(Pdg, ConflictArcsReadAfterRemoteWrite) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 5
  st r1, [@g]
  halt
.thread b
  ld r2, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 3}, {1, 2}}));
  DynamicPdg G = DynamicPdg::build(T);
  ASSERT_EQ(G.countArcs(DepKind::Conflict), 1u);
  const DepArc *C = nullptr;
  for (const DepArc &A : G.arcs())
    if (A.Kind == DepKind::Conflict)
      C = &A;
  EXPECT_EQ(T[C->From].Tid, 0u);
  EXPECT_EQ(T[C->To].Tid, 1u);
  EXPECT_EQ(C->Address, P.addressOf("g"));
}

TEST(Pdg, ConflictArcsWriteAfterRemoteReads) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  ld r1, [@g]
  halt
.thread b
  ld r2, [@g]
  halt
.thread c
  li r3, 1
  st r3, [@g]
  halt
)");
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 2}, {1, 2}, {2, 3}}));
  DynamicPdg G = DynamicPdg::build(T);
  // The write conflicts with both remote reads (no read-read arcs).
  EXPECT_EQ(G.countArcs(DepKind::Conflict), 2u);
}

TEST(Pdg, NoConflictBetweenReads) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  ld r1, [@g]
  halt
.thread b
  ld r2, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(P, sched({{0, 2}, {1, 2}}));
  DynamicPdg G = DynamicPdg::build(T);
  EXPECT_EQ(G.countArcs(DepKind::Conflict), 0u);
}

TEST(Pdg, InterveningWriteCutsConflictChain) {
  // a writes, b writes, c reads: c conflicts with b only (condition III).
  isa::Program P = assembleOrDie(R"(
.global g
.thread a
  li r1, 1
  st r1, [@g]
  halt
.thread b
  li r2, 2
  st r2, [@g]
  halt
.thread c
  ld r3, [@g]
  halt
)");
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 3}, {1, 3}, {2, 2}}));
  DynamicPdg G = DynamicPdg::build(T);
  // write-write (a,b) + write-read (b,c) = 2 conflicts.
  ASSERT_EQ(G.countArcs(DepKind::Conflict), 2u);
  uint32_t ReadEvent = eventAt(T, 2, 0);
  auto In = incomingOfKind(G, ReadEvent, DepKind::Conflict);
  ASSERT_EQ(In.size(), 1u);
  EXPECT_EQ(T[In[0].From].Tid, 1u); // from b, not a
}

TEST(Pdg, ControlDependenceWithinIf) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 1
  bnez r1, taken
  li r2, 9
taken:
  li r3, 3
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  // r1 != 0, so the branch jumps to "taken"; li r3 executes at the
  // reconvergence point and is NOT control-dependent on the branch.
  uint32_t LiR3 = eventAt(T, 0, 3);
  EXPECT_TRUE(incomingOfKind(G, LiR3, DepKind::Control).empty());
}

TEST(Pdg, ControlDependenceInsideBranchBody) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 0
  bnez r1, skip
  li r2, 9
skip:
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  uint32_t Body = eventAt(T, 0, 2); // li r2 (branch not taken)
  auto Arcs = incomingOfKind(G, Body, DepKind::Control);
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(T[Arcs[0].From].Kind, EventKind::Branch);
}

TEST(Pdg, NestedControlDependenceUsesNearestBranch) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 0
  li r2, 0
  bnez r1, endo
  bnez r2, endi
  li r3, 7
endi:
  li r4, 8
endo:
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  uint32_t Inner = eventAt(T, 0, 4); // li r3
  auto Arcs = incomingOfKind(G, Inner, DepKind::Control);
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(T[Arcs[0].From].Pc, 3u); // the inner branch
  uint32_t Middle = eventAt(T, 0, 5); // li r4: only outer branch governs
  auto Arcs2 = incomingOfKind(G, Middle, DepKind::Control);
  ASSERT_EQ(Arcs2.size(), 1u);
  EXPECT_EQ(T[Arcs2[0].From].Pc, 2u);
}

TEST(Pdg, LoopIterationsControlDependOnLatestBranch) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 2
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  ProgramTrace T = recordRun(P);
  DynamicPdg G = DynamicPdg::build(T);
  // Second iteration's addi (pc 1, second instance) is control-dependent
  // on the first bnez.
  uint32_t Count = 0;
  uint32_t SecondAddi = UINT32_MAX;
  for (uint32_t E = 0; E < T.size(); ++E)
    if (T[E].Pc == 1 && T[E].Kind == EventKind::Alu && ++Count == 2)
      SecondAddi = E;
  ASSERT_NE(SecondAddi, UINT32_MAX);
  auto Arcs = incomingOfKind(G, SecondAddi, DepKind::Control);
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(T[Arcs[0].From].Kind, EventKind::Branch);
}

TEST(Pdg, ArcsPointForward) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t x2
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  halt
)");
  ProgramTrace T = recordRun(P, 11);
  DynamicPdg G = DynamicPdg::build(T);
  for (const DepArc &A : G.arcs()) {
    EXPECT_LT(A.From, A.To);
    if (A.Kind == DepKind::Conflict)
      EXPECT_NE(T[A.From].Tid, T[A.To].Tid);
    else
      EXPECT_EQ(T[A.From].Tid, T[A.To].Tid);
  }
}
