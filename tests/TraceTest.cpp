//===- tests/TraceTest.cpp - Unit tests for trace recording ---------------===//

#include "TestUtil.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::trace;
using isa::assembleOrDie;
using testutil::recordRun;

// An event carries thread, pc, kind, address and lock only; a field
// added back to TraceEvent grows every trace and shows up here.
static_assert(sizeof(trace::TraceEvent) == 40);

TEST(Trace, RecordsAllEventKinds) {
  // The branch's taken target (pc 7) differs from its fall-through
  // (pc 6), so its outcome shows in the thread's next pc.
  isa::Program P = assembleOrDie(R"(
.global g
.lock m
.thread t
  li r1, 1
  lock @m
  st r1, [@g]
  ld r2, [@g]
  unlock @m
  beqz r0, end
  li r3, 2
end:
  halt
)");
  ProgramTrace T = recordRun(P);
  ASSERT_EQ(T.size(), 7u);
  EXPECT_EQ(T[0].Kind, EventKind::Alu);
  EXPECT_EQ(T[1].Kind, EventKind::Lock);
  EXPECT_EQ(T[2].Kind, EventKind::Store);
  EXPECT_EQ(T[3].Kind, EventKind::Load);
  EXPECT_EQ(T[4].Kind, EventKind::Unlock);
  EXPECT_EQ(T[5].Kind, EventKind::Branch);
  EXPECT_EQ(T[6].Kind, EventKind::ThreadEnd);
  EXPECT_EQ(T[5].Pc, 5u);
  EXPECT_EQ(T[6].Pc, 7u); // taken: the fall-through li never ran
  EXPECT_EQ(T[2].Address, P.addressOf("g"));
  EXPECT_EQ(T[3].Address, P.addressOf("g"));
}

TEST(Trace, SeqIsMonotonic) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t x2
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  halt
)");
  ProgramTrace T = recordRun(P, 3);
  for (size_t I = 1; I < T.size(); ++I)
    EXPECT_LE(T[I - 1].Seq, T[I].Seq);
}

TEST(Trace, ThreadViewsPartitionTheTrace) {
  isa::Program P = assembleOrDie(R"(
.thread t x3
  li r1, 1
  li r2, 2
  halt
)");
  ProgramTrace T = recordRun(P, 7);
  ASSERT_EQ(T.numThreads(), 3u);
  std::vector<size_t> Counts(T.numThreads());
  for (const TraceEvent &E : T.events()) {
    ASSERT_LT(E.Tid, T.numThreads());
    ++Counts[E.Tid];
  }
  // Each thread executed li, li, halt.
  for (size_t N : Counts)
    EXPECT_EQ(N, 3u);
}

TEST(Trace, SharedAddressOracle) {
  isa::Program P = assembleOrDie(R"(
.global shared_g
.global private_g
.local priv
.thread a
  ld r1, [@shared_g]
  ld r2, [@private_g]
  st r1, [@priv]
  halt
.thread b
  li r3, 5
  st r3, [@shared_g]
  st r3, [@priv]
  halt
)");
  ProgramTrace T = recordRun(P);
  EXPECT_TRUE(T.isSharedAddress(P.addressOf("shared_g")));
  EXPECT_FALSE(T.isSharedAddress(P.addressOf("private_g")));
  // Thread-local symbols resolve to distinct words per thread.
  EXPECT_FALSE(T.isSharedAddress(P.addressOf("priv", 0)));
  EXPECT_FALSE(T.isSharedAddress(P.addressOf("priv", 1)));
}

TEST(Trace, SharedOracleCountsRepeatedSameThreadAsOne) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t
  ld r1, [@g]
  ld r1, [@g]
  st r1, [@g]
  halt
)");
  ProgramTrace T = recordRun(P);
  EXPECT_EQ(T.threadsAccessing(P.addressOf("g")), 1u);
  EXPECT_FALSE(T.isSharedAddress(P.addressOf("g")));
}

TEST(Trace, ResetRebindsAndDropsTheSharedCache) {
  // A's x and y are shared; B puts its one thread's z and w on the same
  // words. After reset, the sharedness answers must come from B's events
  // alone, not from the cache built over A's.
  isa::Program A = assembleOrDie(R"(
.global x
.global y
.thread a x2
  ld r1, [@x]
  st r1, [@y]
  halt
)");
  isa::Program B = assembleOrDie(R"(
.global z
.global w
.thread b
  st r0, [@z]
  halt
)");
  ASSERT_EQ(A.addressOf("x"), B.addressOf("z"));
  ASSERT_EQ(A.addressOf("y"), B.addressOf("w"));
  ProgramTrace T = recordRun(A);
  ASSERT_TRUE(T.isSharedAddress(A.addressOf("x")));
  ASSERT_TRUE(T.isSharedAddress(A.addressOf("y")));
  size_t Capacity = T.events().capacity();

  ProgramTrace TB = recordRun(B);
  T.reset(B);
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(&T.program(), &B);
  EXPECT_EQ(T.events().capacity(), Capacity);
  EXPECT_EQ(T.threadsAccessing(B.addressOf("z")), 0u);
  for (const TraceEvent &E : TB.events())
    T.append(E);
  EXPECT_EQ(T.threadsAccessing(B.addressOf("z")), 1u);
  EXPECT_FALSE(T.isSharedAddress(B.addressOf("z")));
  EXPECT_EQ(T.threadsAccessing(B.addressOf("w")), 0u);
}

TEST(Trace, ValidateAcceptsRecordedTraces) {
  isa::Program P = assembleOrDie(R"(
.global g
.lock m
.thread t x2
  lock @m
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  unlock @m
  halt
)");
  ProgramTrace T = recordRun(P, 5);
  std::string Err;
  EXPECT_TRUE(validate(T, Err)) << Err;
  EXPECT_TRUE(Err.empty());
}

TEST(Trace, ValidateNamesEveryCorruptionKind) {
  isa::Program P = assembleOrDie(R"(
.global g
.lock m
.thread t
  ld r1, [@g]
  st r1, [@g]
  halt
)");
  ProgramTrace Clean = recordRun(P);
  ASSERT_GE(Clean.size(), 3u);

  // Rebuild the trace with exactly one field mangled per case; the
  // diagnostic must name the offending event and cause.
  struct Case {
    const char *Expect;
    void (*Mangle)(TraceEvent &);
  };
  const Case Cases[] = {
      {"thread id", [](TraceEvent &E) { E.Tid = 99; }},
      {"breaks execution order", [](TraceEvent &E) { E.Seq = 0; }},
      {"null instruction", [](TraceEvent &E) { E.Instr = nullptr; }},
      {"address",
       [](TraceEvent &E) {
         E.Kind = EventKind::Store;
         E.Address = 1u << 30;
       }},
      {"mutex id",
       [](TraceEvent &E) {
         E.Kind = EventKind::Lock;
         E.MutexId = 77;
       }},
  };
  for (const Case &C : Cases) {
    ProgramTrace Bad(P);
    for (size_t I = 0; I < Clean.size(); ++I) {
      TraceEvent E = Clean[I];
      if (I == 2)
        C.Mangle(E);
      Bad.appendUnchecked(E);
    }
    std::string Err;
    EXPECT_FALSE(validate(Bad, Err)) << C.Expect;
    EXPECT_NE(Err.find(C.Expect), std::string::npos) << Err;
    EXPECT_NE(Err.find("event 2"), std::string::npos) << Err;
  }
}

TEST(Trace, RecorderCapLeavesValidPrefix) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread t x2
  ld r1, [@g]
  addi r1, r1, 1
  st r1, [@g]
  halt
)");
  // Uncapped run for the reference event count.
  ProgramTrace Full = recordRun(P, 9);
  ASSERT_GT(Full.size(), 4u);

  vm::MachineConfig Cfg;
  Cfg.SchedSeed = 9;
  vm::Machine M(P, Cfg);
  TraceRecorder R(P);
  R.setMaxEvents(4);
  M.addObserver(&R);
  M.run();
  EXPECT_EQ(R.trace().size(), 4u);
  EXPECT_EQ(R.droppedEvents(), Full.size() - 4);
  // The capped prefix is still structurally valid.
  std::string Err;
  EXPECT_TRUE(validate(R.trace(), Err)) << Err;
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(R.trace()[I].Seq, Full[I].Seq);
}

TEST(Trace, InstrPointersMatchProgram) {
  isa::Program P = assembleOrDie(R"(
.thread t
  li r1, 42
  halt
)");
  ProgramTrace T = recordRun(P);
  ASSERT_GE(T.size(), 1u);
  EXPECT_EQ(T[0].Instr, &P.Threads[0].Code[0]);
  EXPECT_EQ(T[0].Pc, 0u);
}
