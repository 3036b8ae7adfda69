//===- tests/OfflineDetectorTest.cpp - Figure 6 offline algorithm tests ---===//

#include "TestUtil.h"
#include "svd/OfflineDetector.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::detect;
using isa::assembleOrDie;
using testutil::recordRun;
using testutil::recordWithPrefix;
using testutil::sched;
using trace::ProgramTrace;

namespace {

/// The Figure 2 shape: an unlocked read-modify-write on a shared index.
const char *RmwSource = R"(
.global outcnt
.thread w x2
  ld r1, [@outcnt]
  addi r2, r1, 1
  st r2, [@outcnt]
  halt
)";

/// The whole offline pipeline's reports over \p T, which must validate.
std::vector<Violation> offlineReports(const ProgramTrace &T) {
  OfflineAnalysis A = runOfflinePipeline(T);
  EXPECT_EQ(A.Error, "");
  return A.Reports;
}

} // namespace

TEST(OfflineDetector, DetectsInterleavedRmw) {
  isa::Program P = assembleOrDie(RmwSource);
  // t0 reads; t1 runs its whole RMW; t0 finishes: t1's accesses land
  // inside t0's unfinished CU -> strict-2PL violation.
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  std::vector<Violation> V = offlineReports(T);
  EXPECT_FALSE(V.empty());
}

TEST(OfflineDetector, SilentOnSerializedRmw) {
  isa::Program P = assembleOrDie(RmwSource);
  ProgramTrace T = recordWithPrefix(P, sched({{0, 4}, {1, 4}}));
  std::vector<Violation> V = offlineReports(T);
  EXPECT_TRUE(V.empty());
}

TEST(OfflineDetector, SilentOnSingleThread) {
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
  ProgramTrace T = recordRun(P);
  EXPECT_TRUE(offlineReports(T).empty());
}

TEST(OfflineDetector, SilentOnDisjointData) {
  isa::Program P = assembleOrDie(R"(
.global a
.global b
.thread t1
  ld r1, [@a]
  addi r1, r1, 1
  st r1, [@a]
  halt
.thread t2
  ld r1, [@b]
  addi r1, r1, 1
  st r1, [@b]
  halt
)");
  // Fully interleaved but on different words: no conflicts at all.
  ProgramTrace T = recordWithPrefix(
      P, sched({{0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1}, {1, 1}}));
  EXPECT_TRUE(offlineReports(T).empty());
}

TEST(OfflineDetector, ViolationIdentifiesBothSides) {
  isa::Program P = assembleOrDie(RmwSource);
  ProgramTrace T =
      recordWithPrefix(P, sched({{0, 1}, {1, 4}, {0, 3}}));
  std::vector<Violation> V = offlineReports(T);
  ASSERT_FALSE(V.empty());
  for (const Violation &Viol : V) {
    EXPECT_NE(Viol.Tid, Viol.OtherTid);
    EXPECT_EQ(Viol.Address, P.addressOf("outcnt"));
    std::string D = Viol.describe(P);
    EXPECT_NE(D.find("outcnt"), std::string::npos);
  }
}

TEST(OfflineDetector, ReadReadOverlapIsNotAViolation) {
  isa::Program P = assembleOrDie(R"(
.global g
.thread r x2
  ld r1, [@g]
  addi r2, r1, 1
  ld r3, [@g]
  halt
)");
  ProgramTrace T = recordWithPrefix(
      P, sched({{0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}));
  EXPECT_TRUE(offlineReports(T).empty());
}

TEST(OfflineDetector, StaticKeyGroupsSameCodePair) {
  Violation A;
  A.Pc = 3;
  A.OtherPc = 7;
  Violation B;
  B.Pc = 7;
  B.OtherPc = 3;
  EXPECT_EQ(A.staticKey(), B.staticKey());
  Violation C;
  C.Pc = 3;
  C.OtherPc = 8;
  EXPECT_NE(A.staticKey(), C.staticKey());
}
