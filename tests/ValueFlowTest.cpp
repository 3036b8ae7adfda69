//===- tests/ValueFlowTest.cpp - Affine SCCP value-flow tests -------------===//
//
// The reduced-product contract of analysis/ValueFlow.h: every sharpened
// bound is a subset of the plain per-thread interval analysis, the
// access classification only ever improves when value flow is enabled,
// SCCP kills constant-false branches, and Tid-strided slab addressing
// stays exact where a plain interval hull would lose the per-thread
// structure.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessTable.h"
#include "analysis/ProgramPasses.h"
#include "isa/Assembler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::analysis;
using isa::Program;

namespace {

Program asmProg(const std::string &Src) { return isa::assembleOrDie(Src); }

/// A is a subset of B (empty is a subset of everything).
bool subsetOf(const Interval &A, const Interval &B) {
  return A.empty() || (!B.empty() && A.Lo >= B.Lo && A.Hi <= B.Hi);
}

/// A diverse program population for the property tests: the paper
/// workloads at small sizes, the prove-and-prune showcases, and a
/// handful of seeded random programs (with and without injected bugs).
std::vector<Program> propertyPrograms() {
  std::vector<Program> Out;
  workloads::WorkloadParams P;
  P.Threads = 3;
  P.Iterations = 6;
  P.WorkPadding = 4;
  P.TouchOneIn = 2;
  for (workloads::Workload &W : workloads::table1Workloads(P))
    Out.push_back(std::move(W.Program));
  Out.push_back(workloads::lockedCounters(P).Program);
  Out.push_back(workloads::tidSlab(P).Program);
  Out.push_back(workloads::mysqlTableLock(P).Program);
  Out.push_back(workloads::sharedQueue(P).Program);
  for (uint64_t Seed : {1, 2, 3, 4}) {
    workloads::RandomParams R;
    R.Seed = Seed;
    R.Threads = 3;
    R.Iterations = 8;
    R.OmitLockProbability = Seed % 2 ? 0.3 : 0.0;
    Out.push_back(workloads::randomWorkload(R).Program);
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Reduced-product property: never wider than Escape
//===----------------------------------------------------------------------===//

// Every value and address bound ValueFlow reports must lie inside the
// interval EscapeAnalysis reports for the same point — the reduced
// product can only sharpen, never widen. Exhaustive over every (thread,
// pc, register) of the whole program population.
TEST(ValueFlowProperty, NeverWiderThanEscape) {
  for (const Program &P : propertyPrograms()) {
    ProgramPasses PP(P, /*ValueFlow=*/true);
    for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
      const ValueFlowAnalysis &VF = PP.valueFlow(Tid);
      const EscapeAnalysis &E = PP.escape(Tid);
      const std::vector<isa::Instruction> &Code = P.Threads[Tid].Code;
      for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
        for (isa::Reg R = 0; R < isa::NumRegs; ++R) {
          Interval Sharp = VF.valueBefore(Pc, R);
          Interval Wide = E.valueBefore(Pc, R);
          EXPECT_TRUE(subsetOf(Sharp, Wide))
              << "thread " << unsigned(Tid) << " pc " << Pc << " r"
              << unsigned(R) << ": [" << Sharp.Lo << "," << Sharp.Hi
              << "] not within [" << Wide.Lo << "," << Wide.Hi << "]";
        }
        Interval SharpA = VF.addressOf(Pc);
        Interval WideA = E.addressOf(Pc);
        EXPECT_TRUE(subsetOf(SharpA, WideA))
            << "thread " << unsigned(Tid) << " pc " << Pc << " address";
        // SCCP reachability implies Escape reachability.
        if (VF.reachable(Pc)) {
          EXPECT_TRUE(E.reachable(Pc));
        }
      }
    }
  }
}

// Enabling value flow never loses a classification: a site that is
// ThreadLocal under the plain interval table stays ThreadLocal under
// the sharpened one (monotone improvement), and the same holds for
// LockProtected.
TEST(ValueFlowProperty, ClassificationMonotone) {
  for (const Program &P : propertyPrograms()) {
    AccessTable TOff = buildAccessTable(ProgramPasses(P, false), 0);
    AccessTable TOn = buildAccessTable(ProgramPasses(P, true), 0);
    for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
      const std::vector<isa::Instruction> &Code = P.Threads[Tid].Code;
      for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
        if (!isa::isMemoryAccess(Code[Pc].Op))
          continue;
        AccessClass COff = TOff.classify(Tid, Pc);
        AccessClass COn = TOn.classify(Tid, Pc);
        if (COff == AccessClass::ThreadLocal) {
          EXPECT_EQ(COn, AccessClass::ThreadLocal)
              << "thread " << unsigned(Tid) << " pc " << Pc
              << " degraded from ThreadLocal";
        }
        if (COff == AccessClass::LockProtected) {
          EXPECT_NE(COn, AccessClass::PossiblyShared)
              << "thread " << unsigned(Tid) << " pc " << Pc
              << " degraded from LockProtected to PossiblyShared";
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// SCCP and the affine domain
//===----------------------------------------------------------------------===//

// A branch on a known-zero register has exactly one feasible edge:
// SCCP marks the taken side dead while the plain interval analysis
// (no edge-feasibility hook) still reaches it.
TEST(ValueFlow, SccpKillsConstantFalseBranch) {
  Program P = asmProg(R"(
.global x
.thread t
  li r1, 0
  bnez r1, dead
  li r2, 1
  st r2, [@x]
  halt
dead:
  li r3, 7
  st r3, [@x]
  halt
)");
  ProgramPasses PP(P, /*ValueFlow=*/true);
  const ValueFlowAnalysis &VF = PP.valueFlow(0);
  // pc 5 = "li r3, 7", pc 6 = the dead store.
  EXPECT_FALSE(VF.reachable(5));
  EXPECT_FALSE(VF.reachable(6));
  EXPECT_TRUE(PP.escape(0).reachable(5));
  // The live side stays live and the stored value is the constant 1.
  EXPECT_TRUE(VF.reachable(3));
  Interval V = VF.valueBefore(3, 2);
  EXPECT_EQ(V.Lo, 1);
  EXPECT_EQ(V.Hi, 1);
}

// The slab address "tid * 8 + rnd(8)" is tracked as the exact affine
// term 8*Tid + [0,7]; concretized per thread the slabs are disjoint.
TEST(ValueFlow, AffineTermTracksTidStride) {
  Program P = asmProg(R"(
.global slab 32
.thread shard x4
  tid r1
  muli r1, r1, 8
  rnd r2, 8
  add r2, r2, r1
  ld r3, [r2+@slab]
  halt
)");
  ProgramPasses PP(P, /*ValueFlow=*/true);
  for (isa::ThreadId Tid = 0; Tid < 4; ++Tid) {
    const ValueFlowAnalysis &VF = PP.valueFlow(Tid);
    AffineTerm T = VF.addressTerm(4);
    ASSERT_FALSE(T.Top);
    ASSERT_FALSE(T.bottom());
    EXPECT_EQ(T.TidStride, 8);
    EXPECT_EQ(T.Rem.Hi - T.Rem.Lo, 7);
    Interval A = VF.addressOf(4);
    EXPECT_EQ(A.Lo, int64_t(Tid) * 8);
    EXPECT_EQ(A.Hi, int64_t(Tid) * 8 + 7);
  }
}

// The tid_slab shape is the case interval analysis alone cannot prove:
// with value flow off every slab access is PossiblyShared (the rnd hull
// spans all slabs once joined across threads); with value flow on the
// per-thread slabs are disjoint and classify ThreadLocal.
TEST(ValueFlow, OnlyValueFlowProvesTidSlabLocal) {
  Program P = asmProg(R"(
.global slab 32
.thread shard x4
  li r5, 4
  tid r1
  muli r1, r1, 8
loop:
  rnd r2, 8
  add r2, r2, r1
  ld r3, [r2+@slab]
  addi r3, r3, 1
  st r3, [r2+@slab]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  AccessTable TOff = buildAccessTable(ProgramPasses(P, false), 0);
  AccessTable TOn = buildAccessTable(ProgramPasses(P, true), 0);
  for (isa::ThreadId Tid = 0; Tid < 4; ++Tid) {
    // pc 5 = ld, pc 7 = st.
    for (uint32_t Pc : {5u, 7u}) {
      EXPECT_EQ(TOff.classify(Tid, Pc), AccessClass::PossiblyShared);
      EXPECT_EQ(TOn.classify(Tid, Pc), AccessClass::ThreadLocal);
    }
  }
}

// `rnd rd, K` draws from the half-open range [0, K): the VM computes
// `next() % K`, so K-1 is the largest producible value and both interval
// domains must say [0, K-1] — not [0, K]. A non-positive bound means
// the raw 64-bit stream (no reduction): interval top.
TEST(ValueFlow, RndBoundIsHalfOpen) {
  Program P = asmProg(R"(
.global x
.thread t
  rnd r1, 8
  rnd r2, 1
  rnd r3, 0
  st r1, [@x]
  halt
)");
  ProgramPasses PP(P, /*ValueFlow=*/true);
  const ValueFlowAnalysis &VF = PP.valueFlow(0);
  Interval R1 = VF.valueBefore(3, 1);
  EXPECT_EQ(R1.Lo, 0);
  EXPECT_EQ(R1.Hi, 7);
  // A bound of 1 pins the register to exactly 0.
  Interval R2 = VF.valueBefore(3, 2);
  EXPECT_TRUE(R2.isConstant());
  EXPECT_EQ(R2.Lo, 0);
  // Bound 0 is the unreduced stream.
  EXPECT_TRUE(VF.valueBefore(3, 3).isFull());
  // The plain interval domain agrees on the half-open bound.
  const EscapeAnalysis &E = PP.escape(0);
  EXPECT_EQ(E.valueBefore(3, 1).Lo, 0);
  EXPECT_EQ(E.valueBefore(3, 1).Hi, 7);
  EXPECT_TRUE(E.valueBefore(3, 3).isFull());
}
