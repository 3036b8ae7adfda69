//===- tests/AtomicProofTest.cpp - Static CU atomicity proof tests --------===//
//
// The prove-and-prune layer (analysis/AtomicProof.h): which units the
// two-phase-locking proof accepts, which obligations reject the buggy
// twins, and the three static diagnostic families it reports. Also
// pins the StaticLockset loop back-edge must-join the proofs' O1
// obligation depends on.
//
//===----------------------------------------------------------------------===//

#include "analysis/AtomicProof.h"
#include "analysis/ProgramPasses.h"
#include "analysis/StaticLockset.h"
#include "isa/Assembler.h"
#include "isa/Cfg.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::analysis;
using isa::Program;

namespace {

Program asmProg(const std::string &Src) { return isa::assembleOrDie(Src); }

bool hasDiag(const CuProofs &P, ProofDiag::Kind K) {
  for (const ProofDiag &D : P.diagnostics())
    if (D.K == K)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Proven units
//===----------------------------------------------------------------------===//

// The canonical provable shape: a consistently locked counter RMW.
// Every thread's load/increment/store unit is proven and both member
// accesses become prunable.
TEST(AtomicProof, LockedCounterRmwIsProven) {
  Program P = asmProg(R"(
.global counter
.lock m
.thread w x2
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
  CuProofs Proofs = proveAtomicCus(P);
  ASSERT_EQ(Proofs.proven().size(), 2u);
  EXPECT_EQ(Proofs.prunableSites(), 4u);
  for (isa::ThreadId Tid = 0; Tid < 2; ++Tid) {
    // pc 2 = ld, pc 4 = st.
    EXPECT_TRUE(Proofs.provenAt(Tid, 2));
    EXPECT_TRUE(Proofs.provenAt(Tid, 4));
    // The lock/unlock and loop control are not access sites.
    EXPECT_FALSE(Proofs.provenAt(Tid, 1));
    EXPECT_FALSE(Proofs.provenAt(Tid, 5));
  }
  for (const ProvenCu &U : Proofs.proven())
    EXPECT_EQ(U.MutexId, 0u);
  EXPECT_TRUE(Proofs.diagnostics().empty());
}

// A proof that only value flow's sharpened bounds decide. The counter
// index is 0 on every feasible path, but the arm behind the constant
// `bnez r6` guard sets it to 3, and Escape's raw bound joins both arms
// into [0, 3]. Value flow drops the dead arm, so the member load covers
// one block (O3) and both threads' units are proven; a proof that
// expanded its sites from the raw bound would prove nothing. The index
// and the guard are computed under the lock because their definitions
// join the unit (address and control dependences), and O1 needs the
// whole unit span under `m`.
TEST(AtomicProof, OnlySharpenedBoundsProveGuardedCounter) {
  Program P = asmProg(R"(
.global counters 4
.lock m
.thread w x2
  lock @m
  li r6, 0
  li r1, 0
  bnez r6, skew
  jmp bump
skew:
  li r1, 3
bump:
  ld r3, [r1+@counters]
  addi r3, r3, 1
  st r3, [r1+@counters]
  unlock @m
  halt
)");
  int64_t Base = P.findSymbol("counters")->Base;
  ProgramPasses PP(P, /*ValueFlow=*/true);
  for (isa::ThreadId Tid = 0; Tid < 2; ++Tid) {
    // pc 6 = ld, pc 8 = st.
    for (uint32_t Pc : {6u, 8u}) {
      EXPECT_EQ(PP.addressOf(Tid, Pc), Interval::constant(Base));
      EXPECT_EQ(PP.escape(Tid).addressOf(Pc),
                Interval::range(Base, Base + 3));
    }
  }
  CuProofs Proofs = proveAtomicCus(PP, 0);
  ASSERT_EQ(Proofs.proven().size(), 2u);
  EXPECT_EQ(Proofs.prunableSites(), 4u);
  for (isa::ThreadId Tid = 0; Tid < 2; ++Tid) {
    EXPECT_TRUE(Proofs.provenAt(Tid, 6));
    EXPECT_TRUE(Proofs.provenAt(Tid, 8));
  }
}

// The proofs read value flow's bounds, so a bundle built without value
// flow is refused in every build type, not only where asserts are on.
TEST(AtomicProofDeathTest, BundleWithoutValueFlowIsFatal) {
  Program P = asmProg(R"(
.global counter
.lock m
.thread w x2
  lock @m
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @m
  halt
)");
  ProgramPasses PP(P, /*ValueFlow=*/false);
  EXPECT_DEATH((void)proveAtomicCus(PP, 0), "built with value flow");
}

// The same program without the lock: nothing is proven and, with no
// locked site anywhere, no inconsistent-lock diagnostic either (there
// is no locking discipline to be inconsistent with).
TEST(AtomicProof, UnlockedTwinNotProven) {
  Program P = asmProg(R"(
.global counter
.thread w x2
  li r5, 3
loop:
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  CuProofs Proofs = proveAtomicCus(P);
  EXPECT_TRUE(Proofs.proven().empty());
  EXPECT_EQ(Proofs.prunableSites(), 0u);
  EXPECT_FALSE(hasDiag(Proofs, ProofDiag::Kind::InconsistentLock));
}

// Alias-group symmetry: when one thread locks the counter and another
// touches it bare, the locked thread's unit must NOT be proven (its
// group is not consistently protected), and the bare site draws the
// Eraser-style inconsistent-lock diagnostic.
TEST(AtomicProof, InconsistentLockingBlocksProofAndDiagnoses) {
  Program P = asmProg(R"(
.global counter
.lock m
.thread locked
  lock @m
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @m
  halt
.thread bare
  ld r2, [@counter]
  addi r2, r2, 1
  st r2, [@counter]
  halt
)");
  CuProofs Proofs = proveAtomicCus(P);
  EXPECT_TRUE(Proofs.proven().empty());
  EXPECT_EQ(Proofs.prunableSites(), 0u);
  ASSERT_TRUE(hasDiag(Proofs, ProofDiag::Kind::InconsistentLock));
  // The diagnostic points at the unprotected thread's sites.
  for (const ProofDiag &D : Proofs.diagnostics())
    if (D.K == ProofDiag::Kind::InconsistentLock) {
      EXPECT_EQ(D.Tid, 1u);
    }
}

// O1: releasing and reacquiring the common lock inside one unit (the
// classic atomicity gap) fails two-phase coverage — not proven, and
// the non-two-phase diagnostic names the lock.
TEST(AtomicProof, NonTwoPhaseRegionDiagnosed) {
  Program P = asmProg(R"(
.global x
.lock m
.thread t x2
  lock @m
  ld r1, [@x]
  unlock @m
  lock @m
  addi r1, r1, 1
  st r1, [@x]
  unlock @m
  halt
)");
  CuProofs Proofs = proveAtomicCus(P);
  EXPECT_TRUE(Proofs.proven().empty());
  ASSERT_TRUE(hasDiag(Proofs, ProofDiag::Kind::NonTwoPhase));
  for (const ProofDiag &D : Proofs.diagnostics())
    if (D.K == ProofDiag::Kind::NonTwoPhase) {
      EXPECT_NE(D.Message.find("'m'"), std::string::npos);
    }
}

// O2: a Cas member disqualifies the unit — Cas is the annotation-free
// synchronization primitive and must never be pruned from the event
// stream, even when a lock covers it.
TEST(AtomicProof, CasMemberBlocksProof) {
  Program P = asmProg(R"(
.global counter
.lock m
.thread w x2
  lock @m
  ld r1, [@counter]
  addi r2, r1, 1
  cas r3, r1, r2, [@counter]
  unlock @m
  halt
)");
  CuProofs Proofs = proveAtomicCus(P);
  EXPECT_TRUE(Proofs.proven().empty());
  EXPECT_EQ(Proofs.prunableSites(), 0u);
}

// AB-BA: two threads acquiring two mutexes in conflicting orders draw
// the static lock-order-cycle diagnostic.
TEST(AtomicProof, LockOrderCycleDiagnosed) {
  Program P = asmProg(R"(
.global x
.global y
.lock a
.lock b
.thread fwd
  lock @a
  lock @b
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@y]
  unlock @b
  unlock @a
  halt
.thread rev
  lock @b
  lock @a
  ld r2, [@y]
  addi r2, r2, 1
  st r2, [@x]
  unlock @a
  unlock @b
  halt
)");
  CuProofs Proofs = proveAtomicCus(P);
  EXPECT_TRUE(hasDiag(Proofs, ProofDiag::Kind::LockOrderCycle));
}

// Consistent nesting (both threads a-then-b) has no cycle.
TEST(AtomicProof, ConsistentNestingHasNoCycle) {
  Program P = asmProg(R"(
.global x
.lock a
.lock b
.thread t x2
  lock @a
  lock @b
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  unlock @b
  unlock @a
  halt
)");
  CuProofs Proofs = proveAtomicCus(P);
  EXPECT_FALSE(hasDiag(Proofs, ProofDiag::Kind::LockOrderCycle));
}

//===----------------------------------------------------------------------===//
// Workload-level expectations
//===----------------------------------------------------------------------===//

// The prove-and-prune showcase workloads behave as advertised: every
// counter access of lockedCounters is prunable; tidSlab's checksum RMW
// is proven while its slab accesses are ValueFlow-filtered instead
// (not proof-pruned — they are ThreadLocal, not lock-protected).
TEST(AtomicProof, ShowcaseWorkloads) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 8;
  WP.WorkPadding = 4;
  CuProofs Locked = proveAtomicCus(workloads::lockedCounters(WP).Program);
  EXPECT_EQ(Locked.proven().size(), 4u);
  EXPECT_EQ(Locked.prunableSites(), 8u);

  CuProofs Slab = proveAtomicCus(workloads::tidSlab(WP).Program);
  EXPECT_EQ(Slab.proven().size(), 4u);
  EXPECT_TRUE(Slab.diagnostics().empty());
}

// The paper workloads: PgSQL's per-warehouse locked sections contain
// provable units; MySQL's inconsistent tot_lock discipline (Figure 1's
// benign race) correctly blocks every proof.
TEST(AtomicProof, PaperWorkloads) {
  workloads::WorkloadParams WP;
  WP.Threads = 4;
  WP.Iterations = 8;
  WP.WorkPadding = 4;
  WP.TouchOneIn = 2;
  CuProofs Pg = proveAtomicCus(workloads::pgsqlOltp(WP).Program);
  EXPECT_FALSE(Pg.proven().empty());
  CuProofs My = proveAtomicCus(workloads::mysqlPrepared(WP).Program);
  EXPECT_TRUE(My.proven().empty());
}

//===----------------------------------------------------------------------===//
// StaticLockset must-join over loop back edges
//===----------------------------------------------------------------------===//

// Regression for the O1 substrate: the must-held set at a loop head is
// the intersection over ALL incoming paths, including the back edge. A
// lock held on loop entry but released before the back edge must not
// be must-held at the head (a solver that forgets to re-meet the back
// edge would claim it is, and O1 would prove an unprovable unit).
TEST(StaticLocksetRegression, LoopBackEdgeMustJoin) {
  Program P = asmProg(R"(
.global x
.lock m
.thread t
  li r5, 3
  lock @m
loop:
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  StaticLockset LS(Cfg, Code, isa::ThreadCallGraph(Code), 1);
  ASSERT_TRUE(LS.analyzable());
  // pc 2 is the loop head (the ld): reached with m held from entry but
  // bare from the back edge -> must = empty, may = {m}.
  EXPECT_EQ(LS.mustHeldBefore(2), 0u);
  EXPECT_EQ(LS.mayHeldBefore(2), 1u);
  // Inside the first iteration's critical section the store is still
  // only may-protected for the same reason.
  EXPECT_EQ(LS.mustHeldBefore(4), 0u);
  // And the proof machinery agrees: nothing is proven here.
  EXPECT_TRUE(proveAtomicCus(P).proven().empty());
}
