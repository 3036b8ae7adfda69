//===- tests/AnalysisTest.cpp - Static analysis subsystem tests -----------===//

#include "analysis/Analysis.h"
#include "isa/Assembler.h"
#include "isa/Cfg.h"
#include "support/Json.h"
#include "svd/OnlineSvd.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::analysis;
using isa::Program;

namespace {

Program asmProg(const std::string &Src) { return isa::assembleOrDie(Src); }

/// The static lockset of thread 0 of \p P.
StaticLockset locksetOf(const Program &P, uint32_t NumMutexes) {
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  return StaticLockset(isa::ThreadCfg(Code), Code, isa::ThreadCallGraph(Code),
                       NumMutexes);
}

} // namespace

//===----------------------------------------------------------------------===//
// Reaching definitions
//===----------------------------------------------------------------------===//

TEST(ReachingDefs, StraightLine) {
  Program P = asmProg(R"(
.thread t
  li r1, 5
  add r2, r1, r1
  add r3, r2, r1
  halt
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  ReachingDefs RD(Cfg, Code);

  // Before pc 0 nothing is written: every register is must-uninit.
  EXPECT_TRUE(RD.mustBeUninitAt(0, 1));
  EXPECT_TRUE(RD.mustBeUninitAt(0, 2));
  // After the li, exactly that definition reaches the add.
  EXPECT_FALSE(RD.mayBeUninitAt(1, 1));
  ASSERT_EQ(RD.defsBefore(1, 1).size(), 1u);
  EXPECT_EQ(RD.defsBefore(1, 1)[0], 0u);
  // r2's definition at pc 1 reaches pc 2; r2 was uninit before it.
  EXPECT_TRUE(RD.mustBeUninitAt(1, 2));
  ASSERT_EQ(RD.defsBefore(2, 2).size(), 1u);
  EXPECT_EQ(RD.defsBefore(2, 2)[0], 1u);
}

TEST(ReachingDefs, DiamondMergesBothArms) {
  // r2 is defined on both arms (two reaching defs, never uninit at the
  // join); r1 only on the taken arm (may-uninit but not must-uninit).
  Program P = asmProg(R"(
.thread t
  rnd r3, 2
  beqz r3, else
  li r1, 1
  li r2, 1
  jmp join
else:
  li r2, 2
join:
  add r4, r2, r0
  add r5, r1, r0
  halt
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  ReachingDefs RD(Cfg, Code);

  uint32_t Join = 6; // add r4, r2, r0
  std::vector<uint32_t> Defs = RD.defsBefore(Join, 2);
  ASSERT_EQ(Defs.size(), 2u);
  EXPECT_EQ(Defs[0], 3u);
  EXPECT_EQ(Defs[1], 5u);
  EXPECT_FALSE(RD.mayBeUninitAt(Join, 2));

  EXPECT_TRUE(RD.mayBeUninitAt(Join + 1, 1));
  EXPECT_FALSE(RD.mustBeUninitAt(Join + 1, 1));
}

TEST(ReachingDefs, WordBoundaryCodeSizes) {
  // The entry definition is bit N of an N-instruction thread, so it
  // moves into a second 64-bit word at N = 64; N = 128 needs three.
  // Each thread is
  //   0: rnd r3, 2     1: beqz r3, skip     2..N-4: li r2, i
  //   N-3: li r1, 1    N-2 (skip): li r14, 4    N-1: halt
  // so at the halt r1 is defined on the fall-through path only, r14 on
  // every path, and r15 (the last register) on none.
  for (uint32_t N : {62u, 63u, 64u, 65u, 128u}) {
    std::string Src = ".thread t\n  rnd r3, 2\n  beqz r3, skip\n";
    for (uint32_t Pc = 2; Pc <= N - 4; ++Pc)
      Src += "  li r2, " + std::to_string(Pc) + "\n";
    Src += "  li r1, 1\nskip:\n  li r14, 4\n  halt\n";
    Program P = asmProg(Src);
    const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
    ASSERT_EQ(Code.size(), N);
    isa::ThreadCfg Cfg(Code);
    ReachingDefs RD(Cfg, Code);
    uint32_t Last = N - 1;
    SCOPED_TRACE("N = " + std::to_string(N));

    EXPECT_EQ(RD.defsBefore(Last, 1),
              (std::vector<uint32_t>{N - 3, ReachingDefs::EntryDef}));
    EXPECT_TRUE(RD.mayBeUninitAt(Last, 1));
    EXPECT_FALSE(RD.mustBeUninitAt(Last, 1));

    EXPECT_EQ(RD.defsBefore(Last, 15),
              (std::vector<uint32_t>{ReachingDefs::EntryDef}));
    EXPECT_TRUE(RD.mayBeUninitAt(Last, 15));
    EXPECT_TRUE(RD.mustBeUninitAt(Last, 15));

    EXPECT_EQ(RD.defsBefore(Last, 14), (std::vector<uint32_t>{N - 2}));
    EXPECT_FALSE(RD.mayBeUninitAt(Last, 14));
  }
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

TEST(Liveness, StraightLineDeadWrite) {
  Program P = asmProg(R"(
.thread t
  li r1, 5
  li r1, 6
  print r1
  halt
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  Liveness LV(Cfg, Code);

  EXPECT_TRUE(LV.isDeadWrite(0));  // overwritten before any read
  EXPECT_FALSE(LV.isDeadWrite(1)); // read by print
  EXPECT_TRUE(LV.liveBefore(2) & (1u << 1));
  EXPECT_FALSE(LV.liveAfter(2) & (1u << 1));
}

TEST(Liveness, DiamondKeepsBothArmsLive) {
  Program P = asmProg(R"(
.thread t
  rnd r3, 2
  li r1, 7
  beqz r3, else
  print r1
  jmp join
else:
  print r1
join:
  halt
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  Liveness LV(Cfg, Code);

  // r1 is read on both arms: the write at pc 1 is live, and r1 is live
  // across the branch at pc 2.
  EXPECT_FALSE(LV.isDeadWrite(1));
  EXPECT_TRUE(LV.liveBefore(2) & (1u << 1));
  // r3 dies at the branch.
  EXPECT_TRUE(LV.liveBefore(2) & (1u << 3));
  EXPECT_FALSE(LV.liveAfter(2) & (1u << 3));
}

//===----------------------------------------------------------------------===//
// Static locksets
//===----------------------------------------------------------------------===//

TEST(StaticLockset, FlagsImbalanceAndUnlockNotHeld) {
  Program P = asmProg(R"(
.lock a
.lock b
.thread t
  unlock @b
  lock @a
  halt
)");
  StaticLockset LS = locksetOf(P, 2);
  const std::vector<LocksetDiag> &Ds = LS.diagnostics();
  ASSERT_EQ(Ds.size(), 2u);
  EXPECT_EQ(Ds[0].K, LocksetDiag::Kind::UnlockNotHeld);
  EXPECT_TRUE(Ds[0].Definite);
  EXPECT_EQ(Ds[0].MutexId, 1u);
  EXPECT_EQ(Ds[1].K, LocksetDiag::Kind::HeldAtExit);
  EXPECT_EQ(Ds[1].MutexId, 0u);
}

TEST(StaticLockset, DefiniteDoubleAcquire) {
  Program P = asmProg(R"(
.lock a
.thread t
  lock @a
  lock @a
  unlock @a
  halt
)");
  StaticLockset LS = locksetOf(P, 1);
  ASSERT_FALSE(LS.diagnostics().empty());
  EXPECT_EQ(LS.diagnostics()[0].K, LocksetDiag::Kind::DoubleAcquire);
  EXPECT_TRUE(LS.diagnostics()[0].Definite);
  EXPECT_EQ(LS.diagnostics()[0].Pc, 1u);
}

TEST(StaticLockset, LoopBackEdgeIsMayNotMust) {
  // The lock is only held on the looping path: a may-double-acquire
  // warning, not a definite error.
  Program P = asmProg(R"(
.lock a
.thread t
  li r5, 2
loop:
  lock @a
  addi r5, r5, -1
  bnez r5, loop
  unlock @a
  halt
)");
  StaticLockset LS = locksetOf(P, 1);
  ASSERT_FALSE(LS.diagnostics().empty());
  EXPECT_EQ(LS.diagnostics()[0].K, LocksetDiag::Kind::MayDoubleAcquire);
  EXPECT_FALSE(LS.diagnostics()[0].Definite);
}

TEST(StaticLockset, BalancedProgramIsClean) {
  Program P = asmProg(R"(
.lock a
.thread t
  li r5, 3
loop:
  lock @a
  unlock @a
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  StaticLockset LS = locksetOf(P, 1);
  EXPECT_TRUE(LS.diagnostics().empty());
}

TEST(StaticLockset, RegionSummariesCaptureLockDeltas) {
  Program P = asmProg(R"(
.lock m
.thread t
  call acquire
  call release
  halt
.proc acquire
  lock @m
  ret
.proc release
  unlock @m
  ret
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  StaticLockset LS(Cfg, Code, isa::ThreadCallGraph(Code), 1);
  EXPECT_TRUE(LS.diagnostics().empty());

  isa::RegionMap RM(Code);
  ASSERT_EQ(RM.numRegions(), 3u);
  const std::vector<RegionSummary> &S = LS.regionSummaries();
  ASSERT_EQ(S.size(), 3u);
  uint32_t Racq = 0, Rrel = 0;
  for (const isa::ProcInfo &PI : P.Threads[0].Procs)
    (PI.Name == "acquire" ? Racq : Rrel) = RM.regionAtEntry(PI.Entry);
  ASSERT_NE(Racq, 0u);
  ASSERT_NE(Rrel, 0u);
  // acquire: exit = entry | bit0. release: exit = entry & ~bit0.
  EXPECT_EQ(S[Racq].MustGen & 1, 1u);
  EXPECT_EQ(S[Racq].MayGen & 1, 1u);
  EXPECT_TRUE(S[Racq].Returns);
  EXPECT_EQ(S[Rrel].MustGen & 1, 0u);
  EXPECT_EQ(S[Rrel].MustKeep & 1, 0u);
  EXPECT_EQ(S[Rrel].MayKeep & 1, 0u);
  EXPECT_TRUE(S[Rrel].Returns);

  // The entry fact flows interprocedurally: the unlock inside `release`
  // sees the mutex `acquire` took for its caller.
  uint32_t UnlockPc = RM.entryOf(Rrel);
  EXPECT_EQ(Code[UnlockPc].Op, isa::Opcode::Unlock);
  EXPECT_EQ(LS.mustHeldBefore(UnlockPc) & 1, 1u);
  // And after the balanced call pair nothing is held at halt.
  EXPECT_EQ(LS.mustHeldBefore(2) & 1, 0u);
  EXPECT_EQ(LS.mayHeldBefore(2) & 1, 0u);
}

TEST(StaticLockset, NonReturningCalleeCutsFallThrough) {
  Program P = asmProg(R"(
.lock m
.thread t
  call spin
  lock @m
  halt
.proc spin
loop:
  jmp loop
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  StaticLockset LS(Cfg, Code, isa::ThreadCallGraph(Code), 1);
  isa::RegionMap RM(Code);
  uint32_t Rs = RM.regionAtEntry(P.Threads[0].Procs[0].Entry);
  EXPECT_FALSE(LS.regionSummaries()[Rs].Returns);
  // The callee never returns, so the lock after the call is dead code
  // and no held-at-exit diagnostic fires.
  EXPECT_FALSE(LS.reachable(1));
  EXPECT_TRUE(LS.diagnostics().empty());
}

TEST(StaticLockset, RecursiveSummaryConverges) {
  // A self-recursive proc whose every path keeps the entry lockset
  // intact: the SCC iteration must converge to identity-like Keep bits
  // and a held lock must survive the recursive call.
  Program P = asmProg(R"(
.lock m
.global total
.thread t
  lock @m
  li r2, 3
  call step
  unlock @m
  halt
.proc step
  beqz r2, done
  ld r1, [@total]
  addi r1, r1, 1
  st r1, [@total]
  addi r2, r2, -1
  call step
done:
  ret
)");
  const std::vector<isa::Instruction> &Code = P.Threads[0].Code;
  isa::ThreadCfg Cfg(Code);
  StaticLockset LS(Cfg, Code, isa::ThreadCallGraph(Code), 1);
  EXPECT_TRUE(LS.diagnostics().empty());
  isa::RegionMap RM(Code);
  uint32_t Rs = RM.regionAtEntry(P.Threads[0].Procs[0].Entry);
  const RegionSummary &S = LS.regionSummaries()[Rs];
  EXPECT_TRUE(S.Returns);
  EXPECT_EQ(S.MustKeep & 1, 1u);
  EXPECT_EQ(S.MustGen & 1, 0u);
  // The store inside the recursive body runs with m must-held.
  for (uint32_t Pc = RM.entryOf(Rs); Pc < RM.endOf(Rs); ++Pc) {
    if (Code[Pc].Op == isa::Opcode::St) {
      EXPECT_EQ(LS.mustHeldBefore(Pc) & 1, 1u) << "pc " << Pc;
    }
  }
  // The unlock back in the caller still sees it too.
  EXPECT_EQ(LS.mustHeldBefore(3) & 1, 1u);
}

//===----------------------------------------------------------------------===//
// Escape analysis / access classification
//===----------------------------------------------------------------------===//

TEST(Escape, ComputedAddressStaysPossiblyShared) {
  // The store index is loaded from memory: the interval is unbounded,
  // so even though it syntactically targets the thread's .local buffer
  // the access must stay PossiblyShared.
  Program P = asmProg(R"(
.global idx
.local buf 8
.thread t x2
  ld r1, [@idx]
  li r2, 1
  st r2, [r1+@buf]
  halt
)");
  AccessTable T = buildAccessTable(P);
  EXPECT_EQ(T.classify(0, 0), AccessClass::PossiblyShared); // ld @idx
  EXPECT_EQ(T.classify(0, 2), AccessClass::PossiblyShared); // computed st
  EXPECT_EQ(countAccessSites(P, T, AccessClass::ThreadLocal), 0u);
}

TEST(Escape, RndBoundedLocalAccessIsThreadLocal) {
  Program P = asmProg(R"(
.local buf 8
.thread t x2
  rnd r1, 8
  ld r2, [r1+@buf]
  addi r2, r2, 1
  st r2, [r1+@buf]
  halt
)");
  AccessTable T = buildAccessTable(P);
  for (isa::ThreadId Tid = 0; Tid < 2; ++Tid) {
    EXPECT_EQ(T.classify(Tid, 1), AccessClass::ThreadLocal);
    EXPECT_EQ(T.classify(Tid, 3), AccessClass::ThreadLocal);
  }
  EXPECT_EQ(countAccessSites(P, T, AccessClass::ThreadLocal), 4u);
}

TEST(Escape, LockedGlobalIsLockProtected) {
  Program P = asmProg(R"(
.global counter
.lock m
.thread t x2
  lock @m
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @m
  halt
)");
  AccessTable T = buildAccessTable(P);
  EXPECT_EQ(T.classify(0, 1), AccessClass::LockProtected);
  EXPECT_EQ(T.classify(0, 3), AccessClass::LockProtected);
}

TEST(Escape, LoopInductionAddressWidensToShared) {
  // No branch refinement: a loop counter used as an index widens to an
  // unbounded interval, so the .local access is (soundly) refused.
  Program P = asmProg(R"(
.local buf 8
.thread t x2
  li r1, 0
loop:
  st r0, [r1+@buf]
  addi r1, r1, 1
  slti r2, r1, 8
  bnez r2, loop
  halt
)");
  AccessTable T = buildAccessTable(P);
  EXPECT_EQ(T.classify(0, 1), AccessClass::PossiblyShared);
}

TEST(Escape, BlockGranularityDefeatsWordProof) {
  // At 2-word blocks a one-word .local region shares its block with the
  // neighbouring symbol, so the word-exact proof must not survive
  // block expansion.
  Program P = asmProg(R"(
.global shared_word
.local mine 1
.thread t x2
  ld r1, [@mine]
  st r1, [@shared_word]
  halt
)");
  AccessTable Word = buildAccessTable(P, 0);
  AccessTable Blk = buildAccessTable(P, 1);
  EXPECT_EQ(Word.classify(0, 0), AccessClass::ThreadLocal);
  // With 2-word blocks, some thread's copy of `mine` shares a block
  // with another symbol or copy; at least one access must degrade.
  uint64_t LocalsAtWord = countAccessSites(P, Word, AccessClass::ThreadLocal);
  uint64_t LocalsAtBlk = countAccessSites(P, Blk, AccessClass::ThreadLocal);
  EXPECT_LT(LocalsAtBlk, LocalsAtWord);
}

//===----------------------------------------------------------------------===//
// Lint
//===----------------------------------------------------------------------===//

TEST(Lint, FlagsSeededBugs) {
  Program P = asmProg(R"(
.lock a
.thread t
  add r1, r2, r0
  lock @a
  halt
)");
  std::vector<LintDiag> Ds = lintProgram(P);
  ASSERT_EQ(Ds.size(), 2u);
  EXPECT_EQ(Ds[0].Category, "uninit-read");
  EXPECT_EQ(Ds[0].Pc, 0u);
  EXPECT_EQ(Ds[1].Category, "lock-imbalance");
  EXPECT_EQ(Ds[1].Severity, LintSeverity::Error);
}

TEST(Lint, WorkloadProgramsAreClean) {
  // Acceptance bar: zero false diagnostics on every existing workload.
  std::vector<workloads::Workload> All =
      workloads::table1Workloads(workloads::WorkloadParams());
  All.push_back(workloads::mysqlTableLock());
  All.push_back(workloads::sharedQueue());
  All.push_back(workloads::randomWorkload());
  workloads::RandomParams RP;
  RP.Seed = 7;
  RP.OmitLockProbability = 0.3;
  All.push_back(workloads::randomWorkload(RP));
  for (const workloads::Workload &W : All) {
    std::vector<LintDiag> Ds = lintProgram(W.Program);
    for (const LintDiag &D : Ds)
      ADD_FAILURE() << W.Name << ": " << formatLintDiag(W.Program, D);
  }
}

//===----------------------------------------------------------------------===//
// Detector filtering equivalence
//===----------------------------------------------------------------------===//

namespace {

void expectSameReports(const detect::OnlineSvd &A, const detect::OnlineSvd &B,
                       const std::string &Name) {
  ASSERT_EQ(A.violations().size(), B.violations().size()) << Name;
  for (size_t K = 0; K < A.violations().size(); ++K) {
    const detect::Violation &X = A.violations()[K];
    const detect::Violation &Y = B.violations()[K];
    EXPECT_EQ(X.Seq, Y.Seq) << Name;
    EXPECT_EQ(X.Tid, Y.Tid) << Name;
    EXPECT_EQ(X.Pc, Y.Pc) << Name;
    EXPECT_EQ(X.OtherTid, Y.OtherTid) << Name;
    EXPECT_EQ(X.OtherPc, Y.OtherPc) << Name;
    EXPECT_EQ(X.OtherSeq, Y.OtherSeq) << Name;
    EXPECT_EQ(X.Address, Y.Address) << Name;
  }
  ASSERT_EQ(A.cuLog().size(), B.cuLog().size()) << Name;
  for (size_t K = 0; K < A.cuLog().size(); ++K) {
    const detect::CuLogEntry &X = A.cuLog()[K];
    const detect::CuLogEntry &Y = B.cuLog()[K];
    EXPECT_EQ(X.Seq, Y.Seq) << Name;
    EXPECT_EQ(X.Tid, Y.Tid) << Name;
    EXPECT_EQ(X.Pc, Y.Pc) << Name;
    EXPECT_EQ(X.RemoteSeq, Y.RemoteSeq) << Name;
    EXPECT_EQ(X.RemoteTid, Y.RemoteTid) << Name;
    EXPECT_EQ(X.RemotePc, Y.RemotePc) << Name;
    EXPECT_EQ(X.LocalSeq, Y.LocalSeq) << Name;
    EXPECT_EQ(X.LocalPc, Y.LocalPc) << Name;
    EXPECT_EQ(X.Address, Y.Address) << Name;
  }
  EXPECT_EQ(A.numCusFormed(), B.numCusFormed()) << Name;
  EXPECT_EQ(A.numCusEnded(), B.numCusEnded()) << Name;
  EXPECT_EQ(A.eventsObserved(), B.eventsObserved()) << Name;
}

} // namespace

TEST(OnlineSvdFilter, BitIdenticalReportsOnAllWorkloads) {
  std::vector<workloads::Workload> All =
      workloads::table1Workloads(workloads::WorkloadParams());
  All.push_back(workloads::mysqlTableLock());
  All.push_back(workloads::sharedQueue());
  workloads::RandomParams RP;
  RP.Seed = 11;
  RP.OmitLockProbability = 0.4;
  All.push_back(workloads::randomWorkload(RP));

  uint64_t TotalFiltered = 0;
  for (const workloads::Workload &W : All) {
    AccessTable Table = buildAccessTable(W.Program);
    for (uint64_t Seed : {1ull, 7ull}) {
      vm::MachineConfig MC;
      MC.SchedSeed = Seed;
      MC.MinTimeslice = 1;
      MC.MaxTimeslice = 5;
      vm::Machine M(W.Program, MC);

      // Both detectors observe the same event stream, so any divergence
      // is the filter's fault, not the scheduler's.
      detect::OnlineSvd Plain(W.Program);
      detect::OnlineSvdConfig FC;
      FC.Access = &Table;
      detect::OnlineSvd Filtered(W.Program, FC);
      M.addObserver(&Plain);
      M.addObserver(&Filtered);
      M.run();

      EXPECT_EQ(Plain.filteredAccesses(), 0u);
      expectSameReports(Plain, Filtered, W.Name);
      TotalFiltered += Filtered.filteredAccesses();
    }
  }
  // The equivalence must not hold vacuously: at least one workload has
  // provably-local accesses that actually took the fast path.
  EXPECT_GT(TotalFiltered, 0u);
}

TEST(OnlineSvdFilter, MismatchedGranularityDisablesFilter) {
  workloads::Workload W = workloads::pgsqlOltp();
  AccessTable Table = buildAccessTable(W.Program, /*BlockShift=*/0);
  detect::OnlineSvdConfig FC;
  FC.Access = &Table;
  FC.BlockShift = 2; // detector at 4-word blocks, table proven at words
  detect::OnlineSvd Svd(W.Program, FC);
  vm::Machine M(W.Program);
  M.addObserver(&Svd);
  M.run();
  EXPECT_EQ(Svd.filteredAccesses(), 0u);
}

//===----------------------------------------------------------------------===//
// Diagnostic ordering and JSON output
//===----------------------------------------------------------------------===//

TEST(Lint, DiagnosticsSortBySourcePosition) {
  LintDiag D1, D2, D3, D4;
  D1.Line = 9; D1.Category = "b"; D1.Tid = 0; D1.Pc = 5;
  D2.Line = 3; D2.Category = "z"; D2.Tid = 1; D2.Pc = 7;
  D3.Line = 3; D3.Category = "a"; D3.Tid = 2; D3.Pc = 1;
  D4.Line = 3; D4.Category = "a"; D4.Tid = 0; D4.Pc = 9;
  std::vector<LintDiag> Ds{D1, D2, D3, D4};
  sortLintDiags(Ds);
  // (line, category, thread, pc): deterministic regardless of the order
  // the passes emitted them in.
  EXPECT_EQ(Ds[0].Pc, 9u);
  EXPECT_EQ(Ds[1].Pc, 1u);
  EXPECT_EQ(Ds[2].Category, "z");
  EXPECT_EQ(Ds[3].Line, 9u);
}

TEST(Lint, ProgramDiagnosticsComeOutSorted) {
  // Thread order in the program is not line order once several threads
  // interleave in the source; lintProgram must still emit by line.
  Program P = asmProg(R"(
.lock a
.lock b
.thread t1
  lock @a
  halt
.thread t2
  add r1, r2, r0
  lock @b
  halt
)");
  std::vector<LintDiag> Ds = lintProgram(P);
  ASSERT_GE(Ds.size(), 2u);
  for (size_t I = 1; I < Ds.size(); ++I)
    EXPECT_LE(Ds[I - 1].Line, Ds[I].Line);
}

TEST(Lint, JsonOutputValidatesAndEscapes) {
  Program P = asmProg(R"(
.lock a
.thread t
  lock @a
  halt
)");
  std::vector<LintDiag> Ds = lintProgram(P);
  ASSERT_FALSE(Ds.empty());
  std::string Json = lintDiagsToJson(P, "dir/with \"quotes\".asm", Ds);
  std::string Err;
  EXPECT_TRUE(support::jsonValidate(Json, &Err)) << Err;
  EXPECT_NE(Json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(Json.find("\"num_diagnostics\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"category\":\"lock-imbalance\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Atomic RMW classification
//===----------------------------------------------------------------------===//

TEST(AccessTable, CasTargetIsNeverThreadLocal) {
  // Even a Cas in a single-threaded program against per-thread storage
  // must stay conservatively shared: the instruction exists to
  // synchronize, so filtering its address out of the detector would
  // hide exactly the accesses the user cares about.
  Program P = asmProg(R"(
.local slot 1
.thread t
  li r1, 0
  li r2, 1
  cas r3, r1, r2, [@slot]
  halt
)");
  AccessTable Table = buildAccessTable(P, /*BlockShift=*/0);
  EXPECT_EQ(Table.classify(0, 2), AccessClass::PossiblyShared);
}
