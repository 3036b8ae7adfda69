//===- tests/AssemblerTest.cpp - Unit tests for the assembler -------------===//

#include "isa/Assembler.h"

#include <gtest/gtest.h>

using namespace svd;
using namespace svd::isa;

namespace {

Program mustAssemble(const std::string &Src) {
  Program P;
  std::vector<AsmError> Errors;
  bool Ok = assembleProgram(Src, P, Errors);
  for (const AsmError &E : Errors)
    ADD_FAILURE() << "line " << E.Line << ": " << E.Message;
  EXPECT_TRUE(Ok);
  return P;
}

std::vector<AsmError> mustFail(const std::string &Src) {
  Program P;
  std::vector<AsmError> Errors;
  EXPECT_FALSE(assembleProgram(Src, P, Errors));
  EXPECT_FALSE(Errors.empty());
  return Errors;
}

} // namespace

TEST(Assembler, MinimalProgram) {
  Program P = mustAssemble(".thread main\n  halt\n");
  ASSERT_EQ(P.numThreads(), 1u);
  EXPECT_EQ(P.Threads[0].Name, "main");
  ASSERT_EQ(P.Threads[0].Code.size(), 1u);
  EXPECT_EQ(P.Threads[0].Code[0].Op, Opcode::Halt);
}

TEST(Assembler, GlobalsAndLocalsLayout) {
  Program P = mustAssemble(R"(
.global a
.global buf 4
.local scratch 2
.thread t x3
  halt
)");
  ASSERT_EQ(P.numThreads(), 3u);
  EXPECT_EQ(P.addressOf("a"), 0u);
  EXPECT_EQ(P.addressOf("buf"), 1u);
  EXPECT_EQ(P.addressOf("buf", 0, 3), 4u);
  // Locals follow the globals: thread T's copy begins at 5 + T*2.
  EXPECT_EQ(P.addressOf("scratch", 0), 5u);
  EXPECT_EQ(P.addressOf("scratch", 1), 7u);
  EXPECT_EQ(P.addressOf("scratch", 2, 1), 10u);
  EXPECT_EQ(P.MemoryWords, 11u);
}

TEST(Assembler, DescribeAddress) {
  Program P = mustAssemble(R"(
.global g 2
.local l
.thread t x2
  halt
)");
  EXPECT_EQ(P.describeAddress(0), "g");
  EXPECT_EQ(P.describeAddress(1), "g+1");
  EXPECT_EQ(P.describeAddress(2), "l@t0");
  EXPECT_EQ(P.describeAddress(3), "l@t1");
  EXPECT_EQ(P.describeAddress(99), "word:99");
}

TEST(Assembler, ThreadLocalResolutionDiffersPerReplica) {
  Program P = mustAssemble(R"(
.local x
.thread t x2
  ld r1, [@x]
  halt
)");
  ASSERT_EQ(P.numThreads(), 2u);
  EXPECT_NE(P.Threads[0].Code[0].Imm, P.Threads[1].Code[0].Imm);
  EXPECT_EQ(P.Threads[0].Code[0].Imm,
            static_cast<Word>(P.addressOf("x", 0)));
  EXPECT_EQ(P.Threads[1].Code[0].Imm,
            static_cast<Word>(P.addressOf("x", 1)));
}

TEST(Assembler, MemoryOperandForms) {
  Program P = mustAssemble(R"(
.global g 8
.thread t
  ld r1, [@g]
  ld r2, [@g+3]
  ld r3, [r4]
  ld r5, [r4+2]
  ld r6, [r4+@g+1]
  st r1, [@g+7]
  halt
)");
  const auto &C = P.Threads[0].Code;
  EXPECT_EQ(C[0].Ra, ZeroReg);
  EXPECT_EQ(C[0].Imm, 0);
  EXPECT_EQ(C[1].Imm, 3);
  EXPECT_EQ(C[2].Ra, 4);
  EXPECT_EQ(C[2].Imm, 0);
  EXPECT_EQ(C[3].Imm, 2);
  EXPECT_EQ(C[4].Ra, 4);
  EXPECT_EQ(C[4].Imm, 1);
  EXPECT_EQ(C[5].Op, Opcode::St);
  EXPECT_EQ(C[5].Rb, 1);
  EXPECT_EQ(C[5].Imm, 7);
}

TEST(Assembler, LabelsAndBranches) {
  Program P = mustAssemble(R"(
.thread t
  li r1, 3
loop:
  addi r1, r1, -1
  bnez r1, loop
  jmp end
end:
  halt
)");
  const auto &C = P.Threads[0].Code;
  ASSERT_EQ(C.size(), 5u);
  EXPECT_EQ(C[2].Op, Opcode::Bnez);
  EXPECT_EQ(C[2].Imm, 1); // loop:
  EXPECT_EQ(C[3].Op, Opcode::Jmp);
  EXPECT_EQ(C[3].Imm, 4); // end:
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  Program P = mustAssemble(R"(
.thread t
start: li r1, 1
  bnez r1, start
  halt
)");
  EXPECT_EQ(P.Threads[0].Code[1].Imm, 0);
}

TEST(Assembler, LocksResolveToIds) {
  Program P = mustAssemble(R"(
.lock a
.lock b
.thread t
  lock @b
  unlock @b
  lock a
  unlock a
  halt
)");
  const auto &C = P.Threads[0].Code;
  EXPECT_EQ(C[0].Op, Opcode::Lock);
  EXPECT_EQ(C[0].Imm, 1);
  EXPECT_EQ(C[2].Imm, 0);
  ASSERT_EQ(P.Mutexes.size(), 2u);
  EXPECT_EQ(*P.findMutex("a"), 0u);
}

TEST(Assembler, AssertWithMessage) {
  Program P = mustAssemble(R"(
.thread t
  li r1, 1
  assert r1, "should not fire"
  assert r1
  halt
)");
  const auto &C = P.Threads[0].Code;
  EXPECT_EQ(C[1].Op, Opcode::Assert);
  EXPECT_EQ(P.Messages[static_cast<size_t>(C[1].Imm)], "should not fire");
  EXPECT_EQ(P.Messages[static_cast<size_t>(C[2].Imm)], "assertion failed");
}

TEST(Assembler, CommentsAndBlankLines) {
  Program P = mustAssemble(R"(
; full-line comment
# also a comment
.thread t
  li r1, 2   ; trailing comment
  halt       # another
)");
  EXPECT_EQ(P.Threads[0].Code.size(), 2u);
}

TEST(Assembler, ImplicitTrailingHalt) {
  Program P = mustAssemble(".thread t\n  li r1, 1\n");
  ASSERT_EQ(P.Threads[0].Code.size(), 2u);
  EXPECT_EQ(P.Threads[0].Code.back().Op, Opcode::Halt);
}

TEST(Assembler, HexAndNegativeImmediates) {
  Program P = mustAssemble(R"(
.thread t
  li r1, 0x10
  li r2, -5
  halt
)");
  EXPECT_EQ(P.Threads[0].Code[0].Imm, 16);
  EXPECT_EQ(P.Threads[0].Code[1].Imm, -5);
}

TEST(Assembler, ErrorUnknownMnemonic) {
  auto Errors = mustFail(".thread t\n  frobnicate r1\n");
  EXPECT_EQ(Errors[0].Line, 2u);
  EXPECT_NE(Errors[0].Message.find("frobnicate"), std::string::npos);
}

TEST(Assembler, ErrorUndefinedLabel) {
  auto Errors = mustFail(".thread t\n  jmp nowhere\n  halt\n");
  EXPECT_NE(Errors[0].Message.find("nowhere"), std::string::npos);
}

TEST(Assembler, ErrorUndefinedSymbol) {
  mustFail(".thread t\n  ld r1, [@ghost]\n  halt\n");
}

TEST(Assembler, ErrorUndefinedMutex) {
  mustFail(".thread t\n  lock @nolock\n  halt\n");
}

TEST(Assembler, ErrorDuplicateSymbol) {
  mustFail(".global x\n.global x\n.thread t\n  halt\n");
}

TEST(Assembler, ErrorDuplicateLabel) {
  mustFail(".thread t\nfoo:\n  nop\nfoo:\n  halt\n");
}

TEST(Assembler, ErrorInstructionOutsideThread) {
  mustFail("  li r1, 1\n.thread t\n  halt\n");
}

TEST(Assembler, ErrorNoThreads) {
  mustFail(".global x\n");
}

TEST(Assembler, ErrorBadRegister) {
  mustFail(".thread t\n  li r16, 1\n  halt\n");
}

TEST(Assembler, ErrorWrongOperandCount) {
  mustFail(".thread t\n  add r1, r2\n  halt\n");
}

TEST(Assembler, ErrorsReportAllLines) {
  auto Errors = mustFail(R"(
.thread t
  bogus1
  bogus2
  halt
)");
  EXPECT_GE(Errors.size(), 2u);
}

// Replicas of one .thread block are named NAME.K, and only .local
// symbols are thread-local.
TEST(Assembler, ReplicaNamesAndThreadLocalSymbols) {
  Program P = mustAssemble(R"(
.global counter
.local tmp
.lock m
.thread worker x2
  lock @m
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @m
  halt
)");
  ASSERT_EQ(P.numThreads(), 2u);
  EXPECT_EQ(P.Threads[0].Name, "worker.0");
  EXPECT_EQ(P.Threads[1].Name, "worker.1");
  EXPECT_EQ(P.Threads[0].Code.size(), 6u);
  EXPECT_EQ(P.Threads[0].Code[0].Op, Opcode::Lock);
  EXPECT_TRUE(P.findSymbol("tmp")->IsThreadLocal);
  EXPECT_FALSE(P.findSymbol("counter")->IsThreadLocal);
}

TEST(Program, ValidateRejectsFallOffEnd) {
  Program P;
  P.Threads.push_back({"t", {Instruction{Opcode::Nop, 0, 0, 0, 0, 0}}, {}});
  EXPECT_FALSE(P.validate().empty());
}

TEST(Program, ValidateRejectsBadBranchTarget) {
  Program P;
  Instruction B;
  B.Op = Opcode::Jmp;
  B.Imm = 99;
  P.Threads.push_back({"t", {B}, {}});
  EXPECT_FALSE(P.validate().empty());
}

TEST(Program, DisassembleMentionsEveryThread) {
  Program P = mustAssemble(".thread alpha\n halt\n.thread beta\n halt\n");
  std::string D = P.disassemble();
  EXPECT_NE(D.find("alpha"), std::string::npos);
  EXPECT_NE(D.find("beta"), std::string::npos);
  EXPECT_NE(D.find("halt"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Procedures (.proc / call / ret)
//===----------------------------------------------------------------------===//

TEST(Assembler, ProcLayoutAndCallResolution) {
  Program P = mustAssemble(R"(
.global g
.thread t
  call get
  call put
  halt
.proc get
  ld r1, [@g]
  ret
.proc put
  st r1, [@g]
  ret
)");
  const ThreadCode &T = P.Threads[0];
  ASSERT_EQ(T.Procs.size(), 2u);
  // Bodies are materialized after the main body, each contiguous.
  for (const ProcInfo &PI : T.Procs) {
    EXPECT_GE(PI.Entry, 3u);
    EXPECT_GT(PI.End, PI.Entry);
    for (uint32_t Pc = PI.Entry; Pc < PI.End; ++Pc)
      EXPECT_EQ(T.procAt(Pc), &PI);
  }
  // Main-body pcs belong to no proc.
  EXPECT_EQ(T.procAt(0), nullptr);
  EXPECT_EQ(T.procAt(2), nullptr);
  // Each call's immediate is its callee's entry pc.
  const ProcInfo *Get = nullptr, *Put = nullptr;
  for (const ProcInfo &PI : T.Procs)
    (PI.Name == "get" ? Get : Put) = &PI;
  ASSERT_NE(Get, nullptr);
  ASSERT_NE(Put, nullptr);
  EXPECT_EQ(T.Code[0].Op, Opcode::Call);
  EXPECT_EQ(T.Code[0].Imm, static_cast<Word>(Get->Entry));
  EXPECT_EQ(T.Code[1].Imm, static_cast<Word>(Put->Entry));
  EXPECT_EQ(T.Code[Get->End - 1].Op, Opcode::Ret);
}

TEST(Assembler, ProcBodiesMaterializePerReplica) {
  // Thread-local symbols inside a proc body must resolve per replica,
  // which forces a private copy of the body for each replica.
  Program P = mustAssemble(R"(
.local slot
.thread t x2
  call touch
  halt
.proc touch
  st r1, [@slot]
  ret
)");
  ASSERT_EQ(P.numThreads(), 2u);
  const ThreadCode &A = P.Threads[0];
  const ThreadCode &B = P.Threads[1];
  ASSERT_EQ(A.Procs.size(), 1u);
  ASSERT_EQ(B.Procs.size(), 1u);
  EXPECT_EQ(A.Code[A.Procs[0].Entry].Imm,
            static_cast<Word>(P.addressOf("slot", 0)));
  EXPECT_EQ(B.Code[B.Procs[0].Entry].Imm,
            static_cast<Word>(P.addressOf("slot", 1)));
}

TEST(Assembler, UncalledProcIsNotMaterialized) {
  Program P = mustAssemble(R"(
.thread t
  halt
.proc orphan
  nop
  ret
)");
  EXPECT_TRUE(P.Threads[0].Procs.empty());
  EXPECT_EQ(P.Threads[0].Code.size(), 1u);
}

TEST(Assembler, ErrorCallToUndefinedProc) {
  auto Errors = mustFail(".thread t\n  call nowhere\n  halt\n");
  EXPECT_NE(Errors[0].Message.find("nowhere"), std::string::npos);
}

TEST(Assembler, ErrorRetOutsideProc) {
  auto Errors = mustFail(".thread t\n  ret\n  halt\n");
  EXPECT_NE(Errors[0].Message.find("ret"), std::string::npos);
}

TEST(Assembler, ErrorProcRedefinition) {
  mustFail(R"(
.thread t
  call f
  halt
.proc f
  ret
.proc f
  ret
)");
}

TEST(Assembler, ErrorEndprocOutsideProc) {
  mustFail(".thread t\n  halt\n.endproc\n");
}
