//===- tests/AssemblerTest.cpp - Unit tests for the assembler -------------===//

#include "isa/Assembler.h"

#include <gtest/gtest.h>

#include <iterator>

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

// The data image is laid out in 64 bits and bounded at 2^24 words, the
// per-symbol bound: a thread-local region times its replica count can
// neither ask a Machine for gigabytes nor wrap the 32-bit address
// space. These assemble only and never build a Machine.
TEST(Assembler, ErrorDataImageOverBound) {
  std::vector<AsmError> E =
      mustFail(".local buf 16777216\n.thread t x200\n  halt\n");
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].Line, 1u);
  EXPECT_EQ(E[0].Message, "data image of 3355443200 words exceeds the bound "
                          "of 16777216 words");
}

TEST(Assembler, ErrorDataImageWouldWrap) {
  // 2^24 words times 256 replicas is 2^32: a 32-bit sum wraps to 0.
  std::vector<AsmError> E =
      mustFail(".local buf 16777216\n.thread t x256\n  halt\n");
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].Line, 1u);
  EXPECT_EQ(E[0].Message, "data image of 4294967296 words exceeds the bound "
                          "of 16777216 words");
  // The bound itself still assembles.
  EXPECT_EQ(mustAssemble(".local buf 16777216\n.thread t\n  halt\n")
                .MemoryWords,
            16777216u);
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

// --- the ISA description, pinned per opcode ------------------------------

namespace {

/// One opcode's operand-use and control-flow facts as the detectors,
/// the d-PDG and the static analyses read them.
struct OperandUseRow {
  Opcode Op;
  const char *Name;
  bool WritesRd, ReadsRa, ReadsRb, Memory, CondBranch, ControlFlow;
};

// Rows in enum order; the last is Halt.
const OperandUseRow ExpectedOperandUse[] = {
    // Op            name      wRd    rRa    rRb    mem    cond   cflow
    {Opcode::Nop,    "nop",    false, false, false, false, false, false},
    {Opcode::Li,     "li",     true,  false, false, false, false, false},
    {Opcode::Mov,    "mov",    true,  true,  false, false, false, false},
    {Opcode::Tid,    "tid",    true,  false, false, false, false, false},
    {Opcode::Rnd,    "rnd",    true,  false, false, false, false, false},
    {Opcode::Add,    "add",    true,  true,  true,  false, false, false},
    {Opcode::Sub,    "sub",    true,  true,  true,  false, false, false},
    {Opcode::Mul,    "mul",    true,  true,  true,  false, false, false},
    {Opcode::Div,    "div",    true,  true,  true,  false, false, false},
    {Opcode::Rem,    "rem",    true,  true,  true,  false, false, false},
    {Opcode::And,    "and",    true,  true,  true,  false, false, false},
    {Opcode::Or,     "or",     true,  true,  true,  false, false, false},
    {Opcode::Xor,    "xor",    true,  true,  true,  false, false, false},
    {Opcode::Shl,    "shl",    true,  true,  true,  false, false, false},
    {Opcode::Shr,    "shr",    true,  true,  true,  false, false, false},
    {Opcode::Slt,    "slt",    true,  true,  true,  false, false, false},
    {Opcode::Sle,    "sle",    true,  true,  true,  false, false, false},
    {Opcode::Seq,    "seq",    true,  true,  true,  false, false, false},
    {Opcode::Sne,    "sne",    true,  true,  true,  false, false, false},
    {Opcode::Addi,   "addi",   true,  true,  false, false, false, false},
    {Opcode::Muli,   "muli",   true,  true,  false, false, false, false},
    {Opcode::Andi,   "andi",   true,  true,  false, false, false, false},
    {Opcode::Slti,   "slti",   true,  true,  false, false, false, false},
    {Opcode::Ld,     "ld",     true,  true,  false, true,  false, false},
    {Opcode::St,     "st",     false, true,  true,  true,  false, false},
    {Opcode::Beqz,   "beqz",   false, true,  false, false, true,  true},
    {Opcode::Bnez,   "bnez",   false, true,  false, false, true,  true},
    {Opcode::Jmp,    "jmp",    false, false, false, false, false, true},
    {Opcode::Call,   "call",   false, false, false, false, false, true},
    {Opcode::Ret,    "ret",    false, false, false, false, false, true},
    {Opcode::Cas,    "cas",    true,  true,  true,  true,  false, false},
    {Opcode::Lock,   "lock",   false, false, false, false, false, false},
    {Opcode::Unlock, "unlock", false, false, false, false, false, false},
    {Opcode::Assert, "assert", false, true,  false, false, false, false},
    {Opcode::Print,  "print",  false, true,  false, false, false, false},
    {Opcode::Yield,  "yield",  false, false, false, false, false, false},
    {Opcode::Halt,   "halt",   false, false, false, false, false, true},
};

} // namespace

TEST(Isa, OperandUsePinnedPerOpcode) {
  constexpr size_t NumRows = std::size(ExpectedOperandUse);
  ASSERT_EQ(NumRows, static_cast<size_t>(Opcode::Halt) + 1);
  for (size_t I = 0; I < NumRows; ++I) {
    const OperandUseRow &R = ExpectedOperandUse[I];
    ASSERT_EQ(static_cast<size_t>(R.Op), I) << "row " << I << " out of order";
    SCOPED_TRACE(R.Name);
    EXPECT_STREQ(opcodeName(R.Op), R.Name);
    EXPECT_EQ(writesRd(R.Op), R.WritesRd);
    EXPECT_EQ(readsRa(R.Op), R.ReadsRa);
    EXPECT_EQ(readsRb(R.Op), R.ReadsRb);
    EXPECT_EQ(isMemoryAccess(R.Op), R.Memory);
    EXPECT_EQ(isConditionalBranch(R.Op), R.CondBranch);
    EXPECT_EQ(isControlFlow(R.Op), R.ControlFlow);
  }
}

// --- every mnemonic: source line -> fields -> formatted text --------------

namespace {

/// Assembles \p Line as the second instruction of proc `f`, which the
/// single thread calls, and returns it. Layout: main `call f` (pc 0),
/// `halt` (pc 1); proc `f` at pc 2 is `top: nop`, then \p Line at pc 3,
/// then `ret`. Data: `pad` (3 words) then `x` at word 3; mutexes m0=0,
/// m=1.
Instruction assembleLine(const std::string &Line) {
  Program P = mustAssemble(".global pad 3\n"
                           ".global x\n"
                           ".lock m0\n"
                           ".lock m\n"
                           ".thread t\n"
                           "  call f\n"
                           "  halt\n"
                           ".proc f\n"
                           "top:\n"
                           "  nop\n"
                           "  " + Line + "\n"
                           "  ret\n");
  if (P.numThreads() != 1 || P.Threads[0].Code.size() < 4) {
    ADD_FAILURE() << "unexpected layout for '" << Line << "'";
    return Instruction();
  }
  return P.Threads[0].Code[3];
}

struct MnemonicCase {
  const char *Source;
  Opcode Op;
  Reg Rd, Ra, Rb;
  Word Imm;
  const char *Formatted;
};

const MnemonicCase MnemonicCases[] = {
    {"nop", Opcode::Nop, 0, 0, 0, 0, "nop"},
    {"li r1, -7", Opcode::Li, 1, 0, 0, -7, "li r1, -7"},
    {"mov r1, r2", Opcode::Mov, 1, 2, 0, 0, "mov r1, r2"},
    {"tid r3", Opcode::Tid, 3, 0, 0, 0, "tid r3"},
    {"rnd r4, 10", Opcode::Rnd, 4, 0, 0, 10, "rnd r4, 10"},
    {"rnd r4", Opcode::Rnd, 4, 0, 0, 0, "rnd r4, 0"},
    {"add r1, r2, r3", Opcode::Add, 1, 2, 3, 0, "add r1, r2, r3"},
    {"sub r4, r5, r6", Opcode::Sub, 4, 5, 6, 0, "sub r4, r5, r6"},
    {"mul r7, r8, r9", Opcode::Mul, 7, 8, 9, 0, "mul r7, r8, r9"},
    {"div r10, r11, r12", Opcode::Div, 10, 11, 12, 0, "div r10, r11, r12"},
    {"rem r13, r14, r15", Opcode::Rem, 13, 14, 15, 0, "rem r13, r14, r15"},
    {"and r1, r0, r2", Opcode::And, 1, 0, 2, 0, "and r1, r0, r2"},
    {"or r2, r3, r4", Opcode::Or, 2, 3, 4, 0, "or r2, r3, r4"},
    {"xor r3, r4, r5", Opcode::Xor, 3, 4, 5, 0, "xor r3, r4, r5"},
    {"shl r4, r5, r6", Opcode::Shl, 4, 5, 6, 0, "shl r4, r5, r6"},
    {"shr r5, r6, r7", Opcode::Shr, 5, 6, 7, 0, "shr r5, r6, r7"},
    {"slt r6, r7, r8", Opcode::Slt, 6, 7, 8, 0, "slt r6, r7, r8"},
    {"sle r7, r8, r9", Opcode::Sle, 7, 8, 9, 0, "sle r7, r8, r9"},
    {"seq r8, r9, r10", Opcode::Seq, 8, 9, 10, 0, "seq r8, r9, r10"},
    {"sne r9, r10, r11", Opcode::Sne, 9, 10, 11, 0, "sne r9, r10, r11"},
    {"addi r1, r2, 5", Opcode::Addi, 1, 2, 0, 5, "addi r1, r2, 5"},
    {"muli r1, r2, -3", Opcode::Muli, 1, 2, 0, -3, "muli r1, r2, -3"},
    {"andi r1, r2, 0xff", Opcode::Andi, 1, 2, 0, 255, "andi r1, r2, 255"},
    {"slti r1, r2, 7", Opcode::Slti, 1, 2, 0, 7, "slti r1, r2, 7"},
    {"ld r5, [r6+@x+1]", Opcode::Ld, 5, 6, 0, 4, "ld r5, [r6+4]"},
    {"st r7, [r8+@x]", Opcode::St, 0, 8, 7, 3, "st r7, [r8+3]"},
    {"beqz r9, top", Opcode::Beqz, 0, 9, 0, 2, "beqz r9, 2"},
    {"bnez r10, top", Opcode::Bnez, 0, 10, 0, 2, "bnez r10, 2"},
    {"jmp top", Opcode::Jmp, 0, 0, 0, 2, "jmp 2"},
    {"call f", Opcode::Call, 0, 0, 0, 2, "call 2"},
    {"ret", Opcode::Ret, 0, 0, 0, 0, "ret"},
    {"cas r1, r2, r3, [@x]", Opcode::Cas, 1, 2, 3, 3, "cas r1, r2, r3, [3]"},
    {"lock m", Opcode::Lock, 0, 0, 0, 1, "lock m1"},
    {"unlock @m", Opcode::Unlock, 0, 0, 0, 1, "unlock m1"},
    {"assert r11, \"boom\"", Opcode::Assert, 0, 11, 0, 0, "assert r11"},
    {"assert r11", Opcode::Assert, 0, 11, 0, 0, "assert r11"},
    {"print r12", Opcode::Print, 0, 12, 0, 0, "print r12"},
    {"yield", Opcode::Yield, 0, 0, 0, 0, "yield"},
    {"halt", Opcode::Halt, 0, 0, 0, 0, "halt"},
};

} // namespace

TEST(Assembler, EveryMnemonicAssemblesAndFormats) {
  std::vector<bool> Covered(static_cast<size_t>(Opcode::Halt) + 1, false);
  for (const MnemonicCase &C : MnemonicCases) {
    SCOPED_TRACE(C.Source);
    Instruction I = assembleLine(C.Source);
    EXPECT_EQ(I.Op, C.Op);
    EXPECT_EQ(I.Rd, C.Rd);
    EXPECT_EQ(I.Ra, C.Ra);
    EXPECT_EQ(I.Rb, C.Rb);
    EXPECT_EQ(I.Imm, C.Imm);
    EXPECT_EQ(I.Line, 11u);
    EXPECT_EQ(formatInstruction(I), C.Formatted);
    Covered[static_cast<size_t>(C.Op)] = true;
  }
  for (size_t Op = 0; Op < Covered.size(); ++Op)
    EXPECT_TRUE(Covered[Op]) << "no case for opcode "
                             << opcodeName(static_cast<Opcode>(Op));
}

// --- operand diagnostics, pinned verbatim ---------------------------------

namespace {

/// Assembles \p Line inside proc `f` (or the thread body when
/// \p InThread) and returns every diagnostic as "LINE: MESSAGE".
std::vector<std::string> diagnose(const std::string &Line,
                                  bool InThread = false) {
  std::string Body = "  " + Line + "\n";
  std::string Src = ".global x\n"
                    ".lock m\n"
                    ".thread t\n"
                    "  call f\n" +
                    (InThread ? Body : std::string()) +
                    "  halt\n"
                    ".proc f\n"
                    "top:\n" +
                    (InThread ? std::string() : Body) + "  ret\n";
  Program P;
  std::vector<AsmError> Errors;
  EXPECT_FALSE(assembleProgram(Src, P, Errors)) << Line;
  std::vector<std::string> Out;
  for (const AsmError &E : Errors)
    Out.push_back(std::to_string(E.Line) + ": " + E.Message);
  return Out;
}

using Diags = std::vector<std::string>;

} // namespace

TEST(Assembler, OperandCountDiagnosticsPinned) {
  EXPECT_EQ(diagnose("nop r1"), Diags{"8: 'nop' expects 0 operand(s), got 1"});
  EXPECT_EQ(diagnose("yield r1"),
            Diags{"8: 'yield' expects 0 operand(s), got 1"});
  EXPECT_EQ(diagnose("halt r1, r2"),
            Diags{"8: 'halt' expects 0 operand(s), got 2"});
  EXPECT_EQ(diagnose("li r1"), Diags{"8: 'li' expects 2 operand(s), got 1"});
  EXPECT_EQ(diagnose("mov r1, r2, r3"),
            Diags{"8: 'mov' expects 2 operand(s), got 3"});
  EXPECT_EQ(diagnose("tid"), Diags{"8: 'tid' expects 1 operand(s), got 0"});
  EXPECT_EQ(diagnose("rnd"), Diags{"8: 'rnd' expects 1 or 2 operands"});
  EXPECT_EQ(diagnose("rnd r1, 2, 3"),
            Diags{"8: 'rnd' expects 1 or 2 operands"});
  EXPECT_EQ(diagnose("add r1, r2"),
            Diags{"8: 'add' expects 3 operand(s), got 2"});
  EXPECT_EQ(diagnose("sne r1, r2, r3, r4"),
            Diags{"8: 'sne' expects 3 operand(s), got 4"});
  EXPECT_EQ(diagnose("addi r1, r2"),
            Diags{"8: 'addi' expects 3 operand(s), got 2"});
  EXPECT_EQ(diagnose("ld r1"), Diags{"8: 'ld' expects 2 operand(s), got 1"});
  EXPECT_EQ(diagnose("st r1, [@x], r2"),
            Diags{"8: 'st' expects 2 operand(s), got 3"});
  EXPECT_EQ(diagnose("cas r1, r2, [@x]"),
            Diags{"8: 'cas' expects 4 operand(s), got 3"});
  EXPECT_EQ(diagnose("beqz r1"),
            Diags{"8: 'beqz' expects 2 operand(s), got 1"});
  EXPECT_EQ(diagnose("jmp"), Diags{"8: 'jmp' expects 1 operand(s), got 0"});
  EXPECT_EQ(diagnose("call f, f"),
            Diags{"8: 'call' expects 1 operand(s), got 2"});
  EXPECT_EQ(diagnose("ret r1"), Diags{"8: 'ret' expects 0 operand(s), got 1"});
  // The count is checked before the section: a bad-count ret in the
  // thread body reports the count, not the section.
  EXPECT_EQ(diagnose("ret r1", /*InThread=*/true),
            Diags{"5: 'ret' expects 0 operand(s), got 1"});
  EXPECT_EQ(diagnose("lock"), Diags{"8: 'lock' expects 1 operand(s), got 0"});
  EXPECT_EQ(diagnose("unlock m, m"),
            Diags{"8: 'unlock' expects 1 operand(s), got 2"});
  EXPECT_EQ(diagnose("assert"), Diags{"8: 'assert' expects 1 or 2 operands"});
  EXPECT_EQ(diagnose("assert r1, \"a\", \"b\""),
            Diags{"8: 'assert' expects 1 or 2 operands"});
  EXPECT_EQ(diagnose("print"),
            Diags{"8: 'print' expects 1 operand(s), got 0"});
}

TEST(Assembler, OperandShapeDiagnosticsPinned) {
  EXPECT_EQ(diagnose("frobnicate r1"),
            Diags{"8: unknown mnemonic 'frobnicate'"});
  // Mnemonics are case-sensitive.
  EXPECT_EQ(diagnose("ADD r1, r2, r3"), Diags{"8: unknown mnemonic 'ADD'"});
  EXPECT_EQ(diagnose("li r16, 1"), Diags{"8: expected register, got 'r16'"});
  EXPECT_EQ(diagnose("li r1, x"), Diags{"8: expected immediate, got 'x'"});
  EXPECT_EQ(diagnose("rnd r1, 1x"), Diags{"8: expected immediate, got '1x'"});
  EXPECT_EQ(diagnose("mov r1, 5"), Diags{"8: expected register, got '5'"});
  EXPECT_EQ(diagnose("tid x"), Diags{"8: expected register, got 'x'"});
  // Every bad operand of one instruction is reported, in order.
  EXPECT_EQ(diagnose("add r16, r17, x"),
            (Diags{"8: expected register, got 'r16'",
                   "8: expected register, got 'r17'",
                   "8: expected register, got 'x'"}));
  EXPECT_EQ(diagnose("add r1, , r3"), Diags{"8: expected register, got ''"});
  EXPECT_EQ(diagnose("addi r1, r2, r3"),
            Diags{"8: expected immediate, got 'r3'"});
  EXPECT_EQ(diagnose("ld r1, x"),
            Diags{"8: expected memory operand like [r1+@sym], got 'x'"});
  EXPECT_EQ(diagnose("ld r16, [r2+r3]"),
            (Diags{"8: expected register, got 'r16'",
                   "8: expected memory operand like [r1+@sym], got "
                   "'[r2+r3]'"}));
  EXPECT_EQ(diagnose("st x, [@x]"), Diags{"8: expected register, got 'x'"});
  EXPECT_EQ(diagnose("st r1, [@x+@x]"),
            Diags{"8: expected memory operand like [r1+@sym], got "
                  "'[@x+@x]'"});
  EXPECT_EQ(diagnose("cas r1, r2, r3, [r4+@x]"),
            Diags{"8: 'cas' requires an absolute address (no base register)"});
  EXPECT_EQ(diagnose("cas r1, r2, r3, x"),
            Diags{"8: expected memory operand like [r1+@sym], got 'x'"});
  EXPECT_EQ(diagnose("beqz r1, 9lbl"), Diags{"8: expected label, got '9lbl'"});
  EXPECT_EQ(diagnose("bnez 5, 9lbl"),
            (Diags{"8: expected register, got '5'",
                   "8: expected label, got '9lbl'"}));
  EXPECT_EQ(diagnose("jmp 3"), Diags{"8: expected label, got '3'"});
  EXPECT_EQ(diagnose("call 3"), Diags{"8: expected proc name, got '3'"});
  EXPECT_EQ(diagnose("ret", /*InThread=*/true),
            Diags{"5: 'ret' outside of a .proc section"});
  EXPECT_EQ(diagnose("lock 3"), Diags{"8: expected mutex name, got '3'"});
  EXPECT_EQ(diagnose("unlock @"), Diags{"8: expected mutex name, got '@'"});
  EXPECT_EQ(diagnose("lock @@m"), Diags{"8: expected mutex name, got '@@m'"});
  EXPECT_EQ(diagnose("assert r1, boom"),
            Diags{"8: expected quoted message, got 'boom'"});
  EXPECT_EQ(diagnose("assert r1, \"boom"),
            Diags{"8: expected quoted message, got '\"boom'"});
  EXPECT_EQ(diagnose("assert x, boom"),
            (Diags{"8: expected register, got 'x'",
                   "8: expected quoted message, got 'boom'"}));
  EXPECT_EQ(diagnose("print r99"), Diags{"8: expected register, got 'r99'"});
}
