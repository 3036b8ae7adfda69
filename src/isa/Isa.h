//===- isa/Isa.h - Mini RISC instruction set ---------------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the execution substrate. The paper ran SVD inside
/// the Simics full-system simulator, observing dynamic SPARC instructions.
/// We substitute a small RISC-style register machine whose dynamic
/// instruction stream exposes exactly the event kinds SVD's online
/// algorithm consumes (Figure 7): LOAD, ALU, STORE, BRANCH, plus lock
/// operations that are visible only to the happens-before baseline.
///
/// Conventions:
///  * 16 general-purpose 64-bit registers r0..r15; r0 is hardwired to zero
///    (MIPS-style), writes to it are ignored.
///  * Memory is an array of 64-bit words addressed by word index; one word
///    is the default detector block ("word-size blocks", Section 6.2).
///  * Branch targets are instruction indices within the owning thread.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ISA_ISA_H
#define SVD_ISA_ISA_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace svd {
namespace isa {

/// Register number. r0 reads as zero and ignores writes.
using Reg = uint8_t;

/// Number of architectural registers.
constexpr unsigned NumRegs = 16;

/// The hardwired zero register.
constexpr Reg ZeroReg = 0;

/// Word-granular memory address (index into the VM's word array).
using Addr = uint32_t;

/// Machine word.
using Word = int64_t;

/// Opcodes of the mini ISA. Each has one row in OpcodeTable below, which
/// holds its mnemonic, operand form and control flow; Halt stays last.
enum class Opcode : uint8_t {
  Nop,
  // Immediate / move.
  Li,   ///< Rd = Imm
  Mov,  ///< Rd = Ra
  Tid,  ///< Rd = thread id of the executing thread
  Rnd,  ///< Rd = deterministic pseudo-random; Imm > 0 bounds it to [0, Imm)
  // Three-register ALU.
  Add,  ///< Rd = Ra + Rb
  Sub,  ///< Rd = Ra - Rb
  Mul,  ///< Rd = Ra * Rb
  Div,  ///< Rd = Ra / Rb (0 if Rb == 0; INT64_MIN if Ra == INT64_MIN, Rb == -1)
  Rem,  ///< Rd = Ra % Rb (0 if Rb == 0 or Ra == INT64_MIN, Rb == -1)
  And,  ///< Rd = Ra & Rb
  Or,   ///< Rd = Ra | Rb
  Xor,  ///< Rd = Ra ^ Rb
  Shl,  ///< Rd = Ra << (Rb & 63)
  Shr,  ///< Rd = (uint64_t)Ra >> (Rb & 63)
  Slt,  ///< Rd = Ra < Rb
  Sle,  ///< Rd = Ra <= Rb
  Seq,  ///< Rd = Ra == Rb
  Sne,  ///< Rd = Ra != Rb
  // Register-immediate ALU.
  Addi, ///< Rd = Ra + Imm
  Muli, ///< Rd = Ra * Imm
  Andi, ///< Rd = Ra & Imm
  Slti, ///< Rd = Ra < Imm
  // Memory. Effective address is Ra + Imm (word-granular).
  Ld,   ///< Rd = mem[Ra + Imm]
  St,   ///< mem[Ra + Imm] = Rb
  // Control flow. Imm is the target instruction index.
  Beqz, ///< if Ra == 0 goto Imm
  Bnez, ///< if Ra != 0 goto Imm
  Jmp,  ///< goto Imm (the paper's "Branch-Always")
  /// Procedure call: push Pc+1 on the thread's bounded call stack and
  /// goto Imm (the callee's entry). Registers are caller-visible — the
  /// calling convention has no save/restore, so dataflow crosses the
  /// call both ways (see DESIGN.md section 13).
  Call,
  /// Procedure return: pop the call stack and continue there. Executing
  /// Ret with an empty stack is a classified program error.
  Ret,
  /// Compare-and-swap on an absolute address: if mem[Imm] == Ra then
  /// mem[Imm] = Rb and Rd = 1, else Rd = 0. The building block of the
  /// lock-free workloads (annotation-free synchronization that no
  /// detector gets told about).
  Cas,
  // Synchronization. Imm is the mutex id. Invisible to SVD by design;
  // visible to FRD/lockset as the a-priori annotation (Section 6).
  Lock,   ///< acquire mutex Imm (blocks)
  Unlock, ///< release mutex Imm
  // Observation / error modelling.
  Assert, ///< if Ra == 0, record a program error (models a crash); Imm
          ///< indexes the program's message table
  Print,  ///< record Ra's value as program output (used by tests)
  Yield,  ///< scheduling hint; executes as a no-op
  Halt,   ///< terminate the executing thread
};

/// One static instruction.
struct Instruction {
  Opcode Op = Opcode::Nop;
  Reg Rd = 0;
  Reg Ra = 0;
  Reg Rb = 0;
  Word Imm = 0;
  /// 1-based source line in the assembly text (0 when built in memory).
  uint32_t Line = 0;
};

/// Number of opcodes. Halt is the last enumerator.
constexpr size_t NumOpcodes = static_cast<size_t>(Opcode::Halt) + 1;

/// One operand of an instruction's assembly syntax, in source order.
enum class Operand : uint8_t {
  Rd,     ///< destination register
  Ra,     ///< first source register
  Rb,     ///< second source register
  Imm,    ///< immediate
  Mem,    ///< memory operand, address Ra + Imm (Ra is read)
  AbsMem, ///< absolute memory operand, address Imm
  Label,  ///< branch target label; Imm after resolution
  Proc,   ///< callee proc name; Imm after resolution
  Mutex,  ///< declared mutex name; Imm after resolution
  Msg,    ///< optional quoted message; Imm indexes Program::Messages
};

/// The operand shapes of the mini ISA; see operandsOf().
enum class OperandForm : uint8_t {
  None,    ///< nop, ret
  Rd,      ///< tid rd
  RdImm,   ///< li rd, imm (rnd may omit the imm)
  RdRa,    ///< mov rd, ra
  RdRaRb,  ///< add rd, ra, rb
  RdRaImm, ///< addi rd, ra, imm
  Load,    ///< ld rd, [ra+imm]
  Store,   ///< st rb, [ra+imm]
  Cas,     ///< cas rd, ra, rb, [imm]
  RaLabel, ///< beqz ra, label
  Label,   ///< jmp label
  Proc,    ///< call proc
  Mutex,   ///< lock mutex
  Ra,      ///< print ra
  RaMsg,   ///< assert ra[, "msg"]
};

/// The operands of one form, in source order.
struct OperandList {
  uint8_t Size = 0;
  Operand Slots[4] = {};

  constexpr const Operand *begin() const { return Slots; }
  constexpr const Operand *end() const { return Slots + Size; }
  constexpr bool has(Operand O) const {
    for (Operand S : *this)
      if (S == O)
        return true;
    return false;
  }
};

/// The operands \p F takes, in source order. The assembler parses and
/// formatInstruction prints exactly these.
constexpr OperandList operandsOf(OperandForm F) {
  using O = Operand;
  switch (F) {
  case OperandForm::None:
    return {};
  case OperandForm::Rd:
    return {1, {O::Rd}};
  case OperandForm::RdImm:
    return {2, {O::Rd, O::Imm}};
  case OperandForm::RdRa:
    return {2, {O::Rd, O::Ra}};
  case OperandForm::RdRaRb:
    return {3, {O::Rd, O::Ra, O::Rb}};
  case OperandForm::RdRaImm:
    return {3, {O::Rd, O::Ra, O::Imm}};
  case OperandForm::Load:
    return {2, {O::Rd, O::Mem}};
  case OperandForm::Store:
    return {2, {O::Rb, O::Mem}};
  case OperandForm::Cas:
    return {4, {O::Rd, O::Ra, O::Rb, O::AbsMem}};
  case OperandForm::RaLabel:
    return {2, {O::Ra, O::Label}};
  case OperandForm::Label:
    return {1, {O::Label}};
  case OperandForm::Proc:
    return {1, {O::Proc}};
  case OperandForm::Mutex:
    return {1, {O::Mutex}};
  case OperandForm::Ra:
    return {1, {O::Ra}};
  case OperandForm::RaMsg:
    return {2, {O::Ra, O::Msg}};
  }
  return {};
}

/// Where control goes after an instruction.
enum class FlowClass : uint8_t {
  Next,       ///< falls through to Pc + 1
  CondBranch, ///< Pc + 1 or the target Imm
  Jump,       ///< the target Imm
  Call,       ///< the callee entry Imm; Ret comes back to Pc + 1
  Ret,        ///< the return site popped off the call stack
  Halt,       ///< nowhere: the thread ends
};

/// One row of the ISA description. The operand-use facts are derived
/// from the form when the row is built, so the per-event queries below
/// are one load.
struct OpcodeInfo {
  constexpr OpcodeInfo(Opcode Op, const char *Name, OperandForm Form,
                       FlowClass Flow)
      : Op(Op), Name(Name), Form(Form), Flow(Flow) {
    OperandList L = operandsOf(Form);
    WritesRd = L.has(Operand::Rd);
    ReadsRa = L.has(Operand::Ra) || L.has(Operand::Mem);
    ReadsRb = L.has(Operand::Rb);
    MemoryAccess = L.has(Operand::Mem) || L.has(Operand::AbsMem);
  }

  Opcode Op;
  const char *Name; ///< lower-case mnemonic
  OperandForm Form;
  FlowClass Flow;
  bool WritesRd = false;
  bool ReadsRa = false;
  bool ReadsRb = false;
  bool MemoryAccess = false;
};

/// The ISA description: one row per opcode, in enum order. The
/// assembler, formatInstruction, the operand-use queries and every CFG
/// builder read it.
inline constexpr OpcodeInfo OpcodeTable[] = {
    {Opcode::Nop, "nop", OperandForm::None, FlowClass::Next},
    {Opcode::Li, "li", OperandForm::RdImm, FlowClass::Next},
    {Opcode::Mov, "mov", OperandForm::RdRa, FlowClass::Next},
    {Opcode::Tid, "tid", OperandForm::Rd, FlowClass::Next},
    {Opcode::Rnd, "rnd", OperandForm::RdImm, FlowClass::Next},
    {Opcode::Add, "add", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Sub, "sub", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Mul, "mul", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Div, "div", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Rem, "rem", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::And, "and", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Or, "or", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Xor, "xor", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Shl, "shl", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Shr, "shr", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Slt, "slt", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Sle, "sle", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Seq, "seq", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Sne, "sne", OperandForm::RdRaRb, FlowClass::Next},
    {Opcode::Addi, "addi", OperandForm::RdRaImm, FlowClass::Next},
    {Opcode::Muli, "muli", OperandForm::RdRaImm, FlowClass::Next},
    {Opcode::Andi, "andi", OperandForm::RdRaImm, FlowClass::Next},
    {Opcode::Slti, "slti", OperandForm::RdRaImm, FlowClass::Next},
    {Opcode::Ld, "ld", OperandForm::Load, FlowClass::Next},
    {Opcode::St, "st", OperandForm::Store, FlowClass::Next},
    {Opcode::Beqz, "beqz", OperandForm::RaLabel, FlowClass::CondBranch},
    {Opcode::Bnez, "bnez", OperandForm::RaLabel, FlowClass::CondBranch},
    {Opcode::Jmp, "jmp", OperandForm::Label, FlowClass::Jump},
    {Opcode::Call, "call", OperandForm::Proc, FlowClass::Call},
    {Opcode::Ret, "ret", OperandForm::None, FlowClass::Ret},
    {Opcode::Cas, "cas", OperandForm::Cas, FlowClass::Next},
    {Opcode::Lock, "lock", OperandForm::Mutex, FlowClass::Next},
    {Opcode::Unlock, "unlock", OperandForm::Mutex, FlowClass::Next},
    {Opcode::Assert, "assert", OperandForm::RaMsg, FlowClass::Next},
    {Opcode::Print, "print", OperandForm::Ra, FlowClass::Next},
    {Opcode::Yield, "yield", OperandForm::None, FlowClass::Next},
    {Opcode::Halt, "halt", OperandForm::None, FlowClass::Halt},
};

constexpr bool opcodeTableInEnumOrder() {
  for (size_t I = 0; I < std::size(OpcodeTable); ++I)
    if (static_cast<size_t>(OpcodeTable[I].Op) != I)
      return false;
  return true;
}

// Adding an opcode without a row, or a row out of place, fails here.
static_assert(std::size(OpcodeTable) == NumOpcodes,
              "OpcodeTable needs exactly one row per Opcode");
static_assert(opcodeTableInEnumOrder(),
              "OpcodeTable rows must follow the Opcode enum order");

/// The ISA description row of \p Op.
inline const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeTable[static_cast<size_t>(Op)];
}

/// Returns the lower-case mnemonic of \p Op.
inline const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

/// Returns where control goes after \p Op.
inline FlowClass flowOf(Opcode Op) { return opcodeInfo(Op).Flow; }

/// Returns true for Beqz/Bnez (conditional control flow).
inline bool isConditionalBranch(Opcode Op) {
  return flowOf(Op) == FlowClass::CondBranch;
}

/// Returns true for any instruction that may transfer control (Beqz, Bnez,
/// Jmp, Call, Ret, Halt).
inline bool isControlFlow(Opcode Op) { return flowOf(Op) != FlowClass::Next; }

/// Returns true for Ld, St and Cas.
inline bool isMemoryAccess(Opcode Op) { return opcodeInfo(Op).MemoryAccess; }

/// Returns true if the instruction writes register Rd.
inline bool writesRd(Opcode Op) { return opcodeInfo(Op).WritesRd; }

/// Returns true if the instruction reads register Ra.
inline bool readsRa(Opcode Op) { return opcodeInfo(Op).ReadsRa; }

/// Returns true if the instruction reads register Rb.
inline bool readsRb(Opcode Op) { return opcodeInfo(Op).ReadsRb; }

/// Renders \p I as assembly-like text, e.g. "add r1, r2, r3".
std::string formatInstruction(const Instruction &I);

} // namespace isa
} // namespace svd

#endif // SVD_ISA_ISA_H
