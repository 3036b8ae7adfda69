//===- analysis/Escape.cpp ------------------------------------------------===//

#include "analysis/Escape.h"

#include <algorithm>

using namespace svd;
using namespace svd::analysis;
using isa::Instruction;
using isa::Opcode;

namespace {

/// The smallest all-ones mask covering \p V (V >= 0).
int64_t onesAbove(int64_t V) {
  int64_t M = 0;
  while (M < V)
    M = (M << 1) | 1;
  return M;
}

bool nonNeg(const Interval &I) { return !I.empty() && I.Lo >= 0; }

} // namespace

Interval analysis::blockExpand(const Interval &I, uint32_t Shift) {
  if (I.empty() || I.isFull() || I.Lo < 0 || Shift == 0)
    return I;
  int64_t Mask = (int64_t(1) << Shift) - 1;
  if (I.Hi > INT64_MAX - Mask)
    return Interval::full();
  return Interval::range(I.Lo & ~Mask, I.Hi | Mask);
}

bool EscapeAnalysis::Domain::meetInto(Value &Dst, const Value &Src,
                                      bool Widen) const {
  bool Changed = false;
  for (unsigned R = 0; R < isa::NumRegs; ++R) {
    Interval &D = Dst.Regs[R];
    const Interval &S = Src.Regs[R];
    if (S.empty())
      continue;
    if (D.empty()) {
      D = S;
      Changed = true;
      continue;
    }
    if (S.Lo < D.Lo) {
      D.Lo = Widen ? INT64_MIN : S.Lo;
      Changed = true;
    }
    if (S.Hi > D.Hi) {
      D.Hi = Widen ? INT64_MAX : S.Hi;
      Changed = true;
    }
  }
  return Changed;
}

void EscapeAnalysis::Domain::transfer(uint32_t, const Instruction &I,
                                      Value &V) const {
  auto A = [&]() -> const Interval & { return V.Regs[I.Ra]; };
  auto B = [&]() -> const Interval & { return V.Regs[I.Rb]; };
  auto Set = [&](Interval R) {
    if (I.Rd != isa::ZeroReg)
      V.Regs[I.Rd] = R;
  };

  switch (I.Op) {
  case Opcode::Li:
    Set(Interval::constant(I.Imm));
    break;
  case Opcode::Mov:
    Set(A());
    break;
  case Opcode::Tid:
    Set(Interval::constant(Tid));
    break;
  case Opcode::Rnd:
    Set(I.Imm > 0 ? Interval::range(0, I.Imm - 1) : Interval::full());
    break;
  case Opcode::Add:
    Set(addIv(A(), B()));
    break;
  case Opcode::Addi:
    Set(addIv(A(), Interval::constant(I.Imm)));
    break;
  case Opcode::Sub:
    Set(subIv(A(), B()));
    break;
  case Opcode::Mul:
    Set(mulIv(A(), B()));
    break;
  case Opcode::Muli:
    Set(mulIv(A(), Interval::constant(I.Imm)));
    break;
  case Opcode::Div:
    // Only the monotone easy case: a constant positive divisor (with
    // truncation, x/k is nondecreasing in x for k > 0).
    if (!A().empty() && B().isConstant() && B().Lo > 0)
      Set(Interval::range(A().Lo / B().Lo, A().Hi / B().Lo));
    else
      Set(Interval::full());
    break;
  case Opcode::Rem:
    if (!A().empty() && nonNeg(A()) && !B().empty() && B().Lo > 0)
      Set(Interval::range(0, std::min(A().Hi, B().Hi - 1)));
    else
      Set(Interval::full());
    break;
  case Opcode::And:
    if (nonNeg(A()) && nonNeg(B()))
      Set(Interval::range(0, std::min(A().Hi, B().Hi)));
    else
      Set(Interval::full());
    break;
  case Opcode::Andi:
    if (I.Imm >= 0)
      Set(Interval::range(0, nonNeg(A()) ? std::min(A().Hi, I.Imm)
                                         : I.Imm));
    else
      Set(Interval::full());
    break;
  case Opcode::Or:
  case Opcode::Xor:
    if (nonNeg(A()) && nonNeg(B()))
      Set(Interval::range(0, onesAbove(std::max(A().Hi, B().Hi))));
    else
      Set(Interval::full());
    break;
  case Opcode::Shl:
    if (nonNeg(A()) && !B().empty() && B().Lo >= 0 && B().Hi <= 62) {
      __int128 Hi = static_cast<__int128>(A().Hi) << B().Hi;
      Set(Hi > INT64_MAX
              ? Interval::full()
              : Interval::range(A().Lo << B().Lo,
                                static_cast<int64_t>(Hi)));
    } else {
      Set(Interval::full());
    }
    break;
  case Opcode::Shr:
    if (nonNeg(A()) && !B().empty() && B().Lo >= 0 && B().Hi <= 63)
      Set(Interval::range(A().Lo >> B().Hi, A().Hi >> B().Lo));
    else
      Set(Interval::full());
    break;
  case Opcode::Slt:
  case Opcode::Sle:
  case Opcode::Seq:
  case Opcode::Sne:
  case Opcode::Slti:
  case Opcode::Cas:
    Set(Interval::range(0, 1));
    break;
  case Opcode::Ld:
    Set(Interval::full()); // memory contents are unknown
    break;
  // No register result. Call/Ret move control only: the register file
  // flows through the call unchanged (no save/restore convention), so
  // intervals cross proc boundaries via the interprocedural CFG edges.
  case Opcode::Nop:
  case Opcode::St:
  case Opcode::Beqz:
  case Opcode::Bnez:
  case Opcode::Jmp:
  case Opcode::Call:
  case Opcode::Ret:
  case Opcode::Lock:
  case Opcode::Unlock:
  case Opcode::Assert:
  case Opcode::Print:
  case Opcode::Yield:
  case Opcode::Halt:
    break;
  }
  // r0 is architecturally pinned to zero.
  V.Regs[isa::ZeroReg] = Interval::constant(0);
}

EscapeAnalysis::EscapeAnalysis(const isa::ThreadCfg &Cfg,
                               const std::vector<Instruction> &Code,
                               isa::ThreadId Tid)
    : Code(Code) {
  Domain D;
  D.Tid = Tid;
  Solver = std::make_unique<DataflowSolver<Domain>>(Cfg, Code, D,
                                                    Direction::Forward);
  for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
    if (!isa::isMemoryAccess(Code[Pc].Op) || !Solver->reached(Pc))
      continue;
    Interval Addr = addressOf(Pc);
    if (Code[Pc].Op == Opcode::Cas)
      Accesses.push_back({Pc, /*IsWrite=*/true, /*IsCas=*/true, Addr});
    else
      Accesses.push_back({Pc, Code[Pc].Op == Opcode::St, false, Addr});
  }
}

Interval EscapeAnalysis::valueBefore(uint32_t Pc, isa::Reg R) const {
  return Solver->entry(Pc).Regs[R];
}

Interval EscapeAnalysis::addressOf(uint32_t Pc) const {
  const Instruction &I = Code[Pc];
  if (!isa::isMemoryAccess(I.Op) || !Solver->reached(Pc))
    return Interval();
  if (I.Op == Opcode::Cas) // absolute address
    return Interval::constant(I.Imm);
  return addIv(Solver->entry(Pc).Regs[I.Ra], Interval::constant(I.Imm));
}
