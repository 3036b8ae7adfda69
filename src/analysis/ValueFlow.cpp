//===- analysis/ValueFlow.cpp ---------------------------------------------===//

#include "analysis/ValueFlow.h"

#include <algorithm>

using namespace svd;
using namespace svd::analysis;
using isa::Instruction;
using isa::Opcode;

namespace {

Interval intersectIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return Interval();
  Interval R{std::max(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
  return R.empty() ? Interval() : R;
}

bool fitsI64(__int128 V) { return V >= INT64_MIN && V <= INT64_MAX; }

} // namespace

Interval AffineTerm::concretize(int64_t Tid) const {
  if (Top)
    return Interval::full();
  if (Rem.empty())
    return Interval();
  if (Rem.isFull())
    return Interval::full();
  __int128 Lo = static_cast<__int128>(Base) +
                static_cast<__int128>(TidStride) * Tid + Rem.Lo;
  __int128 Hi = static_cast<__int128>(Base) +
                static_cast<__int128>(TidStride) * Tid + Rem.Hi;
  return wideToIv(Lo, Hi);
}

namespace svd {
namespace analysis {

/// The affine SCCP domain for one thread (internal to ValueFlow.cpp;
/// named so ValueFlowAnalysis can hold its solver).
struct ValueFlowDomain {
  struct Value {
    std::array<AffineTerm, isa::NumRegs> Regs; ///< default: all bottom
  };
  int64_t NumThreads = 1;

  /// Canonical form: a Tid-free term folds Base into Rem; a strided
  /// term shifts Rem to start at 0. Overflowing or full residuals
  /// collapse to Top (the Escape half of the product keeps precision).
  static AffineTerm normalize(AffineTerm T) {
    if (T.Top || T.Rem.empty())
      return T;
    if (T.Rem.isFull())
      return AffineTerm::top();
    if (T.TidStride == 0) {
      Interval R = addIv(T.Rem, Interval::constant(T.Base));
      if (R.isFull())
        return AffineTerm::top();
      T.Base = 0;
      T.Rem = R;
      return T;
    }
    __int128 NewBase = static_cast<__int128>(T.Base) + T.Rem.Lo;
    if (!fitsI64(NewBase))
      return AffineTerm::top();
    T.Rem = Interval::range(0, T.Rem.Hi - T.Rem.Lo);
    T.Base = static_cast<int64_t>(NewBase);
    return T;
  }

  /// Drops the Tid dependence by ranging tid over [0, NumThreads).
  AffineTerm demote(const AffineTerm &T) const {
    if (T.Top || T.Rem.empty() || T.TidStride == 0)
      return T;
    Interval Span =
        mulIv(Interval::constant(T.TidStride), Interval::range(0, NumThreads - 1));
    Interval R = addIv(addIv(Span, T.Rem), Interval::constant(T.Base));
    AffineTerm D;
    if (R.isFull())
      return AffineTerm::top();
    D.Rem = R;
    return D;
  }

  AffineTerm meetTerm(const AffineTerm &Dst, const AffineTerm &Src,
                      bool Widen) const {
    if (Src.bottom())
      return Dst;
    if (Dst.bottom())
      return normalize(Src);
    if (Dst.Top || Src.Top)
      return AffineTerm::top();
    AffineTerm A = normalize(Dst), B = normalize(Src);
    if (A.Top || B.Top)
      return AffineTerm::top();
    if (A.TidStride != B.TidStride) {
      A = demote(A);
      B = demote(B);
      if (A.Top || B.Top)
        return AffineTerm::top();
    }
    // Equal strides: express B against A's base and hull the residuals.
    __int128 Shift = static_cast<__int128>(B.Base) - A.Base;
    if (!fitsI64(Shift))
      return AffineTerm::top();
    Interval BRem = addIv(B.Rem, Interval::constant(static_cast<int64_t>(Shift)));
    if (BRem.isFull())
      return AffineTerm::top();
    AffineTerm R = A;
    R.Rem = Interval::range(std::min(A.Rem.Lo, BRem.Lo),
                            std::max(A.Rem.Hi, BRem.Hi));
    if (Widen && !(R.Rem == A.Rem))
      return AffineTerm::top();
    return normalize(R);
  }

  Value init() const { return Value(); }

  Value boundary() const {
    Value V;
    for (AffineTerm &T : V.Regs)
      T = AffineTerm::constant(0); // zeroed register file
    return V;
  }

  bool meetInto(Value &Dst, const Value &Src, bool Widen) const {
    bool Changed = false;
    for (unsigned R = 0; R < isa::NumRegs; ++R) {
      AffineTerm M = meetTerm(Dst.Regs[R], Src.Regs[R], Widen);
      if (!(M == Dst.Regs[R])) {
        Dst.Regs[R] = M;
        Changed = true;
      }
    }
    return Changed;
  }

  static AffineTerm addTerm(const AffineTerm &A, const AffineTerm &B) {
    if (A.bottom() || B.bottom())
      return AffineTerm();
    if (A.Top || B.Top)
      return AffineTerm::top();
    __int128 Base = static_cast<__int128>(A.Base) + B.Base;
    __int128 Stride = static_cast<__int128>(A.TidStride) + B.TidStride;
    Interval Rem = addIv(A.Rem, B.Rem);
    if (!fitsI64(Base) || !fitsI64(Stride) || Rem.isFull())
      return AffineTerm::top();
    AffineTerm R;
    R.Base = static_cast<int64_t>(Base);
    R.TidStride = static_cast<int64_t>(Stride);
    R.Rem = Rem;
    return R;
  }

  static AffineTerm subTerm(const AffineTerm &A, const AffineTerm &B) {
    if (A.bottom() || B.bottom())
      return AffineTerm();
    if (A.Top || B.Top)
      return AffineTerm::top();
    __int128 Base = static_cast<__int128>(A.Base) - B.Base;
    __int128 Stride = static_cast<__int128>(A.TidStride) - B.TidStride;
    Interval Rem = subIv(A.Rem, B.Rem);
    if (!fitsI64(Base) || !fitsI64(Stride) || Rem.isFull())
      return AffineTerm::top();
    AffineTerm R;
    R.Base = static_cast<int64_t>(Base);
    R.TidStride = static_cast<int64_t>(Stride);
    R.Rem = Rem;
    return R;
  }

  static AffineTerm scaleTerm(const AffineTerm &A, int64_t K) {
    if (A.bottom())
      return AffineTerm();
    if (A.Top)
      return AffineTerm::top();
    __int128 Base = static_cast<__int128>(A.Base) * K;
    __int128 Stride = static_cast<__int128>(A.TidStride) * K;
    Interval Rem = mulIv(A.Rem, Interval::constant(K));
    if (!fitsI64(Base) || !fitsI64(Stride) || Rem.isFull())
      return AffineTerm::top();
    AffineTerm R;
    R.Base = static_cast<int64_t>(Base);
    R.TidStride = static_cast<int64_t>(Stride);
    R.Rem = Rem;
    return R;
  }

  void transfer(uint32_t, const Instruction &I, Value &V) const {
    auto A = [&]() -> const AffineTerm & { return V.Regs[I.Ra]; };
    auto B = [&]() -> const AffineTerm & { return V.Regs[I.Rb]; };
    auto Set = [&](AffineTerm R) {
      if (I.Rd != isa::ZeroReg)
        V.Regs[I.Rd] = R;
    };

    switch (I.Op) {
    case Opcode::Li:
      Set(AffineTerm::constant(I.Imm));
      break;
    case Opcode::Mov:
      Set(A());
      break;
    case Opcode::Tid: {
      AffineTerm T;
      T.TidStride = 1;
      T.Rem = Interval::constant(0);
      Set(T);
      break;
    }
    case Opcode::Rnd: {
      if (I.Imm <= 0) {
        Set(AffineTerm::top());
        break;
      }
      AffineTerm T;
      T.Rem = Interval::range(0, I.Imm - 1);
      Set(T);
      break;
    }
    case Opcode::Add:
      Set(addTerm(A(), B()));
      break;
    case Opcode::Addi:
      Set(addTerm(A(), AffineTerm::constant(I.Imm)));
      break;
    case Opcode::Sub:
      Set(subTerm(A(), B()));
      break;
    case Opcode::Mul:
      if (A().isConstant())
        Set(scaleTerm(B(), A().constantValue()));
      else if (B().isConstant())
        Set(scaleTerm(A(), B().constantValue()));
      else
        Set(AffineTerm::top());
      break;
    case Opcode::Muli:
      Set(scaleTerm(A(), I.Imm));
      break;
    case Opcode::Andi: {
      // v & K for K >= 0 lands in [0, K] whatever v is.
      if (I.Imm < 0) {
        Set(AffineTerm::top());
        break;
      }
      AffineTerm T;
      T.Rem = Interval::range(0, I.Imm);
      Set(T);
      break;
    }
    case Opcode::Slt:
    case Opcode::Sle:
    case Opcode::Seq:
    case Opcode::Sne:
    case Opcode::Slti:
    case Opcode::Cas: {
      AffineTerm T;
      T.Rem = Interval::range(0, 1);
      Set(T);
      break;
    }
    case Opcode::Ld:
      Set(AffineTerm::top()); // memory contents are unknown
      break;
    // Div/Rem/And/Or/Xor/Shl/Shr: no affine model; the Escape half of
    // the reduced product keeps their interval bound.
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
      Set(AffineTerm::top());
      break;
    // No register result. Call/Ret leave the register file untouched;
    // affine terms flow through proc boundaries via the CFG edges.
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
    V.Regs[isa::ZeroReg] = AffineTerm::constant(0);
  }

  /// SCCP: a conditional branch over a known constant follows exactly
  /// one edge.
  bool edgeFeasible(uint32_t Pc, const Instruction &I, const Value &Out,
                    uint32_t Succ) const {
    if (I.Op != Opcode::Beqz && I.Op != Opcode::Bnez)
      return true;
    const AffineTerm &T = Out.Regs[I.Ra];
    if (!T.isConstant())
      return true;
    bool Zero = T.constantValue() == 0;
    bool Taken = (I.Op == Opcode::Beqz) == Zero;
    uint32_t Feasible = Taken ? static_cast<uint32_t>(I.Imm) : Pc + 1;
    return Succ == Feasible;
  }
};

} // namespace analysis
} // namespace svd

ValueFlowAnalysis::ValueFlowAnalysis(const isa::ThreadCfg &Cfg,
                                     const std::vector<Instruction> &Code,
                                     const EscapeAnalysis &Esc,
                                     isa::ThreadId Tid, uint32_t NumThreads)
    : Code(Code), Esc(Esc), Tid(Tid) {
  ValueFlowDomain D;
  D.NumThreads = static_cast<int64_t>(NumThreads);
  Solver = std::make_unique<DataflowSolver<ValueFlowDomain>>(
      Cfg, Code, D, Direction::Forward);
}

ValueFlowAnalysis::~ValueFlowAnalysis() = default;

AffineTerm ValueFlowAnalysis::termBefore(uint32_t Pc, isa::Reg R) const {
  if (Pc >= Code.size() || !Solver->reached(Pc))
    return AffineTerm();
  return Solver->entry(Pc).Regs[R];
}

AffineTerm ValueFlowAnalysis::addressTerm(uint32_t Pc) const {
  if (Pc >= Code.size() || !Solver->reached(Pc))
    return AffineTerm();
  const Instruction &I = Code[Pc];
  if (!isa::isMemoryAccess(I.Op))
    return AffineTerm();
  if (I.Op == Opcode::Cas)
    return AffineTerm::constant(I.Imm);
  return ValueFlowDomain::addTerm(Solver->entry(Pc).Regs[I.Ra],
                                  AffineTerm::constant(I.Imm));
}

Interval ValueFlowAnalysis::valueBefore(uint32_t Pc, isa::Reg R) const {
  return intersectIv(termBefore(Pc, R).concretize(Tid),
                     Esc.valueBefore(Pc, R));
}

Interval ValueFlowAnalysis::addressOf(uint32_t Pc) const {
  return intersectIv(addressTerm(Pc).concretize(Tid), Esc.addressOf(Pc));
}

bool ValueFlowAnalysis::reachable(uint32_t Pc) const {
  return Solver->reached(Pc);
}
