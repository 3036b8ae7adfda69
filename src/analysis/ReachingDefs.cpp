//===- analysis/ReachingDefs.cpp ------------------------------------------===//

#include "analysis/ReachingDefs.h"

#include <algorithm>

using namespace svd;
using namespace svd::analysis;

namespace {

inline size_t wordsFor(uint32_t Bits) { return (Bits + 63) / 64; }

inline bool testBit(const uint64_t *Set, uint32_t I) {
  return (Set[I / 64] >> (I % 64)) & 1;
}

inline void setBit(uint64_t *Set, uint32_t I) {
  Set[I / 64] |= uint64_t(1) << (I % 64);
}

} // namespace

ReachingDefs::Domain::Value ReachingDefs::Domain::init() const {
  return Value(isa::NumRegs * Words, 0);
}

ReachingDefs::Domain::Value ReachingDefs::Domain::boundary() const {
  // Bit NumInstrs is the entry definition: every register starts as the
  // VM's initial zero.
  Value V = init();
  for (unsigned R = 0; R < isa::NumRegs; ++R)
    setBit(V.data() + R * Words, NumInstrs);
  return V;
}

bool ReachingDefs::Domain::meetInto(Value &Dst, const Value &Src,
                                    bool) const {
  bool Changed = false;
  for (size_t W = 0; W < Dst.size(); ++W) {
    uint64_t New = Dst[W] | Src[W];
    if (New != Dst[W]) {
      Dst[W] = New;
      Changed = true;
    }
  }
  return Changed;
}

void ReachingDefs::Domain::transfer(uint32_t Pc, const isa::Instruction &I,
                                    Value &V) const {
  if (!isa::writesRd(I.Op) || I.Rd == isa::ZeroReg)
    return;
  // A register write kills every earlier definition of the register.
  uint64_t *Set = V.data() + I.Rd * Words;
  std::fill(Set, Set + Words, 0);
  setBit(Set, Pc);
}

ReachingDefs::ReachingDefs(const isa::ThreadCfg &Cfg,
                           const std::vector<isa::Instruction> &Code)
    : NumInstrs(static_cast<uint32_t>(Code.size())),
      Words(wordsFor(NumInstrs + 1)) {
  Domain D;
  D.NumInstrs = NumInstrs;
  D.Words = Words;
  Solver = std::make_unique<DataflowSolver<Domain>>(Cfg, Code, D,
                                                    Direction::Forward);
}

std::vector<uint32_t> ReachingDefs::defsBefore(uint32_t Pc,
                                               isa::Reg R) const {
  std::vector<uint32_t> Out;
  const uint64_t *Set = setBefore(Pc, R);
  for (uint32_t I = 0; I <= NumInstrs; ++I)
    if (testBit(Set, I))
      Out.push_back(I == NumInstrs ? EntryDef : I);
  return Out;
}

bool ReachingDefs::mayBeUninitAt(uint32_t Pc, isa::Reg R) const {
  if (R == isa::ZeroReg)
    return false;
  return testBit(setBefore(Pc, R), NumInstrs);
}

bool ReachingDefs::mustBeUninitAt(uint32_t Pc, isa::Reg R) const {
  if (R == isa::ZeroReg)
    return false;
  const uint64_t *Set = setBefore(Pc, R);
  if (!testBit(Set, NumInstrs))
    return false;
  for (uint32_t I = 0; I < NumInstrs; ++I)
    if (testBit(Set, I))
      return false;
  return true;
}
