//===- isa/Isa.cpp --------------------------------------------------------===//

#include "isa/Isa.h"

#include "support/StringUtils.h"

using namespace svd;
using namespace svd::isa;

std::string isa::formatInstruction(const Instruction &I) {
  using support::formatString;
  long long Imm = static_cast<long long>(I.Imm);
  std::string Out = opcodeName(I.Op);
  const char *Sep = " ";
  for (Operand O : operandsOf(opcodeInfo(I.Op).Form)) {
    switch (O) {
    case Operand::Rd:
      Out += formatString("%sr%u", Sep, I.Rd);
      break;
    case Operand::Ra:
      Out += formatString("%sr%u", Sep, I.Ra);
      break;
    case Operand::Rb:
      Out += formatString("%sr%u", Sep, I.Rb);
      break;
    case Operand::Imm:
    case Operand::Label:
    case Operand::Proc:
      Out += formatString("%s%lld", Sep, Imm);
      break;
    case Operand::Mem:
      Out += formatString("%s[r%u+%lld]", Sep, I.Ra, Imm);
      break;
    case Operand::AbsMem:
      Out += formatString("%s[%lld]", Sep, Imm);
      break;
    case Operand::Mutex:
      Out += formatString("%sm%lld", Sep, Imm);
      break;
    case Operand::Msg: // the message lives in Program::Messages
      break;
    }
    Sep = ", ";
  }
  return Out;
}
