//===- vm/Translate.cpp ---------------------------------------------------===//

#include "vm/Translate.h"

#include "isa/Cfg.h"

using namespace svd;
using namespace svd::vm;
using isa::Instruction;
using isa::Opcode;
using isa::ThreadId;

TransCache::TransCache(const isa::Program &P, StaticHintFn Hints) : Prog(P) {
  PerThread.resize(P.numThreads());
  for (ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    const std::vector<Instruction> &Code = P.Threads[Tid].Code;
    ThreadTrans &TT = PerThread[Tid];

    isa::ThreadBlocks TB = isa::discoverBasicBlocks(Code);
    TT.BlockOf = std::move(TB.BlockOf);

    TT.Ops.resize(Code.size());
    for (uint32_t Pc = 0; Pc < Code.size(); ++Pc) {
      const Instruction &I = Code[Pc];
      MicroOp &U = TT.Ops[Pc];
      U.Op = I.Op;
      U.Rd = I.Rd;
      U.Ra = I.Ra;
      U.Rb = I.Rb;
      U.Imm = I.Imm;
      U.Pc = Pc;
      U.Instr = &I;
      U.Hints = Hints ? Hints(Tid, Pc) : 0;
    }

    TT.Blocks.resize(TB.Blocks.size());
    for (size_t BI = 0; BI < TB.Blocks.size(); ++BI) {
      TransBlock &B = TT.Blocks[BI];
      B.StartPc = TB.Blocks[BI].StartPc;
      B.NumOps = TB.Blocks[BI].NumInstrs;
      uint32_t EndPc = B.StartPc + B.NumOps;
      if (EndPc < Code.size())
        B.FallBlock = static_cast<int32_t>(TT.BlockOf[EndPc]);
      const Instruction &Last = Code[EndPc - 1];
      switch (isa::flowOf(Last.Op)) {
      case isa::FlowClass::CondBranch:
      case isa::FlowClass::Jump:
      case isa::FlowClass::Call:
        B.TakenPc = static_cast<uint32_t>(Last.Imm);
        B.TakenBlock = static_cast<int32_t>(TT.BlockOf[B.TakenPc]);
        break;
      case isa::FlowClass::Next:
      case isa::FlowClass::Ret:
      case isa::FlowClass::Halt:
        break;
      }
    }
  }
}
