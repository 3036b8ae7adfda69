//===- analysis/ProgramPasses.cpp -----------------------------------------===//

#include "analysis/ProgramPasses.h"

using namespace svd;
using namespace svd::analysis;

ProgramPasses::ProgramPasses(const isa::Program &P, bool ValueFlow)
    : Prog(&P), ValueFlow(ValueFlow), Threads(P.numThreads()) {
  for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid) {
    const std::vector<isa::Instruction> &Code = P.Threads[Tid].Code;
    Thread &T = Threads[Tid];
    T.Cfg = std::make_unique<isa::ThreadCfg>(Code);
    T.Cg = std::make_unique<isa::ThreadCallGraph>(Code);
    T.Escape = std::make_unique<EscapeAnalysis>(*T.Cfg, Code, Tid);
    T.Locks = std::make_unique<StaticLockset>(
        *T.Cfg, Code, *T.Cg, static_cast<uint32_t>(P.Mutexes.size()));
    T.Reach = std::make_unique<ReachingDefs>(*T.Cfg, Code);
    T.Live = std::make_unique<Liveness>(*T.Cfg, Code);
    if (ValueFlow)
      T.VF = std::make_unique<ValueFlowAnalysis>(*T.Cfg, Code, *T.Escape, Tid,
                                                 P.numThreads());
  }
}
