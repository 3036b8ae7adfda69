//===- analysis/ProgramPasses.h - One set of passes per program -*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread passes every static client reads, built once per
/// program: for each thread one instruction CFG and one call graph, and
/// over them one EscapeAnalysis, one StaticLockset, one ReachingDefs and
/// one Liveness; when value flow is on, also one ValueFlowAnalysis over
/// that same CFG and Escape. The access table, the CU proofs, the
/// conflict pairs, the predictor and lint all take a bundle instead of
/// building their own copies (DESIGN.md section 7 lists which client
/// reads which pass).
///
/// The bundle owns every pass and hands out references; it must outlive
/// them, and the program must outlive the bundle.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_PROGRAMPASSES_H
#define SVD_ANALYSIS_PROGRAMPASSES_H

#include "analysis/Escape.h"
#include "analysis/Liveness.h"
#include "analysis/ReachingDefs.h"
#include "analysis/StaticLockset.h"
#include "analysis/ValueFlow.h"
#include "isa/Cfg.h"
#include "isa/Program.h"

#include <cassert>
#include <memory>
#include <vector>

namespace svd {
namespace analysis {

class ProgramPasses {
public:
  /// Builds every thread's passes; \p ValueFlow adds the ValueFlow
  /// solve (the CU proofs need it; the predictor runs without it).
  ProgramPasses(const isa::Program &P, bool ValueFlow);

  const isa::Program &program() const { return *Prog; }
  bool hasValueFlow() const { return ValueFlow; }

  const isa::ThreadCfg &cfg(isa::ThreadId Tid) const {
    return *Threads[Tid].Cfg;
  }
  const isa::ThreadCallGraph &callGraph(isa::ThreadId Tid) const {
    return *Threads[Tid].Cg;
  }
  const EscapeAnalysis &escape(isa::ThreadId Tid) const {
    return *Threads[Tid].Escape;
  }
  const StaticLockset &lockset(isa::ThreadId Tid) const {
    return *Threads[Tid].Locks;
  }
  const ReachingDefs &reachingDefs(isa::ThreadId Tid) const {
    return *Threads[Tid].Reach;
  }
  const Liveness &liveness(isa::ThreadId Tid) const {
    return *Threads[Tid].Live;
  }
  const ValueFlowAnalysis &valueFlow(isa::ThreadId Tid) const {
    assert(ValueFlow && "bundle built without value flow");
    return *Threads[Tid].VF;
  }

  /// Effective-address bound of the access at (\p Tid, \p Pc) the
  /// access table and the proofs classify with: ValueFlow's sharpened
  /// bound when value flow is on, Escape's raw one otherwise.
  Interval addressOf(isa::ThreadId Tid, uint32_t Pc) const {
    const Thread &T = Threads[Tid];
    return T.VF ? T.VF->addressOf(Pc) : T.Escape->addressOf(Pc);
  }

private:
  struct Thread {
    std::unique_ptr<isa::ThreadCfg> Cfg;
    std::unique_ptr<isa::ThreadCallGraph> Cg;
    std::unique_ptr<EscapeAnalysis> Escape;
    std::unique_ptr<StaticLockset> Locks;
    std::unique_ptr<ReachingDefs> Reach;
    std::unique_ptr<Liveness> Live;
    std::unique_ptr<ValueFlowAnalysis> VF; ///< null without value flow
  };

  const isa::Program *Prog;
  bool ValueFlow;
  std::vector<Thread> Threads;
};

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_PROGRAMPASSES_H
