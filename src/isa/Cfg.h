//===- isa/Cfg.h - Per-thread CFG and reconvergence points ------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction-level control-flow analysis for one thread's code. SVD's
/// online algorithm tracks partial control dependences with a stack of
/// (branch, reconvergence point) pairs (Section 4.2, "Skipper heuristic").
/// This file provides two reconvergence policies:
///
///  * \c skipperReconvergence — the paper's probe heuristic: look at the
///    instruction just before the forward branch target; if it is an
///    unconditional forward jump (the "Branch-Always" that ends a then
///    block), reconverge at that jump's target (if/else shape), otherwise
///    at the branch target itself (if shape). Backward branches (loops)
///    yield no reconvergence point, matching the paper's statement that
///    loop-type control flow is not inferred.
///
///  * \c preciseReconvergence — the immediate postdominator of the branch
///    in the instruction-level CFG; used by the ablation study of the
///    control-dependence policy.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ISA_CFG_H
#define SVD_ISA_CFG_H

#include "isa/Isa.h"

#include <cstdint>
#include <vector>

namespace svd {
namespace isa {

/// How Call/Ret edges are modelled in a ThreadCfg. Flat programs build
/// identical graphs under either view.
enum class CfgView : uint8_t {
  /// The interprocedural supergraph: Call edges to the callee's entry,
  /// Ret edges to the pc after every Call targeting the enclosing proc
  /// (context-insensitive — every forward/backward dataflow pass run on
  /// this view is automatically whole-thread interprocedural).
  Interproc,
  /// The region-local view: Call falls through to Pc+1 (the client
  /// applies a callee summary in its transfer function) and Ret edges to
  /// the virtual exit. Regions are mutually unreachable; pair with
  /// DataflowSolver extra seeds to analyze proc bodies.
  Intra,
};

/// Control-flow graph over one thread's instructions. Node ids are
/// instruction indices; one extra virtual exit node follows them.
///
/// Proc structure is self-derived: the entries of the thread's procs are
/// exactly the targets of its Call instructions, and the assembler lays
/// every proc body out contiguously after the main body, so the region
/// containing a pc is determined by the closest entry at or below it
/// (see RegionMap).
class ThreadCfg {
public:
  /// Sentinel for "no node".
  static constexpr uint32_t NoNode = UINT32_MAX;

  /// Builds the CFG and postdominator tree for \p Code. \p Code must have
  /// passed Program::validate().
  explicit ThreadCfg(const std::vector<Instruction> &Code,
                     CfgView View = CfgView::Interproc);

  /// Number of instruction nodes (the exit node is index size()).
  uint32_t size() const { return NumInstrs; }

  /// The virtual exit node's id.
  uint32_t exitNode() const { return NumInstrs; }

  /// Successor node ids of instruction \p Pc.
  const std::vector<uint32_t> &successors(uint32_t Pc) const {
    return Succs[Pc];
  }

  /// Immediate postdominator of node \p Pc; NoNode for the exit node and
  /// for unreachable instructions.
  uint32_t immediatePostDominator(uint32_t Pc) const { return Ipdom[Pc]; }

  /// Returns true if node \p A postdominates node \p B.
  bool postDominates(uint32_t A, uint32_t B) const;

  /// Precise reconvergence point of the conditional branch at \p BranchPc:
  /// its immediate postdominator, or NoNode when control only reconverges
  /// at thread exit.
  uint32_t preciseReconvergence(uint32_t BranchPc) const;

  /// The paper's Skipper-style probe (see file comment). Returns NoNode
  /// for backward branches.
  uint32_t skipperReconvergence(uint32_t BranchPc) const;

private:
  uint32_t NumInstrs;
  const std::vector<Instruction> &Code;
  CfgView View;
  std::vector<std::vector<uint32_t>> Succs;
  std::vector<uint32_t> Ipdom;
  /// PdomSets[N] is a bitset over nodes postdominating N (incl. N itself).
  std::vector<std::vector<uint64_t>> PdomSets;

  void buildSuccessors();
  void computePostDominators();
};

/// One execution basic block: a maximal straight-line run of
/// instructions [StartPc, StartPc + NumInstrs). Control enters only at
/// StartPc (when entered from the top — mid-block resumption after a
/// blocking Lock or a checkpoint restore is the executor's business) and
/// leaves only after the last instruction.
struct BasicBlock {
  uint32_t StartPc = 0;
  uint32_t NumInstrs = 0;
};

/// Partition of one thread's code into execution basic blocks, the unit
/// the translation-cached engine (vm/Translate.h) decodes once.
struct ThreadBlocks {
  /// Blocks ascending by StartPc; together they cover every pc exactly
  /// once.
  std::vector<BasicBlock> Blocks;
  /// BlockOf[Pc] is the index into Blocks of the block containing Pc.
  std::vector<uint32_t> BlockOf;
};

/// Discovers the execution basic blocks of \p Code (which must have
/// passed Program::validate()). Leaders are pc 0, every explicit branch
/// or call target, and the pc after every control-transfer instruction
/// (a Ret or Halt ends a block; its successor, if any, starts one since
/// it can only be reached as a target or fall-through of other control
/// flow). Unlike ThreadCfg this is the *physical* control flow the
/// executor follows: a Call transfers to its callee, never to Pc + 1.
ThreadBlocks discoverBasicBlocks(const std::vector<Instruction> &Code);

/// Partition of one thread's code into its main body (region 0) and one
/// region per proc, derived purely from Call targets (see ThreadCfg).
/// Flat code has exactly one region.
class RegionMap {
public:
  explicit RegionMap(const std::vector<Instruction> &Code);

  uint32_t numRegions() const {
    return static_cast<uint32_t>(Entries.size());
  }
  /// First pc of region \p R (0 for the main body).
  uint32_t entryOf(uint32_t R) const { return Entries[R]; }
  /// One past the last pc of region \p R.
  uint32_t endOf(uint32_t R) const {
    return R + 1 < Entries.size() ? Entries[R + 1] : CodeSize;
  }
  /// The region containing \p Pc.
  uint32_t regionOf(uint32_t Pc) const;
  /// The region whose entry is \p Pc; NoRegion if \p Pc is no entry.
  static constexpr uint32_t NoRegion = UINT32_MAX;
  uint32_t regionAtEntry(uint32_t Pc) const;

private:
  /// Region entry pcs, ascending; Entries[0] == 0 is the main body.
  std::vector<uint32_t> Entries;
  uint32_t CodeSize;
};

/// One Call instruction, resolved to regions.
struct CallSite {
  uint32_t Pc = 0;           ///< pc of the Call
  uint32_t CallerRegion = 0; ///< region containing the Call
  uint32_t CalleeRegion = 0; ///< region the Call targets
};

/// Per-thread call graph over the thread's regions: nodes are regions,
/// edges are Call sites. Provides the SCC condensation (for bottom-up
/// summary computation over recursive procs) and call-path queries used
/// by diagnostics.
class ThreadCallGraph {
public:
  explicit ThreadCallGraph(const std::vector<Instruction> &Code);

  const RegionMap &regions() const { return Regions; }
  const std::vector<CallSite> &callSites() const { return Sites; }

  /// Pc of every Call targeting region \p R (ascending).
  const std::vector<uint32_t> &callersOf(uint32_t R) const {
    return Callers[R];
  }

  /// Regions ordered callees-before-callers (reverse topological order
  /// of the SCC condensation); regions in one SCC are adjacent.
  const std::vector<uint32_t> &bottomUpRegions() const { return BottomUp; }

  /// SCC id of region \p R; ids are dense and bottom-up-ordered (a
  /// callee's SCC id is <= its caller's unless they share an SCC).
  uint32_t sccOf(uint32_t R) const { return Scc[R]; }

  /// True when \p R can (transitively) call itself.
  bool isRecursive(uint32_t R) const { return Recursive[R]; }

  /// Shortest chain of regions main -> ... -> \p R (both inclusive);
  /// empty when \p R is not reachable from the main body. pathFromMain(0)
  /// is {0}.
  std::vector<uint32_t> pathFromMain(uint32_t R) const;

private:
  RegionMap Regions;
  std::vector<CallSite> Sites;
  std::vector<std::vector<uint32_t>> Callers;
  std::vector<uint32_t> Scc;
  std::vector<uint32_t> BottomUp;
  std::vector<bool> Recursive;
};

} // namespace isa
} // namespace svd

#endif // SVD_ISA_CFG_H
