//===- analysis/ReachingDefs.h - Reaching register definitions --*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward may-analysis over the 16 architectural registers: which
/// static instructions' register writes may reach each program point.
/// A synthetic "entry definition" models the VM's zero-initialized
/// register file, so a read whose only reaching definition is the entry
/// one is a read of a never-written register — the uninitialized-read
/// diagnostic `svd-lint` reports.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_REACHINGDEFS_H
#define SVD_ANALYSIS_REACHINGDEFS_H

#include "analysis/Dataflow.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace svd {
namespace analysis {

/// Reaching definitions for one thread's code.
class ReachingDefs {
public:
  /// Pseudo-pc of the entry definition (the initial zero value).
  static constexpr uint32_t EntryDef = UINT32_MAX;

  ReachingDefs(const isa::ThreadCfg &Cfg,
               const std::vector<isa::Instruction> &Code);

  /// Definition sites of \p R that may reach the point just before
  /// \p Pc executes; EntryDef stands for "never written on some path".
  std::vector<uint32_t> defsBefore(uint32_t Pc, isa::Reg R) const;

  /// True when the entry definition reaches \p Pc for \p R, i.e. some
  /// path from thread start reads \p R without any write to it.
  bool mayBeUninitAt(uint32_t Pc, isa::Reg R) const;

  /// True when *only* the entry definition reaches: the register is read
  /// while never written on any path (always the initial zero).
  bool mustBeUninitAt(uint32_t Pc, isa::Reg R) const;

  /// True when \p Pc is reachable from the thread entry.
  bool reachable(uint32_t Pc) const { return Solver->reached(Pc); }

private:
  /// Per register: bitset over instruction pcs plus one entry-def bit
  /// (bit NumInstrs). A fact stores the 16 sets back to back in one
  /// register-major vector: register R's Words words start at R * Words.
  struct Domain {
    using Value = std::vector<uint64_t>;
    uint32_t NumInstrs = 0;
    size_t Words = 0;

    Value init() const;
    Value boundary() const;
    bool meetInto(Value &Dst, const Value &Src, bool Widen) const;
    void transfer(uint32_t Pc, const isa::Instruction &I, Value &V) const;
  };

  /// Register \p R's set in the fact just before \p Pc.
  const uint64_t *setBefore(uint32_t Pc, isa::Reg R) const {
    return Solver->entry(Pc).data() + R * Words;
  }

  uint32_t NumInstrs;
  size_t Words;
  std::unique_ptr<DataflowSolver<Domain>> Solver;
};

} // namespace analysis
} // namespace svd

#endif // SVD_ANALYSIS_REACHINGDEFS_H
