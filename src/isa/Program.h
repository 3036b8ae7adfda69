//===- isa/Program.h - Multithreaded program container -----------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program bundles the per-thread instruction sequences, the data-symbol
/// layout (shared globals and per-thread locals), the mutex table, and a
/// message table used by `assert` diagnostics. Programs are produced by
/// the assembler (isa/Assembler.h) and executed by svd::vm::Machine.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ISA_PROGRAM_H
#define SVD_ISA_PROGRAM_H

#include "isa/Isa.h"

#include <optional>
#include <string>
#include <vector>

namespace svd {
namespace isa {

/// Thread identifier (index into Program's thread list).
using ThreadId = uint32_t;

/// A named data region in the program's memory image.
struct DataSymbol {
  std::string Name;
  /// First word of the region. For thread-local symbols, this is the base
  /// of thread 0's copy; thread T's copy begins at Base + T * Size.
  Addr Base = 0;
  /// Region size in words.
  uint32_t Size = 1;
  /// True for `.local` symbols, which get one copy per thread.
  bool IsThreadLocal = false;
};

/// One procedure materialized into a thread's code: the assembler
/// appends every `.proc` body a thread (transitively) calls after the
/// thread's main body, so [Entry, End) names the proc's pc range.
struct ProcInfo {
  std::string Name;
  uint32_t Entry = 0; ///< first instruction of the proc body
  uint32_t End = 0;   ///< one past the last instruction
};

/// The instruction sequence of one thread.
struct ThreadCode {
  std::string Name;
  std::vector<Instruction> Code;
  /// Procedures materialized into Code, ascending by Entry; empty for
  /// flat programs. Purely metadata — execution and analysis derive
  /// structure from Call targets, tools use this for names.
  std::vector<ProcInfo> Procs;

  /// The proc containing \p Pc, or nullptr for main-body pcs.
  const ProcInfo *procAt(uint32_t Pc) const {
    for (const ProcInfo &P : Procs)
      if (Pc >= P.Entry && Pc < P.End)
        return &P;
    return nullptr;
  }
};

/// A complete multithreaded program.
class Program {
public:
  /// Per-thread code, indexed by ThreadId.
  std::vector<ThreadCode> Threads;

  /// All data symbols (globals first, then locals), in layout order.
  std::vector<DataSymbol> Symbols;

  /// Named mutexes; index == mutex id used by Lock/Unlock.
  std::vector<std::string> Mutexes;

  /// Messages referenced by Assert's Imm operand.
  std::vector<std::string> Messages;

  /// Total memory image size in words.
  Addr MemoryWords = 0;

  /// Number of threads.
  uint32_t numThreads() const {
    return static_cast<uint32_t>(Threads.size());
  }

  /// Total static instruction count across all threads.
  size_t numInstructions() const;

  /// Finds a data symbol by name; nullptr if absent.
  const DataSymbol *findSymbol(const std::string &Name) const;

  /// Address of \p Name's word \p Offset for thread \p Tid. Thread-local
  /// symbols resolve to the thread's private copy. Aborts if the symbol
  /// does not exist or the offset is out of range.
  Addr addressOf(const std::string &Name, ThreadId Tid = 0,
                 uint32_t Offset = 0) const;

  /// Reverse-maps \p A to "symbol[+offset]" (with "@tid" suffix for
  /// locals); returns "word:<A>" if no symbol covers it.
  std::string describeAddress(Addr A) const;

  /// Mutex id for \p Name, if any.
  std::optional<uint32_t> findMutex(const std::string &Name) const;

  /// Basic structural validation: branch targets in range, register
  /// numbers valid, memory references within the image, each thread ends
  /// in Halt/Jmp. Returns an empty string when valid, else a diagnostic.
  std::string validate() const;

  /// Disassembles the whole program (directives omitted) for debugging.
  std::string disassemble() const;
};

} // namespace isa
} // namespace svd

#endif // SVD_ISA_PROGRAM_H
