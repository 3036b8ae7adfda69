//===- tests/TestUtil.h - Shared helpers for the test suites ----*- C++ -*-===//

#ifndef SVD_TESTS_TESTUTIL_H
#define SVD_TESTS_TESTUTIL_H

#include "cu/CuPartition.h"
#include "isa/Assembler.h"
#include "trace/Trace.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>
#include <vector>

namespace svd {
namespace testutil {

/// Expands {(tid, count), ...} into a flat schedule.
inline std::vector<isa::ThreadId>
sched(std::initializer_list<std::pair<int, int>> Runs) {
  std::vector<isa::ThreadId> S;
  for (const auto &[Tid, Count] : Runs)
    for (int I = 0; I < Count; ++I)
      S.push_back(static_cast<isa::ThreadId>(Tid));
  return S;
}

/// Runs \p P to completion under seed \p Seed, recording the trace.
inline trace::ProgramTrace recordRun(const isa::Program &P,
                                     uint64_t Seed = 1) {
  vm::MachineConfig Cfg;
  Cfg.SchedSeed = Seed;
  vm::Machine M(P, Cfg);
  trace::TraceRecorder R(P);
  M.addObserver(&R);
  M.run();
  return R.takeTrace();
}

/// Runs \p P with the exact interleaving prefix \p Prefix, then finishes
/// the run with the seeded scheduler, recording the trace. Observers in
/// \p Extra are attached for the whole run.
inline trace::ProgramTrace
recordWithPrefix(const isa::Program &P,
                 const std::vector<isa::ThreadId> &Prefix,
                 std::vector<vm::ExecutionObserver *> Extra = {},
                 uint64_t Seed = 1) {
  vm::MachineConfig Cfg;
  Cfg.SchedSeed = Seed;
  vm::Machine M(P, Cfg);
  trace::TraceRecorder R(P);
  M.addObserver(&R);
  for (vm::ExecutionObserver *O : Extra)
    M.addObserver(O);
  M.setReplaySchedule(Prefix);
  M.run();
  M.clearReplaySchedule();
  M.run();
  return R.takeTrace();
}

/// Expects two CU partitions of \p T to be identical: every unit's Id,
/// Tid, Events, BeginSeq, EndSeq and SharedWrites, and unitOf(E) for
/// every event.
inline void expectSamePartition(const trace::ProgramTrace &T,
                                const cu::CuPartition &A,
                                const cu::CuPartition &B) {
  ASSERT_EQ(A.units().size(), B.units().size());
  for (size_t I = 0; I < A.units().size(); ++I) {
    const cu::ComputationalUnit &U = A.units()[I], &V = B.units()[I];
    EXPECT_EQ(U.Id, V.Id) << "unit " << I;
    EXPECT_EQ(U.Tid, V.Tid) << "unit " << I;
    EXPECT_EQ(U.Events, V.Events) << "unit " << I;
    EXPECT_EQ(U.BeginSeq, V.BeginSeq) << "unit " << I;
    EXPECT_EQ(U.EndSeq, V.EndSeq) << "unit " << I;
    EXPECT_EQ(U.SharedWrites, V.SharedWrites) << "unit " << I;
  }
  for (uint32_t E = 0; E < T.size(); ++E)
    ASSERT_EQ(A.unitOf(E), B.unitOf(E)) << "event " << E;
}

} // namespace testutil
} // namespace svd

#endif // SVD_TESTS_TESTUTIL_H
