//===- harness/Studies.h - Suite internals ----------------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal to the harness: what the table suites (Suites.cpp) and the
/// paper-study suites (Studies.cpp) share. Not for use outside them.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_HARNESS_STUDIES_H
#define SVD_HARNESS_STUDIES_H

#include "harness/Harness.h"
#include "harness/Runner.h"
#include "harness/Suites.h"

namespace svd {
namespace harness {

/// The text-only paper-study suites, listed by suites() after the table
/// suites.
const std::vector<Suite> &studySuites();

/// The sample fan-out of a suite: \p O's jobs and observability sinks.
RunnerConfig runnerConfig(const SuiteOptions &O);

/// Seed \p Seed of a seed sweep: timeslices 1-4 (coarse preemption, the
/// paper's 4-CPU SMP).
SampleConfig sweepSample(uint64_t Seed);

} // namespace harness
} // namespace svd

#endif // SVD_HARNESS_STUDIES_H
