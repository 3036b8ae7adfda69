//===- vm/ScheduleFile.h - Schedule (de)serialization ------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Saving and loading recorded schedules — the file-format half of the
/// deterministic-replay workflow (Section 1.1's "captured a failing
/// multithreaded execution with a deterministic recorder", the role of
/// the authors' flight data recorder [38]). A schedule plus the
/// machine's seeds pins down the execution completely, so a failing
/// production run can be shipped as a small text file and replayed
/// under any detector.
///
/// Format (text, line-oriented):
/// \code
///   svd-schedule v1
///   rndseed <N>
///   steps <N>
///   <run-length-encoded thread ids: "tid*count" or "tid", space-separated>
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SVD_VM_SCHEDULEFILE_H
#define SVD_VM_SCHEDULEFILE_H

#include "isa/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace svd {
namespace vm {

/// A recorded execution identity: the input seed plus the scheduler's
/// choices.
struct RecordedSchedule {
  uint64_t RndSeed = 0;
  std::vector<isa::ThreadId> Schedule;
};

/// Renders \p R in the text format above.
std::string serializeSchedule(const RecordedSchedule &R);

/// Parses the text format; returns false (setting \p Error) on
/// malformed input, including a declared step count above
/// MachineConfig's default step budget.
bool parseSchedule(const std::string &Text, RecordedSchedule &Out,
                   std::string &Error);

/// Writes \p R to \p Path. Returns false on I/O failure.
bool saveSchedule(const std::string &Path, const RecordedSchedule &R);

/// Reads a schedule from \p Path; returns false (setting \p Error) on
/// I/O or parse failure.
bool loadSchedule(const std::string &Path, RecordedSchedule &Out,
                  std::string &Error);

} // namespace vm
} // namespace svd

#endif // SVD_VM_SCHEDULEFILE_H
