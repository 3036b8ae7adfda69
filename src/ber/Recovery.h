//===- ber/Recovery.h - Backward error recovery integration ----*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline use case (Sections 1-2): couple SVD with a
/// backward-error-recovery (BER) mechanism — the role ReVive/SafetyNet
/// play in hardware — so that detected serializability violations
/// trigger a rollback to a safe checkpoint followed by a *more serial*
/// re-execution that avoids the erroneous interleaving.
///
/// RecoveryManager periodically snapshots both the machine state and the
/// detector state (hardware BER would roll back SVD's cache-resident
/// metadata the same way). On a violation it restores the newest
/// snapshot taken before the reported conflict began (Violation::
/// OtherSeq), re-executes the rolled-back window with serialized
/// scheduling, then resumes normal execution.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_BER_RECOVERY_H
#define SVD_BER_RECOVERY_H

#include "svd/OnlineSvd.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

namespace svd {
namespace ber {

/// Tunables of the recovery loop. A deadlock is recovered like a
/// violation: restore the newest snapshot and re-execute serially,
/// which breaks most lock-order cycles; it counts against MaxRollbacks.
struct RecoveryConfig {
  /// Steps between safe checkpoints.
  uint64_t CheckpointInterval = 2000;
  /// Extra serial steps appended beyond the rolled-back window.
  uint64_t SerialSlack = 500;
  /// Give up rolling back after this many recoveries.
  uint64_t MaxRollbacks = 64;
  detect::OnlineSvdConfig SvdConfig;
};

/// Outcome of a recovered run.
struct RecoveryStats {
  bool Completed = false;      ///< the program ran to completion
  uint64_t Rollbacks = 0;      ///< recoveries performed
  uint64_t WastedSteps = 0;    ///< work discarded by rollbacks
  uint64_t FinalSteps = 0;     ///< steps at the end of the run
  uint64_t Checkpoints = 0;    ///< snapshots taken
  size_t ViolationsSeen = 0;   ///< detector reports that fired
  uint64_t DeadlockRecoveries = 0; ///< deadlocks broken by rollback
  vm::StopReason Stop = vm::StopReason::AllHalted;
};

/// Drives one execution of \p P under SVD with detector-triggered
/// rollback. Single-use: construct, run(), inspect.
class RecoveryManager {
public:
  RecoveryManager(const isa::Program &P, vm::MachineConfig MC,
                  RecoveryConfig RC = RecoveryConfig());
  ~RecoveryManager();

  /// Runs to completion (or budget); returns the recovery statistics.
  RecoveryStats run();

  /// The underlying machine, e.g. for post-run oracles.
  const vm::Machine &machine() const { return M; }

private:
  struct Snapshot {
    vm::Checkpoint Cp;
    std::unique_ptr<detect::OnlineSvd> Detector; ///< cloned state
    size_t ViolationsHandled = 0;
  };

  void takeSnapshot();
  /// Returns false when no retained snapshot precedes the reported
  /// conflict (rolling back could not avoid it).
  bool rollback();

  const isa::Program &Prog;
  RecoveryConfig RC;
  vm::Machine M;
  std::unique_ptr<detect::OnlineSvd> Detector;
  std::deque<Snapshot> Snapshots;
  /// Consecutive failed rollbacks per static report site. Reset once the
  /// re-execution gets past the rolled-back window, so the budget only
  /// limits retries of the *same* recurring instance.
  std::unordered_map<uint64_t, uint32_t> SiteRollbacks;
  uint64_t PendingSiteKey = 0;
  bool HavePendingSite = false;
  /// Consecutive deadlock recoveries (escalates snapshot choice).
  size_t ConsecutiveDeadlocks = 0;
  size_t ViolationsHandled = 0;
  bool InSerialWindow = false;
  uint64_t SerialUntil = 0;
  uint64_t LastCheckpointStep = 0;
  RecoveryStats Stats;
};

} // namespace ber
} // namespace svd

#endif // SVD_BER_RECOVERY_H
