//===- ber/Recovery.cpp ---------------------------------------------------===//

#include "ber/Recovery.h"

using namespace svd;
using namespace svd::ber;
using detect::OnlineSvd;
using detect::Violation;

namespace {

/// Number of retained checkpoints (deeper rollbacks need older ones).
constexpr size_t RetainedCheckpoints = 4;
/// Per static report site: after this many rollbacks triggered by the
/// same code-location pair, stop recovering for it (alert-only). This
/// bounds the cost of *recurring* false positives, which re-fire under
/// any scheduling and would otherwise roll back forever.
constexpr uint32_t RollbacksPerSite = 3;

} // namespace

RecoveryManager::RecoveryManager(const isa::Program &P,
                                 vm::MachineConfig MC, RecoveryConfig RC)
    : Prog(P), RC(RC), M(P, MC),
      Detector(std::make_unique<OnlineSvd>(P, RC.SvdConfig)) {
  M.addObserver(Detector.get());
}

RecoveryManager::~RecoveryManager() = default;

void RecoveryManager::takeSnapshot() {
  Snapshot S;
  S.Cp = M.checkpoint();
  S.Detector = std::make_unique<OnlineSvd>(*Detector);
  S.ViolationsHandled = Detector->violations().size();
  Snapshots.push_back(std::move(S));
  while (Snapshots.size() > RetainedCheckpoints)
    Snapshots.pop_front();
  LastCheckpointStep = M.steps();
  ++Stats.Checkpoints;
}

bool RecoveryManager::rollback() {
  const Violation &V = Detector->violations().back();
  uint64_t DetectStep = M.steps();

  // Reports that keep recurring at the same code pair despite rollbacks
  // are not fixable by re-scheduling; stop paying for them. The counter
  // resets whenever a re-execution makes it past the window, so fresh
  // instances at the same site are still recovered.
  uint32_t &Spent = SiteRollbacks[V.staticKey()];
  if (Spent >= RollbacksPerSite)
    return false;
  ++Spent;
  PendingSiteKey = V.staticKey();
  HavePendingSite = true;

  // Choose the newest snapshot that precedes the reported conflict, so
  // the restored state does not already contain the bad interleaving.
  // Repeated rollbacks inside the serial window escalate to older
  // snapshots. If even the oldest retained snapshot postdates the
  // conflict, rolling back cannot avoid it (the restored detector would
  // re-report immediately): fall back to alert-only for this report.
  bool Found = false;
  size_t Pick = 0;
  for (size_t I = Snapshots.size(); I-- > 0;) {
    if (Snapshots[I].Cp.Steps <= V.OtherSeq) {
      Pick = I;
      Found = true;
      break;
    }
  }
  if (!Found)
    return false;
  if (InSerialWindow && Pick > 0)
    --Pick; // escalate: the previous choice did not avoid the error

  Snapshot &S = Snapshots[Pick];
  Stats.WastedSteps += DetectStep - S.Cp.Steps;
  ++Stats.Rollbacks;

  M.restore(S.Cp);
  M.removeObserver(Detector.get());
  Detector = std::make_unique<OnlineSvd>(*S.Detector);
  M.addObserver(Detector.get());
  ViolationsHandled = S.ViolationsHandled;
  LastCheckpointStep = S.Cp.Steps;

  // Re-execute the rolled-back window (plus slack) serially.
  InSerialWindow = true;
  SerialUntil = DetectStep + RC.SerialSlack;
  M.setSerialMode(true);

  // Snapshots newer than the restored one describe discarded futures.
  while (Snapshots.size() > Pick + 1)
    Snapshots.pop_back();
  return true;
}

RecoveryStats RecoveryManager::run() {
  takeSnapshot(); // step-0 safe point
  for (;;) {
    vm::StopReason R = M.runUntil([&] {
      // Leave the serial window once the rolled-back region is past;
      // that counts as a successful recovery for the pending site.
      if (InSerialWindow && M.steps() >= SerialUntil) {
        InSerialWindow = false;
        M.setSerialMode(false);
        if (HavePendingSite) {
          SiteRollbacks[PendingSiteKey] = 0;
          HavePendingSite = false;
        }
        ConsecutiveDeadlocks = 0;
        takeSnapshot();
      }
      if (Detector->violations().size() > ViolationsHandled)
        return true;
      if (!InSerialWindow &&
          M.steps() - LastCheckpointStep >= RC.CheckpointInterval)
        takeSnapshot();
      return false;
    });

    if (R == vm::StopReason::Deadlock && Stats.Rollbacks < RC.MaxRollbacks &&
        !Snapshots.empty()) {
      // Break the lock-order cycle: restore a snapshot and re-execute
      // serially past the deadlock point. A snapshot taken after the
      // cycle partially formed re-deadlocks even serially, so repeated
      // deadlock recoveries escalate to older snapshots (serial
      // execution from a lock-free point cannot deadlock on our ISA).
      size_t Back =
          std::min<size_t>(ConsecutiveDeadlocks, Snapshots.size() - 1);
      size_t Pick = Snapshots.size() - 1 - Back;
      while (Snapshots.size() > Pick + 1)
        Snapshots.pop_back();
      ++ConsecutiveDeadlocks;
      Snapshot &S = Snapshots.back();
      uint64_t DeadlockStep = M.steps();
      Stats.WastedSteps += DeadlockStep - S.Cp.Steps;
      ++Stats.Rollbacks;
      ++Stats.DeadlockRecoveries;
      M.restore(S.Cp);
      M.removeObserver(Detector.get());
      Detector = std::make_unique<OnlineSvd>(*S.Detector);
      M.addObserver(Detector.get());
      ViolationsHandled = S.ViolationsHandled;
      LastCheckpointStep = S.Cp.Steps;
      InSerialWindow = true;
      SerialUntil = DeadlockStep + RC.SerialSlack;
      M.setSerialMode(true);
      continue;
    }

    if (R != vm::StopReason::Paused) {
      // Natural end of the run.
      Stats.Completed = R == vm::StopReason::AllHalted;
      Stats.Stop = R;
      break;
    }

    // A violation fired.
    Stats.ViolationsSeen +=
        Detector->violations().size() - ViolationsHandled;
    if (Stats.Rollbacks >= RC.MaxRollbacks || !rollback()) {
      // Unrecoverable (or budget exhausted): alert-only for this report.
      ViolationsHandled = Detector->violations().size();
      continue;
    }
  }
  Stats.FinalSteps = M.steps();
  M.notifyRunEnd();
  return Stats;
}
