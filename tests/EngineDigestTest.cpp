//===- tests/EngineDigestTest.cpp - Pinned VM execution digests -----------===//
//
// A pinned oracle for the VM's execution engines. For every workload of
// every named suite (harness::suiteWorkloads), under scheduler seeds
// 1-3, the test runs one row per execution mode and folds everything the
// execution produces into one FNV-1a digest:
//
//  * the event stream: kind, seq, tid, cpu, pc, address and value of
//    every observer callback, in delivery order;
//  * the schedule, the step count and the stop reason (or the injected
//    crash that ended the run);
//  * every ExecCounters field, every program error and print;
//  * the final memory.
//
// The modes cover both run loops of the translated engine: the
// fault-free row runs whole timeslices as bursts, while the fault-plan
// rows (the presets of fault::defaultPlanMatrix that act on the machine:
// a preemption storm, stalls with spurious lock failures, and a mid-run
// injected crash), the recorded-schedule replay row and the
// CPU-migration row consult something on every step and so execute one
// step at a time.
//
// The expected digests were captured from the per-step interpreter
// (MachineConfig::Translate = false). Every row is checked twice: on an
// interpreter machine and on a machine with the default engine, so the
// digests are the oracle that the two engines execute identically.
//
// On a mismatch the failure message prints the row as it should read,
// so a deliberate behaviour change re-pins by pasting the new rows.
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "harness/Harness.h"
#include "harness/Suites.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace svd;

namespace {

constexpr unsigned NumSeeds = 3;
/// The fault-plan presets the rows draw from (defaultPlanMatrix).
constexpr unsigned NumPlans = 5;
/// Step budget of every row. The suites' workloads run up to millions
/// of steps; a bounded prefix keeps the whole matrix to a few seconds
/// while still crossing many lock hand-offs, blocks and preemptions.
constexpr uint64_t MaxRowSteps = 30'000;

/// 64-bit FNV-1a over a stream of integers (little-endian bytes).
class Fnv {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void add(const std::string &S) {
    add(S.size());
    for (char C : S)
      add(static_cast<uint8_t>(C));
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// Folds every event of a run, in delivery order.
class EventFold final : public vm::ExecutionObserver {
public:
  explicit EventFold(Fnv &F) : F(F) {}

  void onLoad(const vm::EventCtx &C, isa::Addr A, isa::Word V) override {
    event(1, C, A, static_cast<uint64_t>(V));
  }
  void onStore(const vm::EventCtx &C, isa::Addr A, isa::Word V) override {
    event(2, C, A, static_cast<uint64_t>(V));
  }
  void onAlu(const vm::EventCtx &C) override { event(3, C, 0, 0); }
  void onBranch(const vm::EventCtx &C, bool Taken, uint32_t Target) override {
    event(4, C, Target, Taken);
  }
  void onLock(const vm::EventCtx &C, uint32_t M) override {
    event(5, C, M, 0);
  }
  void onUnlock(const vm::EventCtx &C, uint32_t M) override {
    event(6, C, M, 0);
  }
  void onProgramError(const vm::EventCtx &C, const char *) override {
    event(7, C, 0, 0);
  }
  void onPrint(const vm::EventCtx &C, isa::Word V) override {
    event(8, C, 0, static_cast<uint64_t>(V));
  }
  void onThreadFinished(const vm::EventCtx &C) override { event(9, C, 0, 0); }
  void onRunEnd() override { F.add(10); }

private:
  void event(uint64_t Kind, const vm::EventCtx &C, uint64_t A, uint64_t V) {
    F.add(Kind);
    F.add(C.Seq);
    F.add(C.Tid);
    F.add(C.Cpu);
    F.add(C.Pc);
    F.add(A);
    F.add(V);
  }

  Fnv &F;
};

/// Runs \p P under \p MC (following \p Replay first when set) and
/// digests the run.
uint64_t digestRun(const isa::Program &P, const vm::MachineConfig &MC,
                   const std::vector<isa::ThreadId> *Replay = nullptr) {
  Fnv F;
  EventFold Events(F);
  vm::Machine M(P, MC);
  M.addObserver(&Events);
  if (Replay)
    M.setReplaySchedule(*Replay);
  try {
    F.add(static_cast<uint64_t>(M.run()));
  } catch (const fault::InjectedCrash &) {
    F.add(~0ULL);
  }

  F.add(M.steps());
  F.add(M.schedule().size());
  for (isa::ThreadId Tid : M.schedule())
    F.add(Tid);
  const vm::ExecCounters &C = M.counters();
  for (uint64_t V : {C.Loads, C.Stores, C.Alu, C.Branches, C.LockAcquires,
                     C.LockSpins, C.Unlocks, C.ProgramErrors, C.FaultStalls,
                     C.FaultLockFailures, C.FaultPreemptions})
    F.add(V);
  F.add(M.errors().size());
  for (const vm::ProgramError &E : M.errors()) {
    F.add(E.Seq);
    F.add(E.Tid);
    F.add(E.Pc);
    F.add(E.Message);
  }
  F.add(M.printed().size());
  for (const vm::PrintedValue &V : M.printed()) {
    F.add(V.Seq);
    F.add(V.Tid);
    F.add(static_cast<uint64_t>(V.Value));
  }
  for (isa::Addr A = 0; A < P.MemoryWords; ++A)
    F.add(static_cast<uint64_t>(M.readMem(A)));
  return F.value();
}

/// The seeded sample configuration of every row: timeslices 1-4, so
/// the translated engine runs multi-step bursts.
vm::MachineConfig sampleConfig(uint64_t Seed) {
  harness::SampleConfig SC;
  SC.Seed = Seed;
  SC.MaxTimeslice = 4;
  SC.MaxSteps = MaxRowSteps;
  return harness::machineConfigFor(SC);
}

/// Row key ("suite/index:workload|mode") -> one digest per seed.
using Digests = std::map<std::string, std::vector<uint64_t>>;

/// Runs every row of \p W under \p Seed and appends one digest per row,
/// on the interpreter when \p Interpreter is set and on the default
/// engine otherwise.
void digestWorkload(const std::string &Key, const workloads::Workload &W,
                    uint64_t Seed, bool Interpreter, Digests &Out) {
  const isa::Program &P = W.Program;
  const vm::MachineConfig Base = sampleConfig(Seed);
  auto On = [&](vm::MachineConfig MC) {
    if (Interpreter)
      MC.Translate = false;
    return MC;
  };

  Out[Key + "|free"].push_back(digestRun(P, On(Base)));

  for (const fault::FaultPlanConfig &PC : fault::defaultPlanMatrix(NumPlans)) {
    // Trace, budget and frame faults leave the machine alone; their rows
    // would repeat the fault-free one.
    if (PC.StallRatePerMyriad == 0 && PC.LockFailRatePerMyriad == 0 &&
        PC.PreemptBurstEvery == 0 && PC.CrashAtStep == 0)
      continue;
    fault::FaultPlan Plan(PC, Seed);
    vm::MachineConfig MC = Base;
    MC.Faults = &Plan;
    Out[Key + "|" + PC.Name].push_back(digestRun(P, On(MC)));
  }

  // Replay: the interpreter records a run under a different scheduler
  // seed; the row's machine follows that recording step by step.
  vm::MachineConfig RecMC = Base;
  RecMC.SchedSeed = Seed + 100;
  RecMC.Translate = false;
  vm::Machine Rec(P, RecMC);
  Rec.run();
  Out[Key + "|replay"].push_back(digestRun(P, On(Base), &Rec.schedule()));

  vm::MachineConfig Migrate = Base;
  Migrate.NumCpus = 2;
  Migrate.MigrationInterval = 40;
  Out[Key + "|migrate"].push_back(digestRun(P, On(Migrate)));
}

struct Row {
  const char *Key;
  uint64_t Digest[NumSeeds];
};

// Captured from the per-step interpreter; see the file comment.
const Row Expected[] = {
    {"fig1/0:MySQL-tablelock|free",
     {0xf5c044ee64326c6aULL, 0xae23e812172a1d80ULL, 0xe1f8b19fcd9f3be7ULL}},
    {"fig1/0:MySQL-tablelock|mid-run-crash",
     {0xdf463ab4fdc5ff5dULL, 0x0314b03a29f540bdULL, 0xa76f1104f6d7a8b6ULL}},
    {"fig1/0:MySQL-tablelock|migrate",
     {0x0f732bf1c43ac714ULL, 0x6bbb0e2d043d8d46ULL, 0x3d0e0dc9ee869f4cULL}},
    {"fig1/0:MySQL-tablelock|preempt-storm",
     {0xcf456e8a1672d873ULL, 0x5dbd43360b8cb681ULL, 0x917d22112ed3935bULL}},
    {"fig1/0:MySQL-tablelock|replay",
     {0x2bdcbcc62ebde8daULL, 0x313543fc72d132c1ULL, 0xae053f2ee22ec16aULL}},
    {"fig1/0:MySQL-tablelock|stall-lockfail",
     {0xcd02dfaa265e31b2ULL, 0xe51f1123fa33a5b4ULL, 0x9f8ba4656c071fbfULL}},
    {"interproc/0:ProcCache|free",
     {0x2e213b40e682dac3ULL, 0x2628f8cfadda3559ULL, 0xa4d6b125de5e1e65ULL}},
    {"interproc/0:ProcCache|mid-run-crash",
     {0xf3032cfa28259274ULL, 0xe4deeaea4615726aULL, 0x48bfab75168e2d96ULL}},
    {"interproc/0:ProcCache|migrate",
     {0x015e541b9a2c46f2ULL, 0x35649303b8e7842cULL, 0x6911011d467e2f85ULL}},
    {"interproc/0:ProcCache|preempt-storm",
     {0x0f328507fee1fc65ULL, 0x4970ac006e0432fbULL, 0x3068ebac54087eb0ULL}},
    {"interproc/0:ProcCache|replay",
     {0xf9306146f426d843ULL, 0x579729b9057f5336ULL, 0x420663b545850713ULL}},
    {"interproc/0:ProcCache|stall-lockfail",
     {0x57e2be1375ca5713ULL, 0x32de2f8492d298beULL, 0x3d35687259257ffbULL}},
    {"interproc/1:ProcGap|free",
     {0x36d3311233a64276ULL, 0x8e4c7d164fcd339dULL, 0x65228c00693e6dcbULL}},
    {"interproc/1:ProcGap|mid-run-crash",
     {0xddb0625a4d51aabaULL, 0x68c5f1b27db3dccbULL, 0x126c806d58215bbbULL}},
    {"interproc/1:ProcGap|migrate",
     {0xf1fa53761dfb4b4aULL, 0xad1b81b194b1f48cULL, 0xff77b4830fdf84e6ULL}},
    {"interproc/1:ProcGap|preempt-storm",
     {0xab9488983eca0677ULL, 0x0e7d9da490a18f40ULL, 0xe0bd071567fa0cf8ULL}},
    {"interproc/1:ProcGap|replay",
     {0x6517c67aa63c0586ULL, 0x28d27b031eb946cdULL, 0x1d8bd529b01aba35ULL}},
    {"interproc/1:ProcGap|stall-lockfail",
     {0x549a8f9856cf10f8ULL, 0x5755f4d3d28b5f07ULL, 0x97806705abbc182fULL}},
    {"predict/0:Apache|free",
     {0x5ab0ed76b5c79188ULL, 0x799345c8146935a9ULL, 0x75bab4e84c2e4036ULL}},
    {"predict/0:Apache|mid-run-crash",
     {0xbc03810ed2f41a33ULL, 0xaef68f7c9e5dc3d3ULL, 0xfb00c5158919455cULL}},
    {"predict/0:Apache|migrate",
     {0xf2ab865025596d51ULL, 0xe5b9e9fd23d91395ULL, 0x9cf1f7fa1039fec2ULL}},
    {"predict/0:Apache|preempt-storm",
     {0x36ec046b351559bbULL, 0xbc9a17c159601ec6ULL, 0xa5e83d17202dd927ULL}},
    {"predict/0:Apache|replay",
     {0x1f1fdb43fee85154ULL, 0x7406ab342a4568d5ULL, 0x50f9af9c96661a93ULL}},
    {"predict/0:Apache|stall-lockfail",
     {0xc0bf9cc5f89ccc70ULL, 0x52602a6401424affULL, 0xfa63dcae75fe3830ULL}},
    {"predict/1:MySQL|free",
     {0x3402eed49d01ba80ULL, 0x1dcbaada4fbb4325ULL, 0x21b7233af5f07056ULL}},
    {"predict/1:MySQL|mid-run-crash",
     {0xabf352af6b90199bULL, 0x80b3406637e9d0a6ULL, 0x3864eb358d21ebdcULL}},
    {"predict/1:MySQL|migrate",
     {0xb70057b22e4480a1ULL, 0x97649eb6fb4e6ac8ULL, 0x784ec521f7be138bULL}},
    {"predict/1:MySQL|preempt-storm",
     {0x99cf74d2dff51b0eULL, 0x3591ff83d0dd1fa1ULL, 0xc50d1a2033991a9cULL}},
    {"predict/1:MySQL|replay",
     {0x21fad3d29f01f271ULL, 0xd2e5487670e53c71ULL, 0x64dcb10aca62bb25ULL}},
    {"predict/1:MySQL|stall-lockfail",
     {0x4c9847f2ae20960bULL, 0x84eed888d6ea4e90ULL, 0xd7a0b93e6a16e1edULL}},
    {"predict/2:PgSQL|free",
     {0x9fc0872906ee20e2ULL, 0x710b3527b0168023ULL, 0xe9633177fa64aa84ULL}},
    {"predict/2:PgSQL|mid-run-crash",
     {0x2b072212ea40c274ULL, 0x6e09cb58ffe708acULL, 0xfa8cd6b930b3a542ULL}},
    {"predict/2:PgSQL|migrate",
     {0x4c2f297258656776ULL, 0xc05422030a410cf7ULL, 0x144d9805e5a40c75ULL}},
    {"predict/2:PgSQL|preempt-storm",
     {0x515866f95409bf64ULL, 0xff00770ffae8a382ULL, 0xf2df9e705b51dd5aULL}},
    {"predict/2:PgSQL|replay",
     {0xf70cdd4f747a01faULL, 0xad67dd599e286dd2ULL, 0x57bc27202a53fd83ULL}},
    {"predict/2:PgSQL|stall-lockfail",
     {0x18dc0321b4a7e25fULL, 0x9ec56f373f411048ULL, 0x765f50057b74594fULL}},
    {"sec73/0:PgSQL|free",
     {0xd923cc1558e19cc1ULL, 0xeaf67f0645dd8a26ULL, 0xd6ec282b7e9718c1ULL}},
    {"sec73/0:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x31ccc3b5937effc1ULL}},
    {"sec73/0:PgSQL|migrate",
     {0x2e6b6c7fded6d558ULL, 0xf8ced01c6480b1daULL, 0x5a1d068af4e1e30aULL}},
    {"sec73/0:PgSQL|preempt-storm",
     {0x3b00f5c93102370bULL, 0x40deffdc97703d2aULL, 0x1f5d78b944b5209bULL}},
    {"sec73/0:PgSQL|replay",
     {0x6cd86c4afd99a3acULL, 0xd9760374861a4612ULL, 0xb5ee8b0e45ca2edbULL}},
    {"sec73/0:PgSQL|stall-lockfail",
     {0xa3c1456a1dbcaed6ULL, 0xfbe37d62a8a3ec0dULL, 0x2b5d33a1351eadb5ULL}},
    {"sec73/1:PgSQL|free",
     {0x2d566e142ac00046ULL, 0x1147218ba941d545ULL, 0x0d9db080931f7582ULL}},
    {"sec73/1:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x31ccc3b5937effc1ULL}},
    {"sec73/1:PgSQL|migrate",
     {0x8c14db4cda5ba3beULL, 0x594455ee79dbad9fULL, 0x04e0b03f3569f6ddULL}},
    {"sec73/1:PgSQL|preempt-storm",
     {0xc735b011fe1fe109ULL, 0xdb19eb34f8d4af63ULL, 0xda8e804722cf14edULL}},
    {"sec73/1:PgSQL|replay",
     {0xd42d2f645a75054aULL, 0xcf3b9f54417f9e0cULL, 0x562f32bba4004a58ULL}},
    {"sec73/1:PgSQL|stall-lockfail",
     {0xf9df3b1231fc2328ULL, 0x5edb00ae8caae02dULL, 0x6490bc5a68be433aULL}},
    {"sec73/2:PgSQL|free",
     {0x7624f6effba10de4ULL, 0xa1e6465a47ee0275ULL, 0x42b12f20b165f2b9ULL}},
    {"sec73/2:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x31ccc3b5937effc1ULL}},
    {"sec73/2:PgSQL|migrate",
     {0x58f3a908f91f0764ULL, 0xcdbbd65b2d0ebffdULL, 0xe26cb9c8b71e5299ULL}},
    {"sec73/2:PgSQL|preempt-storm",
     {0x065a69a0fff927e5ULL, 0xfe454316ceabd558ULL, 0xcfd73531d9558443ULL}},
    {"sec73/2:PgSQL|replay",
     {0x8267933bb2bb066bULL, 0xafca2bb933720d28ULL, 0x7f3a779b2c711249ULL}},
    {"sec73/2:PgSQL|stall-lockfail",
     {0x3d8d177a12dab8eeULL, 0x5361049dc4b108fbULL, 0xed9cdd51a19a98b9ULL}},
    {"sec73/3:PgSQL|free",
     {0x7624f6effba10de4ULL, 0xa1e6465a47ee0275ULL, 0x42b12f20b165f2b9ULL}},
    {"sec73/3:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x31ccc3b5937effc1ULL}},
    {"sec73/3:PgSQL|migrate",
     {0x58f3a908f91f0764ULL, 0xcdbbd65b2d0ebffdULL, 0xe26cb9c8b71e5299ULL}},
    {"sec73/3:PgSQL|preempt-storm",
     {0x065a69a0fff927e5ULL, 0xfe454316ceabd558ULL, 0xcfd73531d9558443ULL}},
    {"sec73/3:PgSQL|replay",
     {0x8267933bb2bb066bULL, 0xafca2bb933720d28ULL, 0x7f3a779b2c711249ULL}},
    {"sec73/3:PgSQL|stall-lockfail",
     {0x3d8d177a12dab8eeULL, 0x5361049dc4b108fbULL, 0xed9cdd51a19a98b9ULL}},
    {"sec73/4:PgSQL|free",
     {0x7624f6effba10de4ULL, 0xa1e6465a47ee0275ULL, 0x42b12f20b165f2b9ULL}},
    {"sec73/4:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x31ccc3b5937effc1ULL}},
    {"sec73/4:PgSQL|migrate",
     {0x58f3a908f91f0764ULL, 0xcdbbd65b2d0ebffdULL, 0xe26cb9c8b71e5299ULL}},
    {"sec73/4:PgSQL|preempt-storm",
     {0x065a69a0fff927e5ULL, 0xfe454316ceabd558ULL, 0xcfd73531d9558443ULL}},
    {"sec73/4:PgSQL|replay",
     {0x8267933bb2bb066bULL, 0xafca2bb933720d28ULL, 0x7f3a779b2c711249ULL}},
    {"sec73/4:PgSQL|stall-lockfail",
     {0x3d8d177a12dab8eeULL, 0x5361049dc4b108fbULL, 0xed9cdd51a19a98b9ULL}},
    {"sec73/5:PgSQL|free",
     {0x7624f6effba10de4ULL, 0xa1e6465a47ee0275ULL, 0x42b12f20b165f2b9ULL}},
    {"sec73/5:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x31ccc3b5937effc1ULL}},
    {"sec73/5:PgSQL|migrate",
     {0x58f3a908f91f0764ULL, 0xcdbbd65b2d0ebffdULL, 0xe26cb9c8b71e5299ULL}},
    {"sec73/5:PgSQL|preempt-storm",
     {0x065a69a0fff927e5ULL, 0xfe454316ceabd558ULL, 0xcfd73531d9558443ULL}},
    {"sec73/5:PgSQL|replay",
     {0x8267933bb2bb066bULL, 0xafca2bb933720d28ULL, 0x7f3a779b2c711249ULL}},
    {"sec73/5:PgSQL|stall-lockfail",
     {0x3d8d177a12dab8eeULL, 0x5361049dc4b108fbULL, 0xed9cdd51a19a98b9ULL}},
    {"serve/0:Apache|free",
     {0x2de44bf3ac9d80b4ULL, 0xb5de015cebe689a9ULL, 0xa205d08515d8a9f9ULL}},
    {"serve/0:Apache|mid-run-crash",
     {0x67edff12502f41deULL, 0x690b52330eae6a8dULL, 0xffb7bb9e6a119fefULL}},
    {"serve/0:Apache|migrate",
     {0x64362c6e853df8a3ULL, 0xa1196afd0c94fb85ULL, 0xba9474ffcd98d976ULL}},
    {"serve/0:Apache|preempt-storm",
     {0xf886ac11f743a130ULL, 0x854d589c2345f27bULL, 0xf84a8c935f33d924ULL}},
    {"serve/0:Apache|replay",
     {0xbb0bcd8c5292c26bULL, 0x41ebd7480c22e3cdULL, 0x02e57a4cc0d80269ULL}},
    {"serve/0:Apache|stall-lockfail",
     {0x428351e3e4a7d896ULL, 0x70d0ac00a4f8ec08ULL, 0x35c129fef26693c3ULL}},
    {"serve/1:MySQL|free",
     {0x9e60b5c5a009499fULL, 0x5612492f601a20daULL, 0xcf78643e971b2016ULL}},
    {"serve/1:MySQL|mid-run-crash",
     {0x59a01a26196f331eULL, 0xe9df76e63b54fc6dULL, 0x170bba35ffd3aad9ULL}},
    {"serve/1:MySQL|migrate",
     {0xca87c0ec3d7517c8ULL, 0x0ef5128e20d3c868ULL, 0xd4371d98335ebea6ULL}},
    {"serve/1:MySQL|preempt-storm",
     {0x59f48da96b24a2fbULL, 0x80aa65fa728ae2a6ULL, 0x43005d2277471786ULL}},
    {"serve/1:MySQL|replay",
     {0x7fd59b0efd85647dULL, 0x8de7729a4b7af211ULL, 0x8d3d2b25aa472abcULL}},
    {"serve/1:MySQL|stall-lockfail",
     {0xac7215b86492368aULL, 0x9cd51f9fa3b3b9dcULL, 0x09beaa724977d06eULL}},
    {"serve/2:PgSQL|free",
     {0xc9bebab715ecf9b1ULL, 0x3e1b31ee7ddd90d9ULL, 0x1fe49cbf03d9acb6ULL}},
    {"serve/2:PgSQL|mid-run-crash",
     {0xf197b10da1fbe6f2ULL, 0xb7d765e702379e68ULL, 0x6588ac0f18ad55dcULL}},
    {"serve/2:PgSQL|migrate",
     {0xae94f93239796655ULL, 0xd9524d5cd3a1d88fULL, 0x99de6a778991b5e9ULL}},
    {"serve/2:PgSQL|preempt-storm",
     {0x78ec9d438d835ddcULL, 0x54dad928215cd389ULL, 0x73d74f33be555315ULL}},
    {"serve/2:PgSQL|replay",
     {0x9fea20798782484eULL, 0x46925da8914cb54aULL, 0x0088d461997ebd8dULL}},
    {"serve/2:PgSQL|stall-lockfail",
     {0xc6dc951303341bf0ULL, 0x2a389920ce1cad21ULL, 0xcbf5c73c8505f545ULL}},
    {"shadow/0:SparseSlabSweep|free",
     {0x1b1367f520dd168cULL, 0x8fbfe4e5ea173717ULL, 0x509823889ae3491aULL}},
    {"shadow/0:SparseSlabSweep|mid-run-crash",
     {0xfedd33e854060e27ULL, 0xe97675eaa3b9c239ULL, 0xee6a1a43a0bd3be6ULL}},
    {"shadow/0:SparseSlabSweep|migrate",
     {0x0ddb8f6ea241db4bULL, 0xcecd09d8fe60dc3bULL, 0x9ce4cd9720db1f00ULL}},
    {"shadow/0:SparseSlabSweep|preempt-storm",
     {0xe8434c9ed0afe237ULL, 0xd8786ceefab9b2cdULL, 0xe8dcd4cf26159adbULL}},
    {"shadow/0:SparseSlabSweep|replay",
     {0xf9cb0e8681cbd307ULL, 0x145ea8e480a2b6c8ULL, 0xd39848d9636cb2b4ULL}},
    {"shadow/0:SparseSlabSweep|stall-lockfail",
     {0x1f1091b1a0855b8eULL, 0xf5559b729c3a9f6dULL, 0x7fd5a6cfb9f76421ULL}},
    {"shadow/1:SparseSlabSweep|free",
     {0x7aebaaf13a45d279ULL, 0x50d6d4d9d54e6263ULL, 0xcbb536977f07784dULL}},
    {"shadow/1:SparseSlabSweep|mid-run-crash",
     {0xccab7790881ca62aULL, 0x1aee6e7b0c4bd53dULL, 0xe0845683b57529d1ULL}},
    {"shadow/1:SparseSlabSweep|migrate",
     {0xac61e3e691a7d0dfULL, 0xda5e3fca3d6f42d2ULL, 0x6718cb83144c9376ULL}},
    {"shadow/1:SparseSlabSweep|preempt-storm",
     {0x9899a6ff27f1f7f0ULL, 0xf4d33d5b7ff60933ULL, 0x1f2a48bf2f3552c4ULL}},
    {"shadow/1:SparseSlabSweep|replay",
     {0x4da01bae03b2c658ULL, 0x72686bfadd7cbc9aULL, 0xd4afec73487caf52ULL}},
    {"shadow/1:SparseSlabSweep|stall-lockfail",
     {0xc578c8f7925d3b65ULL, 0xf6684283d8497983ULL, 0xe5a5c5a34c92ade0ULL}},
    {"shadow/2:StridedScatter|free",
     {0x5de025301a1640f4ULL, 0x99bf7799369df73dULL, 0x9d29e537363e2459ULL}},
    {"shadow/2:StridedScatter|mid-run-crash",
     {0xe565bd4b8abc997eULL, 0xf47bbec34f3901adULL, 0x43fe56ce6e8fa7bfULL}},
    {"shadow/2:StridedScatter|migrate",
     {0xacd663d706d7fb9bULL, 0xc75b0663ce9bd329ULL, 0xce422e891558047fULL}},
    {"shadow/2:StridedScatter|preempt-storm",
     {0x81864e6a7cae5908ULL, 0x842a23f71fd8458aULL, 0xdf542629bc2565dfULL}},
    {"shadow/2:StridedScatter|replay",
     {0x2707fc12fa26b434ULL, 0x435dfeab2ffe84eaULL, 0xa33bd217a2cefdcbULL}},
    {"shadow/2:StridedScatter|stall-lockfail",
     {0x87b4b0ad8cc2cd5aULL, 0x50d94ebe950006e2ULL, 0x7d754f055cdd1b21ULL}},
    {"table1/0:Apache|free",
     {0x7eebe1204205ca93ULL, 0xdac8111b72108270ULL, 0x90adee5cd14d5660ULL}},
    {"table1/0:Apache|mid-run-crash",
     {0x58b45e18391559deULL, 0xff54509f863a8e8dULL, 0x712f598bc04cdc6bULL}},
    {"table1/0:Apache|migrate",
     {0x4671a376c4e708f4ULL, 0x80c45249e7dd989eULL, 0xca198950c4f4f34aULL}},
    {"table1/0:Apache|preempt-storm",
     {0x453feffe480163e2ULL, 0xec992ffcf88a9908ULL, 0x9a9f1e8a78103ac5ULL}},
    {"table1/0:Apache|replay",
     {0x9fc2e853d2bbda97ULL, 0xb9486226ed431be2ULL, 0x14126f6e4649ff87ULL}},
    {"table1/0:Apache|stall-lockfail",
     {0xe3973cfbf16871fdULL, 0x16f3a54470e75a17ULL, 0x89f70e40e7d31f7aULL}},
    {"table1/1:MySQL|free",
     {0x2b7635604441ef2aULL, 0x86373e5a747350c3ULL, 0x95fd15f2412236a2ULL}},
    {"table1/1:MySQL|mid-run-crash",
     {0x59a01a26196f331eULL, 0xe9df76e63b54fc6dULL, 0x79534fb39840a38bULL}},
    {"table1/1:MySQL|migrate",
     {0x18be4c0344600796ULL, 0x48db15f64b875fb5ULL, 0x8844e8e3eb8b6af5ULL}},
    {"table1/1:MySQL|preempt-storm",
     {0xafed4fb03e3b5a72ULL, 0x48ae8eb5980d054bULL, 0x2b966075b5f85c6eULL}},
    {"table1/1:MySQL|replay",
     {0xba81b2fb331ba6cdULL, 0xfd5f5fecc568e895ULL, 0x88be134a11b0bcceULL}},
    {"table1/1:MySQL|stall-lockfail",
     {0x8e5191223f404ec5ULL, 0x8e616598ebef315bULL, 0x799337358892c668ULL}},
    {"table1/2:PgSQL|free",
     {0x35a169b67c9b2aa1ULL, 0x4d8ae3b8e631686fULL, 0x6e565355cc12b667ULL}},
    {"table1/2:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x225d8aba1a3e865aULL}},
    {"table1/2:PgSQL|migrate",
     {0x0d222cb36da34a33ULL, 0xf6c38f6bb7606db7ULL, 0x9ec04ef157d7de18ULL}},
    {"table1/2:PgSQL|preempt-storm",
     {0x4b5103281d541c08ULL, 0xc684be0a0579b3e8ULL, 0xe43b7decb18da6f4ULL}},
    {"table1/2:PgSQL|replay",
     {0xf0bc1402aa39f011ULL, 0xbc2677d17feb6eacULL, 0x0e2009fc00166562ULL}},
    {"table1/2:PgSQL|stall-lockfail",
     {0xfbbcafd076a77011ULL, 0x1f65134286862fadULL, 0x5ee0d1a7407edd6cULL}},
    {"table2/0:Apache|free",
     {0xb1b8729553fde500ULL, 0x8e58b1f2b3d4ab8eULL, 0x59d8cb1654d46997ULL}},
    {"table2/0:Apache|mid-run-crash",
     {0x098c5996d59ca1deULL, 0x334c2b9f3c3e7a8dULL, 0x1b85d1ab4f88106bULL}},
    {"table2/0:Apache|migrate",
     {0xf5e1b20f51cff329ULL, 0x0e77879022d6aa2bULL, 0x8448034ee4cc9534ULL}},
    {"table2/0:Apache|preempt-storm",
     {0xad1b7b31a47c986dULL, 0x99d60288dba6f616ULL, 0xfd4106a676810f39ULL}},
    {"table2/0:Apache|replay",
     {0x68532ae5a81fc924ULL, 0xb08e8ba2de89c70cULL, 0x28d41240643b0d15ULL}},
    {"table2/0:Apache|stall-lockfail",
     {0xcbb76066a5def4b8ULL, 0xb64268f94a1ff874ULL, 0xacaf6f3aac23d906ULL}},
    {"table2/1:MySQL|free",
     {0x2b7635604441ef2aULL, 0x86373e5a747350c3ULL, 0x95fd15f2412236a2ULL}},
    {"table2/1:MySQL|mid-run-crash",
     {0x59a01a26196f331eULL, 0xe9df76e63b54fc6dULL, 0x79534fb39840a38bULL}},
    {"table2/1:MySQL|migrate",
     {0x18be4c0344600796ULL, 0x48db15f64b875fb5ULL, 0x8844e8e3eb8b6af5ULL}},
    {"table2/1:MySQL|preempt-storm",
     {0xafed4fb03e3b5a72ULL, 0x48ae8eb5980d054bULL, 0x2b966075b5f85c6eULL}},
    {"table2/1:MySQL|replay",
     {0xba81b2fb331ba6cdULL, 0xfd5f5fecc568e895ULL, 0x88be134a11b0bcceULL}},
    {"table2/1:MySQL|stall-lockfail",
     {0x8e5191223f404ec5ULL, 0x8e616598ebef315bULL, 0x799337358892c668ULL}},
    {"table2/2:PgSQL|free",
     {0x35a169b67c9b2aa1ULL, 0x4d8ae3b8e631686fULL, 0x6e565355cc12b667ULL}},
    {"table2/2:PgSQL|mid-run-crash",
     {0x92e1535c24df9105ULL, 0x205694a08f2578c2ULL, 0x225d8aba1a3e865aULL}},
    {"table2/2:PgSQL|migrate",
     {0x0d222cb36da34a33ULL, 0xf6c38f6bb7606db7ULL, 0x9ec04ef157d7de18ULL}},
    {"table2/2:PgSQL|preempt-storm",
     {0x4b5103281d541c08ULL, 0xc684be0a0579b3e8ULL, 0xe43b7decb18da6f4ULL}},
    {"table2/2:PgSQL|replay",
     {0xf0bc1402aa39f011ULL, 0xbc2677d17feb6eacULL, 0x0e2009fc00166562ULL}},
    {"table2/2:PgSQL|stall-lockfail",
     {0xfbbcafd076a77011ULL, 0x1f65134286862fadULL, 0x5ee0d1a7407edd6cULL}},
};

std::string formatRow(const std::string &Key,
                      const std::vector<uint64_t> &Ds) {
  std::string S = "    {\"" + Key + "\",\n     {";
  char Buf[32];
  for (size_t I = 0; I < Ds.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s0x%016" PRIx64 "ULL",
                  I ? ", " : "", Ds[I]);
    S += Buf;
  }
  return S + "}},";
}

const char *const Suites[] = {"table1", "table2",    "sec73",
                              "fig1",   "interproc", "predict",
                              "shadow", "serve"};

} // namespace

TEST(EngineDigest, MatchesPinnedOutputs) {
  std::map<std::string, const Row *> Pinned;
  for (const Row &R : Expected)
    Pinned[R.Key] = &R;

  for (bool Interpreter : {true, false}) {
    const char *EngineName = Interpreter ? "interpreter" : "default engine";
    Digests Actual;
    for (const char *Suite : Suites) {
      std::vector<workloads::Workload> Ws = harness::suiteWorkloads(Suite);
      ASSERT_FALSE(Ws.empty()) << Suite;
      // sec73 repeats one workload at several sizes, so the key carries
      // the workload's index as well as its name.
      for (size_t I = 0; I < Ws.size(); ++I)
        for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed)
          digestWorkload(std::string(Suite) + "/" + std::to_string(I) + ":" +
                             Ws[I].Name,
                         Ws[I], Seed, Interpreter, Actual);
    }

    std::string Repin;
    for (const auto &[Key, Ds] : Actual) {
      ASSERT_EQ(Ds.size(), NumSeeds) << Key;
      auto It = Pinned.find(Key);
      bool Same = It != Pinned.end();
      for (unsigned I = 0; Same && I < NumSeeds; ++I)
        Same = It->second->Digest[I] == Ds[I];
      EXPECT_TRUE(Same) << Key << " diverged on the " << EngineName;
      if (!Same)
        Repin += formatRow(Key, Ds) + "\n";
    }
    EXPECT_EQ(Actual.size(), Pinned.size())
        << "pinned rows without a run on the " << EngineName;
    EXPECT_TRUE(Repin.empty())
        << "rows as they now read on the " << EngineName << ":\n"
        << Repin;
  }
}
