//===- tests/SvdFamilyDigestTest.cpp - Pinned SVD-family outputs ----------===//
//
// A pinned oracle for the two online SVD detectors (OnlineSvd and
// HardwareSvd). For every workload of the table2, fig1 and interproc
// suites, under scheduler seeds 1-3 and a matrix of detector
// configurations, the test folds every observable output into one
// FNV-1a digest:
//
//  * every field of every Violation and every CuLogEntry, in order;
//  * CUs formed and ended, filtered and pruned accesses, events;
//  * budget evictions and the degraded flag, metadata evictions
//    (hardware), shadow pages and bytes, and approximate memory.
//
// The expected digests were captured from the detectors as they stood
// before the two were rebased onto one shared Figure 7 core, so any
// behavioural drift in that core - or in either detector's policy
// layer - shows up here. The dense-vs-sparse (ShadowDiff) and
// full-vs-pruned (PruneDiff) differentials cannot catch such drift:
// they run the same code on both sides.
//
// On a mismatch the failure message prints the row as it should read,
// so a deliberate behaviour change re-pins by pasting the new rows.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "harness/Suites.h"
#include "svd/HardwareSvd.h"
#include "svd/OnlineSvd.h"
#include "vm/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace svd;

namespace {

constexpr unsigned NumSeeds = 3;

/// 64-bit FNV-1a over a stream of integers (little-endian bytes).
class Fnv {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

void addReports(Fnv &F, const std::vector<detect::Violation> &Vs,
                const std::vector<detect::CuLogEntry> &Log) {
  F.add(Vs.size());
  for (const detect::Violation &V : Vs) {
    F.add(V.Seq);
    F.add(V.Tid);
    F.add(V.Pc);
    F.add(V.OtherTid);
    F.add(V.OtherPc);
    F.add(V.OtherSeq);
    F.add(V.Address);
  }
  F.add(Log.size());
  for (const detect::CuLogEntry &E : Log) {
    F.add(E.Seq);
    F.add(E.Tid);
    F.add(E.Pc);
    F.add(E.RemoteSeq);
    F.add(E.RemoteTid);
    F.add(E.RemotePc);
    F.add(E.LocalSeq);
    F.add(E.LocalPc);
    F.add(E.Address);
  }
}

uint64_t digest(const detect::OnlineSvd &D) {
  Fnv F;
  addReports(F, D.violations(), D.cuLog());
  F.add(D.numCusFormed());
  F.add(D.numCusEnded());
  F.add(D.eventsObserved());
  F.add(D.filteredLoads());
  F.add(D.filteredStores());
  F.add(D.prunedLoads());
  F.add(D.prunedStores());
  F.add(D.budgetEvictions());
  F.add(D.degraded());
  F.add(D.shadowPages());
  F.add(D.shadowBytes());
  F.add(D.approxMemoryBytes());
  return F.value();
}

uint64_t digest(const detect::HardwareSvd &D) {
  Fnv F;
  addReports(F, D.violations(), D.cuLog());
  F.add(D.numCusFormed());
  F.add(D.numCusEnded());
  F.add(D.filteredAccesses());
  F.add(D.prunedAccesses());
  F.add(D.budgetEvictions());
  F.add(D.degraded());
  F.add(D.metadataEvictions());
  F.add(D.shadowPages());
  F.add(D.shadowBytes());
  F.add(D.metadataBits());
  return F.value();
}

/// The software detector's paper defaults and the ablation suite's
/// variants (harness/Studies.cpp), plus the pruning, budget and
/// processor-lane configurations.
std::vector<std::pair<std::string, detect::OnlineSvdConfig>>
threadKeyedSvdConfigs(const analysis::AccessTable &Table,
                      const analysis::CuProofs &Proofs) {
  std::vector<std::pair<std::string, detect::OnlineSvdConfig>> Out;
  detect::OnlineSvdConfig C;
  Out.emplace_back("svd-default", C);
  C.UseAddressDeps = false;
  Out.emplace_back("svd-no-addr", C);
  C = {};
  C.UseControlDeps = false;
  Out.emplace_back("svd-no-ctrl", C);
  C = {};
  C.Reconv = detect::OnlineSvdConfig::ReconvPolicy::Precise;
  Out.emplace_back("svd-precise", C);
  C = {};
  C.CheckInputBlocksOnly = false;
  Out.emplace_back("svd-check-ws", C);
  C = {};
  C.BlockShift = 2;
  Out.emplace_back("svd-4word", C);
  C = {};
  C.Access = &Table;
  C.Proofs = &Proofs;
  Out.emplace_back("svd-access-proofs", C);
  C = {};
  C.MaxCuEntries = 2;
  Out.emplace_back("svd-budget2", C);
  return Out;
}

detect::HardwareSvdConfig hwConfig(uint32_t Cpus, uint32_t Sets,
                                   uint32_t Ways, uint32_t LineWords) {
  detect::HardwareSvdConfig C;
  C.Cache.NumCpus = Cpus;
  C.Cache.Sets = Sets;
  C.Cache.Ways = Ways;
  C.Cache.LineWords = LineWords;
  return C;
}

std::vector<std::pair<std::string, detect::HardwareSvdConfig>>
hwConfigs(uint32_t Cpus, const analysis::AccessTable &Table,
          const analysis::CuProofs &Proofs) {
  std::vector<std::pair<std::string, detect::HardwareSvdConfig>> Out;
  Out.emplace_back("hwsvd-ideal", hwConfig(Cpus, 1024, 4, 1));
  Out.emplace_back("hwsvd-tiny", hwConfig(Cpus, 8, 2, 1));
  Out.emplace_back("hwsvd-4word", hwConfig(Cpus, 128, 4, 4));
  detect::HardwareSvdConfig B = hwConfig(Cpus, 1024, 4, 1);
  B.MaxCuEntries = 2;
  Out.emplace_back("hwsvd-budget2", B);
  detect::HardwareSvdConfig AP = hwConfig(Cpus, 1024, 4, 1);
  AP.Access = &Table;
  AP.Proofs = &Proofs;
  Out.emplace_back("hwsvd-access-proofs", AP);
  return Out;
}

using Digests = std::map<std::string, std::vector<uint64_t>>;

/// Runs every configuration of \p W under \p Seed and appends one
/// digest per configuration to \p Out (keyed "suite/workload|config").
void digestWorkload(const std::string &Key, const workloads::Workload &W,
                    uint64_t Seed, Digests &Out) {
  const isa::Program &P = W.Program;
  analysis::AccessTable Table = analysis::buildAccessTable(P);
  analysis::CuProofs Proofs = analysis::proveAtomicCus(P);

  // Thread-keyed software configurations and every hardware design
  // observe one machine run.
  {
    vm::MachineConfig MC;
    MC.SchedSeed = Seed;
    vm::Machine M(P, MC);
    std::vector<std::pair<std::string, std::unique_ptr<detect::OnlineSvd>>>
        Sw;
    for (auto &[Name, C] : threadKeyedSvdConfigs(Table, Proofs))
      Sw.emplace_back(Name, std::make_unique<detect::OnlineSvd>(P, C));
    std::vector<std::pair<std::string, std::unique_ptr<detect::HardwareSvd>>>
        Hw;
    for (auto &[Name, C] : hwConfigs(P.numThreads(), Table, Proofs))
      Hw.emplace_back(Name, std::make_unique<detect::HardwareSvd>(P, C));
    for (auto &[Name, D] : Sw)
      M.addObserver(D.get());
    for (auto &[Name, D] : Hw)
      M.addObserver(D.get());
    M.run();
    for (auto &[Name, D] : Sw)
      Out[Key + "|" + Name].push_back(digest(*D));
    for (auto &[Name, D] : Hw)
      Out[Key + "|" + Name].push_back(digest(*D));
  }

  // Processor-keyed lanes (Section 4.3): one CPU per thread, pinned,
  // and two CPUs with periodic migration.
  struct CpuDesign {
    const char *Name;
    uint32_t NumCpus;
    uint64_t MigrationInterval;
  };
  const CpuDesign Designs[] = {{"svd-cpu-pinned", P.numThreads(), 0},
                               {"svd-cpu-migrate", 2, 40}};
  for (const CpuDesign &D : Designs) {
    vm::MachineConfig MC;
    MC.SchedSeed = Seed;
    MC.NumCpus = D.NumCpus;
    MC.MigrationInterval = D.MigrationInterval;
    vm::Machine M(P, MC);
    detect::OnlineSvdConfig C;
    C.NumCpus = D.NumCpus;
    detect::OnlineSvd Svd(P, C);
    M.addObserver(&Svd);
    M.run();
    Out[Key + "|" + D.Name].push_back(digest(Svd));
  }
}

struct Row {
  const char *Key;
  uint64_t Digest[NumSeeds];
};

// Captured before the shared-core refactor; see the file comment.
const Row Expected[] = {
    {"fig1/MySQL-tablelock|hwsvd-4word",
     {0x83a90c4c09ae0f49ULL, 0x259e67f2689285bbULL, 0x6a1685aac129733dULL}},
    {"fig1/MySQL-tablelock|hwsvd-access-proofs",
     {0x63aa8f6cf8f4ae76ULL, 0xc5c2209781eb42a4ULL, 0xe632284d3d4e930aULL}},
    {"fig1/MySQL-tablelock|hwsvd-budget2",
     {0x63aa8f6cf8f4ae76ULL, 0xc5c2209781eb42a4ULL, 0xe632284d3d4e930aULL}},
    {"fig1/MySQL-tablelock|hwsvd-ideal",
     {0x63aa8f6cf8f4ae76ULL, 0xc5c2209781eb42a4ULL, 0xe632284d3d4e930aULL}},
    {"fig1/MySQL-tablelock|hwsvd-tiny",
     {0x1004034a6b253461ULL, 0x9dc11ce8d34b4d47ULL, 0x47db5ad9a5e28575ULL}},
    {"fig1/MySQL-tablelock|svd-4word",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-access-proofs",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-budget2",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-check-ws",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-cpu-migrate",
     {0xe5b4442e6b8d0272ULL, 0xec6ab5622d344827ULL, 0x7c9aa5bcd1712994ULL}},
    {"fig1/MySQL-tablelock|svd-cpu-pinned",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-default",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-no-addr",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-no-ctrl",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"fig1/MySQL-tablelock|svd-precise",
     {0x5747ba50877d957cULL, 0xa52938872263862fULL, 0xa52938872263862fULL}},
    {"interproc/ProcCache|hwsvd-4word",
     {0xff50307258baf5b0ULL, 0x0346ce7ae7aef8a8ULL, 0x99d9d273839b28dfULL}},
    {"interproc/ProcCache|hwsvd-access-proofs",
     {0x9699c77364bb9c1aULL, 0x9699c77364bb9c1aULL, 0x9699c77364bb9c1aULL}},
    {"interproc/ProcCache|hwsvd-budget2",
     {0xf3204ecce1fc5adbULL, 0xf93a451812123993ULL, 0x2b3f633f470f9418ULL}},
    {"interproc/ProcCache|hwsvd-ideal",
     {0xf3204ecce1fc5adbULL, 0xf93a451812123993ULL, 0x2b3f633f470f9418ULL}},
    {"interproc/ProcCache|hwsvd-tiny",
     {0x4d1523a0447735b8ULL, 0x521d6dca23fc2690ULL, 0xdde55e0299572f2bULL}},
    {"interproc/ProcCache|svd-4word",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcCache|svd-access-proofs",
     {0x35f31de422f1f5f2ULL, 0x35f31de422f1f5f2ULL, 0x35f31de422f1f5f2ULL}},
    {"interproc/ProcCache|svd-budget2",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcCache|svd-check-ws",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcCache|svd-cpu-migrate",
     {0x6e4940d41096e61cULL, 0x70f82279ead46f25ULL, 0x9f6e260b0fd27726ULL}},
    {"interproc/ProcCache|svd-cpu-pinned",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcCache|svd-default",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcCache|svd-no-addr",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcCache|svd-no-ctrl",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcCache|svd-precise",
     {0xc70e94a2d42a4ee4ULL, 0x1e5a15498d100206ULL, 0x4de7970b1f86b106ULL}},
    {"interproc/ProcGap|hwsvd-4word",
     {0xfb9bacf9c13b6128ULL, 0x487c0c3f8ddf1c9eULL, 0x5a23f540ebc323d6ULL}},
    {"interproc/ProcGap|hwsvd-access-proofs",
     {0xf18f2396eb9ea213ULL, 0xb7167b73ca6ab165ULL, 0x741f81e0b35a01ddULL}},
    {"interproc/ProcGap|hwsvd-budget2",
     {0xf18f2396eb9ea213ULL, 0xb7167b73ca6ab165ULL, 0x741f81e0b35a01ddULL}},
    {"interproc/ProcGap|hwsvd-ideal",
     {0xf18f2396eb9ea213ULL, 0xb7167b73ca6ab165ULL, 0x741f81e0b35a01ddULL}},
    {"interproc/ProcGap|hwsvd-tiny",
     {0xfd2fb8ec3a6b9310ULL, 0x5b1355d60c1ae272ULL, 0xdcc8495570547d4aULL}},
    {"interproc/ProcGap|svd-4word",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-access-proofs",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-budget2",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-check-ws",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-cpu-migrate",
     {0xe5c9f179d29d171eULL, 0x2ead137c925c3c5dULL, 0x0fc80bd3c9da7670ULL}},
    {"interproc/ProcGap|svd-cpu-pinned",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-default",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-no-addr",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-no-ctrl",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"interproc/ProcGap|svd-precise",
     {0x51c2185e66bfc976ULL, 0x54fe1c26c7ff6b86ULL, 0xd16d2e2b8f74a0b5ULL}},
    {"table2/Apache|hwsvd-4word",
     {0x1f3dc78a8fdd7956ULL, 0x6d998d7da614b770ULL, 0x3933c941c14cc25fULL}},
    {"table2/Apache|hwsvd-access-proofs",
     {0x907b8568ad69a1e0ULL, 0xba79a369ccf81cb5ULL, 0xf2c0c9c356fa28e3ULL}},
    {"table2/Apache|hwsvd-budget2",
     {0xc4a4852b0b9c8df0ULL, 0x96f01bf63381dfe4ULL, 0x4d78a8f16997d864ULL}},
    {"table2/Apache|hwsvd-ideal",
     {0x907b8568ad69a1e0ULL, 0xba79a369ccf81cb5ULL, 0xf2c0c9c356fa28e3ULL}},
    {"table2/Apache|hwsvd-tiny",
     {0xa0d3436fe38edc1cULL, 0xef49e0123a1a9bf3ULL, 0x274e3705ef385b78ULL}},
    {"table2/Apache|svd-4word",
     {0xfd24599f5976065dULL, 0x29e19cfab6f89b2fULL, 0xbcd253c2c9506d91ULL}},
    {"table2/Apache|svd-access-proofs",
     {0xe168ef7a466e1590ULL, 0xed5832f39ec443bcULL, 0x78bea25cb6734ba9ULL}},
    {"table2/Apache|svd-budget2",
     {0xf74436e3d32f6959ULL, 0x8c1d77538e26908aULL, 0x0feb5df34a54b303ULL}},
    {"table2/Apache|svd-check-ws",
     {0xe168ef7a466e1590ULL, 0xed5832f39ec443bcULL, 0x78bea25cb6734ba9ULL}},
    {"table2/Apache|svd-cpu-migrate",
     {0x99ff25e4f9bcd3ffULL, 0xdd81ddaacbc7b634ULL, 0xd16783057b25edebULL}},
    {"table2/Apache|svd-cpu-pinned",
     {0xe168ef7a466e1590ULL, 0xed5832f39ec443bcULL, 0x78bea25cb6734ba9ULL}},
    {"table2/Apache|svd-default",
     {0xe168ef7a466e1590ULL, 0xed5832f39ec443bcULL, 0x78bea25cb6734ba9ULL}},
    {"table2/Apache|svd-no-addr",
     {0x35a5abb40ee03783ULL, 0xed5832f39ec443bcULL, 0x78bea25cb6734ba9ULL}},
    {"table2/Apache|svd-no-ctrl",
     {0xe168ef7a466e1590ULL, 0xed5832f39ec443bcULL, 0x78bea25cb6734ba9ULL}},
    {"table2/Apache|svd-precise",
     {0xe168ef7a466e1590ULL, 0xed5832f39ec443bcULL, 0x78bea25cb6734ba9ULL}},
    {"table2/MySQL|hwsvd-4word",
     {0x78aaac886b1f2a4fULL, 0xab9bca928cc3947dULL, 0xd3b1364768533ed9ULL}},
    {"table2/MySQL|hwsvd-access-proofs",
     {0x7e46b6f78334af20ULL, 0xd9613a0f0c410bcbULL, 0xeb0e735c996e26dfULL}},
    {"table2/MySQL|hwsvd-budget2",
     {0x0894ea76b1b88dbcULL, 0x3c13996c8d283f46ULL, 0xcace96e095f155fbULL}},
    {"table2/MySQL|hwsvd-ideal",
     {0x7e46b6f78334af20ULL, 0xd9613a0f0c410bcbULL, 0xeb0e735c996e26dfULL}},
    {"table2/MySQL|hwsvd-tiny",
     {0x42b6afed0cc3bbffULL, 0x89f9c4ed7cfdd898ULL, 0x93bc4f88bdd5e5ccULL}},
    {"table2/MySQL|svd-4word",
     {0x04916950fe8fa7e3ULL, 0xb6c782f761370df5ULL, 0x202fef11da57cf19ULL}},
    {"table2/MySQL|svd-access-proofs",
     {0xa4e5611090fba88eULL, 0xf3165f9fc4641565ULL, 0x687af09cdf8de6fcULL}},
    {"table2/MySQL|svd-budget2",
     {0xe2e30e562f55644fULL, 0x736603afe7f5b5b8ULL, 0xb3cd0c67d7e673b0ULL}},
    {"table2/MySQL|svd-check-ws",
     {0x6760c684a152fc4aULL, 0x28f71d88762b6dfcULL, 0x453acd9446f6501eULL}},
    {"table2/MySQL|svd-cpu-migrate",
     {0xec2084e7738edde2ULL, 0x26d74d27a1e82e82ULL, 0x94716f421742e6d4ULL}},
    {"table2/MySQL|svd-cpu-pinned",
     {0xa4e5611090fba88eULL, 0xf3165f9fc4641565ULL, 0x687af09cdf8de6fcULL}},
    {"table2/MySQL|svd-default",
     {0xa4e5611090fba88eULL, 0xf3165f9fc4641565ULL, 0x687af09cdf8de6fcULL}},
    {"table2/MySQL|svd-no-addr",
     {0xa4e5611090fba88eULL, 0xf3165f9fc4641565ULL, 0x687af09cdf8de6fcULL}},
    {"table2/MySQL|svd-no-ctrl",
     {0xa4e5611090fba88eULL, 0xf3165f9fc4641565ULL, 0x687af09cdf8de6fcULL}},
    {"table2/MySQL|svd-precise",
     {0xa4e5611090fba88eULL, 0xf3165f9fc4641565ULL, 0x687af09cdf8de6fcULL}},
    {"table2/PgSQL|hwsvd-4word",
     {0xb240e4da5e9ed7c1ULL, 0xeea40459e9b7fc3dULL, 0xe8c9a9bf702ffef7ULL}},
    {"table2/PgSQL|hwsvd-access-proofs",
     {0x448afcf8eddb2a31ULL, 0xa681691406d3d66cULL, 0xbcd9c9213fbbe9d8ULL}},
    {"table2/PgSQL|hwsvd-budget2",
     {0x6694e2aec718539fULL, 0xb450dd911d162b17ULL, 0xb450dd911d162b17ULL}},
    {"table2/PgSQL|hwsvd-ideal",
     {0x0a20249275d2f695ULL, 0x9ab6d7ab861b435dULL, 0x6d80a182240f404dULL}},
    {"table2/PgSQL|hwsvd-tiny",
     {0xd3d1fdce627b51dbULL, 0xf3962b5b327d6d01ULL, 0x5d62b50f897ae337ULL}},
    {"table2/PgSQL|svd-4word",
     {0x151cdf2e24171f81ULL, 0x6022acc4f878807eULL, 0x9158b42cc8fca90cULL}},
    {"table2/PgSQL|svd-access-proofs",
     {0xb11892f7df562166ULL, 0x3f75e70385f2bcbeULL, 0xbcd81481151a77f9ULL}},
    {"table2/PgSQL|svd-budget2",
     {0x4bfa811bfd2ad007ULL, 0xe9512ae948837227ULL, 0xe9512ae948837227ULL}},
    {"table2/PgSQL|svd-check-ws",
     {0x18a55cec7bfa9ed9ULL, 0x2c9241a4e0f537acULL, 0x5109eb80428243d1ULL}},
    {"table2/PgSQL|svd-cpu-migrate",
     {0xd0763f0c130cbbcfULL, 0x2b8793fdb7047b66ULL, 0xf14ba4b56a0b9cdcULL}},
    {"table2/PgSQL|svd-cpu-pinned",
     {0x18a55cec7bfa9ed9ULL, 0x2c9241a4e0f537acULL, 0x5109eb80428243d1ULL}},
    {"table2/PgSQL|svd-default",
     {0x18a55cec7bfa9ed9ULL, 0x2c9241a4e0f537acULL, 0x5109eb80428243d1ULL}},
    {"table2/PgSQL|svd-no-addr",
     {0x18a55cec7bfa9ed9ULL, 0x2c9241a4e0f537acULL, 0x5109eb80428243d1ULL}},
    {"table2/PgSQL|svd-no-ctrl",
     {0x18a55cec7bfa9ed9ULL, 0x2c9241a4e0f537acULL, 0x5109eb80428243d1ULL}},
    {"table2/PgSQL|svd-precise",
     {0x18a55cec7bfa9ed9ULL, 0x2c9241a4e0f537acULL, 0x5109eb80428243d1ULL}},
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

} // namespace

TEST(SvdFamilyDigest, MatchesPinnedOutputs) {
  Digests Actual;
  for (const char *Suite : {"table2", "fig1", "interproc"}) {
    std::vector<workloads::Workload> Ws = harness::suiteWorkloads(Suite);
    ASSERT_FALSE(Ws.empty()) << Suite;
    for (const workloads::Workload &W : Ws)
      for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed)
        digestWorkload(std::string(Suite) + "/" + W.Name, W, Seed, Actual);
  }

  std::map<std::string, const Row *> Pinned;
  for (const Row &R : Expected)
    Pinned[R.Key] = &R;
  std::string Repin;
  for (const auto &[Key, Ds] : Actual) {
    ASSERT_EQ(Ds.size(), NumSeeds) << Key;
    auto It = Pinned.find(Key);
    bool Same = It != Pinned.end();
    for (unsigned I = 0; Same && I < NumSeeds; ++I)
      Same = It->second->Digest[I] == Ds[I];
    EXPECT_TRUE(Same) << Key << " diverged from its pinned digests";
    if (!Same)
      Repin += formatRow(Key, Ds) + "\n";
  }
  EXPECT_EQ(Actual.size(), Pinned.size()) << "pinned rows without a run";
  EXPECT_TRUE(Repin.empty()) << "rows as they now read:\n" << Repin;
}
