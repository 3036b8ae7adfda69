//===- tests/PdgDigestTest.cpp - Pinned d-PDG and Figure 5 outputs --------===//
//
// A pinned oracle for the offline d-PDG and Figure 5. For every workload
// of every suite that has a workload set (harness::suites()), under
// scheduler seeds 1-3, the test records one bounded run and folds two
// outputs into FNV-1a digests:
//
//  * "|arcs": pdg::DynamicPdg::build's arcs in stored (CSR) order, each
//    as From, To, Kind, ViaMemory and Address, then the arc count;
//  * "|cu": cu::CuForest::compute's numUnits() and, for every dynamic
//    statement E in event order, lastMemberOf(E).
//
// The stored order is the dependence state machine's emission order
// within an event, so a change to how the arcs are walked (per thread,
// per family, merged) shows up here even when every arc set is equal.
//
// On a mismatch the failure message prints the row as it should read,
// so a deliberate behaviour change re-pins by pasting the new rows.
//
//===----------------------------------------------------------------------===//

#include "cu/CuPartition.h"
#include "harness/Suites.h"
#include "pdg/Pdg.h"
#include "trace/Trace.h"
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
/// Step budget of every run: enough for many lock hand-offs and CU
/// cuts per workload while keeping the whole matrix to a few seconds.
constexpr uint64_t MaxRowSteps = 60'000;

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

bool isStatement(trace::EventKind K) {
  return K == trace::EventKind::Load || K == trace::EventKind::Store ||
         K == trace::EventKind::Alu || K == trace::EventKind::Branch;
}

using Digests = std::map<std::string, std::vector<uint64_t>>;

void digestWorkload(const std::string &Key, const workloads::Workload &W,
                    uint64_t Seed, Digests &Out) {
  vm::MachineConfig MC;
  MC.SchedSeed = Seed;
  MC.MaxSteps = MaxRowSteps;
  vm::Machine M(W.Program, MC);
  trace::TraceRecorder R(W.Program);
  M.addObserver(&R);
  M.run();
  trace::ProgramTrace T = R.takeTrace();

  Fnv Arcs;
  pdg::DynamicPdg G = pdg::DynamicPdg::build(T);
  for (const pdg::DepArc &A : G.arcs()) {
    Arcs.add(A.From);
    Arcs.add(A.To);
    Arcs.add(static_cast<uint64_t>(A.Kind));
    Arcs.add(A.ViaMemory);
    Arcs.add(A.Address);
  }
  Arcs.add(G.arcs().size());
  Out[Key + "|arcs"].push_back(Arcs.value());

  Fnv Cu;
  cu::CuForest F = cu::CuForest::compute(T);
  Cu.add(F.numUnits());
  for (uint32_t E = 0; E < T.size(); ++E)
    if (isStatement(T[E].Kind))
      Cu.add(F.lastMemberOf(E));
  Out[Key + "|cu"].push_back(Cu.value());
}

struct Row {
  const char *Key;
  uint64_t Digest[NumSeeds];
};

// Captured from the single-walk dependence state machine, before the
// walk was split into its per-thread and conflict families.
const Row Expected[] = {
    {"fig1/0:MySQL-tablelock|arcs",
     {0xbde580efd4fae8f3ULL, 0xa24e1327976e1702ULL, 0x9dc9e383f9172e45ULL}},
    {"fig1/0:MySQL-tablelock|cu",
     {0xc171d5c1bb5fc36aULL, 0x08b7163a85aa0544ULL, 0xd3205d35d769e960ULL}},
    {"interproc/0:ProcCache|arcs",
     {0xc023ae761bb97d90ULL, 0x3eadf49f4fd8912fULL, 0xb11397234636a9c8ULL}},
    {"interproc/0:ProcCache|cu",
     {0x60dcbc12e87b5263ULL, 0x66db974513c01637ULL, 0x78553d1ae3ff3297ULL}},
    {"interproc/1:ProcGap|arcs",
     {0x376a53fd881d12c0ULL, 0xadea122913da9b9dULL, 0xfcf7ecb9c33c2846ULL}},
    {"interproc/1:ProcGap|cu",
     {0xeb2c64531a26f759ULL, 0x07ce968fc030119cULL, 0x47f535c15f310276ULL}},
    {"predict/0:Apache|arcs",
     {0x4f2825edeab05263ULL, 0xd5ddf2f7a7429e8bULL, 0x3779bdd00554edaeULL}},
    {"predict/0:Apache|cu",
     {0xc8ffc807be073446ULL, 0x932d6906c55a1764ULL, 0x35aa47760ae93e97ULL}},
    {"predict/1:MySQL|arcs",
     {0x63e40d2e261f98d7ULL, 0xa5eef60ca38f7fb9ULL, 0x5ae7fa7710267df3ULL}},
    {"predict/1:MySQL|cu",
     {0xcf45f3c40fdcc486ULL, 0x7236dac94e353f35ULL, 0x5180260a06bec8bbULL}},
    {"predict/2:PgSQL|arcs",
     {0x0ad1bbe43a6345aaULL, 0xf9e98eee49a6a6adULL, 0x63d18a39ca1baec8ULL}},
    {"predict/2:PgSQL|cu",
     {0x1e3aec5e27c6cc17ULL, 0x1d52fb48737e3797ULL, 0xdf2f1d434f2c96f5ULL}},
    {"sec73/0:PgSQL|arcs",
     {0x93b8d8ac4bfd8d27ULL, 0x00ff36073c6b80f4ULL, 0x56a9a13b3a39958dULL}},
    {"sec73/0:PgSQL|cu",
     {0x98fb09f3debf1063ULL, 0xaceefd66d5104429ULL, 0xe96162056bad4178ULL}},
    {"sec73/1:PgSQL|arcs",
     {0x8f39dc4272553c68ULL, 0x7adb7cfca357aab9ULL, 0x96f3bc65f62046baULL}},
    {"sec73/1:PgSQL|cu",
     {0x8f6c758253dff72cULL, 0x917cd670a56e0631ULL, 0x3109a6fdc6249f83ULL}},
    {"sec73/2:PgSQL|arcs",
     {0xaf60f312d3f7ccbdULL, 0xef5715c95b65495eULL, 0x1e5151f4d5f774f5ULL}},
    {"sec73/2:PgSQL|cu",
     {0x051b1e66b645646dULL, 0x8219eac5974986f5ULL, 0x6d82d3924dd29a58ULL}},
    {"sec73/3:PgSQL|arcs",
     {0x374262e70de32a88ULL, 0x1d376fcb8b22d226ULL, 0x489e0318283ef840ULL}},
    {"sec73/3:PgSQL|cu",
     {0xea8c1c70a1b6fd29ULL, 0x5c8a3b952e39b3ccULL, 0xecc340067dc559c9ULL}},
    {"sec73/4:PgSQL|arcs",
     {0x374262e70de32a88ULL, 0x1d376fcb8b22d226ULL, 0x489e0318283ef840ULL}},
    {"sec73/4:PgSQL|cu",
     {0xea8c1c70a1b6fd29ULL, 0x5c8a3b952e39b3ccULL, 0xecc340067dc559c9ULL}},
    {"sec73/5:PgSQL|arcs",
     {0x374262e70de32a88ULL, 0x1d376fcb8b22d226ULL, 0x489e0318283ef840ULL}},
    {"sec73/5:PgSQL|cu",
     {0xea8c1c70a1b6fd29ULL, 0x5c8a3b952e39b3ccULL, 0xecc340067dc559c9ULL}},
    {"serve/0:Apache|arcs",
     {0x6ec564faaa4a70fbULL, 0x88f67bf4bea9f5f2ULL, 0xd6c6b87209871cd4ULL}},
    {"serve/0:Apache|cu",
     {0x661e80bfade9f2d4ULL, 0xf413a8854f761373ULL, 0x8decaef70aec1c0cULL}},
    {"serve/1:MySQL|arcs",
     {0xd666bfa0428873a9ULL, 0x2653f56a76997c22ULL, 0x59ea0ec7d2c96517ULL}},
    {"serve/1:MySQL|cu",
     {0xf38ff3b1e787a57fULL, 0x6ae1311d262eb09cULL, 0xfcf46c9c16b964cfULL}},
    {"serve/2:PgSQL|arcs",
     {0x8d5a279e88b95bd5ULL, 0x230d4c5a3aa06ffcULL, 0x8c629f88674e9e1cULL}},
    {"serve/2:PgSQL|cu",
     {0x3b16f08ac6b1c659ULL, 0x69fac33b32d95ba6ULL, 0x5c106265a3cbd1bdULL}},
    {"shadow/0:SparseSlabSweep|arcs",
     {0x651fc70c001bbc6bULL, 0x6e3edba5cfb2e71fULL, 0x89657dbbc2d9cac2ULL}},
    {"shadow/0:SparseSlabSweep|cu",
     {0x83f23ded8f343fdfULL, 0xc3136387e076f945ULL, 0x8606f82c71628fddULL}},
    {"shadow/1:SparseSlabSweep|arcs",
     {0x7e76ce8e0a9a128fULL, 0x6ebea71497eff812ULL, 0x85e2ccaec3df6200ULL}},
    {"shadow/1:SparseSlabSweep|cu",
     {0x501c9620c0602152ULL, 0x2aac3fdca711b5e8ULL, 0x75d356c5893d804bULL}},
    {"shadow/2:StridedScatter|arcs",
     {0x02266b3a5f732da0ULL, 0x921f002ea0f01cc5ULL, 0xea6289a69f5e2d67ULL}},
    {"shadow/2:StridedScatter|cu",
     {0x83f23ded8f343fdfULL, 0xc3136387e076f945ULL, 0x8606f82c71628fddULL}},
    {"table1/0:Apache|arcs",
     {0x23dcd4e69a05d28dULL, 0xeaedd112b78acd38ULL, 0x10d6f10d8f03beb5ULL}},
    {"table1/0:Apache|cu",
     {0xdc4c8f61834db668ULL, 0x4dfaea174878ad2bULL, 0x1fac5fdc49beca66ULL}},
    {"table1/1:MySQL|arcs",
     {0x8da5b2004284011dULL, 0xfc8ba5aeff9cb582ULL, 0xa2b49f6ef18d8781ULL}},
    {"table1/1:MySQL|cu",
     {0xb9f469b5c679be19ULL, 0x0c9a1c1e904c128cULL, 0x0c616d6b5ca47519ULL}},
    {"table1/2:PgSQL|arcs",
     {0xb795338d93f5bd18ULL, 0x7bd4498235d95ef2ULL, 0x55f971dd88fbd642ULL}},
    {"table1/2:PgSQL|cu",
     {0x6679148e27aa9637ULL, 0xc7297553c79de2ebULL, 0x58c4a768d68f255aULL}},
    {"table2/0:Apache|arcs",
     {0x8ad938dba0488f00ULL, 0x45e9457eded51a07ULL, 0x151b518fbbecd54fULL}},
    {"table2/0:Apache|cu",
     {0xb72dafc17214238aULL, 0xc39d4dd3be1c1432ULL, 0x0812c1a5c2f4a2f9ULL}},
    {"table2/1:MySQL|arcs",
     {0x8da5b2004284011dULL, 0xfc8ba5aeff9cb582ULL, 0xa2b49f6ef18d8781ULL}},
    {"table2/1:MySQL|cu",
     {0xb9f469b5c679be19ULL, 0x0c9a1c1e904c128cULL, 0x0c616d6b5ca47519ULL}},
    {"table2/2:PgSQL|arcs",
     {0xb795338d93f5bd18ULL, 0x7bd4498235d95ef2ULL, 0x55f971dd88fbd642ULL}},
    {"table2/2:PgSQL|cu",
     {0x6679148e27aa9637ULL, 0xc7297553c79de2ebULL, 0x58c4a768d68f255aULL}},
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

TEST(PdgDigest, MatchesPinnedOutputs) {
  Digests Actual;
  for (const harness::Suite &S : harness::suites()) {
    if (!S.Workloads)
      continue;
    std::vector<workloads::Workload> Ws = S.Workloads();
    ASSERT_FALSE(Ws.empty()) << S.Name;
    // sec73 repeats one workload at several sizes, so the key carries
    // the workload's index as well as its name.
    for (size_t I = 0; I < Ws.size(); ++I)
      for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed)
        digestWorkload(std::string(S.Name) + "/" + std::to_string(I) + ":" +
                           Ws[I].Name,
                       Ws[I], Seed, Actual);
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
