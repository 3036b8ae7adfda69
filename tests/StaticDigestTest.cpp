//===- tests/StaticDigestTest.cpp - Pinned static-analysis outputs --------===//
//
// A pinned oracle for the static layer (DESIGN.md sections 7, 8 and 12).
// For every workload of every harness suite and every example program
// under examples/asm, at block shifts 0 and 3, the test folds each
// static client's output into one FNV-1a digest:
//
//  * table:   the AccessClass of every access site, with the value-flow
//             classifier and with the Escape-only one;
//  * proofs:  the proven pcs, every ProvenCu, the prunable-site count
//             and every proof diagnostic, in the order produced;
//  * pairs:   every ConflictPairs pair, all site fields;
//  * predict: every predictProgram prediction, all fields;
//  * lint:    every lintProgram diagnostic (all families, dead stores
//             included), without and with Prove.
//
// SvdFamilyDigest sees the table and the proofs only through dynamic
// counts, and the lint/predict goldens only cover the example programs;
// this test pins the static outputs of the suite workloads directly, so
// a change to how the per-thread passes are built or shared cannot move
// a classification, a proof or a prediction unnoticed.
//
// On a mismatch the failure message prints the rows as they now read,
// so a deliberate behaviour change re-pins by pasting them.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "analysis/ConflictPairs.h"
#include "analysis/Lint.h"
#include "analysis/Predict.h"
#include "analysis/ProgramPasses.h"
#include "harness/Suites.h"
#include "isa/Assembler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace svd;

namespace {

/// 64-bit FNV-1a over a stream of integers (little-endian bytes).
class Fnv {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void add(const analysis::Interval &I) {
    add(static_cast<uint64_t>(I.Lo));
    add(static_cast<uint64_t>(I.Hi));
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

constexpr unsigned NumParts = 5; // table, proofs, pairs, predict, lint

struct Row {
  const char *Key;
  uint64_t Digest[NumParts];
};

// Captured from the static passes as they stood before each program's
// passes were built once and shared between the clients.
const Row Expected[] = {
    {"asm/atomicity_gap.asm@0",
     {0xae84572fa8492a25ULL, 0x506ee9b71192dd26ULL, 0x07e0d1d1eb22f367ULL,
      0x0598218ded032e84ULL, 0x98db9f2abff3cc06ULL}},
    {"asm/atomicity_gap.asm@3",
     {0xd742189b219a6825ULL, 0x506ee9b71192dd26ULL, 0x7b9c5f666ece14a7ULL,
      0x7432df69c6ebd2a3ULL, 0x98db9f2abff3cc06ULL}},
    {"asm/atomicity_gap_fixed.asm@0",
     {0x70755e9df7b20e25ULL, 0x8c2fa73e1f6bce02ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/atomicity_gap_fixed.asm@3",
     {0xaa8f817f31aa0e25ULL, 0x8c2fa73e1f6bce02ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/counter_locked.asm@0",
     {0xc40370d723c26b25ULL, 0x2f8849f8bebadc42ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/counter_locked.asm@3",
     {0x1402acd19f82eb25ULL, 0x2f8849f8bebadc42ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/lint_demo_buggy.asm@0",
     {0xf27d4f444fcf3ee5ULL, 0x926c43a0ea7fa9e2ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x8c8bf99a97ebafa5ULL}},
    {"asm/lint_demo_buggy.asm@3",
     {0xbdb61596a9880725ULL, 0x926c43a0ea7fa9e2ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x8c8bf99a97ebafa5ULL}},
    {"asm/local_histogram.asm@0",
     {0x1ae75221da1a5c25ULL, 0x81d23fd7003c2305ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/local_histogram.asm@3",
     {0x4cdfc2da7dcefd25ULL, 0x25e5f3915d289cc1ULL, 0x1708bcf63aa2c430ULL,
      0x47d782433739f3daULL, 0x8525d2182d8716e1ULL}},
    {"asm/lock_order_cycle.asm@0",
     {0xc40370d723c26b25ULL, 0xef4a264226c14476ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x65780dc637e06a90ULL}},
    {"asm/lock_order_cycle.asm@3",
     {0x1402acd19f82eb25ULL, 0x569166ea8b83f691ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x65780dc637e06a90ULL}},
    {"asm/proc_cache_get_put.asm@0",
     {0x3ce0d768894b7325ULL, 0x0df37e2d08d28742ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/proc_cache_get_put.asm@3",
     {0x8ce01363050bf325ULL, 0x0df37e2d08d28742ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/proc_counter_helper.asm@0",
     {0xd8ede431753c8a25ULL, 0xd29ad9572654e082ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/proc_counter_helper.asm@3",
     {0x13080712af348a25ULL, 0xd29ad9572654e082ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/proc_gap_buggy.asm@0",
     {0xa13d44a214786225ULL, 0x70943c7742416ca6ULL, 0x998f4b5cbff27967ULL,
      0x16450bd611755927ULL, 0x23683941f7552f86ULL}},
    {"asm/proc_gap_buggy.asm@3",
     {0x8ce01363050bf325ULL, 0x70943c7742416ca6ULL, 0xebb5fb59b4624f67ULL,
      0xf7738adac3173500ULL, 0x23683941f7552f86ULL}},
    {"asm/proc_recursive_worker.asm@0",
     {0x3ce0d768894b7325ULL, 0x0bd7abacedd19302ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/proc_recursive_worker.asm@3",
     {0x8ce01363050bf325ULL, 0x0bd7abacedd19302ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"asm/tid_slab.asm@0",
     {0x1d32793679936625ULL, 0x81d23fd7003c2305ULL, 0x334b72a5dcca9b06ULL,
      0xcac6af709c7503feULL, 0x88201fb960ff6465ULL}},
    {"asm/tid_slab.asm@3",
     {0x1d32793679936625ULL, 0x81d23fd7003c2305ULL, 0xd30a9ea0c0aab1c6ULL,
      0xcac6af709c7503feULL, 0x88201fb960ff6465ULL}},
    {"asm/uninit_pair.asm@0",
     {0xded2f10554e98744ULL, 0x81d23fd7003c2305ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x8acc4f9ec58a8b85ULL}},
    {"asm/uninit_pair.asm@3",
     {0x56277359bda9cd65ULL, 0x81d23fd7003c2305ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x8acc4f9ec58a8b85ULL}},
    {"fig1/0:MySQL-tablelock@0",
     {0x1c3412d4e5075aa5ULL, 0x09b3f5b5fc97ca04ULL, 0x2956e0d4687cdd84ULL,
      0xa8c7f832281a39c5ULL, 0x413193c87628c904ULL}},
    {"fig1/0:MySQL-tablelock@3",
     {0xdbcc65dfd0e7daa5ULL, 0x09b3f5b5fc97ca04ULL, 0xa1eef12bf6c84d04ULL,
      0xa8c7f832281a39c5ULL, 0x413193c87628c904ULL}},
    {"interproc/0:ProcCache@0",
     {0x9c535200e48d89a5ULL, 0xa303dbacab5b8da5ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"interproc/0:ProcCache@3",
     {0x3b176f10b58189a5ULL, 0xa303dbacab5b8da5ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"interproc/1:ProcGap@0",
     {0x9b94c075d58a0025ULL, 0xbbb6a4d8b0084e26ULL, 0xa2df305981037fecULL,
      0x0de648f466f63ee9ULL, 0x1299a55a74fe7d77ULL}},
    {"interproc/1:ProcGap@3",
     {0x3b176f10b58189a5ULL, 0xbbb6a4d8b0084e26ULL, 0x7fcb11cd2a29762cULL,
      0x8f5e7191c5e9274eULL, 0x1299a55a74fe7d77ULL}},
    {"predict/0:Apache@0",
     {0x04a90b384b27a825ULL, 0x5ea1e9f1cf9557d6ULL, 0x64d0a803a7a2dbdeULL,
      0xf1e78411d55f793aULL, 0xd0c66f7ff7cc8036ULL}},
    {"predict/0:Apache@3",
     {0x25bd256a3cc7a825ULL, 0x5ea1e9f1cf9557d6ULL, 0x94396b419099e342ULL,
      0x364297bf8b420d45ULL, 0xd0c66f7ff7cc8036ULL}},
    {"predict/1:MySQL@0",
     {0x22231ca6fea5c465ULL, 0x8dbf397bb53dc75aULL, 0xc969ff9a60892d1dULL,
      0xb4a54d909e5d7c01ULL, 0x859540b85746d0cbULL}},
    {"predict/1:MySQL@3",
     {0x01e4d1837fadc465ULL, 0x8dbf397bb53dc75aULL, 0x9211ecb3fd2f4408ULL,
      0xce9989f0d5a9c7a5ULL, 0x859540b85746d0cbULL}},
    {"predict/2:PgSQL@0",
     {0x6aafcf5022db6d25ULL, 0xc932e318c2fe78a2ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"predict/2:PgSQL@3",
     {0x89b539e08813d7a5ULL, 0xac463520176c2522ULL, 0x79de243eb97430d7ULL,
      0x1c04710dbb3f4b75ULL, 0x27cdcae488835202ULL}},
    {"sec73/0:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"sec73/0:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"sec73/1:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"sec73/1:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"sec73/2:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"sec73/2:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"sec73/3:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"sec73/3:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"sec73/4:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"sec73/4:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"sec73/5:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"sec73/5:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"serve/0:Apache@0",
     {0xc713be82d74349a5ULL, 0xe60a883319cc04b9ULL, 0xc316401f7ea5f171ULL,
      0x066c944ecd312d39ULL, 0x81f8706cbe2b0d59ULL}},
    {"serve/0:Apache@3",
     {0x2c38a23ad0a349a5ULL, 0xe60a883319cc04b9ULL, 0xd3195546c41e2b7aULL,
      0x8792a03b7911dc3eULL, 0x81f8706cbe2b0d59ULL}},
    {"serve/1:MySQL@0",
     {0xcf51f60e4a9cfae5ULL, 0xf05cb229d75d134fULL, 0x7febac88ed443c2aULL,
      0x7d64bbbebf370b41ULL, 0xe0e901931d3407deULL}},
    {"serve/1:MySQL@3",
     {0xbe60827c6fccfae5ULL, 0xf05cb229d75d134fULL, 0x2e1f8dcd87639114ULL,
      0x665f3caf31723a65ULL, 0xe0e901931d3407deULL}},
    {"serve/2:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"serve/2:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"shadow/0:SparseSlabSweep@0",
     {0x9d575162fc56b125ULL, 0x81d23fd7003c2305ULL, 0x6257fd1962b6d277ULL,
      0xa8c7f832281a39c5ULL, 0xd4bb5108af073665ULL}},
    {"shadow/0:SparseSlabSweep@3",
     {0x9d575162fc56b125ULL, 0x81d23fd7003c2305ULL, 0x6257fd1962b6d277ULL,
      0xa8c7f832281a39c5ULL, 0xd4bb5108af073665ULL}},
    {"shadow/1:SparseSlabSweep@0",
     {0x87b4b1b2e4c33f25ULL, 0x81d23fd7003c2305ULL, 0xbbea4166cae74351ULL,
      0xa8c7f832281a39c5ULL, 0xa25bee4acbd99c65ULL}},
    {"shadow/1:SparseSlabSweep@3",
     {0x87b4b1b2e4c33f25ULL, 0x81d23fd7003c2305ULL, 0xbbea4166cae74351ULL,
      0xa8c7f832281a39c5ULL, 0xa25bee4acbd99c65ULL}},
    {"shadow/2:StridedScatter@0",
     {0x9d575162fc56b125ULL, 0x81d23fd7003c2305ULL, 0x6257fd1962b6d277ULL,
      0xa8c7f832281a39c5ULL, 0xd4bb5108af073665ULL}},
    {"shadow/2:StridedScatter@3",
     {0x9d575162fc56b125ULL, 0x81d23fd7003c2305ULL, 0x6257fd1962b6d277ULL,
      0xa8c7f832281a39c5ULL, 0xd4bb5108af073665ULL}},
    {"table1/0:Apache@0",
     {0xc713be82d74349a5ULL, 0xe60a883319cc04b9ULL, 0xa22415504c1070f9ULL,
      0x47fe5319c135eae1ULL, 0x81f8706cbe2b0d59ULL}},
    {"table1/0:Apache@3",
     {0x2c38a23ad0a349a5ULL, 0xe60a883319cc04b9ULL, 0x11df491cd911e6caULL,
      0x6fe04e5e472d722aULL, 0x81f8706cbe2b0d59ULL}},
    {"table1/1:MySQL@0",
     {0xcf51f60e4a9cfae5ULL, 0xf05cb229d75d134fULL, 0x7febac88ed443c2aULL,
      0x7d64bbbebf370b41ULL, 0xe0e901931d3407deULL}},
    {"table1/1:MySQL@3",
     {0xbe60827c6fccfae5ULL, 0xf05cb229d75d134fULL, 0x2e1f8dcd87639114ULL,
      0x665f3caf31723a65ULL, 0xe0e901931d3407deULL}},
    {"table1/2:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"table1/2:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
    {"table2/0:Apache@0",
     {0xc713be82d74349a5ULL, 0xe60a883319cc04b9ULL, 0x049d007735ed6d71ULL,
      0x3be1c22be9460941ULL, 0x81f8706cbe2b0d59ULL}},
    {"table2/0:Apache@3",
     {0x2c38a23ad0a349a5ULL, 0xe60a883319cc04b9ULL, 0x80a988ca134f9a2aULL,
      0x6b125ee1ebbcf53eULL, 0x81f8706cbe2b0d59ULL}},
    {"table2/1:MySQL@0",
     {0xcf51f60e4a9cfae5ULL, 0xf05cb229d75d134fULL, 0x7febac88ed443c2aULL,
      0x7d64bbbebf370b41ULL, 0xe0e901931d3407deULL}},
    {"table2/1:MySQL@3",
     {0xbe60827c6fccfae5ULL, 0xf05cb229d75d134fULL, 0x2e1f8dcd87639114ULL,
      0x665f3caf31723a65ULL, 0xe0e901931d3407deULL}},
    {"table2/2:PgSQL@0",
     {0xe8b3fa7eb54eb725ULL, 0xd840ff68ac3eb889ULL, 0xa8c7f832281a39c5ULL,
      0xa8c7f832281a39c5ULL, 0x88201fb960ff6465ULL}},
    {"table2/2:PgSQL@3",
     {0x2ab799133b060c25ULL, 0x033e0761cc21f4dfULL, 0x198f39be33b8e457ULL,
      0x2faa51ead3121627ULL, 0x1645462465d2b67fULL}},
};

void addTable(Fnv &F, const isa::Program &P, const analysis::AccessTable &T) {
  for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid)
    for (uint32_t Pc = 0; Pc < P.Threads[Tid].Code.size(); ++Pc)
      if (isa::isMemoryAccess(P.Threads[Tid].Code[Pc].Op)) {
        F.add(Pc);
        F.add(static_cast<uint64_t>(T.classify(Tid, Pc)));
      }
}

void addSite(Fnv &F, const analysis::ConflictSite &S) {
  F.add(S.Tid);
  F.add(S.Pc);
  F.add(S.IsWrite);
  F.add(S.IsRead);
  F.add(S.IsCas);
  F.add(S.Addr);
  F.add(S.MustLocks);
}

void addLint(Fnv &F, const std::vector<analysis::LintDiag> &Ds) {
  F.add(Ds.size());
  for (const analysis::LintDiag &D : Ds) {
    F.add(static_cast<uint64_t>(D.Severity));
    F.add(D.Category);
    F.add(D.Tid);
    F.add(D.Pc);
    F.add(D.Line);
    F.add(D.Message);
  }
}

std::vector<uint64_t> digestProgram(const isa::Program &P, uint32_t Shift) {
  std::vector<uint64_t> Out;

  Fnv Table;
  addTable(Table, P, analysis::buildAccessTable(P, Shift));
  addTable(Table, P,
           analysis::buildAccessTable(analysis::ProgramPasses(P, false),
                                      Shift));
  Out.push_back(Table.value());

  Fnv Proof;
  analysis::CuProofs Proofs = analysis::proveAtomicCus(P, {Shift});
  for (isa::ThreadId Tid = 0; Tid < P.numThreads(); ++Tid)
    for (uint32_t Pc = 0; Pc < P.Threads[Tid].Code.size(); ++Pc)
      if (Proofs.provenAt(Tid, Pc)) {
        Proof.add(Tid);
        Proof.add(Pc);
      }
  Proof.add(Proofs.proven().size());
  for (const analysis::ProvenCu &U : Proofs.proven()) {
    Proof.add(U.Tid);
    Proof.add(U.UnitId);
    Proof.add(U.MutexId);
    Proof.add(U.Pcs.size());
    for (uint32_t Pc : U.Pcs)
      Proof.add(Pc);
  }
  Proof.add(Proofs.prunableSites());
  Proof.add(Proofs.diagnostics().size());
  for (const analysis::ProofDiag &D : Proofs.diagnostics()) {
    Proof.add(static_cast<uint64_t>(D.K));
    Proof.add(D.Tid);
    Proof.add(D.Pc);
    Proof.add(D.Line);
    Proof.add(D.Message);
  }
  Out.push_back(Proof.value());

  Fnv Pairs;
  analysis::ConflictPairs CP(analysis::ProgramPasses(P, false), Shift);
  Pairs.add(CP.pairs().size());
  for (const analysis::ConflictPair &Pr : CP.pairs()) {
    addSite(Pairs, Pr.A);
    addSite(Pairs, Pr.B);
  }
  Out.push_back(Pairs.value());

  Fnv Predict;
  analysis::PredictOptions PO;
  PO.BlockShift = Shift;
  std::vector<analysis::Prediction> Ps = analysis::predictProgram(P, PO);
  Predict.add(Ps.size());
  for (const analysis::Prediction &Pr : Ps) {
    Predict.add(static_cast<uint64_t>(Pr.Kind));
    Predict.add(Pr.LocalTid);
    Predict.add(Pr.FirstPc);
    Predict.add(Pr.SecondPc);
    Predict.add(Pr.CheckPc);
    Predict.add(Pr.UnitId);
    Predict.add(Pr.RemoteTid);
    Predict.add(Pr.RemotePc);
    Predict.add(Pr.RemoteIsWrite);
    Predict.add(Pr.FirstAddr);
    Predict.add(Pr.FirstLine);
    Predict.add(Pr.SecondLine);
    Predict.add(Pr.CheckLine);
    Predict.add(Pr.RemoteLine);
  }
  Out.push_back(Predict.value());

  Fnv Lint;
  for (bool Prove : {false, true}) {
    analysis::LintOptions LO;
    LO.DeadWrites = true;
    LO.Prove = Prove;
    LO.BlockShift = Shift;
    addLint(Lint, analysis::lintProgram(P, LO));
  }
  Out.push_back(Lint.value());
  return Out;
}

std::string formatRow(const std::string &Key,
                      const std::vector<uint64_t> &Ds) {
  std::string S = "    {\"" + Key + "\",\n     {";
  char Buf[32];
  for (size_t I = 0; I < Ds.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s0x%016" PRIx64 "ULL",
                  I == 0 ? "" : I == 3 ? ",\n      " : ", ", Ds[I]);
    S += Buf;
  }
  return S + "}},";
}

const char *const Suites[] = {"table1", "table2",    "sec73",
                              "fig1",   "interproc", "predict",
                              "shadow", "serve"};

constexpr uint32_t Shifts[] = {0, 3};

} // namespace

TEST(StaticDigest, MatchesPinnedOutputs) {
  std::map<std::string, std::vector<uint64_t>> Actual;
  auto Digest = [&](const std::string &Name, const isa::Program &P) {
    for (uint32_t Shift : Shifts)
      Actual[Name + "@" + std::to_string(Shift)] = digestProgram(P, Shift);
  };

  for (const char *Suite : Suites) {
    std::vector<workloads::Workload> Ws = harness::suiteWorkloads(Suite);
    ASSERT_FALSE(Ws.empty()) << Suite;
    // sec73 repeats one workload at several sizes, so the key carries
    // the workload's index as well as its name.
    for (size_t I = 0; I < Ws.size(); ++I)
      Digest(std::string(Suite) + "/" + std::to_string(I) + ":" + Ws[I].Name,
             Ws[I].Program);
  }

  std::vector<std::filesystem::path> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(SVD_EXAMPLES_ASM_DIR))
    if (E.path().extension() == ".asm")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F);
    std::ostringstream SS;
    SS << In.rdbuf();
    isa::Program P;
    std::vector<isa::AsmError> Errors;
    ASSERT_TRUE(isa::assembleProgram(SS.str(), P, Errors)) << F;
    Digest("asm/" + F.filename().string(), P);
  }

  std::map<std::string, const Row *> Pinned;
  for (const Row &R : Expected)
    Pinned[R.Key] = &R;
  std::string Repin;
  for (const auto &[Key, Ds] : Actual) {
    auto It = Pinned.find(Key);
    bool Same = It != Pinned.end() &&
                std::equal(Ds.begin(), Ds.end(), It->second->Digest);
    EXPECT_TRUE(Same) << Key << " diverged";
    if (!Same)
      Repin += formatRow(Key, Ds) + "\n";
  }
  EXPECT_EQ(Actual.size(), Pinned.size()) << "pinned rows without a program";
  EXPECT_TRUE(Repin.empty()) << "rows as they now read:\n" << Repin;
}
