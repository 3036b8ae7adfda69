//===- tests/ShadowTableTest.cpp - shadow::Table unit tests ---------------===//
//
// The shared shadow-memory state layer (DESIGN.md section 14): page
// sharing, page accounting, budget accounting, deep copies, and a
// dense-vs-sparse equivalence property over randomized operation
// sequences (deterministic LCG — no wall-clock entropy in tests).
//
//===----------------------------------------------------------------------===//

#include "shadow/Shadow.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace svd;
using shadow::BudgetLedger;
using shadow::Mode;
using shadow::PageEntries;
using shadow::Table;

namespace {

/// Deterministic 64-bit LCG (Knuth MMIX constants).
struct Lcg {
  uint64_t S;
  explicit Lcg(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    return S >> 16;
  }
};

} // namespace

TEST(ShadowTable, PagesForBoundaries) {
  EXPECT_EQ(shadow::pagesFor(0), 0u);
  EXPECT_EQ(shadow::pagesFor(1), 1u);
  EXPECT_EQ(shadow::pagesFor(PageEntries), 1u);
  EXPECT_EQ(shadow::pagesFor(PageEntries + 1), 2u);
  EXPECT_EQ(shadow::pagesFor(uint64_t(10) * PageEntries), 10u);
}

TEST(ShadowTable, UntouchedRegionsCostNoPages) {
  // A multi-million-entry table allocates nothing until touched: every
  // primary slot aliases the one shared clean page.
  Table<uint32_t> T(4u << 20);
  EXPECT_EQ(T.pagesAllocated(), 0u);
  EXPECT_EQ(T.peek(0), 0u);
  EXPECT_EQ(T.peek((4u << 20) - 1), 0u);
  EXPECT_EQ(T.peek(123456), 0u);
  EXPECT_EQ(T.pagesAllocated(), 0u); // peek never materializes
}

TEST(ShadowTable, TouchMaterializesOnlyTheTouchedPage) {
  Table<uint32_t> T(uint64_t(16) * PageEntries);
  T.touch(5 * PageEntries + 7) = 42;
  EXPECT_EQ(T.pagesAllocated(), 1u);
  EXPECT_EQ(T.peek(5 * PageEntries + 7), 42u);
  // Neighbors on the same page read default; other pages stay clean.
  EXPECT_EQ(T.peek(5 * PageEntries + 8), 0u);
  EXPECT_EQ(T.peek(6 * PageEntries), 0u);
  T.touch(0) = 9;
  EXPECT_EQ(T.pagesAllocated(), 2u);
}

TEST(ShadowTable, TouchReferencesStayStableAcrossGrowth) {
  Table<uint64_t> T(uint64_t(64) * PageEntries);
  uint64_t &First = T.touch(3);
  First = 77;
  // Materialize many more pages; the arena must not move page storage.
  for (uint64_t P = 1; P < 64; ++P)
    T.touch(P * PageEntries) = P;
  EXPECT_EQ(First, 77u);
  EXPECT_EQ(&First, &T.touch(3));
}

TEST(ShadowTable, DenseModeAllocatesEagerly) {
  Table<uint32_t> T(uint64_t(3) * PageEntries + 5, Mode::Dense);
  EXPECT_EQ(T.pagesAllocated(), 4u);
  EXPECT_EQ(T.peek(1), 0u);
  T.touch(1) = 11;
  EXPECT_EQ(T.pagesAllocated(), 4u); // touch never allocates here
  EXPECT_EQ(T.peek(1), 11u);
  EXPECT_EQ(T.peek(3 * PageEntries + 4), 0u);
}

TEST(ShadowTable, PageBytesAreEntriesOnly) {
  // A page is its entries and nothing else: no per-page stamp or
  // header is charged to the byte accounting.
  EXPECT_EQ(Table<uint8_t>::pageBytes(), PageEntries * sizeof(uint8_t));
  EXPECT_EQ(Table<uint64_t>::pageBytes(), PageEntries * sizeof(uint64_t));
}

TEST(ShadowTable, DenseVsSparseEquivalenceProperty) {
  // Any interleaving of touch-writes and peeks reads identically from
  // a Dense and a Sparse table.
  const uint64_t N = uint64_t(32) * PageEntries;
  Table<uint32_t> Sparse(N, Mode::Sparse);
  Table<uint32_t> Dense(N, Mode::Dense);
  Lcg Rng(0xC0FFEE);
  for (int Op = 0; Op < 8000; ++Op) {
    uint64_t I = Rng.next() % N;
    if (Rng.next() % 3 == 0) {
      uint32_t V = static_cast<uint32_t>(Rng.next());
      Sparse.touch(I) = V;
      Dense.touch(I) = V;
    } else {
      ASSERT_EQ(Sparse.peek(I), Dense.peek(I)) << "index " << I;
    }
  }
  // Sparse stayed sparse: 8000 touches spread over 32 pages at most.
  EXPECT_LE(Sparse.pagesAllocated(), 32u);
  EXPECT_EQ(Dense.pagesAllocated(), 32u);
}

TEST(ShadowTable, DeepCopyIsIndependentAndSparse) {
  Table<uint32_t> A(uint64_t(16) * PageEntries);
  A.touch(7) = 70;
  A.touch(9 * PageEntries) = 90;
  Table<uint32_t> B(A);
  EXPECT_EQ(B.pagesAllocated(), 2u); // only materialized pages copied
  EXPECT_EQ(B.peek(7), 70u);
  EXPECT_EQ(B.peek(9 * PageEntries), 90u);
  A.touch(7) = 71;
  EXPECT_EQ(B.peek(7), 70u); // copies don't alias
  B.touch(3 * PageEntries) = 1;
  EXPECT_EQ(A.peek(3 * PageEntries), 0u);
}

TEST(ShadowBudget, LedgerSemantics) {
  BudgetLedger Unbounded(0);
  EXPECT_FALSE(Unbounded.overBudget(1u << 30));
  EXPECT_FALSE(Unbounded.degraded());

  BudgetLedger L(4);
  EXPECT_FALSE(L.overBudget(3));
  EXPECT_TRUE(L.overBudget(4));
  EXPECT_TRUE(L.overBudget(5));
  EXPECT_EQ(L.maxEntries(), 4u);
  EXPECT_FALSE(L.degraded());
  EXPECT_EQ(L.evictions(), 0u);
  L.recordEviction();
  L.recordEviction();
  EXPECT_TRUE(L.degraded()); // sticky
  EXPECT_EQ(L.evictions(), 2u);
}
