//===- shadow/Shadow.h - Two-level shadow-memory state tables ---*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared per-address state layer every detector keeps its shadow
/// metadata in. Historically each detector owned a dense std::vector
/// sized by the program's whole address space and rebuilt it per
/// sample; that caps the reproduction at toy heaps. This is the
/// memcheck shape instead (primary map of address-range chunks into
/// secondary pages):
///
///  * \c Table<T> splits the index space into fixed 4096-entry pages.
///    The primary is a flat vector of page pointers; every slot starts
///    out pointing at ONE shared read-only "clean" page, so a region
///    the run never touches costs exactly one pointer compare and zero
///    allocation, no matter how many millions of addresses the program
///    declares.
///  * Pages are arena-allocated on first write and permanently bound to
///    their primary slot, so references returned by \c touch() stay
///    stable for the table's lifetime (detectors keep `T &` across
///    calls).
///  * Tables are single-run, like the detectors that own them: there is
///    no reset. The clean page holds default entries, so \c peek() is
///    one pointer chase and \c touch() one pointer compare against it.
///  * \c Mode::Dense reproduces the historical dense-vector behavior
///    (every page allocated at construction), which gives the
///    differential tests two genuinely different code paths to compare.
///
/// The file also hosts the budget bookkeeping every bounded detector
/// used to copy-paste: \c BudgetLedger owns the MaxStateEntries limit
/// and the sticky degradation counters, \c BudgetLane the per-lane live
/// count and deterministic eviction cursor.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SHADOW_SHADOW_H
#define SVD_SHADOW_SHADOW_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace svd {
namespace shadow {

/// log2 of the page size in entries. 4096 entries balances the cost of
/// materializing a page against primary-vector size: a 2^32-word
/// address space needs at most a 2^20-slot primary (8 MB of pointers),
/// and typical heaps far less.
inline constexpr uint32_t PageBits = 12;
inline constexpr uint32_t PageEntries = 1u << PageBits;
inline constexpr uint64_t PageMask = PageEntries - 1;

/// Pages a table of \p NumEntries entries spans (the primary size).
uint64_t pagesFor(uint64_t NumEntries);

/// Allocation behavior of a Table.
enum class Mode : uint8_t {
  /// Pages materialize on first touch(); untouched regions stay on the
  /// shared clean page. The production configuration.
  Sparse,
  /// Every page is allocated at construction — the historical
  /// dense-vector behavior, kept as the reference side of the
  /// dense-vs-shadow differential (tests/ShadowDiffTest.cpp).
  Dense,
};

/// Two-level shadow table of default-constructible entries, indexed by
/// a detector-chosen key (word address, cache line, block id). Not
/// thread-safe; one table belongs to one detector instance, which is
/// single-run and single-thread by the Detector contract.
template <typename T> class Table {
  struct Secondary {
    std::array<T, PageEntries> Data{};
  };

  /// The one read-only page every untouched primary slot points at.
  /// Shared by ALL tables of this T; never written (touch() swaps the
  /// pointer for a materialized page before the first write).
  static const Secondary &cleanPage() {
    static const Secondary Clean{};
    return Clean;
  }

public:
  explicit Table(uint64_t NumEntries, Mode M = Mode::Sparse) {
    Primary.assign(pagesFor(NumEntries), &cleanPage());
    if (M == Mode::Dense)
      for (uint64_t P = 0; P < Primary.size(); ++P)
        materialize(P);
  }

  /// Deep copy, for detector snapshotting (ber::RecoveryManager): only
  /// materialized pages are duplicated; untouched slots keep aliasing
  /// the shared clean page, so copying a sparse table costs
  /// O(touched pages), not O(address space).
  Table(const Table &O) {
    Primary.assign(O.Primary.size(), &cleanPage());
    Arena.reserve(O.Arena.size());
    for (uint64_t P = 0; P < O.Primary.size(); ++P) {
      const Secondary *S = O.Primary[P];
      if (S == &cleanPage())
        continue;
      Arena.push_back(std::make_unique<Secondary>(*S));
      Primary[P] = Arena.back().get();
    }
  }
  Table &operator=(const Table &O) {
    if (this != &O) {
      Table Copy(O);
      *this = std::move(Copy);
    }
    return *this;
  }
  // Movable so per-lane tables can live inside std::vector; a move
  // transfers the arena wholesale, so entry references stay valid.
  Table(Table &&) = default;
  Table &operator=(Table &&) = default;

  /// Read-only access without materializing anything: an untouched
  /// entry reads as default-constructed off the clean page. One
  /// pointer chase.
  const T &peek(uint64_t I) const {
    return Primary[I >> PageBits]->Data[I & PageMask];
  }

  /// Mutable access; materializes the page on first write. The
  /// returned reference stays valid for the table's lifetime (pages
  /// are never freed or moved once allocated).
  T &touch(uint64_t I) {
    uint64_t P = I >> PageBits;
    const Secondary *S = Primary[P];
    // The clean page is the only secondary a table doesn't own; the
    // pointer compare is the entire "is this region untouched" test.
    if (S == &cleanPage())
      S = materialize(P);
    return const_cast<Secondary *>(S)->Data[I & PageMask];
  }

  /// Pages materialized so far (deterministic for a deterministic
  /// execution — allocation order is touch order).
  uint64_t pagesAllocated() const { return Arena.size(); }

  /// Bytes per materialized page, for memory accounting.
  static constexpr size_t pageBytes() { return sizeof(Secondary); }

  /// Bytes held: the primary vector plus materialized pages.
  size_t approxMemoryBytes() const {
    return Primary.capacity() * sizeof(const Secondary *) +
           Arena.size() * (sizeof(Secondary) + sizeof(void *));
  }

private:
  // Out of line so touch()'s hot path stays one compare and a load.
  [[gnu::noinline]] Secondary *materialize(uint64_t P) {
    Arena.push_back(std::make_unique<Secondary>());
    Secondary *S = Arena.back().get();
    Primary[P] = S;
    return S;
  }

  /// Every slot valid; untouched slots alias the shared clean page,
  /// materialized slots point into the arena.
  std::vector<const Secondary *> Primary;
  /// Owns the materialized pages; never shrinks, so entry references
  /// are stable.
  std::vector<std::unique_ptr<Secondary>> Arena;
};

/// Per-lane live-entry accounting for budgeted detectors. A "lane" is
/// whatever the detector shards state by (thread for OnlineSvd, CPU for
/// HardwareSvd); the eviction cursor walks the lane's entry array
/// monotonically, which keeps eviction order deterministic and
/// amortized O(1).
struct BudgetLane {
  uint64_t Live = 0;
  uint32_t Cursor = 0;
};

/// The shared MaxStateEntries ledger (PR 5's degradation machinery,
/// folded out of the per-detector copies). Owns the limit and the
/// sticky degradation state; detectors consult overBudget() before
/// creating an entry and call recordEviction() after reclaiming one.
class BudgetLedger {
public:
  explicit BudgetLedger(uint64_t MaxEntries = 0) : Max(MaxEntries) {}

  /// True when creating one more entry in a lane with \p Live live
  /// entries would exceed the budget (0 = unbounded).
  bool overBudget(uint64_t Live) const { return Max != 0 && Live >= Max; }

  /// Entries a lane with \p Live live entries may still create before
  /// overBudget holds (UINT64_MAX when unbounded).
  uint64_t room(uint64_t Live) const {
    return Max == 0 ? UINT64_MAX : Live >= Max ? 0 : Max - Live;
  }

  /// Records one deterministic eviction and raises the sticky flag.
  void recordEviction() {
    DegradedFlag = true;
    ++Evictions;
  }

  uint64_t maxEntries() const { return Max; }
  bool degraded() const { return DegradedFlag; }
  uint64_t evictions() const { return Evictions; }

private:
  uint64_t Max;
  bool DegradedFlag = false;
  uint64_t Evictions = 0;
};

} // namespace shadow
} // namespace svd

#endif // SVD_SHADOW_SHADOW_H
