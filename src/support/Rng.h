//===- support/Rng.h - Deterministic pseudo-random numbers ------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic PRNGs. Determinism matters here: the paper's
/// methodology (Section 6.1) relies on deterministic replay — the thread
/// interleaving of an execution is a pure function of an initial seed.
/// We therefore avoid std::mt19937's unspecified-distribution pitfalls and
/// implement SplitMix64 (for seeding) and xoshiro256** (for streams), whose
/// outputs are identical on every platform.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SUPPORT_RNG_H
#define SVD_SUPPORT_RNG_H

#include <bit>
#include <cstdint>

namespace svd {
namespace support {

/// SplitMix64: tiny, high-quality 64-bit generator, mainly used to expand
/// a user seed into the larger xoshiro state.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  /// Returns the next 64-bit value.
  uint64_t next();

private:
  uint64_t State;
};

/// A nonzero bound of Xoshiro256::nextBelow with the draw's constants
/// precomputed: the rejection threshold 2^64 mod Bound, and the 128-bit
/// magic ceil(2^128 / Bound) that reduces a draw modulo Bound with
/// multiplications only (Lemire, Kaser and Kurz, "Faster remainder by
/// direct computation", 2019: with 128 fraction bits the product is
/// exact for every 64-bit draw and bound). Building one divides once;
/// drawing against it never does. A caller drawing repeatedly against
/// the same bound (the VM scheduler) keeps one.
class DrawBound {
public:
  explicit DrawBound(uint64_t Bound);

  uint64_t value() const { return Bound; }

  /// Draws below Threshold are rejected, so the accepted range is a
  /// whole multiple of Bound and the result carries no modulo bias.
  uint64_t threshold() const { return Threshold; }

  /// \p R mod Bound. The magic of Bound 1 wraps to 0, which reduces
  /// every draw to 0, as it should.
  uint64_t reduce(uint64_t R) const {
    unsigned __int128 Frac = Magic * R;
    unsigned __int128 Low =
        (static_cast<unsigned __int128>(static_cast<uint64_t>(Frac)) *
         Bound) >>
        64;
    unsigned __int128 High =
        static_cast<unsigned __int128>(static_cast<uint64_t>(Frac >> 64)) *
        Bound;
    return static_cast<uint64_t>((High + Low) >> 64);
  }

private:
  uint64_t Bound;
  uint64_t Threshold;
  unsigned __int128 Magic;
};

/// xoshiro256**: the workhorse stream generator used by the VM scheduler
/// and the workload drivers.
class Xoshiro256 {
public:
  explicit Xoshiro256(uint64_t Seed);

  /// Returns the next 64-bit value.
  uint64_t next() {
    uint64_t Result = std::rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = std::rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniformly distributed value in [0, B.value()). Rejection
  /// sampling avoids modulo bias: draws repeat until one falls in the
  /// largest multiple of the bound that fits in 64 bits.
  uint64_t nextBelow(const DrawBound &B) {
    for (;;) {
      uint64_t R = next();
      if (R >= B.threshold())
        return B.reduce(R);
    }
  }

  /// The one-off form: a uniformly distributed value in [0, Bound).
  /// \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) { return nextBelow(DrawBound(Bound)); }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble();

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBool(double P);

private:
  uint64_t State[4];
};

} // namespace support
} // namespace svd

#endif // SVD_SUPPORT_RNG_H
