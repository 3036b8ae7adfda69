//===- support/Rng.cpp ----------------------------------------------------===//

#include "support/Rng.h"

#include <cassert>

using namespace svd;
using namespace svd::support;

uint64_t SplitMix64::next() {
  State += 0x9E3779B97F4A7C15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

DrawBound::DrawBound(uint64_t Bound) : Bound(Bound) {
  assert(Bound != 0 && "nextBelow bound must be nonzero");
  Magic = ~static_cast<unsigned __int128>(0) / Bound + 1;
  // 2^64 mod Bound, which is (2^64 - Bound) mod Bound.
  Threshold = reduce(0 - Bound);
}

Xoshiro256::Xoshiro256(uint64_t Seed) {
  SplitMix64 SM(Seed);
  for (uint64_t &S : State)
    S = SM.next();
}

double Xoshiro256::nextDouble() {
  // 53 high-quality bits into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256::nextBool(double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return nextDouble() < P;
}
