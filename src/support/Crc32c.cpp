//===- support/Crc32c.cpp -------------------------------------------------===//

#include "support/Crc32c.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

using namespace svd;
using namespace svd::support;

namespace {

static_assert(std::endian::native == std::endian::little,
              "the word loads below read little-endian");

constexpr uint32_t Poly = 0x82F63B78u;

/// Table[0] is the byte-at-a-time table; Table[K][B] is the CRC of
/// byte B followed by K zero bytes, so eight lookups fold one 8-byte
/// word.
constexpr std::array<std::array<uint32_t, 256>, 8> makeTables() {
  std::array<std::array<uint32_t, 256>, 8> T{};
  for (uint32_t B = 0; B < 256; ++B) {
    uint32_t C = B;
    for (int I = 0; I < 8; ++I)
      C = (C >> 1) ^ (Poly & (0u - (C & 1)));
    T[0][B] = C;
  }
  for (size_t K = 1; K < 8; ++K)
    for (size_t B = 0; B < 256; ++B)
      T[K][B] = (T[K - 1][B] >> 8) ^ T[0][T[K - 1][B] & 0xff];
  return T;
}

constexpr std::array<std::array<uint32_t, 256>, 8> Table = makeTables();

uint64_t load64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof V);
  return V;
}

} // namespace

uint32_t support::crc32cPortable(const uint8_t *Data, size_t Size,
                                 uint32_t Crc) {
  uint32_t C = ~Crc;
  for (; Size >= 8; Data += 8, Size -= 8) {
    uint64_t W = load64(Data) ^ C;
    C = Table[7][W & 0xff] ^ Table[6][(W >> 8) & 0xff] ^
        Table[5][(W >> 16) & 0xff] ^ Table[4][(W >> 24) & 0xff] ^
        Table[3][(W >> 32) & 0xff] ^ Table[2][(W >> 40) & 0xff] ^
        Table[1][(W >> 48) & 0xff] ^ Table[0][W >> 56];
  }
  for (; Size > 0; ++Data, --Size)
    C = (C >> 8) ^ Table[0][(C ^ *Data) & 0xff];
  return ~C;
}

#if defined(__x86_64__)

bool support::hasHardwareCrc32c() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) uint32_t
support::crc32cHardware(const uint8_t *Data, size_t Size, uint32_t Crc) {
  uint64_t C = ~Crc;
  for (; Size >= 8; Data += 8, Size -= 8)
    C = _mm_crc32_u64(C, load64(Data));
  uint32_t C32 = static_cast<uint32_t>(C);
  for (; Size > 0; ++Data, --Size)
    C32 = _mm_crc32_u8(C32, *Data);
  return ~C32;
}

#else

bool support::hasHardwareCrc32c() { return false; }

uint32_t support::crc32cHardware(const uint8_t *Data, size_t Size,
                                 uint32_t Crc) {
  assert(false && "no hardware CRC-32C on this target");
  return crc32cPortable(Data, Size, Crc);
}

#endif

uint32_t support::crc32c(const uint8_t *Data, size_t Size, uint32_t Crc) {
  static const auto Impl =
      hasHardwareCrc32c() ? crc32cHardware : crc32cPortable;
  return Impl(Data, Size, Crc);
}
