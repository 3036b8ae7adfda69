//===- tests/Crc32cTest.cpp - CRC-32C known answers and cross-check -------===//
//
// Pins both CRC-32C legs (support/Crc32c.h) to the RFC 3720 B.4 known
// answers, and the SSE4.2 leg to the slice-by-8 leg on random buffers
// of every length 0..6420 (a full 256-event serve frame) at every start
// offset 0..7, so the three-lane loop, the word loop, the byte tail and
// unaligned starts are all compared bit for bit.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32c.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace svd::support;

namespace {

using CrcFn = uint32_t (*)(const uint8_t *, size_t, uint32_t);

/// RFC 3720 B.4 check values, plus the customary "123456789" check.
void expectKnownAnswers(CrcFn Crc) {
  const std::string Check = "123456789";
  EXPECT_EQ(Crc(reinterpret_cast<const uint8_t *>(Check.data()),
                Check.size(), 0),
            0xE3069283u);
  const std::vector<uint8_t> Zeros(32, 0x00), Ones(32, 0xFF);
  EXPECT_EQ(Crc(Zeros.data(), Zeros.size(), 0), 0x8A9136AAu);
  EXPECT_EQ(Crc(Ones.data(), Ones.size(), 0), 0x62A8AB43u);
  std::vector<uint8_t> Up(32), Down(32);
  for (size_t I = 0; I < 32; ++I) {
    Up[I] = static_cast<uint8_t>(I);
    Down[I] = static_cast<uint8_t>(31 - I);
  }
  EXPECT_EQ(Crc(Up.data(), Up.size(), 0), 0x46DD794Eu);
  EXPECT_EQ(Crc(Down.data(), Down.size(), 0), 0x113FDB5Cu);
  // The empty message leaves the running value unchanged.
  EXPECT_EQ(Crc(nullptr, 0, 0), 0u);
  EXPECT_EQ(Crc(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

std::vector<uint8_t> randomBytes(size_t N, uint64_t Seed) {
  Xoshiro256 R(Seed);
  std::vector<uint8_t> B(N);
  for (uint8_t &Byte : B)
    Byte = static_cast<uint8_t>(R.next());
  return B;
}

} // namespace

TEST(Crc32c, PortableMatchesKnownAnswers) {
  expectKnownAnswers(crc32cPortable);
}

TEST(Crc32c, HardwareMatchesKnownAnswers) {
  if (!hasHardwareCrc32c())
    GTEST_SKIP() << "CPU lacks SSE4.2; hardware CRC-32C leg not testable";
  expectKnownAnswers(crc32cHardware);
}

TEST(Crc32c, DispatchedMatchesKnownAnswers) {
  expectKnownAnswers([](const uint8_t *D, size_t N, uint32_t C) {
    return crc32c(D, N, C);
  });
}

TEST(Crc32c, HardwareAgreesWithPortableOnEveryLengthAndOffset) {
  if (!hasHardwareCrc32c())
    GTEST_SKIP() << "CPU lacks SSE4.2; hardware CRC-32C leg not testable";
  constexpr size_t MaxLen = 6420, MaxOffset = 7;
  const std::vector<uint8_t> Buf = randomBytes(MaxLen + MaxOffset, 0xC32C);
  for (size_t Off = 0; Off <= MaxOffset; ++Off)
    for (size_t Len = 0; Len <= MaxLen; ++Len) {
      const uint8_t *P = Buf.data() + Off;
      uint32_t Seed = static_cast<uint32_t>(Len * 0x9E3779B9u);
      ASSERT_EQ(crc32cHardware(P, Len, Seed), crc32cPortable(P, Len, Seed))
          << "offset " << Off << ", length " << Len;
    }
}

TEST(Crc32c, ChainedPiecesEqualTheWhole) {
  const std::vector<uint8_t> Buf = randomBytes(300, 7);
  const uint32_t Whole = crc32cPortable(Buf.data(), Buf.size());
  for (size_t Cut = 0; Cut <= Buf.size(); ++Cut) {
    uint32_t Head = crc32cPortable(Buf.data(), Cut);
    ASSERT_EQ(crc32cPortable(Buf.data() + Cut, Buf.size() - Cut, Head), Whole)
        << "cut at " << Cut;
    ASSERT_EQ(crc32c(Buf.data() + Cut, Buf.size() - Cut,
                     crc32c(Buf.data(), Cut)),
              Whole)
        << "cut at " << Cut;
  }
}
