//===- support/Crc32c.h - CRC-32C (Castagnoli) checksum ---------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32C: the Castagnoli polynomial (reflected 0x82F63B78), initial
/// value and final xor 0xFFFFFFFF — the iSCSI checksum of RFC 3720, and
/// the one the x86 SSE4.2 `crc32` instruction computes. It seals the
/// serve wire frames (serve/Frame.h). At frame lengths it detects every
/// single-bit and every two-bit error, which a multiplicative hash like
/// FNV-1a does not promise.
///
/// Two implementations with bit-identical results: the SSE4.2
/// instruction, 8 bytes per step, and a portable slice-by-8 table walk.
/// crc32c() picks one once per process from the CPU's feature bits; the
/// two legs are exported so tests can pin them against each other.
///
/// Every entry point continues from a previous result, so a checksum
/// over a concatenation is the chain of checksums over its pieces:
/// crc32c(B, NB, crc32c(A, NA)) == crc32c(A ++ B). Pass 0 to start.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SUPPORT_CRC32C_H
#define SVD_SUPPORT_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace svd {
namespace support {

/// CRC-32C of \p Size bytes at \p Data, continuing from \p Crc.
uint32_t crc32c(const uint8_t *Data, size_t Size, uint32_t Crc = 0);

/// The portable slice-by-8 leg.
uint32_t crc32cPortable(const uint8_t *Data, size_t Size, uint32_t Crc = 0);

/// True when this CPU runs the SSE4.2 leg.
bool hasHardwareCrc32c();

/// The SSE4.2 leg. Callable only when hasHardwareCrc32c().
uint32_t crc32cHardware(const uint8_t *Data, size_t Size, uint32_t Crc = 0);

} // namespace support
} // namespace svd

#endif // SVD_SUPPORT_CRC32C_H
