// CRC32C (Castagnoli). Every page header and historical node carries a
// checksum so corruption and WORM immutability violations are detectable.
#ifndef TSBTREE_COMMON_CRC32C_H_
#define TSBTREE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace tsb {
namespace crc32c {

/// Returns the CRC32C of data[0,n) seeded with `init_crc` (use Value() with
/// init_crc = 0 for a fresh checksum; Extend chains block checksums).
/// Runs the SSE4.2 crc32 instruction where the CPU has it (chosen once, at
/// first call; three interleaved lanes over long runs) and ExtendPortable
/// elsewhere; both give identical values.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The byte-at-a-time table loop: the path for CPUs without a CRC32C
/// instruction, and the reference the hardware path is tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// CRC32C of data[0,n).
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// The CRC32C of A followed by B, given crc1 = Value(A), crc2 = Value(B)
/// and len2 = |B|, without reading either: a caller that already holds
/// the CRCs of two adjacent pieces never reads the bytes again. The shift
/// for a length is computed once and cached.
uint32_t Combine(uint32_t crc1, uint32_t crc2, uint64_t len2);

/// A masked CRC is stored on disk so that computing the CRC of a buffer that
/// itself contains CRCs does not degenerate (same trick as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace tsb

#endif  // TSBTREE_COMMON_CRC32C_H_
