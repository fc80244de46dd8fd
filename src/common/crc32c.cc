#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TSB_CRC32C_SSE42 1
#endif

namespace tsb {
namespace crc32c {

namespace {

// Table-driven CRC32C, table generated at first use (reflected polynomial
// 0x82f63b78).
struct Table {
  uint32_t t[256];
  Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

const Table& GetTable() {
  static const Table table;
  return table;
}

#ifdef TSB_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC
// as the table, eight bytes per instruction. Only called when the CPU
// reports SSE4.2; the rest of the build stays baseline x86-64.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    memcpy(&word, data, 8);  // unaligned little-endian load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*data));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#ifdef TSB_CRC32C_SSE42
  __builtin_cpu_init();  // Extend may run before libgcc's own constructor.
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return ExtendPortable;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Table& table = GetTable();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = table.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace tsb
