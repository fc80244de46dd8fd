#include "common/crc32c.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TSB_CRC32C_SSE42 1
#endif

namespace tsb {
namespace crc32c {

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli polynomial

// Table-driven CRC32C, table generated at first use.
struct Table {
  uint32_t t[256];
  Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

const Table& GetTable() {
  static const Table table;
  return table;
}

// GF(2) polynomial arithmetic modulo the CRC polynomial, in the reflected
// bit order the CRC register uses (bit 31 is x^0). Shifting a raw CRC
// register over n zero bytes multiplies it by x^(8n); that is what joins
// the CRCs of two adjacent pieces. `a` must be nonzero (x^k mod P is).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t m = 1u << 31;
  uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// x^(8 * len) mod P: the operator that shifts a CRC register past `len`
/// bytes (square-and-multiply over the bits of len).
constexpr uint32_t ShiftOperator(uint64_t len) {
  uint32_t p = 1u << 31;  // x^0
  uint32_t x = 1u << 23;  // x^8: one byte
  for (; len != 0; len >>= 1) {
    if (len & 1) p = MultModP(x, p);
    x = MultModP(x, x);
  }
  return p;
}

#ifdef TSB_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC
// as the table, eight bytes per instruction, but each one waits on the
// previous result. Runs of 3 * kLane bytes therefore go through three
// lanes at once, the second and third starting from a zero register; the
// lane results are joined by shifting the earlier lanes over kLane bytes,
// a byte-table lookup per register byte. With 680-byte lanes a 4 KiB
// page's header range (4084 bytes) is two blocks and a 4-byte tail.
// Only called when the CPU reports SSE4.2; the rest of the build stays
// baseline x86-64.
constexpr size_t kLane = 680;

/// Shifts a raw CRC register over kLane bytes by table lookup; the table
/// is built at compile time.
struct LaneShift {
  uint32_t t[4][256];
  uint32_t operator()(uint32_t crc) const {
    return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
           t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
  }
};

constexpr LaneShift MakeLaneShift() {
  LaneShift shift{};
  const uint32_t op = ShiftOperator(kLane);
  for (int k = 0; k < 4; ++k) {
    for (uint32_t v = 0; v < 256; ++v) {
      shift.t[k][v] = MultModP(op, v << (8 * k));
    }
  }
  return shift;
}

constexpr LaneShift kLaneShift = MakeLaneShift();

inline uint64_t LoadWord(const char* p) {
  uint64_t word;
  memcpy(&word, p, 8);  // unaligned little-endian load
  return word;
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 3 * kLane; data += 3 * kLane, n -= 3 * kLane) {
    uint64_t c0 = crc, c1 = 0, c2 = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      c0 = _mm_crc32_u64(c0, LoadWord(data + i));
      c1 = _mm_crc32_u64(c1, LoadWord(data + kLane + i));
      c2 = _mm_crc32_u64(c2, LoadWord(data + 2 * kLane + i));
    }
    crc = kLaneShift(kLaneShift(static_cast<uint32_t>(c0)) ^
                     static_cast<uint32_t>(c1)) ^
          static_cast<uint32_t>(c2);
  }
  for (; n >= 8; data += 8, n -= 8) crc = _mm_crc32_u64(crc, LoadWord(data));
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

uint32_t Combine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  if (len2 == 0) return crc1 ^ crc2;  // crc2 is the CRC of nothing: 0
  // Callers combine over a handful of fixed lengths (a page, a page minus
  // its header word), so the shift operator for a length is computed
  // once and kept in a small direct-mapped cache: the length in the high
  // word, the operator in the low one, so a racing fill is never torn.
  static std::atomic<uint64_t> cache[8];
  uint32_t op;
  if (len2 <= UINT32_MAX) {
    std::atomic<uint64_t>& slot = cache[(len2 * 0x9e3779b97f4a7c15ull) >> 61];
    const uint64_t entry = slot.load(std::memory_order_relaxed);
    if ((entry >> 32) == len2) {
      op = static_cast<uint32_t>(entry);
    } else {
      op = ShiftOperator(len2);
      slot.store((len2 << 32) | op, std::memory_order_relaxed);
    }
  } else {
    op = ShiftOperator(len2);
  }
  return MultModP(op, crc1) ^ crc2;
}

}  // namespace crc32c
}  // namespace tsb
