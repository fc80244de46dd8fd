// Unit tests for src/common: Status, Slice, coding, CRC32C, clock, random,
// arena, logger.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logger.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace tsb {
namespace {

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ("OK", s.ToString());
}

TEST(StatusTest, NotFoundCarriesMessage) {
  Status s = Status::NotFound("key", "42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ("NotFound: key: 42", s.ToString());
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::WriteOnceViolation("x").IsWriteOnceViolation());
  EXPECT_TRUE(Status::OutOfSpace("x").IsOutOfSpace());
  EXPECT_TRUE(Status::TxnConflict("x").IsTxnConflict());
  EXPECT_TRUE(Status::TxnNotActive("x").IsTxnNotActive());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
}

TEST(StatusTest, CopySemantics) {
  Status a = Status::IOError("disk", "gone");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::Corruption("inner"); };
  auto outer = [&]() -> Status {
    TSB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsCorruption());
}

// ---------- Slice ----------

TEST(SliceTest, EmptyDefault) {
  Slice s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(0u, s.size());
}

TEST(SliceTest, CompareLexicographic) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(0, Slice("abc").compare(Slice("abc")));
  // Prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  // Comparison is unsigned: 0xff > 0x01.
  const char hi[] = {static_cast<char>(0xff)};
  const char lo[] = {0x01};
  EXPECT_GT(Slice(hi, 1).compare(Slice(lo, 1)), 0);
}

TEST(SliceTest, OperatorsAndPrefix) {
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("b") >= Slice("a"));
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("hello");
  s.remove_prefix(2);
  EXPECT_EQ("llo", s.ToString());
}

TEST(SliceTest, EmbeddedNulBytesCompare) {
  std::string a("a\0b", 3), b("a\0c", 3);
  EXPECT_LT(Slice(a).compare(Slice(b)), 0);
  EXPECT_EQ(3u, Slice(a).size());
}

// ---------- coding ----------

TEST(CodingTest, Fixed16RoundTrip) {
  char buf[2];
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u}) {
    EncodeFixed16(buf, static_cast<uint16_t>(v));
    EXPECT_EQ(v, DecodeFixed16(buf));
  }
}

TEST(CodingTest, Fixed32RoundTrip) {
  char buf[4];
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EncodeFixed32(buf, v);
    EXPECT_EQ(v, DecodeFixed32(buf));
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  char buf[8];
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xdeadbeefcafebabe},
                     UINT64_MAX}) {
    EncodeFixed64(buf, v);
    EXPECT_EQ(v, DecodeFixed64(buf));
  }
}

TEST(CodingTest, FixedIsLittleEndianOnDisk) {
  char buf[4];
  EncodeFixed32(buf, 0x01020304u);
  EXPECT_EQ(0x04, buf[0]);
  EXPECT_EQ(0x03, buf[1]);
  EXPECT_EQ(0x02, buf[2]);
  EXPECT_EQ(0x01, buf[3]);
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  std::vector<uint32_t> values;
  for (uint32_t shift = 0; shift < 32; ++shift) {
    values.push_back(1u << shift);
    values.push_back((1u << shift) - 1);
  }
  values.push_back(0xffffffffu);
  for (uint32_t v : values) PutVarint32(&s, v);
  Slice in(s);
  for (uint32_t v : values) {
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(v, got);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint64RoundTrip) {
  std::string s;
  std::vector<uint64_t> values = {0, 127, 128, 16383, 16384, UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice in(s);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(v, got);
  }
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string s;
  PutVarint32(&s, 1u << 30);  // multi-byte encoding
  Slice in(s.data(), s.size() - 1);
  uint32_t got;
  EXPECT_FALSE(GetVarint32(&in, &got));
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 35, UINT64_MAX}) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
  }
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice("hello"));
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("world"));
  Slice in(s), out;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ("hello", out.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ("", out.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ("world", out.ToString());
  EXPECT_FALSE(GetLengthPrefixedSlice(&in, &out));
}

// ---------- crc32c ----------

TEST(Crc32cTest, KnownValues) {
  // Standard CRC32C test vector: "123456789" -> 0xe3069283.
  EXPECT_EQ(0xe3069283u, crc32c::Value("123456789", 9));
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const char* data = "hello, world";
  uint32_t whole = crc32c::Value(data, 12);
  uint32_t part = crc32c::Extend(crc32c::Value(data, 5), data + 5, 7);
  EXPECT_EQ(whole, part);
}

// The dispatched Extend (the hardware crc32 instruction on SSE4.2 CPUs)
// must agree with the portable table loop byte for byte: every length up
// to just past a 4 KiB page, at every alignment of the start pointer,
// from random seeds, so the 8-byte word loop and the byte tail both run.
TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  Random rnd(301);
  std::string buf(4200 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 4200; ++n) {
      const auto seed = static_cast<uint32_t>(rnd.Next());
      const char* p = buf.data() + offset;
      ASSERT_EQ(crc32c::ExtendPortable(seed, p, n), crc32c::Extend(seed, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, ExtendChainsAtEverySplit) {
  Random rnd(17);
  char buf[64];
  for (char& c : buf) c = static_cast<char>(rnd.Next());
  const auto seed = static_cast<uint32_t>(rnd.Next());
  const uint32_t whole = crc32c::Extend(seed, buf, sizeof(buf));
  EXPECT_EQ(crc32c::ExtendPortable(seed, buf, sizeof(buf)), whole);
  for (size_t split = 0; split <= sizeof(buf); ++split) {
    const uint32_t head = crc32c::Extend(seed, buf, split);
    EXPECT_EQ(whole, crc32c::Extend(head, buf + split, sizeof(buf) - split))
        << "split " << split;
  }
}

// The hardware path runs three interleaved 680-byte lanes over blocks of
// 2040 bytes. Around every block edge, around page sizes, and far past a
// page, at random offsets and seeds, it must equal the portable loop —
// whole and chained across random splits.
TEST(Crc32cTest, ThreeLaneKernelMatchesPortableAroundBlockEdges) {
  Random rnd(4242);
  std::string buf(40000 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Next());
  std::vector<size_t> lengths;
  for (size_t block : {680, 2040}) {
    for (size_t k = 1; k <= 19; ++k) {
      for (int d = -9; d <= 9; ++d) lengths.push_back(block * k + d);
    }
  }
  for (size_t page : {4096, 8192, 16384, 32768}) {
    for (size_t d : {0, 4, 8, 12, 20}) {
      lengths.push_back(page - d);
      lengths.push_back(page + d);
    }
  }
  lengths.push_back(3 * 2040 + 7);
  lengths.push_back(40000);
  for (const size_t n : lengths) {
    const size_t offset = rnd.Uniform(8);
    const char* p = buf.data() + offset;
    const auto seed = static_cast<uint32_t>(rnd.Next());
    const uint32_t want = crc32c::ExtendPortable(seed, p, n);
    ASSERT_EQ(want, crc32c::Extend(seed, p, n))
        << "offset " << offset << " length " << n;
    uint32_t chained = seed;
    for (size_t done = 0; done < n;) {
      const size_t piece = std::min<size_t>(n - done, 1 + rnd.Uniform(5000));
      chained = crc32c::Extend(chained, p + done, piece);
      done += piece;
    }
    ASSERT_EQ(want, chained) << "chained, length " << n;
  }
}

// Combine joins the CRCs of adjacent pieces without their bytes.
TEST(Crc32cTest, CombineEqualsValueOfConcatenation) {
  Random rnd(77);
  std::string buf(9000, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Next());
  for (int i = 0; i < 300; ++i) {
    const size_t n = rnd.Uniform(buf.size() + 1);
    // Split points at the ends and at random, and the page-shaped ones
    // SealPage and the journal use.
    size_t split = rnd.Uniform(n + 1);
    if (i % 10 == 0) split = 0;
    if (i % 10 == 1) split = n;
    if (i % 10 == 2 && n >= 8) split = 8;
    const char* a = buf.data();
    const char* b = buf.data() + split;
    ASSERT_EQ(crc32c::Value(a, n),
              crc32c::Combine(crc32c::Value(a, split),
                              crc32c::Value(b, n - split), n - split))
        << "length " << n << " split " << split;
  }
  // Lengths past the cache's 32-bit key take the uncached path: shifting
  // over L1 then L2 bytes is shifting over L1 + L2.
  const uint32_t c = crc32c::Value(buf.data(), 100);
  const uint64_t l1 = (1ull << 32) + 12345, l2 = 987654321;
  EXPECT_EQ(crc32c::Combine(c, 0, l1 + l2),
            crc32c::Combine(crc32c::Combine(c, 0, l1), 0, l2));
  EXPECT_EQ(c, crc32c::Combine(c, 0, 0));
}

// RFC 3720 (iSCSI) appendix B.4 test vectors, through both paths.
TEST(Crc32cTest, Rfc3720Vectors) {
  char zeros[32], ones[32], up[32], down[32];
  for (int i = 0; i < 32; ++i) {
    zeros[i] = 0;
    ones[i] = static_cast<char>(0xff);
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  const std::pair<const char*, uint32_t> vectors[] = {
      {zeros, 0x8a9136aau}, {ones, 0x62a8ab43u},
      {up, 0x46dd794eu},    {down, 0x113fdb5cu}};
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(want, crc32c::Value(data, 32));
    EXPECT_EQ(want, crc32c::ExtendPortable(0, data, 32));
  }
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(v, crc32c::Unmask(crc32c::Mask(v)));
    EXPECT_NE(v, crc32c::Mask(v));  // masking must change the value
  }
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("b", 1));
}

// ---------- clock ----------

TEST(ClockTest, TickIsStrictlyMonotonic) {
  LogicalClock c;
  Timestamp prev = c.Now();
  for (int i = 0; i < 100; ++i) {
    Timestamp t = c.Tick();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(ClockTest, AdvanceToNeverGoesBack) {
  LogicalClock c;
  c.AdvanceTo(50);
  EXPECT_EQ(50u, c.Now());
  c.AdvanceTo(10);
  EXPECT_EQ(50u, c.Now());
  EXPECT_EQ(51u, c.Tick());
}

TEST(ClockTest, SentinelOrdering) {
  // Committed timestamps < uncommitted sentinel < infinity.
  EXPECT_LT(kMaxCommittedTs, kUncommittedTs);
  EXPECT_LT(kUncommittedTs, kInfiniteTs);
  EXPECT_EQ(kMinTimestamp, 0u);
}

// ---------- random ----------

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(17), 17u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, SkewedStaysInRange) {
  Random r(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Skewed(100), 100u);
  }
}

// ---------- arena ----------

TEST(ArenaTest, AllocationsAreUsable) {
  Arena arena;
  char* p = arena.Allocate(16);
  memset(p, 0xab, 16);
  char* q = arena.Allocate(16);
  memset(q, 0xcd, 16);
  EXPECT_EQ(static_cast<char>(0xab), p[0]);  // no overlap
}

TEST(ArenaTest, LargeAllocation) {
  Arena arena;
  char* p = arena.Allocate(100000);
  memset(p, 1, 100000);
  EXPECT_GE(arena.MemoryUsage(), 100000u);
}

TEST(ArenaTest, AllocateCopy) {
  Arena arena;
  const char* src = "payload";
  char* copy = arena.AllocateCopy(src, 7);
  EXPECT_EQ(0, memcmp(copy, src, 7));
  EXPECT_NE(src, copy);
}

TEST(ArenaTest, AlignmentIsEightBytes) {
  Arena arena;
  for (int i = 0; i < 20; ++i) {
    char* p = arena.Allocate(3);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) % 8);
  }
}

// ---------- logger ----------

TEST(LoggerTest, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> captured;
  Logger::SetSink([&](LogLevel, const std::string& m) { captured.push_back(m); });
  Logger::SetLevel(LogLevel::kInfo);
  TSB_LOG_DEBUG("dropped %d", 1);
  TSB_LOG_INFO("kept %d", 2);
  TSB_LOG_ERROR("kept %s", "too");
  Logger::SetSink(nullptr);
  Logger::SetLevel(LogLevel::kWarn);
  ASSERT_EQ(2u, captured.size());
  EXPECT_EQ("kept 2", captured[0]);
  EXPECT_EQ("kept too", captured[1]);
}

TEST(LoggerTest, LongMessagesNotTruncated) {
  std::vector<std::string> captured;
  Logger::SetSink([&](LogLevel, const std::string& m) { captured.push_back(m); });
  Logger::SetLevel(LogLevel::kInfo);
  std::string big(2000, 'x');
  TSB_LOG_INFO("%s", big.c_str());
  Logger::SetSink(nullptr);
  Logger::SetLevel(LogLevel::kWarn);
  ASSERT_EQ(1u, captured.size());
  EXPECT_EQ(big, captured[0]);
}

}  // namespace
}  // namespace tsb
