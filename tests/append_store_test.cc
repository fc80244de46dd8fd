// AppendStore: the historical-database medium. Checks framing, CRC
// verification, sector alignment on WORM vs byte-packing on erasable
// devices, utilization accounting, the read cache, and the mmap-backed
// zero-copy cold read path (pin lifetime across file growth/remap and
// store close, plus the non-mmap fallback).
#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>

#include "storage/append_store.h"
#include "storage/fault_device.h"
#include "storage/file_device.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"

namespace tsb {
namespace {

// Temp file fixture for FileDevice-backed stores.
class MmapAppendStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/tsb_append_store_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    ASSERT_GE(fd, 0);
    ::close(fd);
    path_ = tmpl;
  }
  void TearDown() override { ::unlink(path_.c_str()); }

  std::unique_ptr<FileDevice> OpenDevice(bool enable_mmap) {
    FileDevice* raw = nullptr;
    Status s = FileDevice::Open(path_, &raw, DeviceKind::kOpticalErasable,
                                CostParams::OpticalWorm(), enable_mmap);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<FileDevice>(raw);
  }

  std::string path_;
};

TEST(AppendStoreTest, AppendReadRoundTrip) {
  MemDevice dev;
  AppendStore store(&dev);
  HistAddr addr;
  ASSERT_TRUE(store.Append(Slice("historical node"), &addr).ok());
  std::string out;
  ASSERT_TRUE(store.Read(addr, &out).ok());
  EXPECT_EQ("historical node", out);
  EXPECT_EQ(15u, addr.length);
}

TEST(AppendStoreTest, ErasableDevicePacksByteContiguously) {
  MemDevice dev;
  AppendStore store(&dev);
  HistAddr a, b;
  ASSERT_TRUE(store.Append(Slice("aaa"), &a).ok());
  ASSERT_TRUE(store.Append(Slice("bbbb"), &b).ok());
  EXPECT_EQ(0u, a.offset);
  EXPECT_EQ(AppendStore::kFrameHeaderSize + 3, b.offset);
}

TEST(AppendStoreTest, WormDeviceAlignsToSectors) {
  WormDevice worm(64);
  AppendStore store(&worm);
  HistAddr a, b;
  ASSERT_TRUE(store.Append(Slice(std::string(10, 'a')), &a).ok());
  ASSERT_TRUE(store.Append(Slice(std::string(10, 'b')), &b).ok());
  EXPECT_EQ(0u, a.offset);
  EXPECT_EQ(64u, b.offset);  // sector-aligned, not byte 18
  std::string out;
  ASSERT_TRUE(store.Read(a, &out).ok());
  EXPECT_EQ(std::string(10, 'a'), out);
  ASSERT_TRUE(store.Read(b, &out).ok());
  EXPECT_EQ(std::string(10, 'b'), out);
}

TEST(AppendStoreTest, WormNearSectorSizeNodesWasteLittle) {
  // Paper section 3.4: consolidated nodes let utilization approach 1.
  WormDevice worm(1024);
  AppendStore store(&worm);
  for (int i = 0; i < 16; ++i) {
    HistAddr addr;
    // 1016-byte payload + 8-byte frame = exactly one sector.
    ASSERT_TRUE(store.Append(Slice(std::string(1016, 'n')), &addr).ok());
  }
  EXPECT_GT(worm.Utilization(), 0.99);
}

TEST(AppendStoreTest, LargeBlobSpansSectors) {
  WormDevice worm(64);
  AppendStore store(&worm);
  std::string big(1000, 'B');
  HistAddr addr;
  ASSERT_TRUE(store.Append(big, &addr).ok());
  std::string out;
  ASSERT_TRUE(store.Read(addr, &out).ok());
  EXPECT_EQ(big, out);
}

TEST(AppendStoreTest, CorruptionDetectedOnRead) {
  MemDevice dev;
  AppendStore store(&dev);
  HistAddr addr;
  ASSERT_TRUE(store.Append(Slice("precious"), &addr).ok());
  ASSERT_TRUE(store.Flush().ok());  // on the device before it is damaged
  char evil = 'X';
  ASSERT_TRUE(dev.Write(addr.offset + AppendStore::kFrameHeaderSize + 2,
                        Slice(&evil, 1))
                  .ok());
  std::string out;
  EXPECT_TRUE(store.Read(addr, &out).IsCorruption());
}

TEST(AppendStoreTest, LengthMismatchDetected) {
  MemDevice dev;
  AppendStore store(&dev);
  HistAddr addr;
  ASSERT_TRUE(store.Append(Slice("12345"), &addr).ok());
  HistAddr bogus{addr.offset, 4};  // wrong length
  std::string out;
  EXPECT_TRUE(store.Read(bogus, &out).IsCorruption());
}

TEST(AppendStoreTest, AccountingTracksPayloadAndDeviceBytes) {
  MemDevice dev;
  AppendStore store(&dev);
  HistAddr addr;
  ASSERT_TRUE(store.Append(Slice(std::string(100, 'x')), &addr).ok());
  ASSERT_TRUE(store.Append(Slice(std::string(50, 'y')), &addr).ok());
  EXPECT_EQ(150u, store.payload_bytes());
  EXPECT_EQ(150u + 2 * AppendStore::kFrameHeaderSize, store.device_bytes());
  EXPECT_EQ(2u, store.blob_count());
}

TEST(AppendStoreTest, ReadCacheHitsSkipDevice) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/4);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("cached blob"), &a).ok());
  std::string out;
  ASSERT_TRUE(store.Read(a, &out).ok());  // miss, fills cache
  dev.ResetStats();
  ASSERT_TRUE(store.Read(a, &out).ok());  // hit
  EXPECT_EQ("cached blob", out);
  EXPECT_EQ(0u, dev.stats().reads);
  EXPECT_EQ(1u, store.cache_hits());
}

TEST(AppendStoreTest, CacheEvictsLru) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/2);
  HistAddr a, b, c;
  ASSERT_TRUE(store.Append(Slice("A"), &a).ok());
  ASSERT_TRUE(store.Append(Slice("B"), &b).ok());
  ASSERT_TRUE(store.Append(Slice("C"), &c).ok());
  std::string out;
  ASSERT_TRUE(store.Read(a, &out).ok());
  ASSERT_TRUE(store.Read(b, &out).ok());
  ASSERT_TRUE(store.Read(c, &out).ok());  // evicts a
  dev.ResetStats();
  ASSERT_TRUE(store.Read(a, &out).ok());  // miss again
  EXPECT_GE(dev.stats().reads, 1u);
}

TEST(AppendStoreTest, ResumesAfterReopenOnSameDevice) {
  MemDevice dev;
  HistAddr a;
  {
    AppendStore store(&dev);
    ASSERT_TRUE(store.Append(Slice("first era"), &a).ok());
    ASSERT_TRUE(store.Flush().ok());
  }
  AppendStore reopened(&dev);
  HistAddr b;
  ASSERT_TRUE(reopened.Append(Slice("second era"), &b).ok());
  EXPECT_GT(b.offset, a.offset);
  std::string out;
  ASSERT_TRUE(reopened.Read(a, &out).ok());
  EXPECT_EQ("first era", out);
  ASSERT_TRUE(reopened.Read(b, &out).ok());
  EXPECT_EQ("second era", out);
}

TEST(AppendStoreTest, ReadViewSharesOneCachedBuffer) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/4);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("shared blob"), &a).ok());
  BlobHandle h1, h2;
  ASSERT_TRUE(store.ReadView(a, &h1).ok());  // miss: reads, publishes
  dev.ResetStats();
  ASSERT_TRUE(store.ReadView(a, &h2).ok());  // hit: pins, no device I/O
  EXPECT_EQ(0u, dev.stats().reads);
  EXPECT_EQ(Slice("shared blob"), h1.data());
  EXPECT_TRUE(h1.SharesBufferWith(h2));  // one buffer, two pins — no copy
}

TEST(AppendStoreTest, PinnedViewSurvivesCacheEviction) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/1);
  HistAddr a, b;
  ASSERT_TRUE(store.Append(Slice("evicted soon"), &a).ok());
  ASSERT_TRUE(store.Append(Slice("the evictor"), &b).ok());
  BlobHandle pinned;
  ASSERT_TRUE(store.ReadView(a, &pinned).ok());
  BlobHandle other;
  ASSERT_TRUE(store.ReadView(b, &other).ok());  // evicts a's cache entry
  EXPECT_EQ(Slice("evicted soon"), pinned.data());  // pin keeps bytes alive
}

TEST(AppendStoreTest, ReadViewWorksWithoutCache) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/0);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("uncached"), &a).ok());
  BlobHandle h;
  ASSERT_TRUE(store.ReadView(a, &h).ok());
  EXPECT_EQ(Slice("uncached"), h.data());
  EXPECT_EQ(0u, store.cache_hits());
  EXPECT_EQ(0u, store.cache_misses());
}

TEST(AppendStoreTest, HistStatsCountReadsBytesAndHits) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/4);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice(std::string(100, 'z')), &a).ok());
  BlobHandle h;
  ASSERT_TRUE(store.ReadView(a, &h).ok());
  std::string owned;
  ASSERT_TRUE(store.Read(a, &owned).ok());
  const HistReadStats s = store.hist_stats();
  EXPECT_EQ(2u, s.blob_reads);
  EXPECT_EQ(200u, s.blob_bytes);
  EXPECT_EQ(1u, s.cache_hits);
  EXPECT_EQ(1u, s.cache_misses);
  EXPECT_DOUBLE_EQ(0.5, s.hit_ratio());
}

TEST_F(MmapAppendStoreTest, MappedReadViewServesBytesWithoutCopy) {
  auto dev = OpenDevice(/*enable_mmap=*/true);
  AppendStore store(dev.get(), /*cache_blobs=*/0);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("mapped blob"), &a).ok());
  BlobHandle h1, h2;
  ASSERT_TRUE(store.ReadView(a, &h1).ok());
  ASSERT_TRUE(store.ReadView(a, &h2).ok());
  EXPECT_EQ(Slice("mapped blob"), h1.data());
  // Both pins alias the same mapped bytes — no per-read buffer.
  EXPECT_EQ(static_cast<const void*>(h1.data().data()),
            static_cast<const void*>(h2.data().data()));
  EXPECT_TRUE(h1.SharesBufferWith(h2));
  const HistReadStats s = store.hist_stats();
  EXPECT_EQ(2u * 11u, s.mapped_bytes);
  EXPECT_EQ(0u, s.copied_bytes);
}

TEST_F(MmapAppendStoreTest, PinSurvivesFileGrowthAndRemap) {
  auto dev = OpenDevice(/*enable_mmap=*/true);
  AppendStore store(dev.get(), /*cache_blobs=*/0);
  HistAddr first;
  ASSERT_TRUE(store.Append(Slice("first blob"), &first).ok());
  BlobHandle pinned;
  ASSERT_TRUE(store.ReadView(first, &pinned).ok());
  const Slice before = pinned.data();

  // Grow the file well past the first mapping so later reads remap.
  HistAddr last{};
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store.Append(Slice(std::string(512, 'g')), &last).ok());
  }
  BlobHandle far;
  ASSERT_TRUE(store.ReadView(last, &far).ok());
  EXPECT_EQ(std::string(512, 'g'), far.data().ToString());

  // The old pin still reads the same bytes at the same address: the
  // refcounted old mapping stays alive until the pin drops.
  EXPECT_EQ(static_cast<const void*>(before.data()),
            static_cast<const void*>(pinned.data().data()));
  EXPECT_EQ(Slice("first blob"), pinned.data());
}

TEST_F(MmapAppendStoreTest, PinOutlivesStoreAndDeviceClose) {
  BlobHandle pinned;
  {
    auto dev = OpenDevice(/*enable_mmap=*/true);
    AppendStore store(dev.get(), /*cache_blobs=*/4);
    HistAddr a;
    ASSERT_TRUE(store.Append(Slice("outlives the store"), &a).ok());
    ASSERT_TRUE(store.ReadView(a, &pinned).ok());
  }  // store and device destroyed; fd closed
  EXPECT_EQ(Slice("outlives the store"), pinned.data());
  pinned.Release();
  EXPECT_FALSE(pinned.valid());
}

TEST_F(MmapAppendStoreTest, CorruptionDetectedOnFirstMappedPin) {
  auto dev = OpenDevice(/*enable_mmap=*/true);
  AppendStore store(dev.get(), /*cache_blobs=*/0);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("precious"), &a).ok());
  ASSERT_TRUE(store.Flush().ok());  // on the device before it is damaged
  char evil = 'X';
  ASSERT_TRUE(dev->Write(a.offset + AppendStore::kFrameHeaderSize + 2,
                         Slice(&evil, 1))
                  .ok());
  BlobHandle h;
  EXPECT_TRUE(store.ReadView(a, &h).IsCorruption());
}

TEST_F(MmapAppendStoreTest, NonMmapFallbackCopiesAndVerifies) {
  {
    auto dev = OpenDevice(/*enable_mmap=*/true);
    AppendStore store(dev.get(), /*cache_blobs=*/0);
    HistAddr a;
    ASSERT_TRUE(store.Append(Slice("fallback bytes"), &a).ok());
    ASSERT_TRUE(store.Flush().ok());
  }
  auto dev = OpenDevice(/*enable_mmap=*/false);
  EXPECT_FALSE(dev->SupportsMappedReads());
  AppendStore store(dev.get(), /*cache_blobs=*/0);
  HistAddr a{0, 14};
  BlobHandle h;
  ASSERT_TRUE(store.ReadView(a, &h).ok());
  EXPECT_EQ(Slice("fallback bytes"), h.data());
  const HistReadStats s = store.hist_stats();
  EXPECT_EQ(0u, s.mapped_bytes);
  EXPECT_EQ(14u, s.copied_bytes);
}

// A staged blob stays off the device until Flush or its first read; the
// read flushes it and serves it through the unchanged device path.
TEST_F(MmapAppendStoreTest, StagedBlobReadsBackThroughBothDevicePaths) {
  for (const bool mmap : {true, false}) {
    SCOPED_TRACE(mmap ? "mapped" : "copying");
    ASSERT_EQ(0, ::truncate(path_.c_str(), 0));
    auto dev = OpenDevice(mmap);
    AppendStore store(dev.get(), /*cache_blobs=*/0);
    HistAddr a, b;
    ASSERT_TRUE(store.Append(Slice("staged one"), &a).ok());
    ASSERT_TRUE(store.Append(Slice("staged two"), &b).ok());
    EXPECT_EQ(0u, dev->Size());
    EXPECT_EQ(0u, dev->stats().writes);
    EXPECT_EQ(0u, store.flushed_end());
    BlobHandle h;
    ASSERT_TRUE(store.ReadView(b, &h).ok());
    EXPECT_EQ(Slice("staged two"), h.data());
    EXPECT_EQ(store.device_bytes(), dev->Size());
    EXPECT_EQ(store.device_bytes(), store.flushed_end());
    EXPECT_EQ(1u, dev->stats().writes);  // both blobs in one write
    ASSERT_TRUE(store.ReadView(a, &h).ok());
    EXPECT_EQ(Slice("staged one"), h.data());
    const HistReadStats s = store.hist_stats();
    EXPECT_EQ(mmap ? 20u : 0u, s.mapped_bytes);
    EXPECT_EQ(mmap ? 0u : 20u, s.copied_bytes);
  }
}

TEST(AppendStoreTest, FlushWritesErasableTailOnce) {
  MemDevice dev;
  AppendStore store(&dev);
  HistAddr addr[5];
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        store.Append("blob-" + std::to_string(i) + std::string(i * 7, 'p'),
                     &addr[i])
            .ok());
  }
  EXPECT_EQ(0u, dev.Size());
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(1u, dev.stats().writes);
  EXPECT_EQ(store.device_bytes(), dev.Size());
  ASSERT_TRUE(store.Flush().ok());  // nothing staged: no write
  EXPECT_EQ(1u, dev.stats().writes);
  for (int i = 0; i < 5; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(addr[i], &out).ok());
    EXPECT_EQ("blob-" + std::to_string(i) + std::string(i * 7, 'p'), out);
  }
}

// On a WORM each Append writes its blob through at once, as one write
// (the sector residue between blobs never burns), and Flush has nothing
// left to write.
TEST(AppendStoreTest, WormAppendWritesEachBlobThrough) {
  WormDevice dev(/*sector_size=*/512);
  AppendStore store(&dev);
  uint64_t sectors = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string blob(100 + i * 250, static_cast<char>('a' + i));
    HistAddr a;
    ASSERT_TRUE(store.Append(blob, &a).ok());
    EXPECT_EQ(0u, a.offset % 512);
    sectors += (AppendStore::kFrameHeaderSize + blob.size() + 511) / 512;
    EXPECT_EQ(static_cast<uint64_t>(i + 1), dev.stats().writes);
    EXPECT_EQ(sectors, dev.sectors_burned());
    EXPECT_EQ(store.device_bytes(), store.flushed_end());
  }
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(6u, dev.stats().writes);
  EXPECT_EQ(sectors, dev.sectors_burned());
}

// A failed flush changes no count or offset and keeps the bytes; the next
// flush writes them at the same offsets, in one write.
TEST(AppendStoreTest, FailedFlushKeepsTailForTheNextFlush) {
  MemDevice base;
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingDevice dev(&base, plan);
  AppendStore store(&dev);
  HistAddr addr[3];
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Append(std::string(300, 'k' + i), &addr[i]).ok());
  }
  const uint64_t bytes = store.device_bytes();
  plan->FailNth(FaultOp::kWrite, 1);
  EXPECT_TRUE(store.Flush().IsIOError());
  EXPECT_EQ(3u, store.blob_count());
  EXPECT_EQ(900u, store.payload_bytes());
  EXPECT_EQ(bytes, store.device_bytes());
  EXPECT_EQ(0u, store.flushed_end());
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(bytes, store.flushed_end());
  EXPECT_EQ(1u, base.stats().writes);
  for (int i = 0; i < 3; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(addr[i], &out).ok());
    EXPECT_EQ(std::string(300, 'k' + i), out);
  }
  HistAddr next;
  ASSERT_TRUE(store.Append("after", &next).ok());
  EXPECT_EQ(bytes, next.offset);
}

// A WORM append that fails changes no count or offset: the next append
// takes the same address.
TEST(AppendStoreTest, FailedWormAppendLeavesStoreUnchanged) {
  WormDevice base(/*sector_size=*/512);
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingDevice dev(&base, plan);
  AppendStore store(&dev);
  HistAddr first, failed, retried;
  ASSERT_TRUE(store.Append(std::string(300, 'a'), &first).ok());
  const uint64_t bytes = store.device_bytes();
  plan->FailNth(FaultOp::kWrite, 1);
  EXPECT_TRUE(store.Append(std::string(300, 'b'), &failed).IsIOError());
  EXPECT_EQ(1u, store.blob_count());
  EXPECT_EQ(300u, store.payload_bytes());
  EXPECT_EQ(bytes, store.device_bytes());
  EXPECT_EQ(bytes, store.flushed_end());
  ASSERT_TRUE(store.Append(std::string(300, 'b'), &retried).ok());
  EXPECT_EQ(512u, retried.offset);
  std::string out;
  ASSERT_TRUE(store.Read(retried, &out).ok());
  EXPECT_EQ(std::string(300, 'b'), out);
}

// A read of a staged blob whose flush fails returns the flush's error.
TEST(AppendStoreTest, ReadOfStagedBlobReturnsFlushError) {
  MemDevice base;
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingDevice dev(&base, plan);
  AppendStore store(&dev);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("unlucky"), &a).ok());
  plan->FailNth(FaultOp::kWrite, 1);
  std::string out;
  EXPECT_TRUE(store.Read(a, &out).IsIOError());
  ASSERT_TRUE(store.Read(a, &out).ok());  // one-shot fault: the retry lands
  EXPECT_EQ("unlucky", out);
}

TEST_F(MmapAppendStoreTest, ClearCacheDropsEntriesButKeepsPins) {
  auto dev = OpenDevice(/*enable_mmap=*/true);
  AppendStore store(dev.get(), /*cache_blobs=*/4);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("cleared"), &a).ok());
  BlobHandle pinned;
  ASSERT_TRUE(store.ReadView(a, &pinned).ok());  // miss, publishes
  store.ClearCache();
  EXPECT_EQ(Slice("cleared"), pinned.data());  // pin unaffected
  BlobHandle again;
  ASSERT_TRUE(store.ReadView(a, &again).ok());  // miss again (cache empty)
  EXPECT_EQ(2u, store.cache_misses());
  EXPECT_EQ(0u, store.cache_hits());
  // Mapped re-pin of the same blob aliases the same bytes.
  EXPECT_TRUE(pinned.SharesBufferWith(again));
}

TEST(AppendStoreTest, EmptyPayloadRoundTrip) {
  MemDevice dev;
  AppendStore store(&dev);
  HistAddr addr;
  ASSERT_TRUE(store.Append(Slice(), &addr).ok());
  std::string out = "junk";
  ASSERT_TRUE(store.Read(addr, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(MmapAppendStoreTest, VerifiedSetIsBoundedAndDegradesGracefully) {
  auto dev = OpenDevice(/*enable_mmap=*/true);
  AppendStore store(dev.get(), /*cache_blobs=*/0);
  store.set_verified_capacity(2);
  HistAddr a[4];
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        store.Append("blob-" + std::to_string(i) + "-payload", &a[i]).ok());
  }
  BlobHandle h;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.ReadView(a[i], &h).ok());
  }
  // Only the first two first-pin verifications were memoized; the rest
  // degrade to re-verification, which must keep working indefinitely.
  EXPECT_EQ(2u, store.verified_size());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(store.ReadView(a[i], &h).ok());
      EXPECT_EQ("blob-" + std::to_string(i) + "-payload",
                h.data().ToString());
    }
  }
  EXPECT_EQ(2u, store.verified_size());
}

TEST_F(MmapAppendStoreTest, VerifyChecksumsHintForcesRecheck) {
  auto dev = OpenDevice(/*enable_mmap=*/true);
  // Cache ON: the verifying read must bypass both the shared cache and
  // the first-pin memo, not just the memo.
  AppendStore store(dev.get(), /*cache_blobs=*/8);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("trusted bytes"), &a).ok());
  BlobHandle h;
  ASSERT_TRUE(store.ReadView(a, &h).ok());  // verifies + memoizes + caches
  h.Release();
  // Corrupt the payload AFTER the first verification. The cached handle
  // and the sticky memo would both serve the bytes unchecked...
  char evil = '!';
  ASSERT_TRUE(dev->Write(a.offset + AppendStore::kFrameHeaderSize + 1,
                         Slice(&evil, 1))
                  .ok());
  ASSERT_TRUE(store.ReadView(a, &h).ok());
  h.Release();
  // ...unless the caller asks for re-verification (ReadOptions::
  // verify_checksums threads down to this hint).
  BlobReadHints verify;
  verify.verify_checksums = true;
  EXPECT_TRUE(store.ReadView(a, &h, verify).IsCorruption());
}

TEST_F(MmapAppendStoreTest, FillCacheOffServesButDoesNotPublish) {
  auto dev = OpenDevice(/*enable_mmap=*/true);
  AppendStore store(dev.get(), /*cache_blobs=*/8);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("uncached scan bytes"), &a).ok());
  BlobReadHints no_fill;
  no_fill.fill_cache = false;
  no_fill.sequential = true;  // scan-shaped read; madvise path is advisory
  BlobHandle h;
  ASSERT_TRUE(store.ReadView(a, &h, no_fill).ok());
  EXPECT_EQ(Slice("uncached scan bytes"), h.data());
  ASSERT_TRUE(store.ReadView(a, &h, no_fill).ok());
  EXPECT_EQ(2u, store.cache_misses());  // nothing was published
  // A default read publishes; a later no-fill read then HITS the cache.
  ASSERT_TRUE(store.ReadView(a, &h).ok());
  ASSERT_TRUE(store.ReadView(a, &h, no_fill).ok());
  EXPECT_EQ(1u, store.cache_hits());
}

}  // namespace
}  // namespace tsb
