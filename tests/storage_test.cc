// Unit tests for devices (mem/file/WORM), pages, the slotted layout and the
// pager. WORM write-once enforcement and utilization accounting get special
// attention: they carry the paper's section-1 hardware argument.
#include <gtest/gtest.h>

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "db/multiversion_db.h"
#include "storage/device.h"
#include "storage/fault_device.h"
#include "storage/file_device.h"
#include "storage/mem_device.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/slotted.h"
#include "storage/worm_device.h"
#include "storage/worm_file_device.h"

namespace tsb {
namespace {

// ---------- MemDevice ----------

TEST(MemDeviceTest, WriteThenReadBack) {
  MemDevice dev;
  ASSERT_TRUE(dev.Write(0, Slice("hello")).ok());
  char buf[5];
  ASSERT_TRUE(dev.Read(0, 5, buf).ok());
  EXPECT_EQ("hello", std::string(buf, 5));
}

TEST(MemDeviceTest, ReadPastEndFails) {
  MemDevice dev;
  ASSERT_TRUE(dev.Write(0, Slice("abc")).ok());
  char buf[8];
  EXPECT_TRUE(dev.Read(0, 8, buf).IsIOError());
}

TEST(MemDeviceTest, OverwriteAllowed) {
  MemDevice dev;
  ASSERT_TRUE(dev.Write(0, Slice("aaaa")).ok());
  ASSERT_TRUE(dev.Write(1, Slice("bb")).ok());
  char buf[4];
  ASSERT_TRUE(dev.Read(0, 4, buf).ok());
  EXPECT_EQ("abba", std::string(buf, 4));
}

TEST(MemDeviceTest, SparseWriteZeroFills) {
  MemDevice dev;
  ASSERT_TRUE(dev.Write(10, Slice("x")).ok());
  char buf[1];
  ASSERT_TRUE(dev.Read(5, 1, buf).ok());
  EXPECT_EQ(0, buf[0]);
  EXPECT_EQ(11u, dev.Size());
}

TEST(MemDeviceTest, TruncateShrinks) {
  MemDevice dev;
  ASSERT_TRUE(dev.Write(0, Slice("abcdef")).ok());
  ASSERT_TRUE(dev.Truncate(3).ok());
  EXPECT_EQ(3u, dev.Size());
}

TEST(MemDeviceTest, StatsCountOpsAndSeeks) {
  MemDevice dev;
  ASSERT_TRUE(dev.Write(0, Slice("aaaa")).ok());   // seek (first access)
  ASSERT_TRUE(dev.Write(4, Slice("bbbb")).ok());   // sequential: no seek
  ASSERT_TRUE(dev.Write(100, Slice("cc")).ok());   // seek
  char buf[4];
  ASSERT_TRUE(dev.Read(0, 4, buf).ok());           // seek
  const IoStats& st = dev.stats();
  EXPECT_EQ(3u, st.writes);
  EXPECT_EQ(1u, st.reads);
  EXPECT_EQ(10u, st.bytes_written);
  EXPECT_EQ(4u, st.bytes_read);
  EXPECT_EQ(3u, st.seeks);
  EXPECT_GT(st.simulated_ms, 0.0);
}

TEST(MemDeviceTest, SimulatedTimeScalesWithSeekCost) {
  MemDevice fast(DeviceKind::kMagnetic, CostParams::Magnetic());
  MemDevice slow(DeviceKind::kOpticalErasable, CostParams::OpticalWorm());
  char buf[16] = {0};
  ASSERT_TRUE(fast.Write(0, Slice(buf, 16)).ok());
  ASSERT_TRUE(slow.Write(0, Slice(buf, 16)).ok());
  // One seek each; optical seek is 3x the magnetic seek (48 vs 16 ms).
  EXPECT_GT(slow.stats().simulated_ms, 2.5 * fast.stats().simulated_ms);
}

TEST(MemDeviceTest, ResetStatsClears) {
  MemDevice dev;
  ASSERT_TRUE(dev.Write(0, Slice("abc")).ok());
  dev.ResetStats();
  EXPECT_EQ(0u, dev.stats().writes);
  EXPECT_EQ(0.0, dev.stats().simulated_ms);
}

// ---------- FileDevice ----------

class FileDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tsb_file_device_test.bin";
    ::remove(path_.c_str());
  }
  void TearDown() override { ::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileDeviceTest, PersistsAcrossReopen) {
  {
    FileDevice* raw = nullptr;
    ASSERT_TRUE(FileDevice::Open(path_, &raw).ok());
    std::unique_ptr<FileDevice> dev(raw);
    ASSERT_TRUE(dev->Write(0, Slice("persist me")).ok());
    ASSERT_TRUE(dev->Sync().ok());
  }
  FileDevice* raw = nullptr;
  ASSERT_TRUE(FileDevice::Open(path_, &raw).ok());
  std::unique_ptr<FileDevice> dev(raw);
  EXPECT_EQ(10u, dev->Size());
  char buf[10];
  ASSERT_TRUE(dev->Read(0, 10, buf).ok());
  EXPECT_EQ("persist me", std::string(buf, 10));
}

TEST_F(FileDeviceTest, TruncateAndSize) {
  FileDevice* raw = nullptr;
  ASSERT_TRUE(FileDevice::Open(path_, &raw).ok());
  std::unique_ptr<FileDevice> dev(raw);
  ASSERT_TRUE(dev->Write(0, Slice("0123456789")).ok());
  ASSERT_TRUE(dev->Truncate(4).ok());
  EXPECT_EQ(4u, dev->Size());
  char buf[4];
  ASSERT_TRUE(dev->Read(0, 4, buf).ok());
  EXPECT_EQ("0123", std::string(buf, 4));
}

// ---------- gather writes ----------

/// `n` distinct page images of `size` bytes.
std::vector<std::string> PageImages(size_t n, size_t size) {
  std::vector<std::string> pages;
  for (size_t i = 0; i < n; ++i) {
    pages.emplace_back(size, static_cast<char>('a' + i % 26));
    pages.back()[0] = static_cast<char>(i);
    pages.back()[size - 1] = static_cast<char>(i >> 8);
  }
  return pages;
}

std::string ReadAll(Device* dev) {
  std::string bytes(dev->Size(), '\0');
  EXPECT_TRUE(dev->Read(0, bytes.size(), bytes.data()).ok());
  return bytes;
}

void ExpectSameStats(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_DOUBLE_EQ(a.simulated_ms, b.simulated_ms);
}

TEST_F(FileDeviceTest, GatherWriteMatchesPerPageWrites) {
  // Longer than IOV_MAX, so FileDevice splits it over several pwritev
  // calls; a second run leaves a gap, as a checkpoint's runs do.
  const size_t kPage = 512;
  const std::vector<std::string> pages = PageImages(IOV_MAX + 5, kPage);
  std::vector<Slice> parts(pages.begin(), pages.end());
  const uint64_t gap_offset = (pages.size() + 3) * kPage;

  FileDevice* raw = nullptr;
  ASSERT_TRUE(FileDevice::Open(path_, &raw).ok());
  std::unique_ptr<FileDevice> gathered(raw);
  ASSERT_TRUE(gathered->WriteGather(kPage, parts).ok());
  ASSERT_TRUE(gathered->WriteGather(gap_offset, {parts.data(), 3}).ok());

  const std::string per_page_path = path_ + ".per_page";
  ::remove(per_page_path.c_str());
  ASSERT_TRUE(FileDevice::Open(per_page_path, &raw).ok());
  std::unique_ptr<FileDevice> per_page(raw);
  for (size_t i = 0; i < pages.size(); ++i) {
    ASSERT_TRUE(per_page->Write(kPage * (i + 1), pages[i]).ok());
  }
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(per_page->Write(gap_offset + kPage * i, pages[i]).ok());
  }

  EXPECT_EQ(pages.size() + 3, gathered->stats().writes);
  ExpectSameStats(per_page->stats(), gathered->stats());
  EXPECT_EQ(per_page->Size(), gathered->Size());
  EXPECT_EQ(ReadAll(per_page.get()), ReadAll(gathered.get()));
  ::remove(per_page_path.c_str());
}

TEST_F(FileDeviceTest, MultiPartWriteCountsOnce) {
  // A framed record: header and payload land as one write.
  FileDevice* raw = nullptr;
  ASSERT_TRUE(FileDevice::Open(path_, &raw).ok());
  std::unique_ptr<FileDevice> dev(raw);
  const Slice frame[4] = {"hdr1", "payload-one", "hdr2", "payload-two"};
  ASSERT_TRUE(dev->WriteGather(0, frame, 2).ok());
  EXPECT_EQ(2u, dev->stats().writes);
  EXPECT_EQ(1u, dev->stats().seeks);

  MemDevice mem;
  ASSERT_TRUE(mem.WriteGather(0, frame, 2).ok());
  ExpectSameStats(mem.stats(), dev->stats());
  EXPECT_EQ("hdr1payload-onehdr2payload-two", ReadAll(dev.get()));
  EXPECT_EQ(ReadAll(dev.get()), ReadAll(&mem));
}

TEST_F(FileDeviceTest, WormFileGatherOverBurnedSectorFails) {
  WormFileDevice* raw = nullptr;
  ASSERT_TRUE(WormFileDevice::Open(path_, &raw, /*sector_size=*/512).ok());
  std::unique_ptr<WormFileDevice> dev(raw);
  const std::vector<std::string> pages = PageImages(4, 512);
  std::vector<Slice> parts(pages.begin(), pages.end());
  ASSERT_TRUE(dev->WriteGather(0, parts).ok());
  EXPECT_EQ(4u, dev->sectors_burned());
  // Any run that starts inside the burned region is refused whole.
  EXPECT_TRUE(dev->WriteGather(3 * 512, parts).IsWriteOnceViolation());
  EXPECT_TRUE(dev->WriteGather(0, {parts.data(), 1}).IsWriteOnceViolation());
  EXPECT_EQ(4u * 512, dev->Size());
  // The next fresh sector still takes a run.
  ASSERT_TRUE(dev->WriteGather(4 * 512, parts).ok());
  EXPECT_EQ(8u, dev->sectors_burned());

  // The in-memory WORM checks every page of a run through Write.
  WormDevice worm(512);
  ASSERT_TRUE(worm.WriteGather(512, {parts.data(), 2}).ok());
  EXPECT_TRUE(worm.WriteGather(0, parts).IsWriteOnceViolation());
}

TEST(FaultDeviceTest, NthWriteFaultFiresOnNthPageOfARun) {
  MemDevice base;
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingDevice dev(&base, plan);
  const std::vector<std::string> pages = PageImages(5, 512);
  std::vector<Slice> parts(pages.begin(), pages.end());
  plan->FailNth(FaultOp::kWrite, 3);
  EXPECT_TRUE(dev.WriteGather(0, parts).IsIOError());
  // Pages 1 and 2 landed, page 3 failed, pages 4 and 5 never started.
  EXPECT_EQ(3u, plan->ops(FaultOp::kWrite));
  EXPECT_EQ(1u, plan->fired(FaultOp::kWrite));
  EXPECT_EQ(2u * 512, base.Size());
  EXPECT_EQ(pages[0] + pages[1], ReadAll(&base));
}

// ---------- checkpoint page runs ----------

/// Forwards to the device it wraps and records every write call: how
/// many calls a checkpoint makes, and the page ids in device order.
class CountingDevice : public Device {
 public:
  CountingDevice(std::unique_ptr<Device> base, uint32_t page_size)
      : Device(base->kind(), base->cost_params()),
        base_(std::move(base)),
        page_size_(page_size) {}

  Status Read(uint64_t offset, size_t n, char* scratch) override {
    return base_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const Slice& data) override {
    return WriteGather(offset, {&data, 1}, 1);
  }
  Status WriteGather(uint64_t offset, std::span<const Slice> parts,
                     size_t parts_per_write) override {
    calls++;
    for (size_t i = 0; i < parts.size(); ++i) {
      page_ids.push_back(
          static_cast<uint32_t>(offset / page_size_ + i));
    }
    return base_->WriteGather(offset, parts, parts_per_write);
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    syncs++;
    return base_->Sync();
  }

  void Reset() {
    calls = 0;
    syncs = 0;
    page_ids.clear();
  }

  uint64_t calls = 0;
  uint64_t syncs = 0;
  std::vector<uint32_t> page_ids;

 private:
  std::unique_ptr<Device> base_;
  uint32_t page_size_;
};

TEST(CheckpointRunsTest, FreshPagesGoInRunsAndJournaledInIdOrder) {
  const std::string path = ::testing::TempDir() + "/tsb_checkpoint_runs." +
                           std::to_string(::getpid());
  db::MultiVersionDB::Destroy(path);
  static constexpr uint32_t kPage = 512;
  CountingDevice* counting = nullptr;
  db::DbOptions o;
  o.tree.page_size = kPage;
  o.tree.buffer_pool_frames = 8192;
  o.wal_checkpoint_bytes = 1ull << 40;  // only explicit checkpoints
  o.wrap_device = [&counting](const std::string& role,
                              std::unique_ptr<Device> device)
      -> std::unique_ptr<Device> {
    if (role != "magnetic") return device;
    auto wrapped = std::make_unique<CountingDevice>(std::move(device), kPage);
    counting = wrapped.get();
    return wrapped;
  };
  std::unique_ptr<db::MultiVersionDB> db;
  ASSERT_TRUE(db::MultiVersionDB::Open(path, o, &db).ok());
  ASSERT_NE(nullptr, counting);
  auto key = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  const std::string value(40, 'v');
  for (int i = 0; i < 6000; i += 50) {
    db::WriteBatch batch;
    for (int k = i; k < i + 50; ++k) batch.Put(key(k), value);
    ASSERT_TRUE(db->Write(batch).ok());
  }

  // First checkpoint: every node page is fresh and their ids are dense,
  // so they go down in ceil(N / IOV_MAX) calls, plus one for the meta.
  counting->Reset();
  ASSERT_TRUE(db->Checkpoint().ok());
  std::vector<uint32_t> fresh;
  for (uint32_t id : counting->page_ids) {
    if (id != 0) fresh.push_back(id);
  }
  const uint64_t n = fresh.size();
  ASSERT_GT(n, 100u);
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(i + 1, fresh[i]) << "fresh pages out of order";
  }
  EXPECT_LE(counting->calls, (n + IOV_MAX - 1) / IOV_MAX + 1);
  const uint32_t high_water = static_cast<uint32_t>(n) + 1;

  // Second checkpoint: scattered updates dirty pages below the durable
  // high-water mark; they are journaled and applied in ascending order.
  for (int i = 5999; i >= 0; i -= 97) {
    ASSERT_TRUE(db->Put(key(i), "updated").ok());
  }
  counting->Reset();
  ASSERT_TRUE(db->Checkpoint().ok());
  std::vector<uint32_t> journaled;
  for (uint32_t id : counting->page_ids) {
    if (id != 0 && id < high_water) journaled.push_back(id);
  }
  ASSERT_GT(journaled.size(), 5u);
  for (size_t i = 1; i < journaled.size(); ++i) {
    EXPECT_LT(journaled[i - 1], journaled[i]);
  }

  std::string v;
  db.reset();
  o.wrap_device = nullptr;
  ASSERT_TRUE(db::MultiVersionDB::Open(path, o, &db).ok());
  ASSERT_TRUE(db->Get({}, key(5999), &v).ok());
  EXPECT_EQ("updated", v);
  ASSERT_TRUE(db->Get({}, key(1), &v).ok());
  EXPECT_EQ(value, v);
  db.reset();
  db::MultiVersionDB::Destroy(path);
}

TEST(CheckpointRunsTest, EmptyCheckpointWritesNothing) {
  const std::string path = ::testing::TempDir() + "/tsb_checkpoint_empty." +
                           std::to_string(::getpid());
  db::MultiVersionDB::Destroy(path);
  static constexpr uint32_t kPage = 512;
  CountingDevice* magnetic = nullptr;
  CountingDevice* historical = nullptr;
  db::DbOptions o;
  o.tree.page_size = kPage;
  o.wal_checkpoint_bytes = 1ull << 40;  // only explicit checkpoints
  o.wrap_device = [&](const std::string& role, std::unique_ptr<Device> device)
      -> std::unique_ptr<Device> {
    auto wrapped = std::make_unique<CountingDevice>(std::move(device), kPage);
    if (role == "magnetic") magnetic = wrapped.get();
    if (role == "historical") historical = wrapped.get();
    return wrapped;
  };
  std::unique_ptr<db::MultiVersionDB> db;
  ASSERT_TRUE(db::MultiVersionDB::Open(path, o, &db).ok());
  ASSERT_NE(nullptr, magnetic);
  ASSERT_NE(nullptr, historical);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(db->Put("key" + std::to_string(round), "value").ok());
    // A commit since the last checkpoint: the fold writes and syncs.
    magnetic->Reset();
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_GT(magnetic->calls, 0u) << round;
    EXPECT_GT(magnetic->syncs, 0u) << round;
    // Nothing since: no page, meta page or sync reaches either device.
    magnetic->Reset();
    historical->Reset();
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(0u, magnetic->calls) << round;
    EXPECT_EQ(0u, magnetic->syncs) << round;
    EXPECT_EQ(0u, historical->syncs) << round;
  }
  // An aborted transaction logs nothing but dirties the leaf it erased
  // from: the checkpoint still folds, so the base never keeps a record
  // the clean-shutdown flag would stop the next open from purging.
  std::unique_ptr<txn::Transaction> txn;
  ASSERT_TRUE(db->Begin(&txn).ok());
  ASSERT_TRUE(txn->Put("aborted", "value").ok());
  ASSERT_TRUE(txn->Abort().ok());
  magnetic->Reset();
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_GT(magnetic->calls, 0u);
  db.reset();  // its shutdown checkpoint is empty

  std::ifstream manifest(path + "/MANIFEST");
  std::stringstream text;
  text << manifest.rdbuf();
  EXPECT_NE(std::string::npos, text.str().find("\nclean_shutdown=1\n"))
      << text.str();
  o.wrap_device = nullptr;
  ASSERT_TRUE(db::MultiVersionDB::Open(path, o, &db).ok());
  EXPECT_EQ(0u, db->recovery_stats().frames_replayed);
  EXPECT_EQ(0u, db->recovery_stats().wal_bytes_scanned);
  std::string v;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(db->Get({}, "key" + std::to_string(round), &v).ok());
    EXPECT_EQ("value", v);
  }
  db.reset();
  db::MultiVersionDB::Destroy(path);
}

// ---------- WormDevice ----------

TEST(WormDeviceTest, WriteThenRead) {
  WormDevice worm(64);
  ASSERT_TRUE(worm.Write(0, Slice("data")).ok());
  char buf[4];
  ASSERT_TRUE(worm.Read(0, 4, buf).ok());
  EXPECT_EQ("data", std::string(buf, 4));
}

TEST(WormDeviceTest, RewriteBurnedSectorFails) {
  WormDevice worm(64);
  ASSERT_TRUE(worm.Write(0, Slice("first")).ok());
  Status s = worm.Write(0, Slice("second"));
  EXPECT_TRUE(s.IsWriteOnceViolation());
  // Even a 1-byte write into the burned sector fails.
  EXPECT_TRUE(worm.Write(63, Slice("x")).IsWriteOnceViolation());
}

TEST(WormDeviceTest, SmallWriteBurnsWholeSector) {
  // The paper: "even when a small amount of data is written, the rest of
  // the sector is unusable."
  WormDevice worm(1024);
  ASSERT_TRUE(worm.Write(0, Slice("tiny")).ok());
  EXPECT_EQ(1u, worm.sectors_burned());
  EXPECT_EQ(4u, worm.payload_bytes());
  EXPECT_NEAR(4.0 / 1024.0, worm.Utilization(), 1e-9);
}

TEST(WormDeviceTest, MultiSectorWriteBurnsAllCovered) {
  WormDevice worm(16);
  std::string blob(40, 'z');  // covers 3 sectors
  ASSERT_TRUE(worm.Write(0, blob).ok());
  EXPECT_EQ(3u, worm.sectors_burned());
  EXPECT_TRUE(worm.IsBurned(0));
  EXPECT_TRUE(worm.IsBurned(2));
  EXPECT_FALSE(worm.IsBurned(3));
}

TEST(WormDeviceTest, PartialOverlapWithBurnedFails) {
  WormDevice worm(16);
  ASSERT_TRUE(worm.Write(0, Slice("0123456789abcdef")).ok());
  std::string blob(20, 'y');
  // Starts in sector 0 (burned) -> must fail, nothing burned extra.
  EXPECT_TRUE(worm.Write(8, blob).IsWriteOnceViolation());
  EXPECT_EQ(1u, worm.sectors_burned());
}

TEST(WormDeviceTest, AppendAdvancesToSectorBoundary) {
  WormDevice worm(16);
  uint64_t off1 = 0, off2 = 0;
  ASSERT_TRUE(worm.Append(Slice("abc"), &off1).ok());
  ASSERT_TRUE(worm.Append(Slice("defg"), &off2).ok());
  EXPECT_EQ(0u, off1);
  EXPECT_EQ(16u, off2);  // next sector, not byte 3
  EXPECT_EQ(2u, worm.sectors_burned());
}

TEST(WormDeviceTest, AllocateExtentReservesWithoutBurning) {
  WormDevice worm(16);
  uint64_t first = 0;
  ASSERT_TRUE(worm.AllocateExtent(4, &first).ok());
  EXPECT_EQ(0u, first);
  EXPECT_FALSE(worm.IsBurned(0));
  // Appends land after the extent.
  uint64_t off = 0;
  ASSERT_TRUE(worm.Append(Slice("x"), &off).ok());
  EXPECT_EQ(64u, off);
  // Sectors inside the extent are still individually writable once.
  ASSERT_TRUE(worm.Write(16, Slice("in-extent")).ok());
  EXPECT_TRUE(worm.Write(16, Slice("again")).IsWriteOnceViolation());
}

TEST(WormDeviceTest, UtilizationReflectsWaste) {
  WormDevice worm(1024);
  // Ten 100-byte increments, one sector each: ~9.8% utilization.
  for (int i = 0; i < 10; ++i) {
    uint64_t off;
    ASSERT_TRUE(worm.Append(Slice(std::string(100, 'a')), &off).ok());
  }
  EXPECT_NEAR(100.0 / 1024.0, worm.Utilization(), 1e-9);
  // One consolidated 1000-byte append: ~97.7% for that sector.
  WormDevice packed(1024);
  uint64_t off;
  ASSERT_TRUE(packed.Append(Slice(std::string(1000, 'a')), &off).ok());
  EXPECT_NEAR(1000.0 / 1024.0, packed.Utilization(), 1e-9);
}

// ---------- Page ----------

TEST(PageTest, InitSealVerifyRoundTrip) {
  std::string buf(kDefaultPageSize, 0);
  InitPage(buf.data(), kDefaultPageSize, 7, PageType::kTsbData);
  buf[100] = 'x';  // payload
  SealPage(buf.data(), kDefaultPageSize);
  EXPECT_TRUE(VerifyPage(buf.data(), kDefaultPageSize, 7).ok());
  EXPECT_EQ(7u, PageId(buf.data()));
  EXPECT_EQ(PageType::kTsbData, GetPageType(buf.data()));
}

TEST(PageTest, CorruptionDetected) {
  std::string buf(kDefaultPageSize, 0);
  InitPage(buf.data(), kDefaultPageSize, 3, PageType::kBptLeaf);
  SealPage(buf.data(), kDefaultPageSize);
  buf[2000] ^= 1;  // flip a payload bit
  EXPECT_TRUE(VerifyPage(buf.data(), kDefaultPageSize, 3).IsCorruption());
}

TEST(PageTest, WrongIdDetected) {
  std::string buf(kDefaultPageSize, 0);
  InitPage(buf.data(), kDefaultPageSize, 3, PageType::kBptLeaf);
  SealPage(buf.data(), kDefaultPageSize);
  EXPECT_TRUE(VerifyPage(buf.data(), kDefaultPageSize, 4).IsCorruption());
  EXPECT_TRUE(VerifyPage(buf.data(), kDefaultPageSize, UINT32_MAX).ok());
}

TEST(PageTest, BadMagicDetected) {
  std::string buf(kDefaultPageSize, 0);
  EXPECT_TRUE(VerifyPage(buf.data(), kDefaultPageSize, 0).IsCorruption());
}

// A page without the trailer flag (the retired v1 format) is rejected,
// even when every checksum over its bytes is right.
TEST(PageTest, PageWithoutTrailerFlagFailsVerification) {
  std::string buf(kDefaultPageSize, 0);
  InitPage(buf.data(), kDefaultPageSize, 5, PageType::kTsbData);
  SealPage(buf.data(), kDefaultPageSize);
  SetPageFlags(buf.data(), PageFlags(buf.data()) & ~kPageFlagHasTrailer);
  EXPECT_TRUE(VerifyPage(buf.data(), kDefaultPageSize, 5).IsCorruption());
  SealPage(buf.data(), kDefaultPageSize);  // checksums now match again
  const Status s = VerifyPage(buf.data(), kDefaultPageSize, 5);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(std::string::npos, s.ToString().find("unknown page format"))
      << s.ToString();
}

// The seal reads the page once, deriving the trailer CRC from the header
// CRC. The bytes must equal the two-pass formula: the header CRC over
// [8, ps-4), then the trailer CRC over [0, ps-4).
TEST(PageTest, SealMatchesTwoPassFormula) {
  Random rnd(9);
  for (const uint32_t ps : {512u, 4096u, 8192u, 16384u}) {
    std::string buf(ps, 0);
    InitPage(buf.data(), ps, 11, PageType::kTsbData);
    for (uint32_t i = kPageHeaderSize; i < PageUsableSize(ps); ++i) {
      buf[i] = static_cast<char>(rnd.Next());
    }
    std::string want = buf;
    SealPageWithLsn(buf.data(), ps, 0x1122334455667788ull);
    EncodeFixed64(want.data() + ps - kPageTrailerSize + 8,
                  0x1122334455667788ull);
    EncodeFixed32(want.data() + 4,
                  crc32c::Mask(crc32c::Value(want.data() + 8, ps - 12)));
    EncodeFixed32(want.data() + ps - 4,
                  crc32c::Mask(crc32c::Value(want.data(), ps - 4)));
    EXPECT_EQ(want, buf) << "page size " << ps;
    EXPECT_TRUE(VerifyPage(buf.data(), ps, 11).ok());
  }
}

// Every byte of a sealed page is vouched for: a flip in the header, the
// body, the trailer or either CRC field fails verification, with the
// verdict the two full passes give.
TEST(PageTest, VerifyRejectsAFlipAnywhere) {
  std::string sealed(kDefaultPageSize, 0);
  InitPage(sealed.data(), kDefaultPageSize, 3, PageType::kTsbData);
  for (uint32_t i = kPageHeaderSize; i < 1000; ++i) {
    sealed[i] = static_cast<char>(i);
  }
  SealPage(sealed.data(), kDefaultPageSize);
  const uint32_t ps = kDefaultPageSize;
  const std::pair<uint32_t, const char*> flips[] = {
      {1, "bad page magic"},
      {5, "page checksum mismatch"},          // header CRC field
      {9, "page checksum mismatch"},          // page id
      {17, "page checksum mismatch"},         // sibling link
      {2000, "page checksum mismatch"},       // body
      {ps - 14, "page checksum mismatch"},    // trailer page id
      {ps - 9, "page checksum mismatch"},     // trailer flush LSN
      {ps - 2, "page trailer checksum mismatch"},  // trailer CRC field
  };
  for (const auto& [at, verdict] : flips) {
    std::string buf = sealed;
    buf[at] ^= 0x10;
    const Status s = VerifyPage(buf.data(), ps, 3);
    EXPECT_TRUE(s.IsCorruption()) << "byte " << at;
    EXPECT_NE(std::string::npos, s.ToString().find(verdict))
        << "byte " << at << ": " << s.ToString();
  }
  // A header whose CRC field was resealed by hand (the trailer left
  // stale) trips the trailer check only.
  std::string buf = sealed;
  buf[3000] ^= 1;
  EncodeFixed32(buf.data() + 4,
                crc32c::Mask(crc32c::Value(buf.data() + 8, ps - 12)));
  const Status s = VerifyPage(buf.data(), ps, 3);
  EXPECT_NE(std::string::npos,
            s.ToString().find("page trailer checksum mismatch"))
      << s.ToString();
}

TEST(PageTest, FlagsRoundTrip) {
  std::string buf(kDefaultPageSize, 0);
  InitPage(buf.data(), kDefaultPageSize, 1, PageType::kTsbIndex);
  SetPageFlags(buf.data(), 0x1234);
  EXPECT_EQ(0x1234, PageFlags(buf.data()));
  SetPageType(buf.data(), PageType::kTsbData);
  EXPECT_EQ(PageType::kTsbData, GetPageType(buf.data()));
}

// ---------- SlottedView ----------

class SlottedTest : public ::testing::Test {
 protected:
  SlottedTest() : buf_(512, 0), view_(buf_.data(), 512) { view_.Init(); }
  std::string buf_;
  SlottedView view_;
};

TEST_F(SlottedTest, InsertAndReadBack) {
  ASSERT_TRUE(view_.Insert(0, Slice("bravo")));
  ASSERT_TRUE(view_.Insert(0, Slice("alpha")));
  ASSERT_TRUE(view_.Insert(2, Slice("charlie")));
  ASSERT_EQ(3, view_.count());
  EXPECT_EQ("alpha", view_.Cell(0).ToString());
  EXPECT_EQ("bravo", view_.Cell(1).ToString());
  EXPECT_EQ("charlie", view_.Cell(2).ToString());
}

TEST_F(SlottedTest, RemoveKeepsOrder) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(view_.Insert(i, Slice(std::string(1, 'a' + i))));
  }
  view_.Remove(2);  // drop "c"
  ASSERT_EQ(4, view_.count());
  EXPECT_EQ("a", view_.Cell(0).ToString());
  EXPECT_EQ("b", view_.Cell(1).ToString());
  EXPECT_EQ("d", view_.Cell(2).ToString());
  EXPECT_EQ("e", view_.Cell(3).ToString());
}

TEST_F(SlottedTest, FillUntilFullThenFail) {
  int inserted = 0;
  while (view_.Insert(inserted, Slice("0123456789"))) inserted++;
  EXPECT_GT(inserted, 20);  // (10+2 cell + 2 slot) per insert in 506 bytes
  EXPECT_FALSE(view_.HasRoomFor(10));
  EXPECT_EQ(inserted, view_.count());
  // Everything still readable.
  for (int i = 0; i < inserted; ++i) {
    EXPECT_EQ("0123456789", view_.Cell(i).ToString());
  }
}

TEST_F(SlottedTest, RemoveThenReinsertReclaimsSpace) {
  int inserted = 0;
  while (view_.Insert(inserted, Slice("0123456789"))) inserted++;
  for (int i = inserted - 1; i >= 0; --i) view_.Remove(i);
  EXPECT_EQ(0, view_.count());
  // Full capacity available again (compaction reclaims holes).
  int again = 0;
  while (view_.Insert(again, Slice("0123456789"))) again++;
  EXPECT_EQ(inserted, again);
}

TEST_F(SlottedTest, CompactionPreservesContents) {
  // Create fragmentation: interleave inserts and removals, then force a
  // compaction by inserting a large cell.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(view_.Insert(i, Slice(std::string(20, 'a' + i))));
  }
  for (int i = 8; i >= 0; i -= 2) view_.Remove(i);  // remove 5 cells
  ASSERT_EQ(5, view_.count());
  ASSERT_TRUE(view_.Insert(0, Slice(std::string(100, 'Z'))));
  EXPECT_EQ(std::string(100, 'Z'), view_.Cell(0).ToString());
  EXPECT_EQ(std::string(20, 'b'), view_.Cell(1).ToString());
  EXPECT_EQ(std::string(20, 'j'), view_.Cell(5).ToString());
}

TEST_F(SlottedTest, ShrinkAndMoveSlotThenCompactInPlace) {
  // Prepending puts slot order opposite to offset order, so compaction
  // must slide cells by offset, not by slot.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(view_.Insert(0, Slice(std::string(30, 'a' + i))));
  }
  // Slot i now holds letter 'l' - i. Shrink every other cell to 10 bytes
  // and move the last slot ('a') to the front.
  for (int i = 0; i < 12; i += 2) view_.ShrinkCell(i, 10);
  view_.MoveSlot(11, 0);
  // The cut tails are free space again: fill the page, which compacts.
  const uint32_t free_before = view_.FreeBytes();
  int added = 0;
  while (view_.Insert(view_.count(), Slice(std::string(16, 'z')))) ++added;
  EXPECT_EQ(free_before / (16 + 2 + 2), static_cast<uint32_t>(added));
  EXPECT_EQ(std::string(30, 'a'), view_.Cell(0).ToString());
  for (int i = 0; i < 11; ++i) {
    const size_t len = i % 2 == 0 ? 10 : 30;
    EXPECT_EQ(std::string(len, 'l' - i), view_.Cell(i + 1).ToString()) << i;
  }
  EXPECT_EQ(std::string(16, 'z'), view_.Cell(12 + added - 1).ToString());
}

TEST_F(SlottedTest, ReplaceGrowAndShrink) {
  ASSERT_TRUE(view_.Insert(0, Slice("short")));
  ASSERT_TRUE(view_.Replace(0, Slice(std::string(50, 'L'))));
  EXPECT_EQ(std::string(50, 'L'), view_.Cell(0).ToString());
  ASSERT_TRUE(view_.Replace(0, Slice("s")));
  EXPECT_EQ("s", view_.Cell(0).ToString());
}

TEST_F(SlottedTest, ReplaceTooBigRollsBack) {
  ASSERT_TRUE(view_.Insert(0, Slice("keepme")));
  EXPECT_FALSE(view_.Replace(0, Slice(std::string(600, 'X'))));
  ASSERT_EQ(1, view_.count());
  EXPECT_EQ("keepme", view_.Cell(0).ToString());
}

TEST_F(SlottedTest, EmptyCellsSupported) {
  ASSERT_TRUE(view_.Insert(0, Slice("")));
  ASSERT_EQ(1, view_.count());
  EXPECT_EQ(0u, view_.Cell(0).size());
}

// ---------- Pager ----------

TEST(PagerTest, AllocWriteReadRoundTrip) {
  MemDevice dev;
  Pager pager(&dev, 1024);
  uint32_t id = 0;
  ASSERT_TRUE(pager.Alloc(&id).ok());
  EXPECT_NE(kInvalidPageId, id);
  std::string buf(1024, 0);
  InitPage(buf.data(), 1024, id, PageType::kTsbData);
  buf[200] = 'q';
  ASSERT_TRUE(pager.Write(id, buf.data()).ok());
  std::string got(1024, 0);
  ASSERT_TRUE(pager.Read(id, got.data()).ok());
  EXPECT_EQ('q', got[200]);
}

TEST(PagerTest, FreeListReuse) {
  MemDevice dev;
  Pager pager(&dev, 1024);
  uint32_t a, b, c;
  ASSERT_TRUE(pager.Alloc(&a).ok());
  ASSERT_TRUE(pager.Alloc(&b).ok());
  EXPECT_EQ(2u, pager.live_pages());
  ASSERT_TRUE(pager.Free(a).ok());
  EXPECT_EQ(1u, pager.live_pages());
  ASSERT_TRUE(pager.Alloc(&c).ok());
  EXPECT_EQ(a, c);  // reused
  EXPECT_EQ(2u, pager.live_pages());
}

TEST(PagerTest, FreeInvalidIdFails) {
  MemDevice dev;
  Pager pager(&dev, 1024);
  EXPECT_TRUE(pager.Free(0).IsInvalidArgument());
  EXPECT_TRUE(pager.Free(99).IsInvalidArgument());
}

TEST(PagerTest, MetaPageSurvivesConstruction) {
  MemDevice dev;
  Pager pager(&dev, 1024);
  std::string meta(1024, 0);
  ASSERT_TRUE(pager.ReadMeta(meta.data()).ok());
  EXPECT_EQ(PageType::kMeta, GetPageType(meta.data()));
  // Write something into meta and read it back.
  meta[kPageHeaderSize] = 'm';
  ASSERT_TRUE(pager.WriteMeta(meta.data()).ok());
  std::string again(1024, 0);
  ASSERT_TRUE(pager.ReadMeta(again.data()).ok());
  EXPECT_EQ('m', again[kPageHeaderSize]);
}

TEST(PagerTest, CorruptPageDetectedOnRead) {
  MemDevice dev;
  Pager pager(&dev, 1024);
  uint32_t id;
  ASSERT_TRUE(pager.Alloc(&id).ok());
  std::string buf(1024, 0);
  InitPage(buf.data(), 1024, id, PageType::kTsbData);
  ASSERT_TRUE(pager.Write(id, buf.data()).ok());
  // Flip a byte directly on the device.
  char evil = 1;
  ASSERT_TRUE(dev.Write(static_cast<uint64_t>(id) * 1024 + 512, Slice(&evil, 1)).ok());
  std::string got(1024, 0);
  EXPECT_TRUE(pager.Read(id, got.data()).IsCorruption());
}

TEST(PagerTest, LiveBytesTracksPageSize) {
  MemDevice dev;
  Pager pager(&dev, 2048);
  uint32_t a;
  ASSERT_TRUE(pager.Alloc(&a).ok());
  EXPECT_EQ(2048u, pager.live_bytes());
}

}  // namespace
}  // namespace tsb
