// Silent-corruption coverage: the scrub/quarantine/repair pipeline and
// the classification contract for Corruption from every source.
//
//  - verified-memo hygiene: a CRC mismatch seen by a verifying read
//    evicts the offset, so detection is sticky for later plain reads;
//  - paranoid_checks / Pager verify-on-read toggle;
//  - Scrub() on a clean DB is silent (no false positives);
//  - base-page hits (bit flip, lost write, misdirected write) quarantine
//    exactly the bad page WITHOUT degrading, and Resume() repairs them
//    from the retired checkpoint journal;
//  - WAL-tail rot degrades TRANSIENT (Resume rotates onto a fresh log);
//  - MANIFEST rot degrades HARD (Resume refuses);
//  - historical-blob rot is sticky-detected (later as-of reads fail
//    rather than serve unverified bytes);
//  - a page the last checkpoint wrote above the durable high-water mark
//    (never journaled) is repaired from the retired file's appended images;
//  - a fresh bulk load journals almost nothing, and an update checkpoint
//    journals every page it overwrites;
//  - a fresh fault during Resume() re-degrades instead of half-healing;
//  - concurrent readers during Scrub + quarantine are race-free (run
//    under TSan in CI);
//  - salvage rebuilds every record that still checksums.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/multiversion_db.h"
#include "db/salvage.h"
#include "storage/append_store.h"
#include "storage/fault_device.h"
#include "storage/mem_device.h"
#include "storage/pager.h"
#include "wal/checkpoint.h"

namespace tsb {
namespace db {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

void FlipByteInFile(const std::string& file, uint64_t offset) {
  int fd = ::open(file.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << file;
  char b = 0;
  ASSERT_EQ(1, ::pread(fd, &b, 1, static_cast<off_t>(offset)));
  b ^= 0x20;
  ASSERT_EQ(1, ::pwrite(fd, &b, 1, static_cast<off_t>(offset)));
  ::close(fd);
}

uint64_t FileSize(const std::string& file) {
  struct stat st;
  if (::stat(file.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

std::string FindWalFile(const std::string& dir) {
  for (int seq = 0; seq < 1000; ++seq) {
    char buf[32];
    snprintf(buf, sizeof(buf), "/wal-%06d.tsb", seq);
    const std::string f = dir + buf;
    struct stat st;
    if (::stat(f.c_str(), &st) == 0) return f;
  }
  return "";
}

// ---- verified-memo hygiene (AppendStore level) -----------------------

TEST(ScrubMemoTest, VerifyMismatchEvictsMemoSoDetectionSticks) {
  MemDevice dev(DeviceKind::kOpticalErasable, CostParams::OpticalWorm());
  AppendStore store(&dev, /*cache_blobs=*/0);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("the payload under test"), &a).ok());
  BlobHandle h;
  ASSERT_TRUE(store.ReadView(a, &h).ok());  // verifies (and may memoize)
  h.Release();

  char evil = '!';
  ASSERT_TRUE(dev.Write(a.offset + AppendStore::kFrameHeaderSize + 2,
                        Slice(&evil, 1))
                  .ok());
  BlobReadHints verify;
  verify.verify_checksums = true;
  ASSERT_TRUE(store.ReadView(a, &h, verify).IsCorruption());
  // The mismatch must have evicted the memo: a PLAIN read afterwards may
  // not serve the rotten bytes on the strength of the old verification.
  EXPECT_TRUE(store.ReadView(a, &h).IsCorruption());
}

TEST(ScrubMemoTest, ScrubAllEvictsMemoSoDetectionSticks) {
  MemDevice dev(DeviceKind::kOpticalErasable, CostParams::OpticalWorm());
  AppendStore store(&dev, /*cache_blobs=*/4);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("scrubbed payload bytes"), &a).ok());
  BlobHandle h;
  ASSERT_TRUE(store.ReadView(a, &h).ok());
  h.Release();

  char evil = '?';
  ASSERT_TRUE(dev.Write(a.offset + AppendStore::kFrameHeaderSize + 3,
                        Slice(&evil, 1))
                  .ok());
  AppendStore::BlobScrubResult result;
  ASSERT_TRUE(store.ScrubAll([](uint64_t, const Status&) {}, &result).ok());
  EXPECT_EQ(1u, result.corruptions);
  // Sticky: the memo AND the read cache were purged for that offset.
  EXPECT_TRUE(store.ReadView(a, &h).IsCorruption());
}

// ---- Pager verify-on-read toggle -------------------------------------

TEST(ScrubPagerTest, VerifyOnReadToggleGovernsInlineDetection) {
  MemDevice dev;
  Pager pager(&dev, 512);
  uint32_t id = 0;
  ASSERT_TRUE(pager.Alloc(&id).ok());
  std::vector<char> page(512);
  InitPage(page.data(), 512, id, PageType::kTsbData);
  ASSERT_TRUE(pager.Write(id, page.data()).ok());

  char evil = 'x';
  ASSERT_TRUE(
      dev.Write(static_cast<uint64_t>(id) * 512 + 100, Slice(&evil, 1)).ok());

  std::atomic<int> reported{0};
  pager.set_corruption_reporter(
      [&](uint32_t, const Status& s) {
        EXPECT_TRUE(s.IsCorruption());
        reported++;
      });
  std::vector<char> readback(512);
  EXPECT_TRUE(pager.Read(id, readback.data()).IsCorruption());
  EXPECT_EQ(1, reported.load());

  // paranoid_checks=false maps to this switch: the read then trusts the
  // device (scrub remains the only detector).
  pager.set_verify_on_read(false);
  EXPECT_TRUE(pager.Read(id, readback.data()).ok());
  EXPECT_EQ(1, reported.load());
}

// ---- DB-level scrub / quarantine / classification --------------------

class ScrubDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    path_ = "/tmp/tsb_scrub_test." + std::to_string(::getpid()) + "." +
            std::to_string(counter.fetch_add(1));
    MultiVersionDB::Destroy(path_);
    plan_ = std::make_shared<FaultPlan>();
    wal_plan_ = std::make_shared<FaultPlan>();
  }
  void TearDown() override {
    db_.reset();
    MultiVersionDB::Destroy(path_);
  }

  DbOptions Options() {
    DbOptions o;
    o.tree.page_size = 512;
    o.wal_fault_plan = wal_plan_;
    o.wrap_device = [this](const std::string& role,
                           std::unique_ptr<Device> dev)
        -> std::unique_ptr<Device> {
      if (role != "magnetic") return dev;
      return std::make_unique<FaultInjectingDevice>(std::move(dev), plan_);
    };
    return o;
  }

  void OpenDb(const DbOptions& o) {
    Status s = MultiVersionDB::Open(path_, o, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Baseline + checkpoint, then dirty a slice and leave it UNflushed so
  // the next checkpoint has real page writes to push through a fault.
  void SeedTwoGenerations(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db_->Put(Key(i), "gen0-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db_->Checkpoint().ok());
    for (int i = 0; i < n; i += 2) {
      ASSERT_TRUE(db_->Put(Key(i), "gen1-" + std::to_string(i)).ok());
    }
  }

  void ExpectAllReadable(int n) {
    for (int i = 0; i < n; ++i) {
      std::string v;
      ASSERT_TRUE(db_->Get({}, Key(i), &v).ok()) << Key(i);
      EXPECT_EQ((i % 2 == 0 ? "gen1-" : "gen0-") + std::to_string(i), v);
    }
  }

  // Quarantine one page via a silent fault pushed through a checkpoint.
  // Returns the scrub stats of the detecting pass.
  ScrubStats InjectAndDetect(FaultKind kind) {
    SeedTwoGenerations(40);
    plan_->FailNth(FaultOp::kWrite, 2, kind, /*sticky=*/false);
    EXPECT_TRUE(db_->Checkpoint().ok());  // silent: checkpoint cannot see it
    EXPECT_EQ(1u, plan_->fired(FaultOp::kWrite));
    plan_->Clear();
    ScrubStats pass;
    EXPECT_TRUE(db_->Scrub(&pass).ok());
    return pass;
  }

  std::string path_;
  std::shared_ptr<FaultPlan> plan_;
  std::shared_ptr<FaultPlan> wal_plan_;
  std::unique_ptr<MultiVersionDB> db_;
};

TEST_F(ScrubDbTest, CleanDatabaseScrubsSilent) {
  OpenDb(Options());
  SeedTwoGenerations(60);
  ASSERT_TRUE(db_->Checkpoint().ok());
  ScrubStats pass;
  ASSERT_TRUE(db_->Scrub(&pass).ok());
  EXPECT_EQ(0u, pass.corruptions_detected);
  EXPECT_EQ(0u, pass.pages_quarantined);
  EXPECT_EQ(0u, db_->quarantined_count());
  EXPECT_GT(pass.pages_scanned, 0u);
  EXPECT_GT(pass.bytes_scanned, 0u);
  EXPECT_GT(pass.wal_frames_scanned, 0u);
  EXPECT_EQ(1u, db_->scrub_stats().passes);
  EXPECT_FALSE(db_->degraded());
}

TEST_F(ScrubDbTest, BitFlipQuarantinesOnePageWithoutDegrading) {
  OpenDb(Options());
  ScrubStats pass = InjectAndDetect(FaultKind::kBitFlip);
  EXPECT_GE(pass.corruptions_detected, 1u);
  EXPECT_EQ(1u, db_->quarantined_count());
  ASSERT_EQ(1u, db_->quarantined_pages().size());
  EXPECT_EQ("primary", db_->quarantined_pages()[0].tree);
  // Blast radius: ONE page. The DB is not degraded — it keeps serving.
  EXPECT_FALSE(db_->degraded());
  ASSERT_TRUE(db_->Put("still-writable", "yes").ok());

  // Resume() repairs the page from the retired checkpoint journal.
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_EQ(0u, db_->quarantined_count());
  EXPECT_GE(db_->error_stats().pages_repaired, 1u);
  ScrubStats after;
  ASSERT_TRUE(db_->Scrub(&after).ok());
  EXPECT_EQ(0u, after.corruptions_detected);
  ExpectAllReadable(40);
}

TEST_F(ScrubDbTest, LostWriteCaughtByStampedLsnSweep) {
  OpenDb(Options());
  // The device acks the flush and drops it: the slot keeps a VALID page
  // (old bytes, old trailer LSN). Only the stamped-LSN sweep can tell.
  ScrubStats pass = InjectAndDetect(FaultKind::kLostWrite);
  EXPECT_GE(pass.corruptions_detected, 1u);
  EXPECT_GE(db_->quarantined_count(), 1u);
  EXPECT_FALSE(db_->degraded());
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_EQ(0u, db_->quarantined_count());
  ExpectAllReadable(40);
}

TEST_F(ScrubDbTest, MisdirectedWriteCaught) {
  OpenDb(Options());
  ScrubStats pass = InjectAndDetect(FaultKind::kMisdirectedWrite);
  // Both halves of the failure are detectable: the intended slot kept its
  // old stamp (lost write) and the clobbered slot carries the wrong id.
  EXPECT_GE(pass.corruptions_detected, 1u);
  EXPECT_GE(db_->quarantined_count(), 1u);
  EXPECT_FALSE(db_->degraded());
}

TEST_F(ScrubDbTest, WalTailRotDegradesTransientAndResumeHeals) {
  OpenDb(Options());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db_->Put(Key(i), "wal-resident-" + std::to_string(i)).ok());
  }
  // No checkpoint: the commits live only in the durable WAL prefix.
  const std::string wal = FindWalFile(path_);
  ASSERT_FALSE(wal.empty());
  ASSERT_GT(FileSize(wal), 64u);
  FlipByteInFile(wal, 24);  // inside the first frame's payload

  ScrubStats pass;
  ASSERT_TRUE(db_->Scrub(&pass).ok());
  EXPECT_GE(pass.corruptions_detected, 1u);
  // A corrupt durable frame would replay garbage after a crash — but the
  // in-memory state is trusted, so the class is TRANSIENT: Resume()'s
  // recovery checkpoint + forced rotation abandons the bad log.
  EXPECT_TRUE(db_->degraded());
  EXPECT_EQ(ErrorClass::kTransient, db_->error_stats().last_class);
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_FALSE(db_->degraded());
  for (int i = 0; i < 30; ++i) {
    std::string v;
    ASSERT_TRUE(db_->Get({}, Key(i), &v).ok());
    EXPECT_EQ("wal-resident-" + std::to_string(i), v);
  }
  ScrubStats after;
  ASSERT_TRUE(db_->Scrub(&after).ok());
  EXPECT_EQ(0u, after.corruptions_detected);
}

TEST_F(ScrubDbTest, ManifestRotDegradesHardAndResumeRefuses) {
  OpenDb(Options());
  SeedTwoGenerations(20);
  ASSERT_TRUE(db_->Checkpoint().ok());
  const std::string manifest = path_ + "/MANIFEST";
  ASSERT_GT(FileSize(manifest), 16u);
  FlipByteInFile(manifest, FileSize(manifest) / 2);

  ScrubStats pass;
  ASSERT_TRUE(db_->Scrub(&pass).ok());
  EXPECT_GE(pass.corruptions_detected, 1u);
  // The manifest anchors recovery; with it rotted there is nothing safe
  // to resume onto. Hard stop.
  EXPECT_TRUE(db_->degraded());
  EXPECT_EQ(ErrorClass::kHard, db_->error_stats().last_class);
  EXPECT_FALSE(db_->Resume().ok());
  EXPECT_TRUE(db_->degraded());
}

TEST_F(ScrubDbTest, HistoricalRotIsStickyDetected) {
  DbOptions o = Options();
  o.tree.hist_cache_blobs = 4;  // cache ON: eviction must beat the cache
  OpenDb(o);
  // Heavy updates over few keys force version migration to the
  // historical store.
  Timestamp early = 0;
  for (int round = 0; round < 120; ++round) {
    for (int i = 0; i < 6; ++i) {
      Timestamp ts = 0;
      ASSERT_TRUE(
          db_->Put(Key(i), "r" + std::to_string(round), &ts).ok());
      if (round == 10 && i == 0) early = ts;
    }
  }
  ASSERT_GT(FileSize(path_ + "/history.tsb"), 0u);
  // The early version must be readable from history before the rot.
  std::string v;
  Timestamp vts = 0;
  ASSERT_TRUE(db_->Get({.as_of = early}, Key(0), &v, &vts).ok());
  ASSERT_EQ("r10", v);

  // Rot EVERY blob (one flip per 32 bytes) so any as-of read that leaves
  // the current page is affected.
  const uint64_t hist_size = FileSize(path_ + "/history.tsb");
  for (uint64_t off = 9; off < hist_size; off += 32) {
    FlipByteInFile(path_ + "/history.tsb", off);
  }

  ScrubStats pass;
  ASSERT_TRUE(db_->Scrub(&pass).ok());
  EXPECT_GE(pass.corruptions_detected, 1u);
  // Blob rot does not quarantine pages and does not degrade the DB: the
  // read path re-verifies per read and fails precisely.
  EXPECT_FALSE(db_->degraded());
  // Sticky detection: the verified memo was evicted, so the same as-of
  // read now FAILS instead of serving unverified bytes.
  EXPECT_FALSE(db_->Get({.as_of = early}, Key(0), &v, &vts).ok());
  // Current reads keep working — history rot does not take down the now.
  ASSERT_TRUE(db_->Get({}, Key(0), &v).ok());
  EXPECT_EQ("r119", v);
}

TEST_F(ScrubDbTest, FreshFaultDuringResumeRedegrades) {
  OpenDb(Options());
  SeedTwoGenerations(20);
  // Degrade via a failed group-commit fdatasync (transient).
  wal_plan_->FailNth(FaultOp::kSync, 1, FaultKind::kEIO, /*sticky=*/false);
  EXPECT_FALSE(db_->Put("doomed", "never").ok());
  ASSERT_TRUE(db_->degraded());
  wal_plan_->Clear();

  // The disk is still sick: Resume()'s recovery checkpoint trips a fresh
  // write error. Resume must FAIL and the DB must stay degraded — no
  // half-healed state.
  plan_->FailNth(FaultOp::kWrite, 1, FaultKind::kEIO, /*sticky=*/true);
  EXPECT_FALSE(db_->Resume().ok());
  EXPECT_TRUE(db_->degraded());
  EXPECT_GE(db_->error_stats().failed_resumes, 1u);

  plan_->Clear();
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_FALSE(db_->degraded());
  ExpectAllReadable(20);
}

TEST_F(ScrubDbTest, ConcurrentReadsDuringScrubAndQuarantine) {
  OpenDb(Options());
  SeedTwoGenerations(60);
  plan_->FailNth(FaultOp::kWrite, 3, FaultKind::kBitFlip, /*sticky=*/false);
  ASSERT_TRUE(db_->Checkpoint().ok());
  plan_->Clear();

  // Readers hammer the keyspace while scrub passes run and pages enter
  // (and leave) quarantine. TSan in CI proves the locking story; here we
  // also assert no read ever returns WRONG bytes with an OK status.
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([this, &stop, &wrong] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 60; ++i) {
          std::string v;
          Status s = db_->Get({}, Key(i), &v);
          if (s.ok()) {
            const std::string want =
                (i % 2 == 0 ? "gen1-" : "gen0-") + std::to_string(i);
            if (v != want) wrong++;
          }
        }
      }
    });
  }
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(db_->Scrub(nullptr).ok());
    (void)db_->quarantined_pages();
  }
  ASSERT_TRUE(db_->Resume().ok());
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(0, wrong.load());
  EXPECT_EQ(0u, db_->quarantined_count());
}

TEST_F(ScrubDbTest, BackgroundScrubDetectsRotUnprompted) {
  DbOptions o = Options();
  o.scrub_background = true;
  o.scrub_interval_ms = 25;
  OpenDb(o);
  SeedTwoGenerations(40);
  plan_->FailNth(FaultOp::kWrite, 2, FaultKind::kBitFlip, /*sticky=*/false);
  ASSERT_TRUE(db_->Checkpoint().ok());
  plan_->Clear();
  // No explicit Scrub(): the background thread must find it.
  for (int waited = 0; waited < 200; ++waited) {
    if (db_->quarantined_count() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GE(db_->quarantined_count(), 1u);
  EXPECT_GE(db_->scrub_stats().passes, 1u);
  EXPECT_FALSE(db_->degraded());
}

TEST_F(ScrubDbTest, BitFlipOnFreshPageIsRepairedFromRetiredImages) {
  OpenDb(Options());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db_->Put(Key(i), "gen0-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  const uint32_t durable = db_->primary()->pager()->high_water_pages() + 1;
  // New keys past the end land on pages above the durable high-water
  // mark, which the checkpoint writes first and never journals.
  for (int i = 40; i < 120; ++i) {
    ASSERT_TRUE(db_->Put(Key(i), "gen0-" + std::to_string(i)).ok());
  }
  plan_->FailNth(FaultOp::kWrite, 1, FaultKind::kBitFlip, /*sticky=*/false);
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_EQ(1u, plan_->fired(FaultOp::kWrite));
  plan_->Clear();
  ScrubStats pass;
  ASSERT_TRUE(db_->Scrub(&pass).ok());
  EXPECT_GE(pass.corruptions_detected, 1u);
  ASSERT_EQ(1u, db_->quarantined_count());
  EXPECT_GE(db_->quarantined_pages()[0].page_id, durable);

  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_EQ(0u, db_->quarantined_count());
  EXPECT_GE(db_->error_stats().pages_repaired, 1u);
  ScrubStats after;
  ASSERT_TRUE(db_->Scrub(&after).ok());
  EXPECT_EQ(0u, after.corruptions_detected);
  for (int i = 0; i < 120; ++i) {
    std::string v;
    ASSERT_TRUE(db_->Get({}, Key(i), &v).ok()) << Key(i);
    EXPECT_EQ("gen0-" + std::to_string(i), v);
  }
}

// ---- what a checkpoint journals ---------------------------------------

// Magnetic-device spy: while armed it counts page bytes written and their
// slots, and copies the committed journal the first time it sees one.
// checkpoint.tsb exists only from the commit point to retirement, that is
// while the journaled pages are applied in place.
struct CheckpointSpy {
  std::string dir;
  std::string copy;  // where the committed journal is copied
  bool armed = false;
  uint64_t bytes_written = 0;
  std::vector<uint32_t> slots;
  bool copied = false;
};

class SpyDevice : public Device {
 public:
  SpyDevice(std::unique_ptr<Device> base, CheckpointSpy* spy)
      : Device(base->kind(), base->cost_params()),
        base_(std::move(base)),
        spy_(spy) {}
  Status Read(uint64_t offset, size_t n, char* scratch) override {
    return base_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const Slice& data) override {
    if (spy_->armed) {
      spy_->bytes_written += data.size();
      spy_->slots.push_back(static_cast<uint32_t>(offset / 512));
      if (!spy_->copied) CopyCommittedJournal();
    }
    return base_->Write(offset, data);
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override { return base_->Sync(); }

 private:
  void CopyCommittedJournal() {
    FILE* in =
        fopen(wal::CheckpointJournal::JournalPath(spy_->dir).c_str(), "rb");
    if (in == nullptr) return;
    FILE* out = fopen(spy_->copy.c_str(), "wb");
    if (out == nullptr) {
      fclose(in);
      return;
    }
    char buf[1 << 12];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), in)) > 0) fwrite(buf, 1, n, out);
    fclose(out);
    fclose(in);
    spy_->copied = true;
  }

  std::unique_ptr<Device> base_;
  CheckpointSpy* spy_;
};

class JournalCountTest : public ScrubDbTest {
 protected:
  void SetUp() override {
    ScrubDbTest::SetUp();
    spy_.dir = path_;
    spy_.copy = path_ + ".committed";
  }
  void TearDown() override {
    ScrubDbTest::TearDown();
    ::unlink(spy_.copy.c_str());
  }

  DbOptions SpyOptions() {
    DbOptions o;
    o.tree.page_size = 512;
    o.tree.buffer_pool_frames = 1 << 14;
    o.wrap_device = [this](const std::string& role,
                           std::unique_ptr<Device> dev)
        -> std::unique_ptr<Device> {
      if (role != "magnetic") return dev;
      return std::make_unique<SpyDevice>(std::move(dev), &spy_);
    };
    return o;
  }

  Status SpiedCheckpoint() {
    spy_.bytes_written = 0;
    spy_.slots.clear();
    spy_.copied = false;
    spy_.armed = true;
    Status s = db_->Checkpoint();
    spy_.armed = false;
    return s;
  }

  CheckpointSpy spy_;
};

TEST_F(JournalCountTest, FreshBulkLoadJournalsAlmostNothing) {
  DbOptions o = SpyOptions();
  o.wal_checkpoint_bytes = 1ull << 40;  // only the explicit checkpoint
  OpenDb(o);
  int key = 0;
  for (int b = 0; b < 120; ++b) {
    WriteBatch batch;
    for (int i = 0; i < 200; ++i, ++key) {
      batch.Put(Key(key), std::string(60, 'v') + std::to_string(key));
    }
    ASSERT_TRUE(db_->Write(batch, nullptr).ok());
  }
  ASSERT_TRUE(SpiedCheckpoint().ok());
  EXPECT_GE(spy_.bytes_written, 5000u * 512);
  ASSERT_TRUE(spy_.copied);
  // The direction-2 gate: fsynced journal bytes <= 0.1 x page bytes.
  const uint64_t journal = FileSize(spy_.copy);
  EXPECT_GT(journal, 0u);
  EXPECT_LE(journal * 10, spy_.bytes_written)
      << journal << " journal bytes for " << spy_.bytes_written
      << " page bytes written";
}

TEST_F(JournalCountTest, UpdateCheckpointJournalsEveryOverwrittenPage) {
  OpenDb(SpyOptions());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put(Key(i), "gen0-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  const uint32_t durable = db_->primary()->pager()->high_water_pages() + 1;
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE(db_->Put(Key(i), "gen1-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(SpiedCheckpoint().ok());
  ASSERT_TRUE(spy_.copied);
  std::map<std::pair<std::string, uint32_t>, std::string> journaled;
  ASSERT_TRUE(
      wal::CheckpointJournal::LoadImages(spy_.copy, 512, &journaled).ok());
  size_t overwritten = 0;
  for (uint32_t slot : spy_.slots) {
    const bool in_journal = journaled.count({"current.tsb", slot}) == 1;
    if (slot < durable) {
      overwritten++;
      EXPECT_TRUE(in_journal) << "overwritten page " << slot;
    } else {
      EXPECT_FALSE(in_journal) << "fresh page " << slot;
    }
  }
  EXPECT_GT(overwritten, 1u) << "the meta and at least one page";
  EXPECT_EQ(overwritten, journaled.size());
}

TEST_F(ScrubDbTest, SalvageRecoversEverythingStillChecksummed) {
  OpenDb(Options());
  SeedTwoGenerations(50);
  plan_->FailNth(FaultOp::kWrite, 2, FaultKind::kBitFlip, /*sticky=*/false);
  ASSERT_TRUE(db_->Checkpoint().ok());
  plan_->Clear();
  db_.reset();

  const std::string dst = path_ + ".salvaged";
  MultiVersionDB::Destroy(dst);
  SalvageOptions sopts;
  SalvageReport report;
  ASSERT_TRUE(SalvageDatabase(path_, dst, sopts, &report).ok());
  EXPECT_GT(report.records_recovered, 0u);

  // Refusal contract: dst must not exist.
  SalvageReport again;
  EXPECT_FALSE(SalvageDatabase(path_, dst, sopts, &again).ok());

  DbOptions plain;
  plain.tree.page_size = 512;
  std::unique_ptr<MultiVersionDB> doctored;
  ASSERT_TRUE(MultiVersionDB::Open(dst, plain, &doctored).ok());
  for (int i = 0; i < 50; ++i) {
    std::string v;
    ASSERT_TRUE(doctored->Get({}, Key(i), &v).ok()) << Key(i);
    EXPECT_EQ((i % 2 == 0 ? "gen1-" : "gen0-") + std::to_string(i), v);
  }
  doctored.reset();
  MultiVersionDB::Destroy(dst);
}

}  // namespace
}  // namespace db
}  // namespace tsb
