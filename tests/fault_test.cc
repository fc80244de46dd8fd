// Failure injection: bit rot on either device must surface as Corruption
// (never wrong answers or crashes); write-once violations are rejected;
// free-list persistence and meta handling survive edge cases. The second
// half exercises the SICK-disk path end to end: FaultPlan mechanics, WAL
// append/sync failures, and the DB-level degraded read-only mode with
// Resume() / auto-resume.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logger.h"
#include "db/multiversion_db.h"
#include "storage/fault_device.h"
#include "storage/mem_device.h"
#include "storage/pager.h"
#include "storage/worm_device.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"
#include "wal/wal.h"

namespace tsb {
namespace tsb_tree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    magnetic_ = std::make_unique<MemDevice>();
    hist_ = std::make_unique<MemDevice>(DeviceKind::kOpticalErasable,
                                        CostParams::OpticalWorm());
    TsbOptions opts;
    opts.page_size = 512;
    opts.hist_cache_blobs = 0;  // no cache: reads must hit the device
    opts.policy.kind_policy = SplitKindPolicy::kWobtStyle;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), hist_.get(), opts, &tree_).ok());
    // Build history: updates force migration to the historical device.
    Timestamp ts = 0;
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(
          tree_->Put(Key(i % 8), "v" + std::to_string(i), ++ts).ok());
    }
    ASSERT_GT(tree_->counters().hist_data_nodes, 0u);
    ASSERT_TRUE(tree_->Flush().ok());
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<MemDevice> hist_;
  std::unique_ptr<TsbTree> tree_;
};

TEST_F(FaultTest, CurrentPageBitRotDetected) {
  // Flip one byte in every non-meta page region; a subsequent cold read of
  // that page must fail with Corruption, not return wrong data.
  // (Reopen with a cold buffer pool so reads actually hit the device.)
  const uint64_t offset = 512 * 3 + 200;  // inside page 3's payload
  char byte;
  ASSERT_TRUE(magnetic_->Read(offset, 1, &byte).ok());
  byte ^= 0x40;
  ASSERT_TRUE(magnetic_->Write(offset, Slice(&byte, 1)).ok());

  tree_.reset();
  TsbOptions opts;
  opts.page_size = 512;
  std::unique_ptr<TsbTree> reopened;
  ASSERT_TRUE(TsbTree::Open(magnetic_.get(), hist_.get(), opts, &reopened).ok());
  // Probe every key at many times: at least one path crosses page 3 and
  // must report corruption; NO probe may return a wrong value silently.
  bool saw_corruption = false;
  for (int k = 0; k < 8; ++k) {
    for (Timestamp t = 1; t <= reopened->Now(); t += 17) {
      std::string v;
      Status s = reopened->Get({.as_of = t}, Key(k), &v);
      if (s.IsCorruption()) saw_corruption = true;
      if (s.ok()) {
        // Any successful read must be internally consistent: value suffix
        // encodes the op ordinal, which must not exceed the clock.
        EXPECT_EQ('v', v[0]);
      }
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST_F(FaultTest, HistoricalBlobBitRotDetected) {
  // Corrupt the middle of the historical store; deep as-of reads crossing
  // that node must fail with Corruption.
  const uint64_t mid = hist_->Size() / 2;
  char byte;
  ASSERT_TRUE(hist_->Read(mid, 1, &byte).ok());
  byte ^= 0x01;
  ASSERT_TRUE(hist_->Write(mid, Slice(&byte, 1)).ok());
  bool saw_corruption = false;
  for (int k = 0; k < 8 && !saw_corruption; ++k) {
    for (Timestamp t = 1; t <= tree_->Now(); ++t) {
      std::string v;
      Status s = tree_->Get({.as_of = t}, Key(k), &v);
      if (s.IsCorruption()) {
        saw_corruption = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST_F(FaultTest, CurrentReadsSurviveHistoricalRot) {
  // The current database never depends on the historical device: even
  // with a fully zeroed historical store, current lookups still work.
  std::string zeros(hist_->Size(), 0);
  ASSERT_TRUE(hist_->Write(0, zeros).ok());
  for (int k = 0; k < 8; ++k) {
    std::string v;
    EXPECT_TRUE(tree_->Get({}, Key(k), &v).ok()) << k;
  }
}

TEST_F(FaultTest, FreeListSurvivesReopen) {
  // Erase enough uncommitted data to free pages... pages free via splits
  // only; instead exercise Pager-level persistence directly.
  MemDevice dev;
  std::string blob;
  {
    Pager pager(&dev, 512);
    uint32_t a, b, c;
    std::string page(512, 0);
    for (uint32_t* id : {&a, &b, &c}) {
      ASSERT_TRUE(pager.Alloc(id).ok());
      InitPage(page.data(), 512, *id, PageType::kTsbData);
      ASSERT_TRUE(pager.Write(*id, page.data()).ok());
    }
    ASSERT_TRUE(pager.Free(b).ok());
    ASSERT_TRUE(pager.Free(a).ok());
    pager.EncodeFreeList(&blob, 512);
  }
  {
    Pager pager(&dev, 512);
    ASSERT_TRUE(pager.DecodeFreeList(Slice(blob)).ok());
    uint32_t got;
    ASSERT_TRUE(pager.Alloc(&got).ok());
    EXPECT_TRUE(got == 1 || got == 2);  // reuses a freed page, not page 4
    EXPECT_LT(got, 3u);
  }
}

TEST_F(FaultTest, FreeListBoundedEncoding) {
  MemDevice dev;
  Pager pager(&dev, 512);
  std::vector<uint32_t> ids;
  std::string page(512, 0);
  for (int i = 0; i < 100; ++i) {
    uint32_t id;
    ASSERT_TRUE(pager.Alloc(&id).ok());
    InitPage(page.data(), 512, id, PageType::kTsbData);
    ASSERT_TRUE(pager.Write(id, page.data()).ok());
    ids.push_back(id);
  }
  for (uint32_t id : ids) ASSERT_TRUE(pager.Free(id).ok());
  EXPECT_EQ(0u, pager.leaked_free_pages());
  // Overflowing the meta budget warns and counts the leaked pages.
  std::vector<std::string> captured;
  Logger::SetSink(
      [&](LogLevel, const std::string& m) { captured.push_back(m); });
  std::string blob;
  pager.EncodeFreeList(&blob, 44);  // room for 10 ids
  Logger::SetSink(nullptr);
  EXPECT_LE(blob.size(), 44u);
  EXPECT_EQ(90u, pager.leaked_free_pages());
  ASSERT_EQ(1u, captured.size());
  EXPECT_NE(std::string::npos, captured[0].find("free list overflow"));
  Pager pager2(&dev, 512);
  ASSERT_TRUE(pager2.DecodeFreeList(Slice(blob)).ok());
  // The 10 persisted ids are reusable; the rest leak (documented).
  EXPECT_EQ(90u, pager2.live_pages());
  // A roomy re-encode clears the leak counter.
  std::string big;
  pager.EncodeFreeList(&big, 4096);
  EXPECT_EQ(0u, pager.leaked_free_pages());
}

TEST_F(FaultTest, DecodeFreeListRejectsGarbage) {
  MemDevice dev;
  Pager pager(&dev, 512);
  EXPECT_TRUE(pager.DecodeFreeList(Slice("ab")).IsCorruption());
  std::string lying;
  lying.push_back(static_cast<char>(200));  // claims 200 entries
  lying.append(3, '\0');
  EXPECT_TRUE(pager.DecodeFreeList(Slice(lying)).IsCorruption());
}

TEST_F(FaultTest, WormViolationSurfacesThroughAppendStore) {
  // If something corrupts the append-store offset bookkeeping so it tries
  // to rewrite a burned sector, the device refuses.
  WormDevice worm(64);
  AppendStore store(&worm);
  HistAddr a;
  ASSERT_TRUE(store.Append(Slice("first"), &a).ok());
  ASSERT_TRUE(store.Flush().ok());
  // A second store on the same device with stale state would collide:
  ASSERT_TRUE(worm.Write(a.offset, Slice("overwrite")).IsWriteOnceViolation());
}

// A tree without a WAL writes its pages back at close. When the history
// flush fails first, the pages may point at blobs that never reached the
// device, so the close writes no page at all.
TEST(TreeCloseTest, FailedHistoryFlushWritesNoPageAtClose) {
  MemDevice magnetic;
  MemDevice hist_base(DeviceKind::kOpticalErasable, CostParams::OpticalWorm());
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingDevice hist(&hist_base, plan);
  TsbOptions opts;
  opts.page_size = 512;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &hist, opts, &tree).ok());
  plan->FailNth(FaultOp::kWrite, 1, FaultKind::kEIO, /*sticky=*/true);
  Status s;
  Timestamp ts = 0;
  for (int i = 0; i < 400 && s.ok(); ++i) {
    s = tree->Put(Key(i % 8), "v" + std::to_string(i), ++ts);
  }
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_GT(tree->hist_store()->device_bytes(),
            tree->hist_store()->flushed_end());
  const uint64_t writes = magnetic.stats().writes;
  tree.reset();
  EXPECT_EQ(writes, magnetic.stats().writes);
}

// A direct Put whose history flush fails may leave its version in the
// tree with the clock advanced. No later Put may publish past it: a Get
// at latest never returns the failed value, and once PurgeCommittedAt has
// removed it (the repair step degraded-mode Resume runs) the later Puts
// publish and the failed value stays gone across a reopen.
TEST(TreePutFaultTest, FailedPutNeverBecomesReadable) {
  MemDevice magnetic;
  MemDevice hist_base(DeviceKind::kOpticalErasable, CostParams::OpticalWorm());
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingDevice hist(&hist_base, plan);
  TsbOptions opts;
  opts.page_size = 512;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &hist, opts, &tree).ok());
  // The first history write is the flush of the first time split's node.
  plan->FailNth(FaultOp::kWrite, 1, FaultKind::kEIO, /*sticky=*/false);
  std::map<std::string, std::string> good;  // newest good value per key
  Status s;
  Timestamp ts = 0;
  std::string failed_key, failed_value;
  for (int i = 0; i < 400; ++i) {
    const std::string key = Key(i % 8), value = "v" + std::to_string(i);
    s = tree->Put(key, value, ++ts);
    if (!s.ok()) {
      failed_key = key;
      failed_value = value;
      break;
    }
    good[key] = value;
  }
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_EQ(1u, plan->fired(FaultOp::kWrite));
  ASSERT_GT(tree->counters().data_time_splits, 0u);
  const Timestamp failed_ts = ts;
  EXPECT_EQ(failed_ts - 1, tree->VisibleNow());

  // Later good Puts, of the failed key and of another, stay invisible.
  const std::string other = failed_key == Key(0) ? Key(1) : Key(0);
  ASSERT_TRUE(tree->Put(other, "later-other", ++ts).ok());
  ASSERT_TRUE(tree->Put(failed_key, "later-same", ++ts).ok());
  EXPECT_EQ(failed_ts - 1, tree->VisibleNow());
  std::string v;
  ASSERT_TRUE(tree->Get({}, failed_key, &v).ok());
  EXPECT_EQ(good[failed_key], v);
  ASSERT_TRUE(tree->Get({}, other, &v).ok());
  EXPECT_EQ(good[other], v);

  uint64_t purged = 0;
  ASSERT_TRUE(tree->PurgeCommittedAt(failed_ts, &purged).ok());
  EXPECT_EQ(1u, purged);
  EXPECT_EQ(ts, tree->VisibleNow());
  auto expect_repaired = [&](TsbTree* t) {
    std::string got;
    ASSERT_TRUE(t->Get({}, failed_key, &got).ok());
    EXPECT_EQ("later-same", got);
    ASSERT_TRUE(t->Get({.as_of = failed_ts}, failed_key, &got).ok());
    EXPECT_EQ(good[failed_key], got);
    ASSERT_TRUE(t->Get({}, other, &got).ok());
    EXPECT_EQ("later-other", got);
    TreeChecker checker(t);
    Status check = checker.Check();
    EXPECT_TRUE(check.ok()) << check.ToString();
  };
  expect_repaired(tree.get());
  ASSERT_TRUE(tree->Flush().ok());
  tree.reset();
  ASSERT_TRUE(TsbTree::Open(&magnetic, &hist, opts, &tree).ok());
  expect_repaired(tree.get());
}

TEST_F(FaultTest, TruncatedHistoricalStoreYieldsIOError) {
  // Cut the historical device short; reads past the cut fail with IOError
  // (device-level) rather than returning partial frames.
  const uint64_t cut = hist_->Size() / 2;
  ASSERT_TRUE(hist_->Truncate(cut).ok());
  bool saw_error = false;
  for (int k = 0; k < 8 && !saw_error; ++k) {
    for (Timestamp t = 1; t <= tree_->Now(); t += 3) {
      std::string v;
      Status s = tree_->Get({.as_of = t}, Key(k), &v);
      if (s.IsIOError() || s.IsCorruption()) {
        saw_error = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_error);
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb

// ---------------------------------------------------------------------------
// FaultPlan mechanics: nth-op arming, one-shot vs sticky, per-op counters.
// ---------------------------------------------------------------------------
namespace tsb {
namespace {

TEST(FaultPlanTest, NthOneShotAndStickySemantics) {
  FaultPlan plan;
  EXPECT_FALSE(plan.armed());
  plan.FailNth(FaultOp::kWrite, 3, FaultKind::kEIO, /*sticky=*/false);
  Fault fired;
  EXPECT_FALSE(plan.Check(FaultOp::kWrite, &fired));  // 1st write
  EXPECT_FALSE(plan.Check(FaultOp::kRead, &fired));   // other op class
  EXPECT_FALSE(plan.Check(FaultOp::kWrite, &fired));  // 2nd write
  EXPECT_TRUE(plan.Check(FaultOp::kWrite, &fired));   // 3rd trips
  EXPECT_TRUE(FaultPlan::ToStatus(fired, "w").IsIOError());
  EXPECT_FALSE(plan.Check(FaultOp::kWrite, &fired));  // one-shot: disarmed
  EXPECT_EQ(4u, plan.ops(FaultOp::kWrite));
  EXPECT_EQ(1u, plan.fired(FaultOp::kWrite));

  // Arming baselines at the current count: "nth from now", not from zero.
  plan.FailNth(FaultOp::kWrite, 1, FaultKind::kENOSPC, /*sticky=*/true);
  EXPECT_TRUE(plan.Check(FaultOp::kWrite, &fired));
  EXPECT_TRUE(FaultPlan::ToStatus(fired, "w").IsOutOfSpace());
  EXPECT_TRUE(plan.Check(FaultOp::kWrite, &fired));  // sticky keeps firing
  plan.Clear();
  EXPECT_FALSE(plan.Check(FaultOp::kWrite, &fired));  // healed
  EXPECT_FALSE(plan.armed());
}

}  // namespace
}  // namespace tsb

// ---------------------------------------------------------------------------
// WAL append-failure hygiene: a partially written frame must never linger
// for a later append to build past.
// ---------------------------------------------------------------------------
namespace tsb {
namespace wal {
namespace {

TEST(WalFaultTest, FailedAppendTruncatesBackToLastGoodFrame) {
  const std::string file =
      "/tmp/tsb_wal_fault_test." + std::to_string(::getpid()) + ".tsb";
  ::unlink(file.c_str());
  auto plan = std::make_shared<FaultPlan>();
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(file, WalSyncMode::kGroup, 0, &wal, plan).ok());
  const std::vector<std::pair<Slice, Slice>> ops{{"alpha", "a-value"}};
  uint64_t lsn1 = 0;
  ASSERT_TRUE(wal->AppendCommit(1, ops, &lsn1).ok());
  ASSERT_TRUE(wal->Sync(lsn1).ok());

  // ENOSPC mid-frame: a 6-byte prefix genuinely lands, then the append
  // errors — the torn-frame shape a filling disk leaves behind.
  Fault f;
  f.op = FaultOp::kAppend;
  f.kind = FaultKind::kShortWrite;
  f.nth = 1;
  f.short_bytes = 6;
  plan->Arm(f);
  uint64_t lsn2 = 0;
  EXPECT_FALSE(wal->AppendCommit(2, ops, &lsn2).ok());
  EXPECT_EQ(lsn1, wal->appended_lsn());
  struct stat st;
  ASSERT_EQ(0, ::stat(file.c_str(), &st));
  // The torn prefix was truncated away: file size == last good LSN, so a
  // later (even shorter) frame can never leave stale garbage beyond it.
  EXPECT_EQ(lsn1, static_cast<uint64_t>(st.st_size));
  EXPECT_EQ(1u, plan->fired(FaultOp::kAppend));

  // Healed: a SMALLER frame lands exactly at the boundary...
  const std::vector<std::pair<Slice, Slice>> small{{"b", ""}};
  uint64_t lsn3 = 0;
  ASSERT_TRUE(wal->AppendCommit(3, small, &lsn3).ok());
  ASSERT_TRUE(wal->Sync(lsn3).ok());
  wal.reset();

  // ...and replay sees exactly commits 1 and 3 with a clean tail.
  WalReplayResult rr;
  std::vector<Timestamp> seen;
  ASSERT_TRUE(Wal::Replay(file, 0,
                          [&](const WalCommit& c) {
                            seen.push_back(c.ts);
                            return Status::OK();
                          },
                          &rr)
                  .ok());
  EXPECT_EQ((std::vector<Timestamp>{1, 3}), seen);
  EXPECT_FALSE(rr.tail_truncated);
  ::unlink(file.c_str());
}

}  // namespace
}  // namespace wal
}  // namespace tsb

// ---------------------------------------------------------------------------
// DB-level degraded mode: sticky background errors, fail-fast writes,
// reads that keep serving, Resume() and auto-resume.
// ---------------------------------------------------------------------------
namespace tsb {
namespace db {
namespace {

std::string DbKey(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "db-k%05d", i);
  return buf;
}

class DegradedModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    path_ = "/tmp/tsb_degraded_test." + std::to_string(::getpid()) + "." +
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
    o.tree.buffer_pool_frames = 4096;
    o.wal_fault_plan = wal_plan_;
    o.wrap_device = [this](const std::string& role,
                           std::unique_ptr<Device> dev)
        -> std::unique_ptr<Device> {
      (void)role;
      return std::make_unique<FaultInjectingDevice>(std::move(dev), plan_);
    };
    return o;
  }

  void OpenDb(const DbOptions& o) {
    Status s = MultiVersionDB::Open(path_, o, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void PutBaseline(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db_->Put(DbKey(i), "base-" + std::to_string(i)).ok());
    }
  }

  void ExpectBaseline(int n) {
    for (int i = 0; i < n; ++i) {
      std::string v;
      ASSERT_TRUE(db_->Get({}, DbKey(i), &v).ok()) << DbKey(i);
      EXPECT_EQ("base-" + std::to_string(i), v);
    }
  }

  std::string path_;
  std::shared_ptr<FaultPlan> plan_;      // wraps every device
  std::shared_ptr<FaultPlan> wal_plan_;  // consulted by the WAL
  std::unique_ptr<MultiVersionDB> db_;
};

// The tentpole assertion: a failed fdatasync during group commit means
// EVERY writer rendezvous'd on it sees the error and NONE acks — and
// after heal + Resume + reopen, none of those commits ever surfaces.
TEST_F(DegradedModeTest, GroupCommitSyncFailureAcksNothing) {
  OpenDb(Options());
  constexpr int kBase = 10;
  PutBaseline(kBase);
  const Timestamp watermark = db_->Now();

  // One-shot fault on the next fdatasync. The Wal's sync error is sticky,
  // so even commits arriving after the trip cannot sneak an ack through.
  wal_plan_->FailNth(FaultOp::kSync, 1, FaultKind::kEIO, /*sticky=*/false);
  constexpr int kWriters = 8;
  std::atomic<int> acked{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w, &acked]() {
      Status s = db_->Put("doomed-" + std::to_string(w), "never-acked");
      if (s.ok()) acked.fetch_add(1);
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(0, acked.load());                       // no non-durable ack
  EXPECT_EQ(1u, wal_plan_->fired(FaultOp::kSync));  // exactly one trip
  EXPECT_TRUE(db_->degraded());
  EXPECT_TRUE(db_->BackgroundError().IsIOError());
  EXPECT_EQ(watermark, db_->Now());  // nothing published past the fault

  // Degraded = read-only: reads keep serving, writes fail fast with the
  // sticky cause.
  ExpectBaseline(kBase);
  EXPECT_TRUE(db_->Put("rejected", "x").IsIOError());
  EXPECT_TRUE(db_->Checkpoint().IsIOError());

  // Heal + resume: failed commits purged, durability re-established on a
  // fresh log, the watermark lifted.
  wal_plan_->Clear();
  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  EXPECT_FALSE(db_->degraded());
  EXPECT_TRUE(db_->BackgroundError().ok());
  for (int w = 0; w < kWriters; ++w) {
    std::string v;
    EXPECT_TRUE(db_->Get({}, "doomed-" + std::to_string(w), &v).IsNotFound());
  }
  ASSERT_TRUE(db_->Put("post-resume", "v").ok());

  const ErrorHandlerStats stats = db_->error_stats();
  EXPECT_EQ(1u, stats.degradations);
  EXPECT_EQ(1u, stats.resumes);
  EXPECT_EQ(ErrorClass::kTransient, stats.last_class);

  // Reopen: every acked commit present, the never-acked ones still absent.
  db_.reset();
  OpenDb(Options());
  ExpectBaseline(kBase);
  for (int w = 0; w < kWriters; ++w) {
    std::string v;
    EXPECT_TRUE(db_->Get({}, "doomed-" + std::to_string(w), &v).IsNotFound());
  }
  std::string v;
  ASSERT_TRUE(db_->Get({}, "post-resume", &v).ok());
  EXPECT_EQ("v", v);
}

// EIO on the Nth page write: the checkpoint fails, the DB degrades, reads
// keep serving; Clear + Resume lifts it and the data survives reopen.
TEST_F(DegradedModeTest, EioOnNthPageWriteDegradesUntilResume) {
  OpenDb(Options());
  constexpr int kBase = 40;
  PutBaseline(kBase);

  plan_->FailNth(FaultOp::kWrite, 2, FaultKind::kEIO, /*sticky=*/true);
  Status ckpt = db_->Checkpoint();
  EXPECT_TRUE(ckpt.IsIOError()) << ckpt.ToString();
  EXPECT_GE(plan_->fired(FaultOp::kWrite), 1u);
  EXPECT_TRUE(db_->degraded());
  EXPECT_TRUE(db_->BackgroundError().IsIOError());
  ExpectBaseline(kBase);  // reads unaffected
  EXPECT_TRUE(db_->Put("rejected", "x").IsIOError());

  plan_->Clear();
  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  EXPECT_FALSE(db_->degraded());
  ASSERT_TRUE(db_->Put("after-eio", "y").ok());

  db_.reset();
  OpenDb(Options());
  ExpectBaseline(kBase);
  std::string v;
  ASSERT_TRUE(db_->Get({}, "after-eio", &v).ok());
  EXPECT_EQ("y", v);
}

// ENOSPC during checkpoint: classified transient, the journal protects
// the base, and Resume() after space returns restores full service.
TEST_F(DegradedModeTest, EnospcDuringCheckpointResumesAfterSpaceReturns) {
  OpenDb(Options());
  constexpr int kBase = 40;
  PutBaseline(kBase);

  plan_->FailNth(FaultOp::kWrite, 1, FaultKind::kENOSPC, /*sticky=*/true);
  Status ckpt = db_->Checkpoint();
  EXPECT_TRUE(ckpt.IsOutOfSpace()) << ckpt.ToString();
  EXPECT_TRUE(db_->degraded());
  EXPECT_EQ(ErrorClass::kTransient, db_->error_stats().last_class);
  ExpectBaseline(kBase);

  // Space returns.
  plan_->Clear();
  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  EXPECT_FALSE(db_->degraded());
  ASSERT_TRUE(db_->Put("after-enospc", "z").ok());

  db_.reset();
  OpenDb(Options());
  ExpectBaseline(kBase);
  std::string v;
  ASSERT_TRUE(db_->Get({}, "after-enospc", &v).ok());
  EXPECT_EQ("z", v);
}

// Reads during degradation must equal reads after a (degraded) close and
// reopen at the same as-of timestamp: degradation never serves state that
// recovery would contradict.
TEST_F(DegradedModeTest, DegradedReadsMatchPostReopenReads) {
  OpenDb(Options());
  constexpr int kBase = 50;
  PutBaseline(kBase);

  wal_plan_->FailNth(FaultOp::kSync, 1, FaultKind::kEIO, /*sticky=*/false);
  EXPECT_FALSE(db_->Put("doomed", "never-acked").ok());
  ASSERT_TRUE(db_->degraded());
  const Timestamp frozen = db_->Now();

  std::vector<std::pair<bool, std::string>> during(kBase + 1);
  for (int i = 0; i < kBase; ++i) {
    std::string v;
    during[i] = {db_->Get({.as_of = frozen}, DbKey(i), &v).ok(), v};
  }
  {
    std::string v;
    during[kBase] = {db_->Get({.as_of = frozen}, "doomed", &v).ok(), v};
    EXPECT_FALSE(during[kBase].first);  // never acked, never visible
  }

  // Close WHILE degraded (the destructor must not checkpoint half-stamped
  // state), heal the disk, reopen, and re-read at the same timestamp.
  db_.reset();
  wal_plan_->Clear();
  OpenDb(Options());
  for (int i = 0; i < kBase; ++i) {
    std::string v;
    const bool found = db_->Get({.as_of = frozen}, DbKey(i), &v).ok();
    EXPECT_EQ(during[i].first, found) << DbKey(i);
    if (found) {
      EXPECT_EQ(during[i].second, v) << DbKey(i);
    }
  }
  std::string v;
  EXPECT_EQ(during[kBase].first,
            db_->Get({.as_of = frozen}, "doomed", &v).ok());
}

// auto_resume: a transient fault heals itself in the background without
// any manual Resume() call.
TEST_F(DegradedModeTest, AutoResumeHealsTransientFault) {
  DbOptions o = Options();
  o.auto_resume = true;
  o.auto_resume_backoff_initial_ms = 10;
  o.auto_resume_backoff_max_ms = 100;
  OpenDb(o);
  constexpr int kBase = 10;
  PutBaseline(kBase);

  wal_plan_->FailNth(FaultOp::kSync, 1, FaultKind::kEIO, /*sticky=*/false);
  EXPECT_FALSE(db_->Put("doomed", "never-acked").ok());
  EXPECT_TRUE(db_->degraded());

  // The one-shot fault has already burned out; the background thread's
  // next attempt should succeed. Poll with a generous deadline.
  bool healed = false;
  for (int i = 0; i < 1000 && !healed; ++i) {
    healed = !db_->degraded();
    if (!healed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(healed);
  EXPECT_GE(db_->error_stats().auto_resumes, 1u);
  ASSERT_TRUE(db_->Put("after-auto", "ok").ok());
  ExpectBaseline(kBase);
}

// A data time split stages its historical node and the write that split
// flushes it before returning. When that flush fails, the split stays
// installed with the node staged: the commit fails with IOError and the
// DB degrades, a retry fails fast, and Resume()'s checkpoint writes the
// staged node at its address, after which the same batch commits and
// every version, historical ones included, reads back from a tree that
// checks clean. Two inputs drive the same split: a WriteBatch, and an
// explicit transaction (Begin + Put + Commit), whose failed Put must
// leave the key unlocked.
TEST_F(DegradedModeTest, HistoricalAppendFailureInDataTimeSplit) {
  for (const bool explicit_txn : {false, true}) {
    SCOPED_TRACE(explicit_txn ? "explicit transaction" : "WriteBatch");
    db_.reset();
    MultiVersionDB::Destroy(path_);
    auto commit = [&](const WriteBatch& batch, Timestamp* ts) -> Status {
      if (!explicit_txn) return db_->Write(batch, ts);
      std::unique_ptr<txn::Transaction> txn;
      TSB_RETURN_IF_ERROR(db_->Begin(&txn));
      for (const auto& [key, value] : batch.ops()) {
        TSB_RETURN_IF_ERROR(txn->Put(key, value));
      }
      return txn->Commit(ts);
    };
    DbOptions o = Options();
    auto hist_plan = std::make_shared<FaultPlan>();
    o.wrap_device = [hist_plan](const std::string& role,
                                std::unique_ptr<Device> dev)
        -> std::unique_ptr<Device> {
      if (role != "historical") return dev;
      return std::make_unique<FaultInjectingDevice>(std::move(dev),
                                                    hist_plan);
    };
    OpenDb(o);
    tsb_tree::TsbTree* tree = db_->primary();
    // Key splits only: the root is an index page before the fault is
    // armed.
    PutBaseline(40);
    ASSERT_EQ(2u, tree->height());
    // The first historical write is the flush of the first data time
    // split's node.
    hist_plan->FailNth(FaultOp::kWrite, 1, FaultKind::kEIO,
                       /*sticky=*/false);

    constexpr int kHotKeys = 4;
    struct Committed {
      std::string key, value;
      Timestamp ts;
    };
    std::vector<Committed> committed;
    WriteBatch failed;
    for (int i = 0; i < 2000 && hist_plan->fired(FaultOp::kWrite) == 0; ++i) {
      WriteBatch batch;
      const std::string value =
          "version-" + std::to_string(i) + "-of-a-hot-key";
      batch.Put(DbKey(i % kHotKeys), value);
      Timestamp ts = 0;
      if (commit(batch, &ts).ok()) {
        committed.push_back({DbKey(i % kHotKeys), value, ts});
        continue;
      }
      failed = batch;
    }
    ASSERT_EQ(1u, hist_plan->fired(FaultOp::kWrite));
    ASSERT_FALSE(failed.empty());
    EXPECT_GT(tree->counters().data_time_splits, 0u);
    EXPECT_GT(tree->hist_store()->device_bytes(),
              tree->hist_store()->flushed_end());
    EXPECT_TRUE(db_->degraded());
    EXPECT_TRUE(db_->BackgroundError().IsIOError());
    Status fast = commit(failed, nullptr);  // fail-fast while degraded
    EXPECT_TRUE(fast.IsIOError()) << fast.ToString();

    Status resume = db_->Resume();
    ASSERT_TRUE(resume.ok()) << resume.ToString();
    EXPECT_EQ(tree->hist_store()->device_bytes(),
              tree->hist_store()->flushed_end());
    Timestamp ts = 0;
    Status s = commit(failed, &ts);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const auto& [key, value] = failed.ops().front();
    committed.push_back({key, value, ts});
    for (const Committed& c : committed) {
      std::string v;
      ASSERT_TRUE(db_->Get({.as_of = c.ts}, c.key, &v).ok())
          << c.key << "@" << c.ts;
      EXPECT_EQ(c.value, v);
    }
    EXPECT_EQ(tree->hist_store()->blob_count(),
              uint64_t{tree->counters().hist_data_nodes} +
                  uint64_t{tree->counters().hist_index_nodes});
    tsb_tree::TreeChecker checker(tree);
    checker.set_verify_checksums(true);
    Status check = checker.Check();
    EXPECT_TRUE(check.ok()) << check.ToString();
  }
}

// A rewrite of a key the transaction already wrote replaces its
// uncommitted record in place. When the rewrite overflows the leaf, the
// time split stages a node, and the flush that ends the Put fails, the
// tree holds the new value while the Put reports failure: the transaction
// is abort-only. After Resume() its Commit is refused, its Abort erases
// the record and unlocks the key, no value of it is ever visible, and the
// key takes a new commit, before and after a reopen.
TEST_F(DegradedModeTest, FailedRewriteOfOwnedKeyMakesTransactionAbortOnly) {
  DbOptions o = Options();
  auto hist_plan = std::make_shared<FaultPlan>();
  o.wrap_device = [hist_plan](const std::string& role,
                              std::unique_ptr<Device> dev)
      -> std::unique_ptr<Device> {
    if (role != "historical") return dev;
    return std::make_unique<FaultInjectingDevice>(std::move(dev), hist_plan);
  };
  OpenDb(o);
  tsb_tree::TsbTree* tree = db_->primary();
  PutBaseline(40);

  constexpr int kHotKeys = 4;
  std::map<std::string, std::string> committed;
  for (int i = 0; i < kHotKeys; ++i) {
    committed[DbKey(i)] = "base-" + std::to_string(i);
  }
  std::unique_ptr<txn::Transaction> doomed;
  std::string key;
  for (int i = 0; i < 2000 && doomed == nullptr; ++i) {
    key = DbKey(i % kHotKeys);
    std::unique_ptr<txn::Transaction> txn;
    ASSERT_TRUE(db_->Begin(&txn).ok());
    ASSERT_TRUE(txn->Put(key, "short-" + std::to_string(i)).ok());
    // The grown rewrite is the first to touch the history from here on.
    hist_plan->FailNth(FaultOp::kWrite, 1, FaultKind::kEIO,
                       /*sticky=*/false);
    const std::string grown =
        "rewritten-" + std::to_string(i) + std::string(60, 'g');
    Status s = txn->Put(key, grown);
    if (!s.ok()) {
      ASSERT_TRUE(s.IsIOError()) << s.ToString();
      doomed = std::move(txn);
      break;
    }
    hist_plan->Clear();
    ASSERT_TRUE(txn->Commit().ok());
    committed[key] = grown;
  }
  ASSERT_NE(nullptr, doomed);
  ASSERT_EQ(1u, hist_plan->fired(FaultOp::kWrite));
  EXPECT_GT(tree->counters().data_time_splits, 0u);
  EXPECT_TRUE(db_->degraded());

  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  EXPECT_EQ(tree->hist_store()->device_bytes(),
            tree->hist_store()->flushed_end());
  EXPECT_TRUE(doomed->Commit().IsTxnNotActive());
  EXPECT_TRUE(doomed->Put(key, "late").IsTxnNotActive());
  ASSERT_TRUE(doomed->Abort().ok());
  std::string v;
  ASSERT_TRUE(db_->Get({}, key, &v).ok());
  EXPECT_EQ(committed[key], v);

  ASSERT_TRUE(db_->Put(key, "after").ok());
  tsb_tree::TreeChecker checker(tree);
  checker.set_verify_checksums(true);
  Status check = checker.Check();
  EXPECT_TRUE(check.ok()) << check.ToString();
  db_.reset();
  OpenDb(o);
  for (const auto& [k, value] : committed) {
    ASSERT_TRUE(db_->Get({}, k, &v).ok()) << k;
    EXPECT_EQ(k == key ? "after" : value, v);
  }
}

// Secondary-index maintenance writes the index tree by direct Put. When
// that Put's history flush fails, the commit fails with the index entry
// possibly in place. Neither FindBySecondary nor the index itself may
// ever return the failed mapping — not while degraded, not after
// Resume() purges it, not after a reopen.
TEST_F(DegradedModeTest, FailedIndexPutNeverBecomesReadable) {
  auto extract = [](const Slice& value) -> std::optional<std::string> {
    return value.ToString().substr(0, 1);
  };
  DbOptions o = Options();
  o.index_extractors["sk"] = extract;
  auto hist_plan = std::make_shared<FaultPlan>();
  o.wrap_device = [hist_plan](const std::string& role,
                              std::unique_ptr<Device> dev)
      -> std::unique_ptr<Device> {
    if (role != "index-sk.historical") return dev;
    return std::make_unique<FaultInjectingDevice>(std::move(dev), hist_plan);
  };
  OpenDb(o);
  ASSERT_TRUE(db_->CreateSecondaryIndex("sk", extract).ok());
  // Hot keys flip between secondary values "a" and "b": every commit
  // writes two versions into the index tree, which soon time-splits.
  constexpr int kHotKeys = 4;
  std::map<std::string, std::string> sk_of;
  hist_plan->FailNth(FaultOp::kWrite, 1, FaultKind::kEIO, /*sticky=*/false);
  std::string failed_key, failed_sk;
  for (int i = 0; i < 2000 && failed_key.empty(); ++i) {
    const std::string key = DbKey(i % kHotKeys);
    const std::string sk = (i / kHotKeys) % 2 == 0 ? "a" : "b";
    if (db_->Put(key, sk + "-" + std::to_string(i)).ok()) {
      sk_of[key] = sk;
    } else {
      failed_key = key;
      failed_sk = sk;
    }
  }
  ASSERT_FALSE(failed_key.empty());
  ASSERT_EQ(1u, hist_plan->fired(FaultOp::kWrite));
  EXPECT_TRUE(db_->degraded());
  SecondaryIndex* idx = db_->index("sk");
  auto expect_absent = [&] {
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(db_->FindBySecondary({}, "sk", failed_sk, &rows).ok());
    for (const auto& [key, value] : rows) EXPECT_NE(failed_key, key);
    // Whichever of the commit's two index Puts failed, the index at its
    // latest still maps the key to its old secondary value only.
    const Timestamp latest = idx->tree()->VisibleNow();
    std::vector<std::string> pks;
    ASSERT_TRUE(idx->LookupAsOf(failed_sk, latest, &pks).ok());
    EXPECT_EQ(pks.end(), std::find(pks.begin(), pks.end(), failed_key));
    ASSERT_TRUE(idx->LookupAsOf(sk_of[failed_key], latest, &pks).ok());
    EXPECT_NE(pks.end(), std::find(pks.begin(), pks.end(), failed_key));
  };
  expect_absent();
  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  expect_absent();
  // A later commit publishes the index clock past the failed timestamp.
  ASSERT_TRUE(db_->Put(DbKey(kHotKeys), failed_sk + "-later").ok());
  expect_absent();
  db_.reset();
  OpenDb(o);
  idx = db_->index("sk");
  ASSERT_NE(nullptr, idx);
  expect_absent();
}

// An insert that fails on a page read, followed by an abort whose erase
// fails the same way, leaves the transaction's keys locked by a
// transaction that is gone. Those locks must not view the freed
// WriteBatch (or the destroyed Transaction's arena) — the check that
// matters under AddressSanitizer. Resume() finishes the abort: the
// uncommitted record goes, the key unlocks, the transaction stops
// counting as active, and writing the same key then commits.
TEST_F(DegradedModeTest, FailedAbortKeepsItsLocksOnOwnedKeyBytes) {
  for (const bool explicit_txn : {false, true}) {
    SCOPED_TRACE(explicit_txn ? "explicit transaction" : "WriteBatch");
    db_.reset();
    MultiVersionDB::Destroy(path_);
    plan_->Clear();
    // Without a log the pool may write dirty pages back and evict them,
    // so even the leaf the transaction dirtied must be read again.
    DbOptions o = Options();
    o.enable_wal = false;
    o.tree.buffer_pool_frames = 8;
    OpenDb(o);
    PutBaseline(400);
    const std::string stuck = DbKey(5);
    const std::string failing = DbKey(300);
    // Reads far from both keys push their leaves out of the pool.
    auto evict = [&] {
      for (int i = 100; i < 250; ++i) {
        std::string v;
        ASSERT_TRUE(db_->Get({}, DbKey(i), &v).ok());
      }
    };
    if (!explicit_txn) {
      auto batch = std::make_unique<WriteBatch>();
      batch->Put(stuck, "never");
      evict();
      plan_->FailNth(FaultOp::kRead, 1, FaultKind::kEIO, /*sticky=*/true);
      EXPECT_TRUE(db_->Write(*batch).IsIOError());
      batch.reset();
    } else {
      std::unique_ptr<txn::Transaction> t;
      ASSERT_TRUE(db_->Begin(&t).ok());
      ASSERT_TRUE(t->Put(stuck, "never").ok());
      evict();
      plan_->FailNth(FaultOp::kRead, 1, FaultKind::kEIO, /*sticky=*/true);
      EXPECT_TRUE(t->Put(failing, "never").IsIOError());
      EXPECT_TRUE(t->Abort().IsIOError());
      EXPECT_TRUE(t->active());
      t.reset();  // the destructor's abort fails too
    }
    EXPECT_GE(plan_->fired(FaultOp::kRead), 2u);
    EXPECT_TRUE(db_->degraded());

    plan_->Clear();
    Status resume = db_->Resume();
    ASSERT_TRUE(resume.ok()) << resume.ToString();
    EXPECT_EQ(0u, db_->txn_manager()->active_txns());
    std::string v;
    ASSERT_TRUE(db_->Get({}, stuck, &v).ok());
    EXPECT_EQ("base-5", v);
    WriteBatch retry;
    retry.Put(stuck, "retry");
    ASSERT_TRUE(db_->Write(retry).ok());
    WriteBatch other;
    other.Put(failing, "other");
    other.Put("fresh", "other");
    ASSERT_TRUE(db_->Write(other).ok());
    ASSERT_TRUE(db_->Get({}, failing, &v).ok());
    EXPECT_EQ("other", v);
    ASSERT_TRUE(db_->Get({}, stuck, &v).ok());
    EXPECT_EQ("retry", v);
  }
}

// Hard errors (corruption-class) refuse Resume(): the original cause
// comes back and the DB stays degraded.
TEST_F(DegradedModeTest, HardErrorRefusesResume) {
  OpenDb(Options());
  PutBaseline(5);

  db_->error_handler()->Report("test corruption",
                               Status::Corruption("bad page", "checksum"));
  EXPECT_TRUE(db_->degraded());
  EXPECT_EQ(ErrorClass::kHard, db_->error_stats().last_class);
  EXPECT_TRUE(db_->BackgroundError().IsCorruption());
  EXPECT_TRUE(db_->Put("rejected", "x").IsCorruption());

  Status resume = db_->Resume();
  EXPECT_TRUE(resume.IsCorruption()) << resume.ToString();
  EXPECT_TRUE(db_->degraded());
  // A refusal is not an attempt: no resume ran, none succeeded.
  EXPECT_EQ(0u, db_->error_stats().resumes);

  // Reads still serve even under a hard error.
  ExpectBaseline(5);
}

}  // namespace
}  // namespace db
}  // namespace tsb
