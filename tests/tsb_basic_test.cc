// TSB-tree basics: puts, current/as-of gets, uncommitted records (section
// 4), stamping at commit, abort erase, persistence, page formats.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"

namespace tsb {
namespace tsb_tree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

class TsbBasicTest : public ::testing::Test {
 protected:
  void Open(uint32_t page_size = 1024,
            SplitPolicyConfig policy = SplitPolicyConfig{},
            size_t frames = 64) {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(1024);
    TsbOptions opts;
    opts.page_size = page_size;
    opts.buffer_pool_frames = frames;
    opts.policy = policy;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
  }

  void ExpectChecked() {
    TreeChecker checker(tree_.get());
    Status s = checker.Check();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
};

TEST_F(TsbBasicTest, EmptyTreeGets) {
  Open();
  std::string v;
  EXPECT_TRUE(tree_->Get({}, "x", &v).IsNotFound());
  EXPECT_TRUE(tree_->Get({.as_of = 100}, "x", &v).IsNotFound());
}

TEST_F(TsbBasicTest, PutGetRoundTrip) {
  Open();
  ASSERT_TRUE(tree_->Put("alpha", "one", 1).ok());
  std::string v;
  Timestamp ts = 0;
  ASSERT_TRUE(tree_->Get({}, "alpha", &v, &ts).ok());
  EXPECT_EQ("one", v);
  EXPECT_EQ(1u, ts);
  ExpectChecked();
}

TEST_F(TsbBasicTest, VersionsAreKeptNotOverwritten) {
  Open();
  ASSERT_TRUE(tree_->Put("acct", "100", 1).ok());
  ASSERT_TRUE(tree_->Put("acct", "180", 5).ok());
  ASSERT_TRUE(tree_->Put("acct", "75", 9).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "acct", &v).ok());
  EXPECT_EQ("75", v);
  ASSERT_TRUE(tree_->Get({.as_of = 1}, "acct", &v).ok());
  EXPECT_EQ("100", v);
  ASSERT_TRUE(tree_->Get({.as_of = 4}, "acct", &v).ok());
  EXPECT_EQ("100", v);  // stepwise constant between transactions
  ASSERT_TRUE(tree_->Get({.as_of = 5}, "acct", &v).ok());
  EXPECT_EQ("180", v);
  ASSERT_TRUE(tree_->Get({.as_of = 8}, "acct", &v).ok());
  EXPECT_EQ("180", v);
  ASSERT_TRUE(tree_->Get({.as_of = 1000}, "acct", &v).ok());
  EXPECT_EQ("75", v);
  EXPECT_TRUE(tree_->Get({.as_of = 0}, "acct", &v).IsNotFound());
}

TEST_F(TsbBasicTest, TimestampDisciplineEnforced) {
  Open();
  ASSERT_TRUE(tree_->Put("a", "1", 10).ok());
  EXPECT_TRUE(tree_->Put("b", "2", 5).IsInvalidArgument());  // goes back
  EXPECT_TRUE(tree_->Put("c", "3", 0).IsInvalidArgument());  // ts 0 reserved
  EXPECT_TRUE(tree_->Put("d", "4", kUncommittedTs).IsInvalidArgument());
  ASSERT_TRUE(tree_->Put("e", "5", 10).ok());  // equal is allowed (same commit)
}

TEST_F(TsbBasicTest, SameKeySameTsReplaces) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "first", 3).ok());
  ASSERT_TRUE(tree_->Put("k", "second", 3).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "k", &v).ok());
  EXPECT_EQ("second", v);
  // Only one version exists.
  SpaceStats stats;
  ASSERT_TRUE(tree_->ComputeSpaceStats(&stats).ok());
  EXPECT_EQ(1u, stats.logical_versions);
}

TEST_F(TsbBasicTest, UncommittedInvisibleToReaders) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "committed", 1).ok());
  ASSERT_TRUE(tree_->PutUncommitted("k", "dirty", 42).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "k", &v).ok());
  EXPECT_EQ("committed", v);  // readers never see uncommitted data
  ASSERT_TRUE(tree_->Get({.as_of = 1000}, "k", &v).ok());
  EXPECT_EQ("committed", v);
  // The owning transaction reads its own write.
  ASSERT_TRUE(tree_->GetUncommitted("k", 42, &v).ok());
  EXPECT_EQ("dirty", v);
  EXPECT_TRUE(tree_->GetUncommitted("k", 43, &v).IsNotFound());
}

TEST_F(TsbBasicTest, StampCommittedMakesVisible) {
  Open();
  ASSERT_TRUE(tree_->PutUncommitted("k", "pending", 7).ok());
  std::string v;
  EXPECT_TRUE(tree_->Get({}, "k", &v).IsNotFound());
  ASSERT_TRUE(tree_->StampCommitted("k", 7, 20).ok());
  // A bare stamp does not publish the watermark: read past it.
  Timestamp ts;
  ASSERT_TRUE(tree_->Get({.as_of = kMaxCommittedTs}, "k", &v, &ts).ok());
  EXPECT_EQ("pending", v);
  EXPECT_EQ(20u, ts);
  // The uncommitted version is gone.
  EXPECT_TRUE(tree_->GetUncommitted("k", 7, &v).IsNotFound());
  ExpectChecked();
}

TEST_F(TsbBasicTest, EraseUncommittedAbortPath) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "keep", 1).ok());
  ASSERT_TRUE(tree_->PutUncommitted("k", "doomed", 9).ok());
  ASSERT_TRUE(tree_->EraseUncommitted("k", 9).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "k", &v).ok());
  EXPECT_EQ("keep", v);
  EXPECT_TRUE(tree_->GetUncommitted("k", 9, &v).IsNotFound());
  EXPECT_TRUE(tree_->EraseUncommitted("k", 9).IsNotFound());
  ExpectChecked();
}

TEST_F(TsbBasicTest, UncommittedReplacedBySecondWrite) {
  Open();
  ASSERT_TRUE(tree_->PutUncommitted("k", "v1", 5).ok());
  ASSERT_TRUE(tree_->PutUncommitted("k", "v2", 5).ok());
  std::string v;
  ASSERT_TRUE(tree_->GetUncommitted("k", 5, &v).ok());
  EXPECT_EQ("v2", v);
  ASSERT_TRUE(tree_->StampCommitted("k", 5, 3).ok());
  ASSERT_TRUE(tree_->Get({.as_of = kMaxCommittedTs}, "k", &v).ok());
  EXPECT_EQ("v2", v);
}

TEST_F(TsbBasicTest, TwoTxnsUncommittedOnSameKeyCoexistAtTreeLevel) {
  // The tree stores them; conflict prevention is the txn layer's job.
  Open();
  ASSERT_TRUE(tree_->PutUncommitted("k", "from-a", 1).ok());
  ASSERT_TRUE(tree_->PutUncommitted("k", "from-b", 2).ok());
  std::string v;
  ASSERT_TRUE(tree_->GetUncommitted("k", 1, &v).ok());
  EXPECT_EQ("from-a", v);
  ASSERT_TRUE(tree_->GetUncommitted("k", 2, &v).ok());
  EXPECT_EQ("from-b", v);
  ASSERT_TRUE(tree_->EraseUncommitted("k", 1).ok());
  ASSERT_TRUE(tree_->GetUncommitted("k", 2, &v).ok());
  EXPECT_EQ("from-b", v);
}

TEST_F(TsbBasicTest, ManyKeysSplitAndStayReachable) {
  Open();
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "v" + std::to_string(i), i + 1).ok()) << i;
  }
  EXPECT_GT(tree_->counters().data_key_splits, 0u);  // inserts => key splits
  EXPECT_GT(tree_->height(), 1u);
  for (int i = 0; i < n; ++i) {
    std::string v;
    ASSERT_TRUE(tree_->Get({}, Key(i), &v).ok()) << i;
    EXPECT_EQ("v" + std::to_string(i), v);
  }
  ExpectChecked();
}

// A point read pins each page on its path once: a warm Get at latest
// costs exactly height() buffer-pool lookups, all hits.
TEST_F(TsbBasicTest, WarmGetPinsOnePagePerLevel) {
  Open();
  const std::string value(40, 'v');
  int n = 0;
  for (; tree_->height() < 3 && n < 20000; ++n) {
    ASSERT_TRUE(tree_->Put(Key(n), value, n + 1).ok()) << n;
  }
  ASSERT_GE(tree_->height(), 3u);
  const std::string key = Key(n / 2);
  std::string v;
  ASSERT_TRUE(tree_->Get({}, key, &v).ok());  // warms the path
  const BufferPoolStats before = tree_->PoolStats();
  ASSERT_TRUE(tree_->Get({}, key, &v).ok());
  const BufferPoolStats after = tree_->PoolStats();
  EXPECT_EQ(value, v);
  EXPECT_EQ(tree_->height(),
            (after.hits + after.misses) - (before.hits + before.misses));
  EXPECT_EQ(before.misses, after.misses);
  // A pool below 512 frames keeps every page in its LRU shard.
  EXPECT_EQ(tree_->height(), after.shard_lookups - before.shard_lookups);
}

// In a pool of 512 frames or more the index pages are resident: a warm
// Get still fetches height() pages, but only the leaf goes through a
// shard.
TEST_F(TsbBasicTest, WarmGetInResidentPoolLooksUpOnlyTheLeaf) {
  Open(1024, SplitPolicyConfig{}, /*frames=*/512);
  ASSERT_GT(tree_->buffer_pool()->resident_budget(), 0u);
  const std::string value(40, 'v');
  int n = 0;
  for (; tree_->height() < 3 && n < 20000; ++n) {
    ASSERT_TRUE(tree_->Put(Key(n), value, n + 1).ok()) << n;
  }
  ASSERT_GE(tree_->height(), 3u);
  for (const int k : {0, n / 3, n / 2, n - 1}) {
    const std::string key = Key(k);
    std::string v;
    ASSERT_TRUE(tree_->Get({}, key, &v).ok());  // warms the path
    const BufferPoolStats before = tree_->PoolStats();
    ASSERT_TRUE(tree_->Get({}, key, &v).ok());
    const BufferPoolStats after = tree_->PoolStats();
    EXPECT_EQ(value, v);
    EXPECT_EQ(tree_->height(),
              (after.hits + after.misses) - (before.hits + before.misses));
    EXPECT_EQ(before.misses, after.misses);
    EXPECT_EQ(1u, after.shard_lookups - before.shard_lookups) << key;
  }
  ExpectChecked();
}

// Upper levels come first in the resident budget: with keys inserted in a
// scattered order, level-1 pages fill their half of the budget long
// before the root grows, and the late root and level-2 pages still find
// slots. A warm Get then looks up at most its level-1 page and its leaf
// in a shard, and only the leaf when its level-1 page is resident.
TEST_F(TsbBasicTest, LateRootStaysResidentAfterLevelOneFillsItsShare) {
  Open(1024, SplitPolicyConfig{}, /*frames=*/512);
  BufferPool* pool = tree_->buffer_pool();
  const size_t budget = pool->resident_budget();
  ASSERT_EQ(32u, budget);
  const std::string value(40, 'v');
  constexpr int kKeys = 12007;
  std::string v;
  size_t resident_before_root = 0;  // when the last root grew
  for (int i = 0; i < kKeys; ++i) {
    const uint32_t height = tree_->height();
    ASSERT_TRUE(tree_->Put(Key((i * 7919) % kKeys), value, i + 1).ok());
    // Every descent fetches (and so ranks) the whole path.
    ASSERT_TRUE(tree_->Get({}, Key((i * 7919) % kKeys), &v).ok());
    if (tree_->height() != height) {
      resident_before_root = pool->resident_index_pages();
    }
  }
  const uint32_t height = tree_->height();
  ASSERT_GE(height, 3u);
  EXPECT_GE(resident_before_root, budget / 2);  // level 1 took its share
  EXPECT_LT(pool->resident_index_pages(), budget);
  int leaf_only = 0;
  for (int k = 0; k < kKeys; k += 97) {
    ASSERT_TRUE(tree_->Get({}, Key(k), &v).ok());  // warms the path
    const BufferPoolStats before = tree_->PoolStats();
    ASSERT_TRUE(tree_->Get({}, Key(k), &v).ok());
    const BufferPoolStats after = tree_->PoolStats();
    EXPECT_EQ(height,
              (after.hits + after.misses) - (before.hits + before.misses));
    const uint64_t lookups = after.shard_lookups - before.shard_lookups;
    EXPECT_LE(lookups, 2u) << k;
    if (lookups == 1) leaf_only++;
  }
  EXPECT_GT(leaf_only, 0);
  ExpectChecked();
}

// Every write that time-splits leaves its historical nodes on the device
// when it returns: one history write per Put on an erasable device.
TEST_F(TsbBasicTest, TimeSplittingWriteReturnsWithHistoryOnDevice) {
  for (const bool worm : {false, true}) {
    SCOPED_TRACE(worm ? "worm" : "erasable");
    auto magnetic = std::make_unique<MemDevice>();
    std::unique_ptr<Device> hist;
    if (worm) {
      hist = std::make_unique<WormDevice>(1024);
    } else {
      hist = std::make_unique<MemDevice>(DeviceKind::kOpticalErasable,
                                         CostParams::OpticalWorm());
    }
    TsbOptions opts;
    opts.page_size = 1024;
    opts.buffer_pool_frames = 512;
    std::unique_ptr<TsbTree> tree;
    ASSERT_TRUE(TsbTree::Open(magnetic.get(), hist.get(), opts, &tree).ok());
    Timestamp ts = 0;
    uint64_t splits = 0;
    for (int round = 0; round < 80; ++round) {
      for (int i = 0; i < 12; ++i) {
        const uint64_t writes = hist->stats().writes;
        const uint64_t blobs = tree->hist_store()->blob_count();
        ASSERT_TRUE(
            tree->Put(Key(i), "r" + std::to_string(round), ++ts).ok());
        const uint64_t staged = tree->hist_store()->blob_count() - blobs;
        EXPECT_EQ(tree->hist_store()->device_bytes(),
                  tree->hist_store()->flushed_end());
        if (staged == 0) continue;
        splits++;
        EXPECT_EQ(worm ? staged : 1u, hist->stats().writes - writes);
        if (!worm) {
          EXPECT_EQ(tree->hist_store()->device_bytes(), hist->Size());
        }
      }
    }
    EXPECT_GT(splits, 0u);
    TreeChecker checker(tree.get());
    Status s = checker.Check();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

// A sorted run searched forward from the previous key's slot lands every
// version exactly where a full binary search puts it: Put with a hint
// builds the same page, and FindUncommitted with a hint finds the same
// slots. Two transactions' uncommitted versions and committed versions
// of the same keys make the runs longer than one slot.
TEST(DataPageHintTest, ForwardSearchMatchesBinarySearch) {
  constexpr uint32_t kPage = 8192;
  std::string plain_buf(kPage, '\0'), hinted_buf(kPage, '\0');
  DataPageRef::Format(plain_buf.data(), kPage);
  DataPageRef::Format(hinted_buf.data(), kPage);
  DataPageRef plain(plain_buf.data(), kPage);
  DataPageRef hinted(hinted_buf.data(), kPage);
  std::string cell;
  auto put_run = [&](int first, int step, int n, Timestamp ts, TxnId txn) {
    int hint = -1;
    for (int k = first; k < first + n * step; k += step) {
      cell.clear();
      EncodeDataCell(&cell, Key(k), ts, txn, "v");
      ASSERT_TRUE(plain.Put(Key(k), ts, txn, cell));
      ASSERT_TRUE(hinted.Put(Key(k), ts, txn, cell, &hint));
    }
  };
  put_run(0, 3, 20, 5, kNoTxn);
  put_run(1, 3, 20, 6, kNoTxn);
  put_run(0, 1, 60, 7, kNoTxn);
  put_run(0, 4, 15, kUncommittedTs, 12);
  put_run(0, 2, 30, kUncommittedTs, 11);  // lands before txn 12's
  put_run(0, 2, 30, kUncommittedTs, 11);  // replaces txn 11's versions
  ASSERT_EQ(plain.Count(), hinted.Count());
  for (int i = 0; i < plain.Count(); ++i) {
    DataEntryView a, b;
    ASSERT_TRUE(plain.At(i, &a).ok());
    ASSERT_TRUE(hinted.At(i, &b).ok());
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.txn, b.txn);
  }
  for (const TxnId txn : {TxnId{11}, TxnId{12}}) {
    int hint = -1;
    for (int k = 0; k < 60; ++k) {
      const int expect = plain.FindUncommitted(Key(k), txn);
      EXPECT_EQ(expect, hinted.FindUncommitted(Key(k), txn, &hint)) << k;
    }
  }
  // Stamping in key order keeps every slot where the binary search
  // would put it, including when txn 12's stamp must rotate left past
  // txn 11's still-uncommitted version.
  int hint = -1;
  for (int k = 0; k < 60; k += 4) {
    const int pos = hinted.FindUncommitted(Key(k), 12, &hint);
    ASSERT_GT(pos, 0);
    DataEntryView left;
    ASSERT_TRUE(hinted.At(pos - 1, &left).ok());
    EXPECT_EQ(TxnId{11}, left.txn);  // the stamp has to rotate past it
    ASSERT_TRUE(hinted.StampAt(pos, 8).ok());
    EXPECT_EQ(hinted.FindVersion(Key(k), 8),
              hinted.LowerBound(Key(k), 8));
  }
  for (int i = 1; i < hinted.Count(); ++i) {
    DataEntryView a, b;
    ASSERT_TRUE(hinted.At(i - 1, &a).ok());
    ASSERT_TRUE(hinted.At(i, &b).ok());
    EXPECT_TRUE(a.key < b.key || (a.key == b.key && a.ts <= b.ts)) << i;
  }
}

TEST_F(TsbBasicTest, ManyUpdatesMigrateToHistorical) {
  Open();
  Timestamp ts = 0;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(tree_->Put(Key(i), "r" + std::to_string(round), ++ts).ok());
    }
  }
  EXPECT_GT(tree_->counters().data_time_splits, 0u);
  EXPECT_GT(tree_->counters().records_migrated, 0u);
  EXPECT_GT(worm_->sectors_burned(), 0u);
  // Everything still reachable: current and deep past.
  std::string v;
  ASSERT_TRUE(tree_->Get({}, Key(3), &v).ok());
  EXPECT_EQ("r59", v);
  ASSERT_TRUE(tree_->Get({.as_of = 4}, Key(3), &v).ok());
  EXPECT_EQ("r0", v);
  ExpectChecked();
}

TEST_F(TsbBasicTest, RecordTooLargeRejected) {
  Open(512);
  std::string huge(400, 'x');
  EXPECT_TRUE(tree_->Put("k", huge, 1).IsInvalidArgument());
}

TEST_F(TsbBasicTest, PersistsAcrossReopen) {
  {
    Open();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(tree_->Put(Key(i % 30), "v" + std::to_string(i), i + 1).ok());
    }
    ASSERT_TRUE(tree_->Flush().ok());
    tree_.reset();
  }
  TsbOptions opts;
  opts.page_size = 1024;
  std::unique_ptr<TsbTree> reopened;
  ASSERT_TRUE(
      TsbTree::Open(magnetic_.get(), worm_.get(), opts, &reopened).ok());
  std::string v;
  ASSERT_TRUE(reopened->Get({}, Key(5), &v).ok());
  EXPECT_EQ("v275", v);
  ASSERT_TRUE(reopened->Get({.as_of = 6}, Key(5), &v).ok());
  EXPECT_EQ("v5", v);
  // Clock restored: stale timestamps still rejected.
  EXPECT_TRUE(reopened->Put("z", "x", 5).IsInvalidArgument());
  TreeChecker checker(reopened.get());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(TsbBasicTest, SpaceStatsReportBothDevices) {
  Open();
  Timestamp ts = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(tree_->Put(Key(i), std::string(20, 'v'), ++ts).ok());
    }
  }
  SpaceStats stats;
  ASSERT_TRUE(tree_->ComputeSpaceStats(&stats).ok());
  EXPECT_GT(stats.magnetic_pages, 0u);
  EXPECT_EQ(stats.magnetic_bytes, stats.magnetic_pages * 1024);
  EXPECT_GT(stats.optical_payload_bytes, 0u);
  EXPECT_GE(stats.optical_device_bytes, stats.optical_payload_bytes);
  EXPECT_EQ(320u, stats.logical_versions);
  EXPECT_GE(stats.physical_record_copies, stats.logical_versions);
  EXPECT_GE(stats.redundancy(), 1.0);
  EXPECT_GT(stats.StorageCost(1.0, 0.2), 0.0);
}

TEST_F(TsbBasicTest, HistoricalDeviceIsAppendOnly) {
  // The WORM device would fail any in-place rewrite; a long update-heavy
  // run completing proves migration is strictly append.
  Open(512);
  Timestamp ts = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(tree_->Put(Key(i), "round" + std::to_string(round), ++ts).ok());
    }
  }
  EXPECT_GT(tree_->counters().hist_data_nodes, 1u);
  ExpectChecked();
}

TEST_F(TsbBasicTest, GetRejectsReservedTimes) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "v", 1).ok());
  std::string v;
  EXPECT_TRUE(
      tree_->Get({.as_of = kUncommittedTs}, "k", &v).IsInvalidArgument());
  // kInfiniteTs is kAsOfLatest: the committed watermark, not an error.
  ASSERT_TRUE(tree_->Get({.as_of = kAsOfLatest}, "k", &v).ok());
  EXPECT_EQ("v", v);
}

TEST_F(TsbBasicTest, EmptyValueSupported) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "", 1).ok());
  std::string v = "junk";
  ASSERT_TRUE(tree_->Get({}, "k", &v).ok());
  EXPECT_TRUE(v.empty());
}

TEST_F(TsbBasicTest, BinaryKeysAndValues) {
  Open();
  std::string key("\x00\xff\x01", 3);
  std::string val("\xde\xad\x00\xbe", 4);
  ASSERT_TRUE(tree_->Put(key, val, 1).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, key, &v).ok());
  EXPECT_EQ(val, v);
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
