// Leaf-batched WriteBatch apply: uncommitted inserts take one descent per
// leaf (splitting mid-batch when a leaf fills, on the leaf the insert
// already latched), commit stamps are written in place (rotating the slot
// when the stamped version must sort earlier), and the hash-partitioned
// lock table is taken in one all-or-nothing pass per batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"
#include "txn/txn_manager.h"

namespace tsb {
namespace txn {
namespace {

using tsb_tree::DecodedNode;
using tsb_tree::NodeRef;
using tsb_tree::SpaceStats;
using tsb_tree::TreeChecker;
using tsb_tree::TsbOptions;
using tsb_tree::TsbTree;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

uint64_t SplitCount(const TsbTree& tree) {
  const auto& c = tree.counters();
  return c.data_key_splits + c.data_time_splits + c.index_key_splits +
         c.index_time_splits + c.root_grows;
}

class WriteBatchTest : public ::testing::Test {
 protected:
  void Open(uint32_t page_size = 512) {
    mgr_.reset();
    tree_.reset();
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = page_size;
    opts.buffer_pool_frames = 1024;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
    mgr_ = std::make_unique<TxnManager>(tree_.get());
  }

  void ExpectChecked() {
    Status s = TreeChecker(tree_.get()).Check();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  // Key regions [key_lo, key_hi) of every current leaf, in key order.
  void CurrentLeaves(const NodeRef& ref, std::vector<std::string>* lows) {
    DecodedNode node;
    ASSERT_TRUE(tree_->ReadNode(ref, &node).ok());
    for (const auto& e : node.index) {
      if (e.child.historical) continue;
      DecodedNode child;
      ASSERT_TRUE(tree_->ReadNode(e.child, &child).ok());
      if (child.is_data()) {
        lows->push_back(e.key_lo);
      } else {
        CurrentLeaves(e.child, lows);
      }
    }
  }

  // How many current leaves hold at least one of the sorted `keys`.
  size_t LeavesHolding(const std::vector<std::string>& keys) {
    std::vector<std::string> lows;
    if (tree_->height() == 1) return 1;
    CurrentLeaves(tree_->root(), &lows);
    std::sort(lows.begin(), lows.end());
    size_t leaves = 0;
    size_t prev = SIZE_MAX;
    for (const std::string& k : keys) {
      // The leaf holding k is the last one whose key_lo <= k.
      const size_t leaf =
          std::upper_bound(lows.begin(), lows.end(), k) - lows.begin() - 1;
      if (leaf != prev) ++leaves;
      prev = leaf;
    }
    return leaves;
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
  std::unique_ptr<TxnManager> mgr_;
};

TEST_F(WriteBatchTest, SortedBatchSplitsMidBatchAndReadsBack) {
  Open();
  // Epoch e rewrites every existing key and adds 60 new ones. From epoch
  // 3 on, a leaf holds superseded committed versions, so one batch hits
  // both leaves that time-split and leaves of fresh keys that key-split.
  std::vector<Timestamp> commit_ts;
  int keys = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    keys += 60;
    WriteBatch batch;
    for (int i = 0; i < keys; ++i) {
      batch.Put(Key(i), "e" + std::to_string(epoch) + "-" + Key(i));
    }
    const uint64_t key_splits = tree_->counters().data_key_splits;
    const uint64_t time_splits = tree_->counters().data_time_splits;
    Timestamp cts = 0;
    ASSERT_TRUE(mgr_->Write(batch, &cts).ok());
    commit_ts.push_back(cts);
    EXPECT_GT(tree_->counters().data_key_splits, key_splits) << epoch;
    if (epoch >= 3) {
      EXPECT_GT(tree_->counters().data_time_splits, time_splits) << epoch;
    }
    ExpectChecked();
  }
  // Every key reads back at every commit ts that wrote it.
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 60 * (epoch + 1); ++i) {
      std::string v;
      Timestamp ts = 0;
      ASSERT_TRUE(
          tree_->Get({.as_of = commit_ts[epoch]}, Key(i), &v, &ts).ok())
          << Key(i) << " @" << commit_ts[epoch];
      EXPECT_EQ("e" + std::to_string(epoch) + "-" + Key(i), v);
      EXPECT_EQ(commit_ts[epoch], ts);
    }
  }
  EXPECT_EQ(0u, mgr_->active_txns());
}

TEST_F(WriteBatchTest, SortedBatchDescendsOncePerLeafPlusSplits) {
  Open();
  // Preload so the 500-key batch lands on an existing multi-leaf tree.
  WriteBatch preload;
  for (int i = 0; i < 500; ++i) preload.Put(Key(2 * i), "old");
  ASSERT_TRUE(mgr_->Write(preload).ok());

  WriteBatch batch;
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(Key(2 * i + (i % 2)));  // half updates, half new keys
    batch.Put(keys.back(), std::string(24, 'n'));  // forces splits
  }
  const uint64_t descents = tree_->counters().put_descents;
  const uint64_t writer_descents = tree_->counters().writer_descents;
  const uint64_t splits = SplitCount(*tree_);
  const uint64_t stamp_descents = tree_->counters().stamp_descents;
  ASSERT_TRUE(mgr_->Write(batch).ok());
  const uint64_t batch_descents = tree_->counters().put_descents - descents;
  const uint64_t batch_splits = SplitCount(*tree_) - splits;
  const uint64_t batch_stamp_descents =
      tree_->counters().stamp_descents - stamp_descents;
  const size_t leaves = LeavesHolding(keys);
  EXPECT_GT(batch_splits, 0u);
  EXPECT_LE(batch_descents, leaves + batch_splits);
  EXPECT_LT(batch_descents, 500u);
  // Stamping runs after every split, so it costs exactly one descent per
  // leaf.
  EXPECT_EQ(leaves, batch_stamp_descents);
  // Every other writer descent of the batch (inserts and splits) is
  // bounded by leaves + splits: a split works on the leaf its insert
  // latched instead of descending again.
  const uint64_t batch_writer_descents =
      tree_->counters().writer_descents - writer_descents;
  EXPECT_LE(batch_writer_descents - batch_stamp_descents,
            leaves + batch_splits);
  EXPECT_EQ(0u, tree_->HistStats().owned_decodes);
  ExpectChecked();
}

TEST_F(WriteBatchTest, StampRotatesPastAnotherTxnsUncommittedVersion) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "v1", 1).ok());
  // Uncommitted inserts go in front of the key's uncommitted run, so txn
  // 8's version now precedes txn 7's: stamping 7 must move its slot.
  ASSERT_TRUE(tree_->PutUncommitted("k", "from-7", 7).ok());
  ASSERT_TRUE(tree_->PutUncommitted("k", "from-8", 8).ok());
  ASSERT_TRUE(tree_->StampCommitted("k", 7, 5).ok());
  std::string v;
  Timestamp ts = 0;
  ASSERT_TRUE(tree_->Get({.as_of = kMaxCommittedTs}, "k", &v, &ts).ok());
  EXPECT_EQ("from-7", v);
  EXPECT_EQ(5u, ts);
  ASSERT_TRUE(tree_->Get({.as_of = 4}, "k", &v).ok());
  EXPECT_EQ("v1", v);
  ASSERT_TRUE(tree_->GetUncommitted("k", 8, &v).ok());
  EXPECT_EQ("from-8", v);
  EXPECT_TRUE(tree_->GetUncommitted("k", 7, &v).IsNotFound());

  DecodedNode leaf;
  ASSERT_TRUE(tree_->ReadNode(tree_->root(), &leaf).ok());
  ASSERT_EQ(3u, leaf.data.size());
  EXPECT_EQ(1u, leaf.data[0].ts);
  EXPECT_EQ(5u, leaf.data[1].ts);
  EXPECT_EQ(kNoTxn, leaf.data[1].txn);
  EXPECT_TRUE(leaf.data[2].uncommitted());
  ExpectChecked();
}

TEST_F(WriteBatchTest, StampBelowExistingVersionRotatesSlot) {
  Open();
  ASSERT_TRUE(tree_->Put("a", "a10", 10).ok());
  ASSERT_TRUE(tree_->Put("k", "k10", 10).ok());
  ASSERT_TRUE(tree_->Put("z", "z10", 10).ok());
  ASSERT_TRUE(tree_->PutUncommitted("k", "k3", 9).ok());
  ASSERT_TRUE(tree_->StampCommitted("k", 9, 3).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({.as_of = 3}, "k", &v).ok());
  EXPECT_EQ("k3", v);
  ASSERT_TRUE(tree_->Get({.as_of = 10}, "k", &v).ok());
  EXPECT_EQ("k10", v);
  DecodedNode leaf;
  ASSERT_TRUE(tree_->ReadNode(tree_->root(), &leaf).ok());
  ASSERT_EQ(4u, leaf.data.size());
  EXPECT_EQ("k", leaf.data[1].key);
  EXPECT_EQ(3u, leaf.data[1].ts);
  EXPECT_EQ(10u, leaf.data[2].ts);
  ExpectChecked();
}

TEST_F(WriteBatchTest, InPlaceStampMatchesCommittedCellFootprint) {
  // A wide txn id shrinks to the one-byte kNoTxn varint: the page must end
  // up exactly as full as if the committed cell had been inserted.
  Open();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree_->PutUncommitted(Key(i), "value", TxnId{1} << 40).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree_->StampCommitted(Key(i), TxnId{1} << 40, 7).ok());
  }
  SpaceStats stamped;
  ASSERT_TRUE(tree_->ComputeSpaceStats(&stamped).ok());

  Open();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "value", 7).ok());
  }
  SpaceStats direct;
  ASSERT_TRUE(tree_->ComputeSpaceStats(&direct).ok());
  EXPECT_EQ(direct.magnetic_used_bytes, stamped.magnetic_used_bytes);
  EXPECT_EQ(direct.magnetic_pages, stamped.magnetic_pages);
}

TEST_F(WriteBatchTest, DuplicateKeysLastValueWinsOneVersion) {
  Open();
  WriteBatch batch;
  batch.Put("k", "first");
  batch.Put("j", "other");
  batch.Put("k", "second");
  batch.Put("k", "last");
  const uint64_t puts = tree_->counters().uncommitted_puts;
  Timestamp cts = 0;
  ASSERT_TRUE(mgr_->Write(batch, &cts).ok());
  EXPECT_EQ(2u, tree_->counters().uncommitted_puts - puts);
  std::string v;
  Timestamp ts = 0;
  ASSERT_TRUE(tree_->Get({}, "k", &v, &ts).ok());
  EXPECT_EQ("last", v);
  EXPECT_EQ(cts, ts);
  SpaceStats stats;
  ASSERT_TRUE(tree_->ComputeSpaceStats(&stats).ok());
  EXPECT_EQ(2u, stats.logical_versions);
}

TEST_F(WriteBatchTest, ConflictingBatchInsertsNothingAndReleasesLocks) {
  Open();
  std::unique_ptr<Transaction> holder;
  ASSERT_TRUE(mgr_->Begin(&holder).ok());
  ASSERT_TRUE(holder->Put("b", "held").ok());

  const auto& c = tree_->counters();
  const uint64_t erases = c.erases;
  const uint64_t puts = c.uncommitted_puts;
  const uint64_t descents = c.put_descents;
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Put("c", "3");
  EXPECT_TRUE(mgr_->Write(batch).IsTxnConflict());
  EXPECT_EQ(erases, c.erases);
  EXPECT_EQ(puts, c.uncommitted_puts);
  EXPECT_EQ(descents, c.put_descents);
  EXPECT_EQ(1u, mgr_->active_txns());

  // The batch's other keys are free at once; the held one is not.
  std::unique_ptr<Transaction> other;
  ASSERT_TRUE(mgr_->Begin(&other).ok());
  EXPECT_TRUE(other->Put("a", "x").ok());
  EXPECT_TRUE(other->Put("c", "y").ok());
  EXPECT_TRUE(other->Put("b", "z").IsTxnConflict());
  ASSERT_TRUE(other->Commit().ok());
  ASSERT_TRUE(holder->Commit().ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "a", &v).ok());
  EXPECT_EQ("x", v);
  ASSERT_TRUE(tree_->Get({}, "b", &v).ok());
  EXPECT_EQ("held", v);
  ExpectChecked();
}

// The batch's one conflicting key sorts after all 40 of its other keys:
// the conflict is still found before any key is taken.
TEST_F(WriteBatchTest, ConflictOnLastKeyLocksAndInsertsNothing) {
  Open();
  const std::string held = Key(1000);
  std::vector<std::string> others;
  for (int i = 0; i < 40; ++i) others.push_back(Key(i));
  std::unique_ptr<Transaction> holder;
  ASSERT_TRUE(mgr_->Begin(&holder).ok());
  ASSERT_TRUE(holder->Put(held, "held").ok());

  const uint64_t puts = tree_->counters().uncommitted_puts;
  WriteBatch batch;
  for (const std::string& k : others) batch.Put(k, "batch");
  batch.Put(held, "batch");
  EXPECT_TRUE(mgr_->Write(batch).IsTxnConflict());
  EXPECT_EQ(puts, tree_->counters().uncommitted_puts);
  EXPECT_EQ(1u, mgr_->active_txns());

  // Nothing stayed locked: a batch of exactly the other keys commits.
  WriteBatch rest;
  for (const std::string& k : others) rest.Put(k, "rest");
  ASSERT_TRUE(mgr_->Write(rest).ok());
  ASSERT_TRUE(holder->Commit().ok());
  std::string v;
  for (const std::string& k : others) {
    ASSERT_TRUE(tree_->Get({}, k, &v).ok()) << k;
    EXPECT_EQ("rest", v);
  }
  ASSERT_TRUE(tree_->Get({}, held, &v).ok());
  EXPECT_EQ("held", v);
  ExpectChecked();
}

// 200-byte keys that differ only in their last byte lock, conflict and
// release by their full bytes.
TEST_F(WriteBatchTest, LongKeysLockAndConflict) {
  Open(4096);
  auto long_key = [](int i) {
    std::string k(199, 'p');
    k.push_back(static_cast<char>('a' + i));
    return k;
  };
  std::unique_ptr<Transaction> holder;
  ASSERT_TRUE(mgr_->Begin(&holder).ok());
  ASSERT_TRUE(holder->Put(long_key(0), "held").ok());
  ASSERT_TRUE(holder->Put(long_key(2), "held").ok());

  WriteBatch conflicting;
  conflicting.Put(long_key(1), "x");
  conflicting.Put(long_key(2), "x");
  EXPECT_TRUE(mgr_->Write(conflicting).IsTxnConflict());
  WriteBatch free_keys;
  free_keys.Put(long_key(1), "free");
  free_keys.Put(long_key(3), "free");
  ASSERT_TRUE(mgr_->Write(free_keys).ok());

  ASSERT_TRUE(holder->Commit().ok());
  ASSERT_TRUE(mgr_->Write(conflicting).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, long_key(0), &v).ok());
  EXPECT_EQ("held", v);
  ASSERT_TRUE(tree_->Get({}, long_key(2), &v).ok());
  EXPECT_EQ("x", v);
  ASSERT_TRUE(tree_->Get({}, long_key(3), &v).ok());
  EXPECT_EQ("free", v);
  ExpectChecked();
}

// A Put that fails in the tree releases the lock it took for a new key,
// and keeps the one the transaction already held.
TEST_F(WriteBatchTest, FailedPutReleasesTheLockItTook) {
  Open();
  const std::string too_big(4096, 'v');  // can never fit a 512-byte page
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_->Begin(&t).ok());
  EXPECT_FALSE(t->Put("new", too_big).ok());
  ASSERT_TRUE(t->Put("held", "small").ok());
  EXPECT_FALSE(t->Put("held", too_big).ok());
  EXPECT_EQ(1u, t->write_count());

  std::unique_ptr<Transaction> other;
  ASSERT_TRUE(mgr_->Begin(&other).ok());
  EXPECT_TRUE(other->Put("new", "other").ok());
  EXPECT_TRUE(other->Put("held", "other").IsTxnConflict());
  ASSERT_TRUE(t->Commit().ok());
  ASSERT_TRUE(other->Commit().ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "held", &v).ok());
  EXPECT_EQ("small", v);
  ASSERT_TRUE(tree_->Get({}, "new", &v).ok());
  EXPECT_EQ("other", v);
}

TEST_F(WriteBatchTest, TransactionGetSeesItsLatestPut) {
  Open();
  ASSERT_TRUE(tree_->Put("c", "committed", 1).ok());
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_->Begin(&t).ok());
  // Out of key order, with rewrites: the write set stays sorted.
  ASSERT_TRUE(t->Put("m", "m1").ok());
  ASSERT_TRUE(t->Put("b", "b1").ok());
  ASSERT_TRUE(t->Put("m", "m2").ok());
  ASSERT_TRUE(t->Put("x", "x1").ok());
  ASSERT_TRUE(t->Put("b", "b2").ok());
  ASSERT_TRUE(t->Put("m", "m3").ok());
  EXPECT_EQ(3u, t->write_count());
  std::string v;
  ASSERT_TRUE(t->Get("m", &v).ok());
  EXPECT_EQ("m3", v);
  ASSERT_TRUE(t->Get("b", &v).ok());
  EXPECT_EQ("b2", v);
  ASSERT_TRUE(t->Get("x", &v).ok());
  EXPECT_EQ("x1", v);
  ASSERT_TRUE(t->Get("c", &v).ok());  // not written: the committed version
  EXPECT_EQ("committed", v);
  EXPECT_TRUE(t->Get("a", &v).IsNotFound());
  // A value that grows, then shrinks into the bytes it grew into.
  ASSERT_TRUE(t->Put("x", "x2-is-longer").ok());
  ASSERT_TRUE(t->Get("x", &v).ok());
  EXPECT_EQ("x2-is-longer", v);
  ASSERT_TRUE(t->Put("x", "x3").ok());
  ASSERT_TRUE(t->Get("x", &v).ok());
  EXPECT_EQ("x3", v);
  EXPECT_EQ(3u, t->write_count());
  Timestamp cts = 0;
  ASSERT_TRUE(t->Commit(&cts).ok());
  Timestamp ts = 0;
  ASSERT_TRUE(tree_->Get({}, "m", &v, &ts).ok());
  EXPECT_EQ("m3", v);
  EXPECT_EQ(cts, ts);
  ASSERT_TRUE(tree_->Get({}, "x", &v).ok());
  EXPECT_EQ("x3", v);
}

// Duplicates spread over a batch big enough to split leaves mid-batch:
// each key gets exactly one version, holding its last Put's value.
TEST_F(WriteBatchTest, DuplicateKeysSplittingMidBatchKeepOnlyTheLast) {
  Open();
  constexpr int kKeys = 300;
  WriteBatch batch;
  for (int i = kKeys - 1; i >= 0; --i) batch.Put(Key(i), "first");
  for (int i = 0; i < kKeys; i += 3) batch.Put(Key(i), "second");
  for (int i = 0; i < kKeys; i += 6) batch.Put(Key(i), "last");
  const uint64_t splits = SplitCount(*tree_);
  const uint64_t puts = tree_->counters().uncommitted_puts;
  Timestamp cts = 0;
  ASSERT_TRUE(mgr_->Write(batch, &cts).ok());
  EXPECT_GT(SplitCount(*tree_), splits);
  EXPECT_EQ(static_cast<uint64_t>(kKeys),
            tree_->counters().uncommitted_puts - puts);
  for (int i = 0; i < kKeys; ++i) {
    std::string v;
    Timestamp ts = 0;
    ASSERT_TRUE(tree_->Get({}, Key(i), &v, &ts).ok()) << Key(i);
    EXPECT_EQ(i % 6 == 0 ? "last" : i % 3 == 0 ? "second" : "first", v)
        << Key(i);
    EXPECT_EQ(cts, ts);
  }
  SpaceStats stats;
  ASSERT_TRUE(tree_->ComputeSpaceStats(&stats).ok());
  EXPECT_EQ(static_cast<uint64_t>(kKeys), stats.logical_versions);
  ExpectChecked();
}

// The open-addressing table erases by backward shift: after locking
// many keys and releasing every third one in a scattered order, every
// remaining key still conflicts and every released key is free.
TEST(LockTableTest, EraseKeepsEveryOtherKeyReachable) {
  LockTable locks;
  constexpr int kKeys = 3000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back(Key(i));
  std::vector<LockTable::KeyValue> all;
  for (const std::string& k : keys) all.emplace_back(k, Slice());
  ASSERT_TRUE(locks.Lock(all, 7).ok());
  std::vector<bool> released(kKeys, false);
  std::vector<LockTable::KeyValue> release;
  for (int i = 0; i < kKeys; i += 3) {
    const int k = (i * 7919) % kKeys;  // a permutation of the multiples
    released[k] = true;
    release.push_back(all[k]);
  }
  locks.Unlock(release, 7);
  for (int k = 0; k < kKeys; ++k) {
    const Status s = locks.Lock({&all[k], 1}, 8);
    if (released[k]) {
      EXPECT_TRUE(s.ok()) << keys[k];
    } else {
      EXPECT_TRUE(s.IsTxnConflict()) << keys[k];
    }
  }
  // Transaction 8 now holds exactly the released keys: once 7 lets go of
  // the rest, one batch of every key is free for transaction 9.
  locks.Unlock(all, 7);
  EXPECT_TRUE(locks.Lock(all, 9).IsTxnConflict());
  locks.Unlock(release, 8);
  ASSERT_TRUE(locks.Lock(all, 9).ok());
  locks.Unlock(all, 9);
}

// Locks handed to other bytes keep working after the original bytes are
// overwritten and freed: Rebind to a copy the caller keeps, one key or a
// whole batch (what a failed abort does).
TEST(LockTableTest, RebindOutlivesTheLockingBytes) {
  LockTable locks;
  auto scratch = std::make_unique<std::string>("rebound-key");
  const std::string kept = *scratch;
  {
    const LockTable::KeyValue kv(*scratch, Slice());
    ASSERT_TRUE(locks.Lock({&kv, 1}, 1).ok());
    locks.Rebind(kv.first, kept.data(), 1);
  }
  auto batch = std::make_unique<std::vector<std::string>>(
      std::vector<std::string>{"batch-a", "batch-b"});
  const std::vector<std::string> batch_copy = *batch;
  {
    std::vector<LockTable::KeyValue> writes;
    for (const std::string& k : *batch) writes.emplace_back(k, Slice());
    ASSERT_TRUE(locks.Lock(writes, 2).ok());
    for (const std::string& k : batch_copy) locks.Rebind(k, k.data(), 2);
  }
  scratch->assign(scratch->size(), '#');
  scratch.reset();
  for (std::string& k : *batch) k.assign(k.size(), '#');
  batch.reset();

  const std::vector<std::string> keys = {"rebound-key", "batch-a",
                                         "batch-b"};
  for (const std::string& k : keys) {
    const LockTable::KeyValue kv(k, Slice());
    EXPECT_TRUE(locks.Lock({&kv, 1}, 3).IsTxnConflict()) << k;
  }
  const LockTable::KeyValue first(keys[0], Slice());
  locks.Unlock({&first, 1}, 1);
  std::vector<LockTable::KeyValue> rest;
  for (size_t i = 1; i < keys.size(); ++i) rest.emplace_back(keys[i], Slice());
  locks.Unlock(rest, 2);
  std::vector<LockTable::KeyValue> all;
  for (const std::string& k : keys) all.emplace_back(k, Slice());
  ASSERT_TRUE(locks.Lock(all, 3).ok());
  locks.Unlock(all, 3);
}

TEST_F(WriteBatchTest, ConcurrentWritersCommitInterleavedBatches) {
  Open();
  constexpr int kWriters = 4;
  constexpr int kBatchKeys = 64;
  constexpr int kRounds = 12;
  // Writer w owns keys w, w+4, w+8, ...: the batches share leaves but
  // never keys, so every commit must succeed.
  std::vector<std::vector<Timestamp>> commit_ts(kWriters);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        WriteBatch batch;
        for (int j = 0; j < kBatchKeys; ++j) {
          batch.Put(Key(kWriters * j + w),
                    "w" + std::to_string(w) + "r" + std::to_string(r));
        }
        Timestamp cts = 0;
        if (!mgr_->Write(batch, &cts).ok()) {
          failures++;
          return;
        }
        commit_ts[w].push_back(cts);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(0, failures.load());
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_EQ(static_cast<size_t>(kRounds), commit_ts[w].size());
    for (int r = 0; r < kRounds; ++r) {
      for (int j = 0; j < kBatchKeys; ++j) {
        std::string v;
        Timestamp ts = 0;
        ASSERT_TRUE(tree_->Get({.as_of = commit_ts[w][r]},
                               Key(kWriters * j + w), &v, &ts)
                        .ok());
        EXPECT_EQ("w" + std::to_string(w) + "r" + std::to_string(r), v);
        EXPECT_EQ(commit_ts[w][r], ts);
      }
    }
  }
  EXPECT_EQ(0u, mgr_->active_txns());
  ExpectChecked();
}

// Three loaders fill adjacent key ranges in sorted 500-key batches, the
// bulk-load shape: each run splits its leaves where it is inserted, and
// meets the next loader's first keys as a foreign tail in a shared leaf.
TEST_F(WriteBatchTest, AdjacentSortedLoadersRunSplitAndReadBack) {
  Open(4096);
  constexpr int kWriters = 3;
  constexpr int kKeysEach = 3000;
  constexpr int kBatchKeys = 500;
  constexpr int kBatches = kKeysEach / kBatchKeys;
  std::vector<std::vector<Timestamp>> commit_ts(kWriters);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        WriteBatch batch;
        const int lo = w * kKeysEach + b * kBatchKeys;
        for (int i = lo; i < lo + kBatchKeys; ++i) {
          batch.Put(Key(i), "w" + std::to_string(w) + "b" + std::to_string(b));
        }
        Timestamp cts = 0;
        if (!mgr_->Write(batch, &cts).ok()) {
          failures++;
          return;
        }
        commit_ts[w].push_back(cts);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(0, failures.load());
  EXPECT_GT(tree_->counters().data_run_splits, 0u);
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_EQ(static_cast<size_t>(kBatches), commit_ts[w].size());
    for (int b = 0; b < kBatches; ++b) {
      const Timestamp cts = commit_ts[w][b];
      const int lo = w * kKeysEach + b * kBatchKeys;
      for (int i = lo; i < lo + kBatchKeys; ++i) {
        std::string v;
        Timestamp ts = 0;
        ASSERT_TRUE(tree_->Get({.as_of = cts}, Key(i), &v, &ts).ok())
            << Key(i) << " @" << cts;
        EXPECT_EQ("w" + std::to_string(w) + "b" + std::to_string(b), v);
        EXPECT_EQ(cts, ts);
        EXPECT_TRUE(tree_->Get({.as_of = cts - 1}, Key(i), &v).IsNotFound())
            << Key(i) << " before " << cts;
      }
    }
  }
  EXPECT_EQ(0u, mgr_->active_txns());
  ExpectChecked();
}

// Parallel commits stamp out of timestamp order: a record can still be
// uncommitted when a split sees a LATER commit already stamped beside it.
// The split's content-floor hint must stay at or below the stamp the
// record gets afterwards, i.e. above no unpublished commit.
TEST_F(WriteBatchTest, SplitFloorCoversCommitStampedOutOfOrder) {
  Open();
  constexpr TxnId kEarly = 1, kLate = 2, kFill = 3;
  ASSERT_TRUE(tree_->PutUncommitted("a-early", "e", kEarly).ok());
  ASSERT_TRUE(tree_->PutUncommitted("a-late", "l", kLate).ok());
  ASSERT_TRUE(tree_->StampCommitted("a-late", kLate, 2).ok());
  // Fill the leaf with another transaction's records until it key-splits;
  // the "a-" keys sort first, so they share the left half.
  for (int i = 0; tree_->counters().data_key_splits == 0; ++i) {
    ASSERT_LT(i, 200);
    ASSERT_TRUE(tree_->PutUncommitted(Key(i), std::string(24, 'f'), kFill)
                    .ok());
  }
  ASSERT_TRUE(tree_->StampCommitted("a-early", kEarly, 1).ok());
  ExpectChecked();
  std::string v;
  ASSERT_TRUE(tree_->Get({.as_of = 1}, "a-early", &v).ok());
  EXPECT_EQ("e", v);
}

// Count gate: data splits take page latches only. With one writer the
// tree-global structure mutex is taken once per index split or root
// growth and never for a data split.
TEST_F(WriteBatchTest, DataSplitsTakeNoTreeGlobalLock) {
  Open();
  constexpr int kKeys = 20000;
  constexpr int kVersions = 3;
  constexpr int kBatchKeys = 500;
  for (int v = 0; v < kVersions; ++v) {
    for (int lo = 0; lo < kKeys; lo += kBatchKeys) {
      WriteBatch batch;
      for (int i = lo; i < lo + kBatchKeys; ++i) {
        batch.Put(Key(i), "v" + std::to_string(v));
      }
      ASSERT_TRUE(mgr_->Write(batch).ok()) << v << " " << lo;
    }
  }
  const auto& c = tree_->counters();
  const uint64_t data_splits = c.data_key_splits + c.data_time_splits;
  const uint64_t index_events =
      c.index_key_splits + c.index_time_splits + c.root_grows;
  EXPECT_GT(c.data_time_splits, 0u);
  EXPECT_GT(c.index_key_splits, 0u);
  EXPECT_LE(uint64_t{c.structure_locks}, index_events);
  EXPECT_LT(uint64_t{c.structure_locks}, data_splits);
  std::string v;
  ASSERT_TRUE(tree_->Get({}, Key(kKeys - 1), &v).ok());
  EXPECT_EQ("v" + std::to_string(kVersions - 1), v);
  ExpectChecked();
}

}  // namespace
}  // namespace txn
}  // namespace tsb
