// ShardedDB facade tests: hash routing with stable reopen, single- and
// multi-shard batch atomicity under one commit timestamp, manifest
// guards, in-doubt decision replay at Open, and merged-cursor parity
// (forward, reverse, range, direction switches, version axis) against a
// single-tree oracle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "shard/sharded_db.h"
#include "wal/wal.h"

namespace tsb {
namespace shard {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "sk%05d", i);
  return buf;
}

class ShardedDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    path_ = "/tmp/tsb_sharded_test." + std::to_string(::getpid()) + "." +
            std::to_string(counter.fetch_add(1));
    ShardedDB::Destroy(path_);
  }
  void TearDown() override {
    db_.reset();
    ShardedDB::Destroy(path_);
  }

  ShardedOptions Options(uint32_t num_shards) {
    ShardedOptions o;
    o.num_shards = num_shards;
    o.base.tree.page_size = 512;
    o.base.tree.buffer_pool_frames = 4096;
    return o;
  }

  void OpenDb(const ShardedOptions& o) {
    Status s = ShardedDB::Open(path_, o, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  std::string path_;
  std::unique_ptr<ShardedDB> db_;
};

TEST_F(ShardedDbTest, RoutingDistributesAndRoundTrips) {
  OpenDb(Options(4));
  constexpr int kKeys = 256;
  std::set<uint32_t> used;
  for (int i = 0; i < kKeys; ++i) {
    used.insert(db_->ShardOf(Key(i)));
    ASSERT_TRUE(db_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // The seeded hash must actually spread a dense key range.
  EXPECT_EQ(4u, used.size());
  for (int i = 0; i < kKeys; ++i) {
    std::string v;
    ASSERT_TRUE(db_->Get({}, Key(i), &v).ok()) << Key(i);
    EXPECT_EQ("v" + std::to_string(i), v);
    // The facade and the raw router must agree, and the key must live on
    // exactly the shard the router names.
    const uint32_t home = ShardOfKey(Key(i), 4, db_->hash_seed());
    EXPECT_EQ(home, db_->ShardOf(Key(i)));
    std::string direct;
    EXPECT_TRUE(db_->shard(home)->Get({}, Key(i), &direct).ok());
  }
  std::string missing;
  EXPECT_TRUE(db_->Get({}, "never-written", &missing).IsNotFound());
}

TEST_F(ShardedDbTest, MultiShardBatchIsAtomicAtOneTimestamp) {
  OpenDb(Options(4));
  ASSERT_TRUE(db_->Put("seed", "s").ok());

  // Build a batch guaranteed to span several shards.
  WriteBatch batch;
  std::set<uint32_t> touched;
  for (int i = 0; i < 32; ++i) {
    batch.Put(Key(i), "batch-v" + std::to_string(i));
    touched.insert(db_->ShardOf(Key(i)));
  }
  ASSERT_GT(touched.size(), 1u);

  ShardedReadTransaction before = db_->BeginReadOnly();
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  ASSERT_GT(cts, 0u);
  EXPECT_GE(db_->Now(), cts);  // fully stamped: watermark passed it

  // The earlier snapshot sees NONE of the batch; a fresh snapshot sees
  // ALL of it, every record stamped with the same commit timestamp.
  ShardedReadTransaction after = db_->BeginReadOnly();
  for (int i = 0; i < 32; ++i) {
    std::string v;
    EXPECT_TRUE(before.Get(Key(i), &v).IsNotFound()) << Key(i);
    Timestamp version_ts = 0;
    ASSERT_TRUE(after.Get(Key(i), &v, &version_ts).ok()) << Key(i);
    EXPECT_EQ("batch-v" + std::to_string(i), v);
    EXPECT_EQ(cts, version_ts);
  }
  EXPECT_EQ(0u, db_->pending_decisions());
}

TEST_F(ShardedDbTest, SingleShardBatchTakesTheFastPath) {
  OpenDb(Options(4));
  // Collect keys that all hash to shard 0 — the batch must commit
  // without a coordinator decision (nothing pending, nothing in-doubt
  // on reopen).
  WriteBatch batch;
  int found = 0;
  for (int i = 0; found < 8; ++i) {
    ASSERT_LT(i, 10000);
    if (db_->ShardOf(Key(i)) != 0) continue;
    batch.Put(Key(i), "one-shard");
    found++;
  }
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  EXPECT_GE(db_->Now(), cts);
  EXPECT_EQ(0u, db_->pending_decisions());

  // Duplicate keys in one batch: the later Put wins, across routing.
  WriteBatch dup;
  dup.Put(Key(1), "first");
  dup.Put(Key(2), "other-shard-op");
  dup.Put(Key(1), "second");
  ASSERT_TRUE(db_->Write(dup).ok());
  std::string v;
  ASSERT_TRUE(db_->Get({}, Key(1), &v).ok());
  EXPECT_EQ("second", v);

  // Empty batch: trivially OK, reports the current watermark.
  WriteBatch empty;
  Timestamp ets = 0;
  ASSERT_TRUE(db_->Write(empty, &ets).ok());
  EXPECT_EQ(db_->Now(), ets);
}

TEST_F(ShardedDbTest, CleanReopenPreservesDataAndRouting) {
  OpenDb(Options(4));
  const uint64_t seed = db_->hash_seed();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  WriteBatch batch;
  for (int i = 64; i < 96; ++i) batch.Put(Key(i), "b" + std::to_string(i));
  Timestamp batch_ts = 0;
  ASSERT_TRUE(db_->Write(batch, &batch_ts).ok());
  const Timestamp watermark = db_->Now();
  db_.reset();  // clean shutdown: checkpoints + truncates the coordinator

  // Reopen with num_shards=0: the manifest is authoritative.
  ShardedOptions reopen = Options(0);
  OpenDb(reopen);
  EXPECT_EQ(4u, db_->num_shards());
  EXPECT_EQ(seed, db_->hash_seed());
  EXPECT_EQ(0u, db_->in_doubt_replayed());
  EXPECT_GE(db_->Now(), watermark);
  for (int i = 0; i < 96; ++i) {
    std::string v;
    Timestamp vts = 0;
    ASSERT_TRUE(db_->Get({}, Key(i), &v, &vts).ok()) << Key(i);
    EXPECT_EQ((i < 64 ? "v" : "b") + std::to_string(i), v);
    if (i >= 64) {
      EXPECT_EQ(batch_ts, vts);
    }
  }
}

TEST_F(ShardedDbTest, ShardCountIsFixedAtCreation) {
  OpenDb(Options(4));
  db_.reset();
  std::unique_ptr<ShardedDB> wrong;
  Status s = ShardedDB::Open(path_, Options(2), &wrong);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // Matching count (or 0 = "use manifest") still opens.
  OpenDb(Options(4));
}

TEST_F(ShardedDbTest, FailedShardOpenTearsDownCleanly) {
  OpenDb(Options(4));
  db_.reset();
  // Every shard's MANIFEST pins its page size: the first shard refuses,
  // and the half-built facade must tear down without touching the shards
  // that never opened.
  ShardedOptions o = Options(4);
  o.base.tree.page_size = 1024;
  std::unique_ptr<ShardedDB> wrong;
  Status s = ShardedDB::Open(path_, o, &wrong);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(nullptr, wrong);
  OpenDb(Options(4));
}

TEST_F(ShardedDbTest, CreationRequiresAtLeastOneShard) {
  std::unique_ptr<ShardedDB> none;
  EXPECT_TRUE(ShardedDB::Open(path_, Options(0), &none).IsInvalidArgument());
}

TEST_F(ShardedDbTest, InDoubtDecisionResolvedAtOpen) {
  OpenDb(Options(4));
  ASSERT_TRUE(db_->Put("existing", "pre").ok());
  Timestamp last = 0;
  ASSERT_TRUE(db_->Put("existing2", "pre2", &last).ok());
  db_.reset();

  // Simulate a crash after the commit point: the decision record reached
  // the coordinator log but NO shard stamped its slice. Open must make
  // the whole batch visible.
  const Timestamp decided = last + 100;
  std::map<std::string, std::string> decision;
  for (int i = 0; i < 24; ++i) {
    decision[Key(i)] = "indoubt-" + std::to_string(i);
  }
  const std::vector<std::pair<Slice, Slice>> ops(decision.begin(),
                                                 decision.end());
  {
    std::unique_ptr<wal::Wal> coord;
    ASSERT_TRUE(wal::Wal::Open(path_ + "/coord.tsb",
                               wal::WalSyncMode::kGroup, 0, &coord)
                    .ok());
    uint64_t lsn = 0;
    ASSERT_TRUE(coord->AppendCommit(decided, ops, &lsn).ok());
    // The same decision twice (e.g. torn repair rewrote it): replay must
    // be idempotent — the as-of probe skips the second application.
    ASSERT_TRUE(coord->AppendCommit(decided, ops, &lsn).ok());
    ASSERT_TRUE(coord->Sync(lsn).ok());
  }

  OpenDb(Options(0));
  EXPECT_EQ(2u, db_->in_doubt_replayed());
  EXPECT_GE(db_->Now(), decided);  // published: visible to plain reads
  for (const auto& [key, value] : decision) {
    std::string v;
    Timestamp vts = 0;
    ASSERT_TRUE(db_->Get({}, key, &v, &vts).ok()) << key;
    EXPECT_EQ(value, v);
    EXPECT_EQ(decided, vts);
  }
  std::string v;
  ASSERT_TRUE(db_->Get({}, "existing", &v).ok());
  EXPECT_EQ("pre", v);

  // Before the decision's timestamp the batch is fully absent.
  ReadOptions old_read;
  old_read.as_of = decided - 1;
  for (const auto& [key, value] : decision) {
    EXPECT_TRUE(db_->Get(old_read, key, &v).IsNotFound()) << key;
  }

  // A further clean cycle truncates the coordinator: nothing re-replays.
  db_.reset();
  OpenDb(Options(0));
  EXPECT_EQ(0u, db_->in_doubt_replayed());
  ASSERT_TRUE(db_->Get({}, Key(0), &v).ok());
  EXPECT_EQ("indoubt-0", v);
}

// ---------------------------------------------------------------------------
// Merged-cursor parity: a 4-shard database and a 1-shard oracle receive
// the identical update history; every traversal pattern must match
// key-for-key, value-for-value, timestamp-for-timestamp.
// ---------------------------------------------------------------------------

class ShardedCursorParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    const std::string base = "/tmp/tsb_shard_parity." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(counter.fetch_add(1));
    sharded_path_ = base + ".s4";
    oracle_path_ = base + ".s1";
    ShardedDB::Destroy(sharded_path_);
    ShardedDB::Destroy(oracle_path_);
    ASSERT_TRUE(ShardedDB::Open(sharded_path_, Opts(4), &sharded_).ok());
    ASSERT_TRUE(ShardedDB::Open(oracle_path_, Opts(1), &oracle_).ok());

    // Interleave autocommits and multi-shard batches over several rounds
    // so most keys carry multiple versions; record round boundaries for
    // as-of scans.
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 40; i += 2) {
        const std::string v =
            "r" + std::to_string(round) + "-" + std::to_string(i);
        ASSERT_TRUE(Apply1(Key(i), v));
      }
      WriteBatch batch;
      for (int i = 1; i < 40; i += 2) {
        batch.Put(Key(i), "r" + std::to_string(round) + "b" +
                              std::to_string(i));
      }
      ASSERT_TRUE(sharded_->Write(batch).ok());
      ASSERT_TRUE(oracle_->Write(batch).ok());
      round_done_.push_back(
          std::min(sharded_->Now(), oracle_->Now()));
    }
  }

  void TearDown() override {
    sharded_.reset();
    oracle_.reset();
    ShardedDB::Destroy(sharded_path_);
    ShardedDB::Destroy(oracle_path_);
  }

  static ShardedOptions Opts(uint32_t n) {
    ShardedOptions o;
    o.num_shards = n;
    o.base.tree.page_size = 512;
    o.base.tree.buffer_pool_frames = 4096;
    return o;
  }

  bool Apply1(const std::string& key, const std::string& value) {
    return sharded_->Put(key, value).ok() && oracle_->Put(key, value).ok();
  }

  struct Row {
    std::string key, value;
    Timestamp ts;
  };
  static Row RowOf(const ShardedCursor& c) {
    return {c.key().ToString(), c.value().ToString(), c.ts()};
  }
  static void ExpectSame(ShardedCursor* a, ShardedCursor* b,
                         const char* what) {
    ASSERT_EQ(a->Valid(), b->Valid()) << what;
    if (!a->Valid()) return;
    EXPECT_EQ(RowOf(*b).key, RowOf(*a).key) << what;
    EXPECT_EQ(RowOf(*b).value, RowOf(*a).value) << what;
    EXPECT_EQ(RowOf(*b).ts, RowOf(*a).ts) << what;
  }

  std::string sharded_path_, oracle_path_;
  std::unique_ptr<ShardedDB> sharded_, oracle_;
  std::vector<Timestamp> round_done_;
};

TEST_F(ShardedCursorParityTest, FullForwardAndReverseScans) {
  for (const Timestamp as_of : round_done_) {
    ReadOptions ro;
    ro.as_of = as_of;
    auto a = sharded_->NewCursor(ro);
    auto b = oracle_->NewCursor(ro);
    ASSERT_TRUE(a->SeekToFirst().ok());
    ASSERT_TRUE(b->SeekToFirst().ok());
    int rows = 0;
    while (a->Valid() || b->Valid()) {
      ExpectSame(a.get(), b.get(), "forward");
      ASSERT_TRUE(a->Next().ok());
      ASSERT_TRUE(b->Next().ok());
      ASSERT_LT(++rows, 200);
    }
    EXPECT_EQ(40, rows);

    ASSERT_TRUE(a->SeekToLast().ok());
    ASSERT_TRUE(b->SeekToLast().ok());
    rows = 0;
    while (a->Valid() || b->Valid()) {
      ExpectSame(a.get(), b.get(), "reverse");
      ASSERT_TRUE(a->Prev().ok());
      ASSERT_TRUE(b->Prev().ok());
      ASSERT_LT(++rows, 200);
    }
    EXPECT_EQ(40, rows);
  }
}

TEST_F(ShardedCursorParityTest, SeeksRangesAndDirectionSwitches) {
  ReadOptions ro;  // latest
  auto a = sharded_->NewCursor(ro);
  auto b = oracle_->NewCursor(ro);

  ASSERT_TRUE(a->Seek(Key(17)).ok());
  ASSERT_TRUE(b->Seek(Key(17)).ok());
  ExpectSame(a.get(), b.get(), "seek");

  // Zig-zag: every switch forces the merge to re-anchor all children.
  const char* steps = "NNPPNPNN";
  for (const char* s = steps; *s; ++s) {
    if (*s == 'N') {
      ASSERT_TRUE(a->Next().ok());
      ASSERT_TRUE(b->Next().ok());
    } else {
      ASSERT_TRUE(a->Prev().ok());
      ASSERT_TRUE(b->Prev().ok());
    }
    ExpectSame(a.get(), b.get(), "zigzag");
  }

  ASSERT_TRUE(a->SeekForPrev(Key(25)).ok());
  ASSERT_TRUE(b->SeekForPrev(Key(25)).ok());
  ExpectSame(a.get(), b.get(), "seek-for-prev");

  // Bounded range scan, enforced at the merge level on the sharded side.
  ASSERT_TRUE(a->SeekRange(Key(10), Key(20)).ok());
  ASSERT_TRUE(b->SeekRange(Key(10), Key(20)).ok());
  int rows = 0;
  while (a->Valid() || b->Valid()) {
    ExpectSame(a.get(), b.get(), "range");
    ASSERT_GE(a->key().ToString(), Key(10));
    ASSERT_LT(a->key().ToString(), Key(20));
    ASSERT_TRUE(a->Next().ok());
    ASSERT_TRUE(b->Next().ok());
    ASSERT_LT(++rows, 100);
  }
  EXPECT_EQ(10, rows);

  // Walking off either end concludes both the same way.
  ASSERT_TRUE(a->Seek(Key(39)).ok());
  ASSERT_TRUE(b->Seek(Key(39)).ok());
  ASSERT_TRUE(a->Next().ok());
  ASSERT_TRUE(b->Next().ok());
  EXPECT_FALSE(a->Valid());
  EXPECT_FALSE(b->Valid());
}

TEST_F(ShardedCursorParityTest, VersionAxisDelegatesToTheHomeShard) {
  ReadOptions ro;
  auto a = sharded_->NewCursor(ro);
  auto b = oracle_->NewCursor(ro);
  ASSERT_TRUE(a->SeekToFirst().ok());
  ASSERT_TRUE(b->SeekToFirst().ok());
  // For every key: step down a version, time-travel back to the head
  // with SeekTimestamp, then drain the chain — the key axis must stay
  // anchored so Next() still advances after the chain runs dry.
  while (a->Valid() || b->Valid()) {
    ExpectSame(a.get(), b.get(), "version-head");
    const Timestamp head_ts = a->ts();
    ASSERT_TRUE(a->NextVersion().ok());
    ASSERT_TRUE(b->NextVersion().ok());
    ASSERT_EQ(a->Valid(), b->Valid());
    ASSERT_TRUE(a->Valid());  // the workload wrote multiple rounds
    ExpectSame(a.get(), b.get(), "version-chain");
    ASSERT_TRUE(a->SeekTimestamp(head_ts).ok());
    ASSERT_TRUE(b->SeekTimestamp(head_ts).ok());
    ExpectSame(a.get(), b.get(), "seek-timestamp");
    int versions = 1;
    while (true) {
      ASSERT_TRUE(a->NextVersion().ok());
      ASSERT_TRUE(b->NextVersion().ok());
      ASSERT_EQ(a->Valid(), b->Valid());
      if (!a->Valid()) break;
      ExpectSame(a.get(), b.get(), "version-drain");
      ASSERT_LT(++versions, 20);
    }
    EXPECT_GE(versions, 1);
    ASSERT_TRUE(a->Next().ok());
    ASSERT_TRUE(b->Next().ok());
  }
}

TEST_F(ShardedCursorParityTest, ReadTransactionCursorPinsItsSnapshot) {
  ShardedReadTransaction snap = sharded_->BeginReadOnly();
  const Timestamp pinned = snap.timestamp();
  // Concurrent writes after the snapshot must stay invisible to it.
  ASSERT_TRUE(sharded_->Put(Key(7), "after-snapshot").ok());
  auto c = snap.NewCursor();
  EXPECT_EQ(pinned, c->as_of());
  ASSERT_TRUE(c->Seek(Key(7)).ok());
  ASSERT_TRUE(c->Valid());
  EXPECT_NE("after-snapshot", c->value().ToString());
  EXPECT_LE(c->ts(), pinned);
  std::string v;
  ASSERT_TRUE(snap.Get(Key(7), &v).ok());
  EXPECT_NE("after-snapshot", v);
}

}  // namespace
}  // namespace shard
}  // namespace tsb
