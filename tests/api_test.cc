// Tests for the public API surface: path-based Open with owned devices,
// ReadOptions/PinnableValue zero-copy point reads, atomic WriteBatch, and
// the unified VersionCursor (key axis + time axis) checked against a
// recorded-commit oracle, and reopen-from-path persistence.
#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "db/multiversion_db.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "storage/worm_file_device.h"
#include "tsb/cursor.h"

namespace tsb {
namespace db {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key-%04d", i);
  return buf;
}

std::optional<std::string> ExtractOwner(const Slice& value) {
  const std::string s = value.ToString();
  const size_t start = s.find("owner=");
  if (start == std::string::npos) return std::nullopt;
  const size_t end = s.find(';', start);
  return s.substr(start + 6,
                  end == std::string::npos ? std::string::npos : end - start - 6);
}

/// In-memory DB with small pages and a multi-round workload, so versions
/// migrate to the historical device and reads exercise both axes.
class ApiTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 12;
  static constexpr int kRounds = 25;

  void SetUp() override {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    DbOptions opts;
    opts.tree.page_size = 512;
    ASSERT_TRUE(
        MultiVersionDB::Open(magnetic_.get(), worm_.get(), opts, &db_).ok());
  }

  // Writes kRounds versions of kKeys keys; remembers every commit.
  void LoadWorkload() {
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kKeys; ++k) {
        Timestamp cts = 0;
        const std::string value =
            "v" + std::to_string(round) + "-of-" + Key(k);
        ASSERT_TRUE(db_->Put(Key(k), value, &cts).ok());
        commits_.emplace_back(Key(k), cts, value);
      }
    }
    // Sanity: history actually migrated.
    ASSERT_GT(db_->primary()->counters().records_migrated, 0u);
  }

  // Oracle: the database state as of `t`, from the recorded commits.
  std::map<std::string, std::pair<Timestamp, std::string>> OracleAsOf(
      Timestamp t) const {
    std::map<std::string, std::pair<Timestamp, std::string>> state;
    for (const auto& [key, ts, value] : commits_) {
      if (ts > t) continue;
      auto it = state.find(key);
      if (it == state.end() || ts > it->second.first) {
        state[key] = {ts, value};
      }
    }
    return state;
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<MultiVersionDB> db_;
  std::vector<std::tuple<std::string, Timestamp, std::string>> commits_;
};

// ---------------------------------------------------------------- pinned get

TEST_F(ApiTest, PinnedGetParityWithStringGet) {
  LoadWorkload();
  const Timestamp now = db_->Now();
  size_t pinned_hits = 0, copied_hits = 0;
  for (Timestamp t : {Timestamp(now / 4), Timestamp(now / 2), now}) {
    ReadOptions opts;
    opts.as_of = t;
    for (int k = 0; k < kKeys; ++k) {
      std::string sv;
      Timestamp sts = 0;
      const Status ss = db_->Get(opts, Key(k), &sv, &sts);
      PinnableValue pv;
      const Status ps = db_->Get(opts, Key(k), &pv);
      ASSERT_EQ(ss.ok(), ps.ok()) << Key(k) << " @" << t;
      if (!ss.ok()) continue;
      EXPECT_EQ(sv, pv.ToString()) << Key(k) << " @" << t;
      EXPECT_EQ(sts, pv.timestamp());
      (pv.pinned() ? pinned_hits : copied_hits)++;
    }
  }
  // The mix must exercise both result paths: deep-past reads resolve in
  // pinned historical blobs, current reads copy from mutable pages.
  EXPECT_GT(pinned_hits, 0u);
  EXPECT_GT(copied_hits, 0u);
}

TEST_F(ApiTest, FailedPinnedGetClearsTheSlot) {
  LoadWorkload();
  ReadOptions deep;
  deep.as_of = db_->Now() / 4;
  PinnableValue pv;
  ASSERT_TRUE(db_->Get(deep, Key(0), &pv).ok());
  ASSERT_FALSE(pv.data().empty());
  // A miss must not leave the previous result (or its pin) behind.
  ASSERT_TRUE(db_->Get(deep, "no-such-key", &pv).IsNotFound());
  EXPECT_FALSE(pv.pinned());
  EXPECT_TRUE(pv.data().empty());
  EXPECT_EQ(0u, pv.timestamp());
}

TEST_F(ApiTest, PinnedValueSurvivesCacheEviction) {
  LoadWorkload();
  ReadOptions opts;
  opts.as_of = db_->Now() / 4;  // deep past: resolves historically
  PinnableValue pv;
  int key = -1;
  for (int k = 0; k < kKeys && key < 0; ++k) {
    if (db_->Get(opts, Key(k), &pv).ok() && pv.pinned()) key = k;
  }
  ASSERT_GE(key, 0) << "no deep-past read resolved in a pinned blob";
  const std::string expect = pv.ToString();
  // Dropping every cache entry must not invalidate the pin.
  db_->primary()->hist_store()->ClearCache();
  EXPECT_EQ(expect, pv.data().ToString());
}

TEST_F(ApiTest, ReadOptionsFillCacheOffDoesNotPopulate) {
  LoadWorkload();
  AppendStore* store = db_->primary()->hist_store();
  store->ClearCache();
  ReadOptions no_fill;
  no_fill.as_of = db_->Now() / 4;
  no_fill.fill_cache = false;
  std::string v;
  ASSERT_TRUE(db_->Get(no_fill, Key(0), &v).ok());
  const uint64_t misses_before = store->cache_misses();
  ASSERT_TRUE(db_->Get(no_fill, Key(0), &v).ok());
  // Second read misses again: the first one did not publish its blobs.
  EXPECT_GT(store->cache_misses(), misses_before);
}

// ---------------------------------------------------------------- batches

TEST_F(ApiTest, WriteBatchStampsOneTimestamp) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Put("c", "3");
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  for (const char* k : {"a", "b", "c"}) {
    std::string v;
    Timestamp ts = 0;
    ASSERT_TRUE(db_->Get(ReadOptions(), k, &v, &ts).ok());
    EXPECT_EQ(cts, ts) << k;
  }
  // Before the commit timestamp the batch is invisible as a whole.
  ReadOptions before;
  before.as_of = cts - 1;
  std::string v;
  for (const char* k : {"a", "b", "c"}) {
    EXPECT_TRUE(db_->Get(before, k, &v).IsNotFound()) << k;
  }
}

TEST_F(ApiTest, WriteBatchConflictAppliesNothing) {
  // An open transaction holds the lock on "locked"; the batch must fail
  // as a unit, leaving its other key unwritten.
  std::unique_ptr<txn::Transaction> txn;
  ASSERT_TRUE(db_->Begin(&txn).ok());
  ASSERT_TRUE(txn->Put("locked", "txn-owns-this").ok());

  WriteBatch batch;
  batch.Put("untouched", "x");
  batch.Put("locked", "batch-wants-this");
  EXPECT_TRUE(db_->Write(batch).IsTxnConflict());
  std::string v;
  EXPECT_TRUE(db_->Get(ReadOptions(), "untouched", &v).IsNotFound());

  // After the transaction aborts, the same batch applies cleanly.
  ASSERT_TRUE(txn->Abort().ok());
  ASSERT_TRUE(db_->Write(batch).ok());
  ASSERT_TRUE(db_->Get(ReadOptions(), "locked", &v).ok());
  EXPECT_EQ("batch-wants-this", v);
}

TEST_F(ApiTest, WriteBatchLastPutWinsWithinBatch) {
  WriteBatch batch;
  batch.Put("dup", "first");
  batch.Put("dup", "second");
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  std::string v;
  ASSERT_TRUE(db_->Get(ReadOptions(), "dup", &v).ok());
  EXPECT_EQ("second", v);
  // Exactly one version exists (one key, one timestamp).
  auto hist = db_->NewCursor();
  ASSERT_TRUE(hist->Seek("dup").ok());
  ASSERT_TRUE(hist->Valid());
  EXPECT_EQ(cts, hist->ts());
  ASSERT_TRUE(hist->NextVersion().ok());
  EXPECT_FALSE(hist->Valid());
}

TEST_F(ApiTest, WriteBatchMaintainsSecondaryIndexes) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  WriteBatch batch;
  batch.Put("acct-1", "owner=ada;balance=10");
  batch.Put("acct-2", "owner=ada;balance=20");
  batch.Put("acct-3", "owner=bob;balance=30");
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());

  ReadOptions at_commit;
  at_commit.as_of = cts;
  std::vector<std::pair<std::string, std::string>> kvs;
  ASSERT_TRUE(db_->FindBySecondary(at_commit, "by_owner", "ada", &kvs).ok());
  ASSERT_EQ(2u, kvs.size());
  EXPECT_EQ("acct-1", kvs[0].first);
  EXPECT_EQ("acct-2", kvs[1].first);

  // Re-owning one account in a later batch updates the index atomically;
  // the old ownership stays queryable at the old time.
  WriteBatch change;
  change.Put("acct-2", "owner=bob;balance=20");
  Timestamp cts2 = 0;
  ASSERT_TRUE(db_->Write(change, &cts2).ok());
  ReadOptions later;
  later.as_of = cts2;
  ASSERT_TRUE(db_->FindBySecondary(later, "by_owner", "ada", &kvs).ok());
  ASSERT_EQ(1u, kvs.size());
  EXPECT_EQ("acct-1", kvs[0].first);
  ASSERT_TRUE(db_->FindBySecondary(at_commit, "by_owner", "ada", &kvs).ok());
  EXPECT_EQ(2u, kvs.size());
}

// ---------------------------------------------------------------- cursor

TEST_F(ApiTest, CursorMatchesOracle) {
  LoadWorkload();
  const Timestamp now = db_->Now();
  for (Timestamp t : {Timestamp(1), Timestamp(now / 3), Timestamp(now / 2),
                      now}) {
    std::vector<std::tuple<std::string, Timestamp, std::string>> cursor;
    auto c = db_->NewCursor({.as_of = t});
    ASSERT_TRUE(c->SeekToFirst().ok());
    while (c->Valid()) {
      cursor.emplace_back(c->key().ToString(), c->ts(),
                          c->value().ToString());
      ASSERT_TRUE(c->Next().ok());
    }
    std::vector<std::tuple<std::string, Timestamp, std::string>> oracle;
    for (const auto& [key, tsv] : OracleAsOf(t)) {
      oracle.emplace_back(key, tsv.first, tsv.second);
    }
    EXPECT_EQ(oracle, cursor) << "as of t=" << t;
  }
}

TEST_F(ApiTest, CursorVersionAxisMatchesOracle) {
  LoadWorkload();
  for (int k = 0; k < kKeys; k += 3) {
    // Commits were recorded in timestamp order: newest-first reverses them.
    std::vector<std::pair<Timestamp, std::string>> oracle;
    for (auto it = commits_.rbegin(); it != commits_.rend(); ++it) {
      const auto& [key, ts, value] = *it;
      if (key == Key(k)) oracle.emplace_back(ts, value);
    }
    ASSERT_EQ(static_cast<size_t>(kRounds), oracle.size());

    std::vector<std::pair<Timestamp, std::string>> axis;
    auto c = db_->NewCursor();
    ASSERT_TRUE(c->Seek(Key(k)).ok());
    while (c->Valid() && c->key() == Slice(Key(k))) {
      axis.emplace_back(c->ts(), c->value().ToString());
      ASSERT_TRUE(c->NextVersion().ok());
    }
    EXPECT_EQ(oracle, axis) << Key(k);
  }
}

TEST_F(ApiTest, CursorPrevWalksSnapshotBackward) {
  LoadWorkload();
  const Timestamp t = db_->Now() / 2;
  ReadOptions opts;
  opts.as_of = t;
  std::vector<std::string> forward;
  auto c = db_->NewCursor(opts);
  ASSERT_TRUE(c->SeekToFirst().ok());
  while (c->Valid()) {
    forward.push_back(c->key().ToString());
    ASSERT_TRUE(c->Next().ok());
  }
  ASSERT_FALSE(forward.empty());

  std::vector<std::string> backward;
  ASSERT_TRUE(c->Seek(forward.back()).ok());
  while (c->Valid()) {
    backward.push_back(c->key().ToString());
    ASSERT_TRUE(c->Prev().ok());
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST_F(ApiTest, CursorPrevRespectsRangeFloor) {
  LoadWorkload();
  auto c = db_->NewCursor();
  ASSERT_TRUE(c->SeekRange(Key(4), Key(9)).ok());
  std::vector<std::string> forward;
  while (c->Valid()) {
    forward.push_back(c->key().ToString());
    ASSERT_TRUE(c->Next().ok());
  }
  ASSERT_EQ(5u, forward.size());  // keys 4..8
  // Re-anchor at the range start, then walk off its front: Prev must not
  // cross the floor even though Key(3) exists.
  ASSERT_TRUE(c->SeekRange(Key(4), Key(9)).ok());
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(Key(4), c->key().ToString());
  ASSERT_TRUE(c->Prev().ok());
  EXPECT_FALSE(c->Valid());
}

TEST_F(ApiTest, CursorReverseScanMatchesReversedForward) {
  LoadWorkload();
  const Timestamp now = db_->Now();
  for (Timestamp t : {Timestamp(now / 3), Timestamp(now / 2), now}) {
    ReadOptions opts;
    opts.as_of = t;
    std::vector<std::tuple<std::string, Timestamp, std::string>> forward;
    auto c = db_->NewCursor(opts);
    ASSERT_TRUE(c->SeekToFirst().ok());
    while (c->Valid()) {
      forward.emplace_back(c->key().ToString(), c->ts(),
                           c->value().ToString());
      ASSERT_TRUE(c->Next().ok());
    }
    ASSERT_FALSE(forward.empty()) << "as of t=" << t;
    // One cursor, one seek to the last key, then a pure backward walk.
    std::vector<std::tuple<std::string, Timestamp, std::string>> backward;
    ASSERT_TRUE(c->Seek(std::get<0>(forward.back())).ok());
    while (c->Valid()) {
      backward.emplace_back(c->key().ToString(), c->ts(),
                            c->value().ToString());
      ASSERT_TRUE(c->Prev().ok());
    }
    std::reverse(backward.begin(), backward.end());
    EXPECT_EQ(forward, backward) << "as of t=" << t;
  }
}

TEST_F(ApiTest, CursorZigZagSwitchesDirectionAnywhere) {
  LoadWorkload();
  ReadOptions opts;
  opts.as_of = db_->Now();
  std::vector<std::string> keys;
  auto c = db_->NewCursor(opts);
  ASSERT_TRUE(c->SeekToFirst().ok());
  while (c->Valid()) {
    keys.push_back(c->key().ToString());
    ASSERT_TRUE(c->Next().ok());
  }
  ASSERT_GE(keys.size(), 6u);
  // Walk a forward-forward-forward-back-back pattern across the whole
  // keyspace, checking every position against the collected key list.
  ASSERT_TRUE(c->SeekToFirst().ok());
  size_t pos = 0;
  EXPECT_EQ(keys[pos], c->key().ToString());
  int steps = 0;
  while (pos + 3 < keys.size() && steps < 200) {
    for (int fwd = 0; fwd < 3; ++fwd) {
      ASSERT_TRUE(c->Next().ok());
      ++pos;
      ASSERT_TRUE(c->Valid());
      EXPECT_EQ(keys[pos], c->key().ToString()) << "after Next, pos " << pos;
    }
    for (int back = 0; back < 2; ++back) {
      ASSERT_TRUE(c->Prev().ok());
      --pos;
      ASSERT_TRUE(c->Valid());
      EXPECT_EQ(keys[pos], c->key().ToString()) << "after Prev, pos " << pos;
    }
    ++steps;
  }
  // Mixing in a version-axis excursion does not derail either direction.
  ASSERT_TRUE(c->NextVersion().ok());
  ASSERT_TRUE(c->Prev().ok());
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(keys[pos - 1], c->key().ToString());
}

TEST_F(ApiTest, CursorRevalidatesPinnedFramesAcrossForcedSplits) {
  LoadWorkload();
  const Timestamp t = db_->Now();
  // Oracle BEFORE the mid-scan churn: the as-of-t state is immutable, so
  // the scan must produce exactly this, splits or not.
  std::map<std::string, std::pair<Timestamp, std::string>> oracle;
  {
    ReadOptions at;
    at.as_of = t;
    auto it = db_->NewCursor(at);
    EXPECT_TRUE(it->SeekToFirst().ok());
    while (it->Valid()) {
      oracle[it->key().ToString()] = {it->ts(), it->value().ToString()};
      EXPECT_TRUE(it->Next().ok());
    }
  }
  ASSERT_FALSE(oracle.empty());

  const auto split_count = [&] {
    const auto& counters = db_->primary()->counters();
    return counters.data_time_splits + counters.data_key_splits +
           counters.index_time_splits + counters.index_key_splits;
  };

  // Forward scan, writing a burst of NEW versions (invisible at t) after
  // every emitted key to force splits under the cursor's pinned frames.
  const uint64_t splits_before = split_count();
  ReadOptions opts;
  opts.as_of = t;
  auto c = db_->NewCursor(opts);
  std::map<std::string, std::pair<Timestamp, std::string>> seen;
  ASSERT_TRUE(c->SeekToFirst().ok());
  int burst = 0;
  while (c->Valid()) {
    ASSERT_TRUE(
        seen.emplace(c->key().ToString(),
                     std::make_pair(c->ts(), c->value().ToString()))
            .second)
        << "duplicate key " << c->key().ToString();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          db_->Put(Key(burst % kKeys), "churn-" + std::to_string(burst))
              .ok());
      ++burst;
    }
    ASSERT_TRUE(c->Next().ok());
  }
  EXPECT_EQ(oracle, seen);
  EXPECT_GT(split_count(), splits_before)
      << "churn too small: no split ever invalidated a pinned frame";

  // Same discipline backward: churn between Prev steps.
  const std::string last = oracle.rbegin()->first;
  seen.clear();
  ASSERT_TRUE(c->Seek(last).ok());
  while (c->Valid()) {
    ASSERT_TRUE(
        seen.emplace(c->key().ToString(),
                     std::make_pair(c->ts(), c->value().ToString()))
            .second);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          db_->Put(Key(burst % kKeys), "churn-" + std::to_string(burst))
              .ok());
      ++burst;
    }
    ASSERT_TRUE(c->Prev().ok());
  }
  EXPECT_EQ(oracle, seen);
}

TEST_F(ApiTest, WriteBatchStampsPerLeafNotPerKey) {
  // Spread the keyspace over several leaves first.
  LoadWorkload();
  const auto& counters = db_->primary()->counters();
  WriteBatch batch;
  for (int k = 0; k < kKeys; ++k) {
    batch.Put(Key(k), "batched-" + std::to_string(k));
  }
  const uint64_t descents_before = counters.stamp_descents;
  const uint64_t stamps_before = counters.stamps;
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  const uint64_t descents = counters.stamp_descents - descents_before;
  EXPECT_EQ(static_cast<uint64_t>(kKeys), counters.stamps - stamps_before);
  // The workload's splits spread kKeys keys across a handful of leaves;
  // batched stamping must descend once per LEAF, not once per key.
  EXPECT_LT(descents, static_cast<uint64_t>(kKeys));
  EXPECT_GE(descents, 1u);
  // Equivalence with per-key commits: every key carries the batch's one
  // commit timestamp and the new value; the previous versions survive.
  for (int k = 0; k < kKeys; ++k) {
    std::string v;
    Timestamp ts = 0;
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(k), &v, &ts).ok());
    EXPECT_EQ("batched-" + std::to_string(k), v);
    EXPECT_EQ(cts, ts);
    ReadOptions before;
    before.as_of = cts - 1;
    ASSERT_TRUE(db_->Get(before, Key(k), &v, &ts).ok());
    EXPECT_EQ(std::get<2>(commits_[commits_.size() - kKeys + k]), v);
  }
}

TEST_F(ApiTest, CursorSeekTimestampJumpsTheTimeAxis) {
  LoadWorkload();
  // Pick the recorded commits of one key.
  std::vector<std::pair<Timestamp, std::string>> versions;
  for (const auto& [key, ts, value] : commits_) {
    if (key == Key(5)) versions.emplace_back(ts, value);
  }
  ASSERT_EQ(static_cast<size_t>(kRounds), versions.size());

  auto c = db_->NewCursor();
  ASSERT_TRUE(c->Seek(Key(5)).ok());
  ASSERT_TRUE(c->Valid());
  // Jump to the oldest, the middle, then back to the newest.
  for (size_t pick : {size_t(0), versions.size() / 2, versions.size() - 1}) {
    ASSERT_TRUE(c->SeekTimestamp(versions[pick].first).ok());
    ASSERT_TRUE(c->Valid());
    EXPECT_EQ(versions[pick].first, c->ts());
    EXPECT_EQ(versions[pick].second, c->value().ToString());
  }
  // Before the first version: invalid.
  ASSERT_TRUE(c->SeekTimestamp(versions.front().first - 1).ok());
  EXPECT_FALSE(c->Valid());
}

TEST_F(ApiTest, CursorKeyAxisResumesAfterVersionMoves) {
  LoadWorkload();
  auto c = db_->NewCursor();
  ASSERT_TRUE(c->SeekToFirst().ok());
  ASSERT_TRUE(c->Valid());
  const std::string first = c->key().ToString();
  // Drill a few versions into the past of the first key...
  ASSERT_TRUE(c->NextVersion().ok());
  ASSERT_TRUE(c->NextVersion().ok());
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(first, c->key().ToString());
  // ...then continue the key scan: Next() lands on the successor with its
  // as-of-time version.
  ASSERT_TRUE(c->Next().ok());
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(Key(1), c->key().ToString());
  std::string expect;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(1), &expect).ok());
  EXPECT_EQ(expect, c->value().ToString());
  // Running the version walk DRY clears Valid() but leaves the key axis
  // anchored: Next() still resumes the scan (the documented contract).
  while (c->Valid()) {
    ASSERT_TRUE(c->NextVersion().ok());
  }
  ASSERT_TRUE(c->Next().ok());
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(Key(2), c->key().ToString());
}

// ------------------------------------------------------------- path open

class PathApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/tsb_api_test." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(MultiVersionDB::Destroy(path_).ok());
  }
  void TearDown() override {
    EXPECT_TRUE(MultiVersionDB::Destroy(path_).ok());
  }

  DbOptions SmallPages(bool worm) {
    DbOptions opts;
    opts.tree.page_size = 512;
    opts.worm_historical = worm;
    opts.worm_sector_size = 512;
    return opts;
  }

  std::string path_;
};

TEST_F(PathApiTest, ReopenFromPathPersists) {
  const DbOptions opts = SmallPages(/*worm=*/true);
  std::vector<std::tuple<std::string, Timestamp, std::string>> commits;
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    for (int round = 0; round < 20; ++round) {
      for (int k = 0; k < 8; ++k) {
        Timestamp cts = 0;
        const std::string value = "r" + std::to_string(round);
        ASSERT_TRUE(db->Put(Key(k), value, &cts).ok());
        commits.emplace_back(Key(k), cts, value);
      }
    }
    ASSERT_GT(db->primary()->counters().records_migrated, 0u)
        << "workload too small to exercise the archive";
    // Destruction flushes; nothing else persisted explicitly.
  }
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  // Every recorded commit is still readable as of its own timestamp.
  for (const auto& [key, ts, value] : commits) {
    ReadOptions at;
    at.as_of = ts;
    std::string v;
    Timestamp got = 0;
    ASSERT_TRUE(db->Get(at, key, &v, &got).ok()) << key << "@" << ts;
    EXPECT_EQ(value, v);
    EXPECT_EQ(ts, got);
  }
  // The reopened DB keeps appending to the WORM archive without tripping
  // over burned sectors, and new commits land after the restored clock.
  Timestamp cts = 0;
  ASSERT_TRUE(db->Put(Key(0), "after-reopen", &cts).ok());
  EXPECT_GT(cts, std::get<1>(commits.back()));
  std::string v;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(0), &v).ok());
  EXPECT_EQ("after-reopen", v);
}

TEST_F(PathApiTest, PinnedGetServesMappedBytesFromPathDb) {
  const DbOptions opts = SmallPages(/*worm=*/false);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(db->Put(Key(k), "r" + std::to_string(round)).ok());
    }
  }
  ASSERT_GT(db->primary()->counters().records_migrated, 0u);
  ReadOptions deep;
  deep.as_of = db->Now() / 4;
  size_t pinned = 0;
  for (int k = 0; k < 8; ++k) {
    PinnableValue pv;
    if (db->Get(deep, Key(k), &pv).ok() && pv.pinned()) pinned++;
  }
  EXPECT_GT(pinned, 0u);
  EXPECT_GT(db->HistStats().mapped_bytes, 0u)
      << "path DB with mmap on should pin bytes straight from the mapping";
}

TEST_F(PathApiTest, OpenHonorsCreateIfMissing) {
  DbOptions opts = SmallPages(false);
  opts.create_if_missing = false;
  std::unique_ptr<MultiVersionDB> db;
  EXPECT_FALSE(MultiVersionDB::Open(path_, opts, &db).ok());
  opts.create_if_missing = true;
  EXPECT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
}

TEST_F(PathApiTest, SecondaryIndexPersistsUnderPath) {
  const DbOptions opts = SmallPages(false);
  // The long name outgrows any fixed line buffer a MANIFEST reader
  // might use; its catalog line must survive the reopen whole.
  for (const std::string& index : {std::string("by_owner"),
                                   std::string(200, 'n')}) {
    SCOPED_TRACE("index name of " + std::to_string(index.size()) + " bytes");
    ASSERT_TRUE(MultiVersionDB::Destroy(path_).ok());
    Timestamp first_owner_time = 0;
    {
      std::unique_ptr<MultiVersionDB> db;
      ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
      ASSERT_TRUE(db->CreateSecondaryIndex(index, ExtractOwner).ok());
      ASSERT_TRUE(
          db->Put("acct-1", "owner=ada;balance=1", &first_owner_time).ok());
      ASSERT_TRUE(db->Put("acct-1", "owner=bob;balance=1").ok());
    }
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    // The MANIFEST catalog re-attaches the index under its whole name.
    EXPECT_NE(db->index(index), nullptr);
    // Indexes are schema: re-register after reopen; the DATA persists.
    ASSERT_TRUE(db->CreateSecondaryIndex(index, ExtractOwner).ok());
    ReadOptions then;
    then.as_of = first_owner_time;
    std::vector<std::pair<std::string, std::string>> kvs;
    ASSERT_TRUE(db->FindBySecondary(then, index, "ada", &kvs).ok());
    ASSERT_EQ(1u, kvs.size());
    EXPECT_EQ("acct-1", kvs[0].first);
    ASSERT_TRUE(db->FindBySecondary(ReadOptions(), index, "ada", &kvs).ok());
    EXPECT_TRUE(kvs.empty());  // ada no longer owns it now
    // Every cataloged index has its extractor again, so writes go on.
    Status put = db->Put("acct-2", "owner=cy;balance=2");
    EXPECT_TRUE(put.ok()) << put.ToString();
  }
}

TEST_F(PathApiTest, ManifestGuardsDeviceGeometryAcrossReopen) {
  const DbOptions opts = SmallPages(/*worm=*/true);
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    ASSERT_TRUE(db->Put(Key(0), "v").ok());
  }
  // Mismatched page size: refused before any device file is touched.
  {
    DbOptions bad = opts;
    bad.tree.page_size = 1024;
    std::unique_ptr<MultiVersionDB> db;
    const Status s = MultiVersionDB::Open(path_, bad, &db);
    ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.ToString().find("page_size"), std::string::npos);
  }
  // Mismatched WORM sector grid.
  {
    DbOptions bad = opts;
    bad.worm_sector_size = 1024;
    std::unique_ptr<MultiVersionDB> db;
    EXPECT_TRUE(MultiVersionDB::Open(path_, bad, &db).IsInvalidArgument());
  }
  // Erasable reopen of a write-once database.
  {
    DbOptions bad = opts;
    bad.worm_historical = false;
    std::unique_ptr<MultiVersionDB> db;
    EXPECT_TRUE(MultiVersionDB::Open(path_, bad, &db).IsInvalidArgument());
  }
  // enable_mmap is a read-path choice, not geometry: toggling it reopens
  // fine (and the manifest record follows it).
  {
    DbOptions toggled = opts;
    toggled.enable_mmap = !opts.enable_mmap;
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, toggled, &db).ok());
    std::string v;
    EXPECT_TRUE(db->Get(ReadOptions(), Key(0), &v).ok());
    EXPECT_EQ("v", v);
  }
  // The matching geometry still opens, and the data survived the refusals.
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  std::string v;
  EXPECT_TRUE(db->Get(ReadOptions(), Key(0), &v).ok());
  EXPECT_EQ("v", v);
}

TEST_F(PathApiTest, ManifestWithoutDevicesDoesNotLockGeometry) {
  // A first Open that records its geometry but never produces device
  // files (simulated by deleting them) guards nothing: a retry with
  // different options must succeed and re-record.
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, SmallPages(false), &db).ok());
  }
  ASSERT_EQ(0, ::unlink((path_ + "/current.tsb").c_str()));
  ASSERT_EQ(0, ::unlink((path_ + "/history.tsb").c_str()));
  DbOptions other = SmallPages(false);
  other.tree.page_size = 1024;
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, other, &db).ok());
  ASSERT_TRUE(db->Put(Key(0), "fresh").ok());
  db.reset();
  // ...and the re-recorded geometry is now the enforced one.
  std::unique_ptr<MultiVersionDB> again;
  EXPECT_TRUE(
      MultiVersionDB::Open(path_, SmallPages(false), &again).IsInvalidArgument());
  EXPECT_TRUE(MultiVersionDB::Open(path_, other, &again).ok());
}

// ------------------------------------------------------------- worm file

TEST(WormFileDeviceTest, EnforcesBurnAcrossReopen) {
  const std::string file =
      "/tmp/tsb_worm_file_test." + std::to_string(::getpid());
  ::unlink(file.c_str());
  {
    WormFileDevice* raw = nullptr;
    ASSERT_TRUE(WormFileDevice::Open(file, &raw, 512).ok());
    std::unique_ptr<WormFileDevice> dev(raw);
    ASSERT_TRUE(dev->Write(0, "first sector payload").ok());
    // The covered sector is burned: rewriting it fails, as does a write
    // into its unfilled residue.
    EXPECT_TRUE(dev->Write(0, "rewrite").IsWriteOnceViolation());
    EXPECT_TRUE(dev->Write(100, "residue").IsWriteOnceViolation());
    // The next sector is fresh.
    ASSERT_TRUE(dev->Write(512, "second sector").ok());
    EXPECT_TRUE(dev->Truncate(0).IsNotSupported());
    char buf[20];
    ASSERT_TRUE(dev->Read(0, 20, buf).ok());
    EXPECT_EQ(0, memcmp(buf, "first sector payload", 20));
  }
  // Burn state reconstructs from the file size on reopen.
  WormFileDevice* raw = nullptr;
  ASSERT_TRUE(WormFileDevice::Open(file, &raw, 512).ok());
  std::unique_ptr<WormFileDevice> dev(raw);
  EXPECT_EQ(2u, dev->sectors_burned());
  EXPECT_TRUE(dev->Write(0, "x").IsWriteOnceViolation());
  EXPECT_TRUE(dev->Write(512, "x").IsWriteOnceViolation());
  EXPECT_TRUE(dev->Write(1024, "third sector").ok());
  // Mapped zero-copy reads work on the WORM file.
  EXPECT_TRUE(dev->SupportsMappedReads());
  MappedRead m;
  ASSERT_TRUE(dev->ReadMapped(0, 20, &m).ok());
  EXPECT_EQ(0, memcmp(m.data.data(), "first sector payload", 20));
  ::unlink(file.c_str());
}

}  // namespace
}  // namespace db
}  // namespace tsb
