// Temporal query tests: Fig 1 stepwise-constant semantics, snapshot
// iteration at arbitrary times (with migrated history and straddler
// duplication — no double or missing emission), history iteration, seeks.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/random.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"
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

class TsbQueryTest : public ::testing::Test {
 protected:
  void Open(SplitPolicyConfig policy = SplitPolicyConfig{},
            uint32_t page_size = 512) {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = page_size;
    opts.buffer_pool_frames = 64;
    opts.policy = policy;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
};

// Fig 1: an account balance is stepwise constant between transactions.
TEST_F(TsbQueryTest, Fig1StepwiseConstant) {
  Open();
  // The figure's shape: balance changes at a few transaction times.
  ASSERT_TRUE(tree_->Put("account", "50", 2).ok());
  ASSERT_TRUE(tree_->Put("account", "120", 5).ok());
  ASSERT_TRUE(tree_->Put("account", "80", 9).ok());
  struct Probe {
    Timestamp t;
    const char* expect;  // nullptr = NotFound
  } probes[] = {
      {1, nullptr}, {2, "50"},  {3, "50"},  {4, "50"},  {5, "120"},
      {8, "120"},   {9, "80"},  {100, "80"},
  };
  for (const Probe& p : probes) {
    std::string v;
    Status s = tree_->Get({.as_of = p.t}, "account", &v);
    if (p.expect == nullptr) {
      EXPECT_TRUE(s.IsNotFound()) << "t=" << p.t;
    } else {
      ASSERT_TRUE(s.ok()) << "t=" << p.t;
      EXPECT_EQ(p.expect, v) << "t=" << p.t;
    }
  }
}

TEST_F(TsbQueryTest, SnapshotCursorEmptyTree) {
  Open();
  auto it = tree_->NewCursor({.as_of = 10});
  ASSERT_TRUE(it->SeekToFirst().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(TsbQueryTest, SnapshotCursorSmall) {
  Open();
  ASSERT_TRUE(tree_->Put("b", "2", 1).ok());
  ASSERT_TRUE(tree_->Put("a", "1", 2).ok());
  ASSERT_TRUE(tree_->Put("c", "3", 3).ok());
  ASSERT_TRUE(tree_->Put("b", "2new", 4).ok());
  // Snapshot at 3: a=1, b=2 (old), c=3.
  auto it = tree_->NewCursor({.as_of = 3});
  ASSERT_TRUE(it->SeekToFirst().ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("a", it->key().ToString());
  EXPECT_EQ("1", it->value().ToString());
  ASSERT_TRUE(it->Next().ok());
  EXPECT_EQ("b", it->key().ToString());
  EXPECT_EQ("2", it->value().ToString());
  EXPECT_EQ(1u, it->ts());
  ASSERT_TRUE(it->Next().ok());
  EXPECT_EQ("c", it->key().ToString());
  ASSERT_TRUE(it->Next().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(TsbQueryTest, SnapshotCursorSkipsUncommitted) {
  Open();
  ASSERT_TRUE(tree_->Put("a", "1", 1).ok());
  ASSERT_TRUE(tree_->PutUncommitted("b", "dirty", 7).ok());
  auto it = tree_->NewCursor({.as_of = kMaxCommittedTs});
  ASSERT_TRUE(it->SeekToFirst().ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("a", it->key().ToString());
  ASSERT_TRUE(it->Next().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(TsbQueryTest, SnapshotCursorSeek) {
  Open();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i * 2), "v", i + 1).ok());
  }
  auto it = tree_->NewCursor({.as_of = kMaxCommittedTs});
  ASSERT_TRUE(it->Seek(Key(25)).ok());  // absent; lands on 26
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(Key(26), it->key().ToString());
  ASSERT_TRUE(it->Seek(Key(98)).ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(Key(98), it->key().ToString());
  ASSERT_TRUE(it->Next().ok());
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(it->Seek(Key(99)).ok());
  EXPECT_FALSE(it->Valid());
}

// The load-bearing test: snapshots across a heavily split tree (with
// migrated nodes and duplicated straddler references) must equal the
// oracle exactly — no dup, no loss, key order.
TEST_F(TsbQueryTest, SnapshotMatchesOracleAcrossEras) {
  SplitPolicyConfig cfg;
  cfg.key_split_threshold = 0.4;
  cfg.time_mode = SplitTimeMode::kCurrentTime;  // maximize redundancy
  Open(cfg);
  Random rnd(71);
  std::map<std::string, std::map<Timestamp, std::string>> model;
  Timestamp ts = 0;
  for (int i = 0; i < 4000; ++i) {
    const int k = static_cast<int>(rnd.Uniform(120));
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(tree_->Put(Key(k), v, ++ts).ok());
    model[Key(k)][ts] = v;
  }
  ASSERT_GT(tree_->counters().data_time_splits, 0u);
  ASSERT_GT(tree_->counters().data_key_splits, 0u);

  for (Timestamp snap_t : {ts / 10, ts / 3, ts / 2, ts - 1, ts}) {
    // Oracle snapshot.
    std::map<std::string, std::pair<Timestamp, std::string>> expect;
    for (const auto& [k, versions] : model) {
      auto it = versions.upper_bound(snap_t);
      if (it != versions.begin()) {
        --it;
        expect[k] = {it->first, it->second};
      }
    }
    // Tree snapshot.
    auto it = tree_->NewCursor({.as_of = snap_t});
    ASSERT_TRUE(it->SeekToFirst().ok());
    auto eit = expect.begin();
    size_t n = 0;
    while (it->Valid()) {
      ASSERT_NE(expect.end(), eit) << "extra key " << it->key().ToString()
                                   << " at snap " << snap_t;
      EXPECT_EQ(eit->first, it->key().ToString()) << "snap " << snap_t;
      EXPECT_EQ(eit->second.first, it->ts());
      EXPECT_EQ(eit->second.second, it->value().ToString());
      ++eit;
      ++n;
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_EQ(expect.end(), eit) << "missing keys at snap " << snap_t
                                 << " got " << n;
  }
}

TEST_F(TsbQueryTest, VersionAxisFullChain) {
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;
  Open(cfg);
  const int kVersions = 120;  // enough to migrate several nodes
  for (int i = 1; i <= kVersions; ++i) {
    ASSERT_TRUE(tree_->Put("acct", "v" + std::to_string(i),
                           static_cast<Timestamp>(i))
                    .ok());
  }
  ASSERT_GT(tree_->counters().data_time_splits, 0u);
  auto it = tree_->NewCursor({});
  ASSERT_TRUE(it->Seek("acct").ok());
  int expect = kVersions;
  while (it->Valid()) {
    EXPECT_EQ(static_cast<Timestamp>(expect), it->ts());
    EXPECT_EQ("v" + std::to_string(expect), it->value().ToString());
    --expect;
    ASSERT_TRUE(it->NextVersion().ok());
  }
  EXPECT_EQ(0, expect);  // all versions seen exactly once
}

TEST_F(TsbQueryTest, VersionAxisAbsentKey) {
  Open();
  ASSERT_TRUE(tree_->Put("a", "1", 1).ok());
  auto it = tree_->NewCursor({});
  ASSERT_TRUE(it->Seek("zzz").ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(TsbQueryTest, VersionAxisSkipsUncommitted) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "one", 1).ok());
  ASSERT_TRUE(tree_->Put("k", "two", 5).ok());
  ASSERT_TRUE(tree_->PutUncommitted("k", "dirty", 3).ok());
  auto it = tree_->NewCursor({});
  ASSERT_TRUE(it->Seek("k").ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("two", it->value().ToString());
  ASSERT_TRUE(it->NextVersion().ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("one", it->value().ToString());
  ASSERT_TRUE(it->NextVersion().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(TsbQueryTest, SnapshotAtTimeZeroIsEmpty) {
  Open();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "v", i + 1).ok());
  }
  auto it = tree_->NewCursor({.as_of = 0});
  ASSERT_TRUE(it->SeekToFirst().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(TsbQueryTest, SnapshotCountsGrowMonotonically) {
  // As T grows, a non-deleting database's snapshot can only gain keys.
  Open();
  Random rnd(5);
  Timestamp ts = 0;
  for (int i = 0; i < 2000; ++i) {
    const int k = static_cast<int>(rnd.Uniform(200));
    ASSERT_TRUE(tree_->Put(Key(k), "x", ++ts).ok());
  }
  size_t prev = 0;
  for (Timestamp t : {ts / 8, ts / 4, ts / 2, ts}) {
    auto it = tree_->NewCursor({.as_of = t});
    ASSERT_TRUE(it->SeekToFirst().ok());
    size_t n = 0;
    std::string last;
    while (it->Valid()) {
      // Keys strictly ascending — catches duplicates from straddlers.
      ASSERT_LT(last, it->key().ToString());
      last = it->key().ToString();
      ++n;
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_GE(n, prev);
    prev = n;
  }
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
