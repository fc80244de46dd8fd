// Range query tests: bounded snapshot scans (SeekRange) and the
// history-range query (all versions written in a key range during a time
// window, answered with the cursor), validated against an oracle across
// heavy splitting/migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"
#include "tsb/tsb_tree.h"

namespace tsb {
namespace tsb_tree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

struct VersionRecord {
  std::string key;
  Timestamp ts;
  std::string value;
};

// Every committed version WRITTEN during [t_lo, t_hi) whose key lies in
// [key_lo, key_hi) (key_hi empty = unbounded), in (key, ts) order. A
// cursor at t_hi - 1 visits every key alive before t_hi once, and
// NextVersion walks that key's versions back while they reach t_lo.
Status ScanHistoryRange(TsbTree* tree, const Slice& key_lo,
                        const Slice& key_hi, Timestamp t_lo, Timestamp t_hi,
                        std::vector<VersionRecord>* out) {
  out->clear();
  if (t_lo >= t_hi) return Status::OK();
  auto c = tree->NewCursor({.as_of = t_hi - 1});
  Status s = key_hi.empty() ? c->Seek(key_lo) : c->SeekRange(key_lo, key_hi);
  while (s.ok() && c->Valid()) {
    const size_t first = out->size();
    for (; s.ok() && c->Valid() && c->ts() >= t_lo; s = c->NextVersion()) {
      out->push_back({c->key().ToString(), c->ts(), c->value().ToString()});
    }
    std::reverse(out->begin() + first, out->end());
    if (s.ok()) s = c->Next();
  }
  return s;
}

class TsbRangeTest : public ::testing::Test {
 protected:
  void Open(SplitPolicyConfig policy = SplitPolicyConfig{}) {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = 512;
    opts.policy = policy;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
};

TEST_F(TsbRangeTest, SeekRangeBasic) {
  Open();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), "v" + std::to_string(i), i + 1).ok());
  }
  auto it = tree_->NewCursor({.as_of = kMaxCommittedTs});
  ASSERT_TRUE(it->SeekRange(Key(10), Key(20)).ok());
  int expect = 10;
  while (it->Valid()) {
    EXPECT_EQ(Key(expect), it->key().ToString());
    ++expect;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(20, expect);  // [10, 20) exactly
}

TEST_F(TsbRangeTest, SeekRangeEmptyAndDegenerate) {
  Open();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i * 2), "v", i + 1).ok());
  }
  auto it = tree_->NewCursor({.as_of = kMaxCommittedTs});
  // Range between existing keys.
  ASSERT_TRUE(it->SeekRange(Key(3), Key(4)).ok());
  EXPECT_FALSE(it->Valid());
  // Empty range (lo == hi).
  ASSERT_TRUE(it->SeekRange(Key(4), Key(4)).ok());
  EXPECT_FALSE(it->Valid());
  // Range past the end.
  ASSERT_TRUE(it->SeekRange(Key(100), Key(200)).ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(TsbRangeTest, SeekRangeAcrossSplitsMatchesOracle) {
  SplitPolicyConfig cfg;
  cfg.key_split_threshold = 0.4;
  Open(cfg);
  Random rnd(33);
  std::map<std::string, std::map<Timestamp, std::string>> model;
  Timestamp ts = 0;
  for (int i = 0; i < 3000; ++i) {
    const int k = static_cast<int>(rnd.Uniform(200));
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(tree_->Put(Key(k), v, ++ts).ok());
    model[Key(k)][ts] = v;
  }
  for (int probe = 0; probe < 30; ++probe) {
    const int lo = static_cast<int>(rnd.Uniform(190));
    const int hi = lo + 1 + static_cast<int>(rnd.Uniform(30));
    const Timestamp t = 1 + rnd.Uniform(ts);
    auto it = tree_->NewCursor({.as_of = t});
    ASSERT_TRUE(it->SeekRange(Key(lo), Key(hi)).ok());
    for (auto& [k, versions] : model) {
      if (k < Key(lo) || k >= Key(hi)) continue;
      auto vit = versions.upper_bound(t);
      if (vit == versions.begin()) continue;  // not yet born at t
      ASSERT_TRUE(it->Valid()) << "range ended early before " << k;
      EXPECT_EQ(k, it->key().ToString());
      EXPECT_EQ(std::prev(vit)->second, it->value().ToString());
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_FALSE(it->Valid()) << "extra keys in range scan";
  }
}

TEST_F(TsbRangeTest, HistoryRangeBasic) {
  Open();
  // k1 gets versions at 1, 5, 9; k2 at 2, 6; k3 at 3.
  ASSERT_TRUE(tree_->Put(Key(1), "a1", 1).ok());
  ASSERT_TRUE(tree_->Put(Key(2), "b1", 2).ok());
  ASSERT_TRUE(tree_->Put(Key(3), "c1", 3).ok());
  ASSERT_TRUE(tree_->Put(Key(1), "a2", 5).ok());
  ASSERT_TRUE(tree_->Put(Key(2), "b2", 6).ok());
  ASSERT_TRUE(tree_->Put(Key(1), "a3", 9).ok());

  std::vector<VersionRecord> out;
  // Window [2, 6): versions b1@2, c1@3, a2@5.
  ASSERT_TRUE(ScanHistoryRange(tree_.get(), Key(1), Key(4), 2, 6, &out).ok());
  ASSERT_EQ(3u, out.size());
  EXPECT_EQ(Key(1), out[0].key);
  EXPECT_EQ(5u, out[0].ts);
  EXPECT_EQ("a2", out[0].value);
  EXPECT_EQ(Key(2), out[1].key);
  EXPECT_EQ(2u, out[1].ts);
  EXPECT_EQ(Key(3), out[2].key);
  // Key subrange.
  ASSERT_TRUE(ScanHistoryRange(tree_.get(), Key(2), Key(3), 0, 100, &out).ok());
  ASSERT_EQ(2u, out.size());
  EXPECT_EQ("b1", out[0].value);
  EXPECT_EQ("b2", out[1].value);
  // Unbounded key range.
  ASSERT_TRUE(
      ScanHistoryRange(tree_.get(), Slice(), Slice(), 0, 100, &out).ok());
  EXPECT_EQ(6u, out.size());
  // Empty window.
  ASSERT_TRUE(ScanHistoryRange(tree_.get(), Slice(), Slice(), 7, 7, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(TsbRangeTest, HistoryRangeDedupesAcrossMigration) {
  // Heavy updates with current-time splits create redundant copies and a
  // deep DAG; the scan must emit each (key, ts) exactly once.
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;
  cfg.time_mode = SplitTimeMode::kCurrentTime;
  Open(cfg);
  Random rnd(44);
  std::map<std::string, std::map<Timestamp, std::string>> model;
  Timestamp ts = 0;
  for (int i = 0; i < 2500; ++i) {
    const int k = static_cast<int>(rnd.Uniform(40));
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(tree_->Put(Key(k), v, ++ts).ok());
    model[Key(k)][ts] = v;
  }
  ASSERT_GT(tree_->counters().redundant_record_copies, 0u);

  for (int probe = 0; probe < 15; ++probe) {
    const int lo = static_cast<int>(rnd.Uniform(35));
    const int hi = lo + 1 + static_cast<int>(rnd.Uniform(8));
    Timestamp wlo = 1 + rnd.Uniform(ts);
    Timestamp whi = wlo + 1 + rnd.Uniform(ts / 4);
    std::vector<VersionRecord> out;
    ASSERT_TRUE(
        ScanHistoryRange(tree_.get(), Key(lo), Key(hi), wlo, whi, &out).ok());
    // Oracle.
    std::vector<VersionRecord> expect;
    for (auto& [k, versions] : model) {
      if (k < Key(lo) || k >= Key(hi)) continue;
      for (auto& [vts, val] : versions) {
        if (vts >= wlo && vts < whi) {
          expect.push_back({k, vts, val});
        }
      }
    }
    ASSERT_EQ(expect.size(), out.size()) << "window [" << wlo << "," << whi
                                         << ") keys [" << lo << "," << hi << ")";
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].key, out[i].key);
      EXPECT_EQ(expect[i].ts, out[i].ts);
      EXPECT_EQ(expect[i].value, out[i].value);
    }
  }
}

TEST_F(TsbRangeTest, HistoryRangeSkipsUncommitted) {
  Open();
  ASSERT_TRUE(tree_->Put(Key(1), "real", 1).ok());
  ASSERT_TRUE(tree_->PutUncommitted(Key(1), "dirty", 9).ok());
  std::vector<VersionRecord> out;
  ASSERT_TRUE(
      ScanHistoryRange(tree_.get(), Slice(), Slice(), 0, 1000, &out).ok());
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ("real", out[0].value);
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
