// Data-node split tests: Fig 5 (pure key split, timestamp inheritance),
// Fig 6 (time split with chosen time; redundancy depends on the choice),
// the TIME-SPLIT RULE itself, and the split policies of sections 3.2-3.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"
#include "tsb/split_policy.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"
#include "txn/txn_manager.h"

namespace tsb {
namespace tsb_tree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

DataEntry E(const std::string& k, Timestamp ts, const std::string& v = "v") {
  return DataEntry{k, ts, kNoTxn, v};
}
DataEntry U(const std::string& k, TxnId txn, const std::string& v = "v") {
  return DataEntry{k, kUncommittedTs, txn, v};
}

// ---------------- unit: ComputeDataNodeStats ----------------

TEST(DataNodeStatsTest, AllInsertsAreCurrent) {
  std::vector<DataEntry> es = {E("a", 1), E("b", 2), E("c", 3)};
  DataNodeStats s = ComputeDataNodeStats(ViewsOf(es));
  EXPECT_EQ(3u, s.total_entries);
  EXPECT_EQ(3u, s.distinct_keys);
  EXPECT_EQ(3u, s.current_entries);
  EXPECT_FALSE(s.has_superseded_versions());
}

TEST(DataNodeStatsTest, UpdatesCreateHistory) {
  std::vector<DataEntry> es = {E("a", 1), E("a", 3), E("a", 5), E("b", 2)};
  DataNodeStats s = ComputeDataNodeStats(ViewsOf(es));
  EXPECT_EQ(4u, s.total_entries);
  EXPECT_EQ(2u, s.distinct_keys);
  EXPECT_EQ(2u, s.current_entries);  // a@5 and b@2
  EXPECT_TRUE(s.has_superseded_versions());
}

TEST(DataNodeStatsTest, UncommittedCountsAsCurrent) {
  std::vector<DataEntry> es = {E("a", 1), U("a", 9), E("b", 2)};
  DataNodeStats s = ComputeDataNodeStats(ViewsOf(es));
  EXPECT_EQ(3u, s.current_entries);  // a@1 (latest committed), a-dirty, b@2
  EXPECT_EQ(1u, s.uncommitted_entries);
  EXPECT_FALSE(s.has_superseded_versions());
}

// ---------------- unit: SplitPolicy decisions ----------------

TEST(SplitPolicyTest, BoundaryAllCurrentForcesKeySplit) {
  // Section 3.2: only insertions -> time splitting is useless.
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;  // even the time-loving one
  SplitPolicy policy(cfg);
  std::vector<DataEntry> es = {E("a", 1), E("b", 2), E("c", 3)};
  EXPECT_EQ(SplitKind::kKeySplit,
            policy.DecideDataSplit(ComputeDataNodeStats(ViewsOf(es)), 4096));
}

TEST(SplitPolicyTest, BoundarySingleKeyForcesTimeSplit) {
  // Section 3.2: a single key -> keyspace splitting is useless.
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kThreshold;
  cfg.key_split_threshold = 0.0;  // would otherwise always key split
  SplitPolicy policy(cfg);
  std::vector<DataEntry> es = {E("a", 1), E("a", 2), E("a", 3)};
  EXPECT_EQ(SplitKind::kTimeSplit,
            policy.DecideDataSplit(ComputeDataNodeStats(ViewsOf(es)), 4096));
}

TEST(SplitPolicyTest, ThresholdSwitchesOnCurrentFraction) {
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kThreshold;
  cfg.key_split_threshold = 0.5;
  SplitPolicy policy(cfg);
  // 2 keys, 6 versions: current fraction = 2/6 < 0.5 -> time split.
  std::vector<DataEntry> history_heavy = {E("a", 1), E("a", 2), E("a", 3),
                                          E("b", 4), E("b", 5), E("b", 6)};
  EXPECT_EQ(SplitKind::kTimeSplit,
            policy.DecideDataSplit(
                ComputeDataNodeStats(ViewsOf(history_heavy)), 4096));
  // 3 keys, 4 versions: current fraction = 3/4 >= 0.5 -> key split.
  std::vector<DataEntry> current_heavy = {E("a", 1), E("a", 2), E("b", 3),
                                          E("c", 4)};
  EXPECT_EQ(SplitKind::kKeySplit,
            policy.DecideDataSplit(
                ComputeDataNodeStats(ViewsOf(current_heavy)), 4096));
}

TEST(SplitPolicyTest, CostBasedRespondsToPriceRatio) {
  std::vector<DataEntry> es = {E("a", 1), E("a", 2), E("a", 3),
                               E("b", 4), E("b", 5), E("c", 6)};
  DataNodeStats stats = ComputeDataNodeStats(ViewsOf(es));
  // Expensive optical storage: migrating history is costly -> key split.
  SplitPolicyConfig pricey;
  pricey.kind_policy = SplitKindPolicy::kCostBased;
  pricey.cost_magnetic = 1.0;
  pricey.cost_optical = 1e6;
  EXPECT_EQ(SplitKind::kKeySplit,
            SplitPolicy(pricey).DecideDataSplit(stats, 4096));
  // Nearly free optical storage -> time split.
  SplitPolicyConfig cheap;
  cheap.kind_policy = SplitKindPolicy::kCostBased;
  cheap.cost_magnetic = 1.0;
  cheap.cost_optical = 1e-6;
  EXPECT_EQ(SplitKind::kTimeSplit,
            SplitPolicy(cheap).DecideDataSplit(stats, 4096));
}

TEST(SplitPolicyTest, RedundantAtMatchesRule3) {
  // Fig 6's example shape: versions at 1, 2, 4 for distinct keys plus an
  // updated key.
  std::vector<DataEntry> es = {E("joe", 1), E("mary", 4), E("pete", 2)};
  // T=4: joe@1 and pete@2 persist (their latest <= 4 predates 4); mary@4
  // satisfies rule 3 via rule 2 (ts == T) -> 2 redundant.
  EXPECT_EQ(2u, SplitPolicy::RedundantAt(ViewsOf(es), 4));
  // T=5: all three latest versions predate 5 -> 3 redundant.
  EXPECT_EQ(3u, SplitPolicy::RedundantAt(ViewsOf(es), 5));
  // T=1: nothing precedes 1 except nothing; joe@1 == T -> 0 redundant.
  EXPECT_EQ(0u, SplitPolicy::RedundantAt(ViewsOf(es), 1));
}

TEST(SplitPolicyTest, RestartIntervalAdaptsToNodeShape) {
  // Short keys, few versions per key: the default interval stands.
  EXPECT_EQ(16u, SplitPolicy::ChooseRestartInterval(100, 50, 100 * 8));
  // Long keys (avg >= 48 bytes): small blocks bound per-probe decodes.
  EXPECT_EQ(4u, SplitPolicy::ChooseRestartInterval(100, 100, 100 * 64));
  // Dense version runs (>= 4 versions/key): large blocks compress better.
  EXPECT_EQ(64u, SplitPolicy::ChooseRestartInterval(100, 10, 100 * 8));
  // Degenerate inputs get the default.
  EXPECT_EQ(16u, SplitPolicy::ChooseRestartInterval(0, 0, 0));
}

TEST(SplitPolicyTest, ChooseSplitTimeCurrentTime) {
  SplitPolicyConfig cfg;
  cfg.time_mode = SplitTimeMode::kCurrentTime;
  SplitPolicy policy(cfg);
  std::vector<DataEntry> es = {E("a", 1), E("a", 5), E("b", 3)};
  EXPECT_EQ(9u, policy.ChooseSplitTime(ViewsOf(es), /*t_lo=*/0, /*now=*/9));
}

TEST(SplitPolicyTest, ChooseSplitTimeLastUpdate) {
  SplitPolicyConfig cfg;
  cfg.time_mode = SplitTimeMode::kLastUpdate;
  SplitPolicy policy(cfg);
  // a updated at 5 (supersedes a@1); later pure inserts c@7, d@8.
  std::vector<DataEntry> es = {E("a", 1), E("a", 5), E("c", 7), E("d", 8)};
  // T = 5: the trailing inserts stay out of the historical node.
  EXPECT_EQ(5u, policy.ChooseSplitTime(ViewsOf(es), 0, 9));
}

TEST(SplitPolicyTest, ChooseSplitTimeLastUpdateFallsBackToNow) {
  SplitPolicyConfig cfg;
  cfg.time_mode = SplitTimeMode::kLastUpdate;
  SplitPolicy policy(cfg);
  std::vector<DataEntry> es = {E("a", 1), E("b", 2)};  // no updates
  EXPECT_EQ(9u, policy.ChooseSplitTime(ViewsOf(es), 0, 9));
}

TEST(SplitPolicyTest, ChooseSplitTimeMinRedundancy) {
  SplitPolicyConfig cfg;
  cfg.time_mode = SplitTimeMode::kMinRedundancy;
  SplitPolicy policy(cfg);
  // Fig 6: choosing T=4 gives no redundancy, T=5 duplicates "mary".
  // Keys: joe@1 pete@2 mary@4, all superseded by updates at 6,7,8.
  std::vector<DataEntry> es = {E("joe", 1),  E("joe", 6), E("mary", 4),
                               E("mary", 8), E("pete", 2), E("pete", 7)};
  const Timestamp t = policy.ChooseSplitTime(ViewsOf(es), 0, 9);
  // The chosen T must reach the minimum redundancy over the VALID range:
  // T > min committed ts (1), so the sweep starts at 2.
  size_t best = SIZE_MAX;
  for (Timestamp c = 2; c <= 9; ++c) {
    best = std::min(best, SplitPolicy::RedundantAt(ViewsOf(es), c));
  }
  EXPECT_EQ(best, SplitPolicy::RedundantAt(ViewsOf(es), t));
  EXPECT_GT(t, 1u);  // never a no-op split time
}

TEST(SplitPolicyTest, ChooseSplitTimeRespectsLowerBound) {
  SplitPolicyConfig cfg;
  cfg.time_mode = SplitTimeMode::kLastUpdate;
  SplitPolicy policy(cfg);
  std::vector<DataEntry> es = {E("a", 4), E("a", 5)};
  // t_lo = 5: T must exceed it.
  const Timestamp t = policy.ChooseSplitTime(ViewsOf(es), 5, 9);
  EXPECT_GT(t, 5u);
}

// ---------------- integration: splits in a live tree ----------------

class TsbSplitTest : public ::testing::Test {
 protected:
  void Open(SplitPolicyConfig policy, uint32_t page_size = 512) {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = page_size;
    opts.buffer_pool_frames = 64;
    opts.policy = policy;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
  }

  Status Check() { return TreeChecker(tree_.get()).Check(); }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
};

// Fig 5: a node filled purely by insertion key-splits; the new index entry
// inherits the previous entry's timestamp (t_lo) rather than "now".
TEST_F(TsbSplitTest, Fig5PureKeySplitInheritsTimestamp) {
  SplitPolicyConfig cfg;  // threshold policy; all-current forces key split
  Open(cfg);
  int i = 0;
  Timestamp ts = 0;
  while (tree_->counters().data_key_splits == 0) {
    ASSERT_TRUE(tree_->Put(Key(i++), std::string(40, 'v'), ++ts).ok());
    ASSERT_LT(i, 200);
  }
  EXPECT_EQ(0u, tree_->counters().data_time_splits);
  EXPECT_EQ(0u, tree_->counters().records_migrated);  // nothing migrated
  // Inspect the root: both children's entries must carry t_lo = 0 (the
  // original node's time), NOT the split time.
  DecodedNode root;
  ASSERT_TRUE(tree_->ReadNode(tree_->root(), &root).ok());
  ASSERT_EQ(2u, root.index.size());
  EXPECT_EQ(root.index[0].t_lo, root.index[1].t_lo);
  EXPECT_EQ(kMinTimestamp, root.index[1].t_lo);
  EXPECT_TRUE(root.index[0].current_child());
  EXPECT_TRUE(root.index[1].current_child());
  // The split key separates them.
  EXPECT_EQ(root.index[0].key_hi, root.index[1].key_lo);
  EXPECT_TRUE(Check().ok());
}

// Fig 6, T=4 variant: split time chosen at the last update -> in this
// shape no redundancy is created.
TEST_F(TsbSplitTest, Fig6TimeSplitAtLastUpdateNoRedundancy) {
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;  // always time split
  cfg.time_mode = SplitTimeMode::kLastUpdate;
  Open(cfg);
  // One key repeatedly updated, then fill to burst: every committed version
  // of "a" except the last is historical; split at the last update leaves
  // exactly the current version in the current node.
  Timestamp ts = 0;
  while (tree_->counters().data_time_splits == 0) {
    ASSERT_TRUE(tree_->Put("a", std::string(40, 'v'), ++ts).ok());
    ASSERT_LT(ts, 200u);
  }
  EXPECT_EQ(0u, tree_->counters().redundant_record_copies);
  EXPECT_GT(tree_->counters().records_migrated, 0u);
  // All old versions remain reachable.
  std::string v;
  for (Timestamp t = 1; t <= tree_->Now(); ++t) {
    ASSERT_TRUE(tree_->Get({.as_of = t}, "a", &v).ok()) << t;
  }
  EXPECT_TRUE(Check().ok());
}

// Fig 6, T=5 variant: splitting at the current time forces the version
// valid at the split time into both nodes (redundancy).
TEST_F(TsbSplitTest, Fig6TimeSplitAtCurrentTimeCreatesRedundancy) {
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;
  cfg.time_mode = SplitTimeMode::kCurrentTime;
  Open(cfg);
  // Two keys: "mary" written once early, "a" updated many times. At the
  // split, mary's single version persists through T=now -> copied to both.
  ASSERT_TRUE(tree_->Put("mary", std::string(40, 'm'), 1).ok());
  Timestamp ts = 1;
  while (tree_->counters().data_time_splits == 0) {
    ASSERT_TRUE(tree_->Put("a", std::string(40, 'v'), ++ts).ok());
    ASSERT_LT(ts, 200u);
  }
  EXPECT_GT(tree_->counters().redundant_record_copies, 0u);
  // "mary" readable both before and after the split time.
  std::string v;
  ASSERT_TRUE(tree_->Get({.as_of = 1}, "mary", &v).ok());
  ASSERT_TRUE(tree_->Get({}, "mary", &v).ok());
  EXPECT_TRUE(Check().ok());
}

TEST_F(TsbSplitTest, TimeSplitRuleEntriesLandCorrectly) {
  // Verify the three clauses directly on the migrated node contents.
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;
  cfg.time_mode = SplitTimeMode::kCurrentTime;
  Open(cfg);
  Timestamp ts = 0;
  while (tree_->counters().data_time_splits == 0) {
    const int k = static_cast<int>((ts + 1) % 3);
    ++ts;
    ASSERT_TRUE(tree_->Put(Key(k), std::string(40, 'x'), ts).ok());
    ASSERT_LT(ts, 300u);
  }
  // Find the historical entry in the root and check clause 1 (all migrated
  // records precede the split time).
  DecodedNode root;
  ASSERT_TRUE(tree_->ReadNode(tree_->root(), &root).ok());
  bool found_hist = false;
  for (const IndexEntry& e : root.index) {
    if (!e.child.historical) continue;
    found_hist = true;
    DecodedNode hist;
    ASSERT_TRUE(tree_->ReadNode(e.child, &hist).ok());
    ASSERT_TRUE(hist.is_data());
    EXPECT_FALSE(hist.data.empty());
    for (const DataEntry& de : hist.data) {
      EXPECT_LT(de.ts, e.t_hi);  // clause 1: ts < T
    }
  }
  EXPECT_TRUE(found_hist);
  EXPECT_TRUE(Check().ok());
}

TEST_F(TsbSplitTest, UncommittedNeverMigrates) {
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;
  cfg.time_mode = SplitTimeMode::kCurrentTime;
  Open(cfg);
  ASSERT_TRUE(tree_->PutUncommitted("dirty", std::string(40, 'd'), 77).ok());
  Timestamp ts = 0;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(tree_->Put("a", std::string(40, 'v'), ++ts).ok());
  }
  ASSERT_GT(tree_->counters().data_time_splits, 0u);
  // The uncommitted record is still present, still uncommitted, on the
  // magnetic side (checker verifies no uncommitted data in history).
  std::string v;
  ASSERT_TRUE(tree_->GetUncommitted("dirty", 77, &v).ok());
  EXPECT_TRUE(Check().ok());
}

TEST_F(TsbSplitTest, WobtStylePolicyMinimizesCurrentSpace) {
  // More time splits => smaller magnetic footprint than key-split-always,
  // at the price of more total space (section 5 conclusions).
  auto run = [&](SplitKindPolicy kind, double threshold) {
    MemDevice mag;
    WormDevice worm(512);
    TsbOptions opts;
    opts.page_size = 512;
    opts.policy.kind_policy = kind;
    opts.policy.key_split_threshold = threshold;
    opts.policy.time_mode = SplitTimeMode::kCurrentTime;
    std::unique_ptr<TsbTree> t;
    EXPECT_TRUE(TsbTree::Open(&mag, &worm, opts, &t).ok());
    Timestamp ts = 0;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 12; ++i) {
        EXPECT_TRUE(t->Put(Key(i), std::string(24, 'v'), ++ts).ok());
      }
    }
    SpaceStats stats;
    EXPECT_TRUE(t->ComputeSpaceStats(&stats).ok());
    return stats;
  };
  SpaceStats time_heavy = run(SplitKindPolicy::kWobtStyle, 0.0);
  SpaceStats key_heavy = run(SplitKindPolicy::kThreshold, 0.05);
  EXPECT_LT(time_heavy.magnetic_bytes, key_heavy.magnetic_bytes);
  EXPECT_GT(time_heavy.optical_device_bytes, key_heavy.optical_device_bytes);
}

TEST_F(TsbSplitTest, SingleKeyOverflowHandledByRepeatedTimeSplits) {
  SplitPolicyConfig cfg;
  Open(cfg);
  // One key, hundreds of versions: only time splits are possible.
  Timestamp ts = 0;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(tree_->Put("solo", std::string(30, 'v'), ++ts).ok()) << i;
  }
  EXPECT_EQ(0u, tree_->counters().data_key_splits);
  EXPECT_GT(tree_->counters().data_time_splits, 2u);
  std::string v;
  ASSERT_TRUE(tree_->Get({.as_of = 1}, "solo", &v).ok());
  ASSERT_TRUE(tree_->Get({.as_of = 200}, "solo", &v).ok());
  ASSERT_TRUE(tree_->Get({}, "solo", &v).ok());
  EXPECT_TRUE(Check().ok());
}

TEST_F(TsbSplitTest, MigrationIsOneNodeAtATime) {
  // Section 3.1: "migration occurs incrementally, one node at a time, only
  // when nodes are time-split". Every hist_data_node corresponds to one
  // data_time_split.
  SplitPolicyConfig cfg;
  cfg.kind_policy = SplitKindPolicy::kWobtStyle;
  Open(cfg);
  Timestamp ts = 0;
  for (int i = 0; i < 600; ++i) {
    const int k = static_cast<int>((ts + 1) % 6);
    ++ts;
    ASSERT_TRUE(tree_->Put(Key(k), std::string(30, 'v'), ts).ok());
  }
  EXPECT_EQ(tree_->counters().data_time_splits,
            tree_->counters().hist_data_nodes);
  EXPECT_EQ(tree_->hist_store()->blob_count(),
            tree_->counters().hist_data_nodes +
                tree_->counters().hist_index_nodes);
}

// ---------------- run splits: sorted batches of new keys ----------------

class RunSplitTest : public ::testing::Test {
 protected:
  void Open(uint32_t page_size = 4096) {
    mgr_.reset();
    tree_.reset();
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = page_size;
    opts.buffer_pool_frames = 1024;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
    mgr_ = std::make_unique<txn::TxnManager>(tree_.get());
  }

  static std::string Value(int i, int version = 0) {
    std::string v = std::to_string(version) + "-" + Key(i) + "-";
    v.resize(100, 'v');
    return v;
  }

  /// Commits keys [lo, hi) as one batch; returns the commit timestamp.
  Timestamp WriteRange(int lo, int hi, int version = 0) {
    txn::WriteBatch batch;
    for (int i = lo; i < hi; ++i) batch.Put(Key(i), Value(i, version));
    Timestamp ts = 0;
    Status s = mgr_->Write(batch, &ts);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return ts;
  }

  Status Check() { return TreeChecker(tree_.get()).Check(); }

  double Fill() {
    SpaceStats space;
    EXPECT_TRUE(tree_->ComputeSpaceStats(&space).ok());
    return static_cast<double>(space.magnetic_used_bytes) /
           static_cast<double>(space.magnetic_bytes);
  }

  /// Record counts of the current leaves, in key order.
  void LeafCounts(const NodeRef& ref, std::vector<size_t>* counts) {
    DecodedNode node;
    ASSERT_TRUE(tree_->ReadNode(ref, &node).ok());
    if (node.is_data()) {
      counts->push_back(node.data.size());
      return;
    }
    for (const IndexEntry& e : node.index) {
      if (!e.child.historical) LeafCounts(e.child, counts);
    }
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
  std::unique_ptr<txn::TxnManager> mgr_;
};

TEST_F(RunSplitTest, SortedBatchOfNewKeysFillsItsLeaves) {
  Open();
  WriteRange(0, 5000);
  const TsbCounters& c = tree_->counters();
  EXPECT_GT(c.data_key_splits, 100u);
  EXPECT_EQ(c.data_key_splits, c.data_run_splits);
  EXPECT_GE(Fill(), 0.9);
  EXPECT_TRUE(Check().ok());
  std::string v;
  for (int i = 0; i < 5000; i += 7) {
    ASSERT_TRUE(tree_->Get({}, Key(i), &v).ok()) << Key(i);
    EXPECT_EQ(Value(i), v);
  }
}

TEST_F(RunSplitTest, SinglePutsKeepTheMidpointSplit) {
  Open();
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(tree_->Put(Key(i), Value(i), i + 1).ok());
  }
  // A one-key insert has no run: every key split cuts at the byte
  // midpoint, 293 splits into 294 half-full leaves for this load.
  const TsbCounters& c = tree_->counters();
  EXPECT_EQ(0u, c.data_run_splits);
  EXPECT_EQ(293u, c.data_key_splits);
  std::vector<size_t> counts;
  LeafCounts(tree_->root(), &counts);
  EXPECT_EQ(294u, counts.size());
  EXPECT_LT(Fill(), 0.6);
  EXPECT_TRUE(Check().ok());
}

TEST_F(RunSplitTest, UpdateBatchOverFullLeavesTakesNoRunSplit) {
  Open();
  WriteRange(0, 3000);
  const uint64_t run_splits = tree_->counters().data_run_splits;
  const uint64_t key_splits = tree_->counters().data_key_splits;
  const uint64_t time_splits = tree_->counters().data_time_splits;
  // Every key of the batch is already in its (full) leaf.
  const Timestamp ts = WriteRange(0, 3000, 1);
  const TsbCounters& c = tree_->counters();
  EXPECT_GT(c.data_key_splits + c.data_time_splits, key_splits + time_splits);
  EXPECT_EQ(run_splits, c.data_run_splits);
  EXPECT_TRUE(Check().ok());
  std::string v;
  for (int i = 0; i < 3000; i += 11) {
    ASSERT_TRUE(tree_->Get({.as_of = ts}, Key(i), &v).ok());
    EXPECT_EQ(Value(i, 1), v);
    ASSERT_TRUE(tree_->Get({.as_of = ts - 1}, Key(i), &v).ok());
    EXPECT_EQ(Value(i), v);
  }
}

TEST_F(RunSplitTest, NewKeyFollowedByAnUpdateTakesTheMidpoint) {
  Open();
  // Even keys only, loaded in order: full leaves.
  txn::WriteBatch load;
  for (int n = 0; n < 3000; ++n) load.Put(Key(2 * n), Value(2 * n));
  ASSERT_TRUE(mgr_->Write(load).ok());
  std::vector<size_t> counts;
  LeafCounts(tree_->root(), &counts);
  ASSERT_GE(counts.size(), 3u);
  // A new key three quarters into the second leaf, then an update of the
  // key after it: the batch's next key lies above the leaf's next entry,
  // so nothing is a run and the split keeps the byte midpoint.
  const int n = static_cast<int>(counts[0] + counts[1] * 3 / 4);
  const uint64_t run_splits = tree_->counters().data_run_splits;
  const uint64_t key_splits = tree_->counters().data_key_splits;
  txn::WriteBatch batch;
  batch.Put(Key(2 * n + 1), Value(2 * n + 1));
  batch.Put(Key(2 * n + 2), Value(2 * n + 2, 1));
  ASSERT_TRUE(mgr_->Write(batch).ok());
  EXPECT_EQ(key_splits + 1, tree_->counters().data_key_splits);
  EXPECT_EQ(run_splits, tree_->counters().data_run_splits);
  EXPECT_TRUE(Check().ok());
}

TEST_F(RunSplitTest, RunBelowHalfTheLeafTakesTheMidpoint) {
  Open();
  WriteRange(1000, 4000);
  const uint64_t run_splits = tree_->counters().data_run_splits;
  const uint64_t key_splits = tree_->counters().data_key_splits;
  // A two-key run in front of a full leaf: cutting there would leave the
  // left node with less than half the bytes (none), so the split keeps
  // the midpoint.
  WriteRange(0, 2);
  EXPECT_EQ(key_splits + 1, tree_->counters().data_key_splits);
  EXPECT_EQ(run_splits, tree_->counters().data_run_splits);
  EXPECT_TRUE(Check().ok());
}

TEST_F(RunSplitTest, RunSplitsAForeignTailOffOnceThenFills) {
  Open();
  // Another loader's first keys sit above the run in the same leaf.
  WriteRange(50000, 50010);
  WriteRange(0, 4000);
  const TsbCounters& c = tree_->counters();
  EXPECT_EQ(c.data_key_splits, c.data_run_splits);
  EXPECT_TRUE(Check().ok());
  std::vector<size_t> counts;
  LeafCounts(tree_->root(), &counts);
  ASSERT_GE(counts.size(), 3u);
  // The tail moved right once and was never split again: it is the last
  // leaf, alone. Every run leaf but the last one the run reached is full.
  EXPECT_EQ(10u, counts.back());
  const size_t full = *std::max_element(counts.begin(), counts.end());
  for (size_t i = 0; i + 2 < counts.size(); ++i) {
    EXPECT_GE(counts[i] * 10, full * 9) << "leaf " << i << " of "
                                        << counts.size();
  }
}

TEST_F(RunSplitTest, CursorsAndGetsStayExactAcrossEmptyLeaves) {
  Open();
  const Timestamp t1 = WriteRange(0, 1000);
  const Timestamp t2 = WriteRange(5000, 6000);
  // An aborted batch into the gap: its run splits leave empty leaves
  // between the populated ones once its records are erased.
  const TxnId txn = 1u << 30;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (int i = 1000; i < 3000; ++i) {
    keys.push_back(Key(i));
    values.push_back(Value(i));
  }
  std::vector<TsbTree::KeyValue> kvs;
  for (size_t i = 0; i < keys.size(); ++i) kvs.emplace_back(keys[i], values[i]);
  const uint64_t run_splits = tree_->counters().data_run_splits;
  ASSERT_TRUE(tree_->PutUncommittedBatch(kvs, txn).ok());
  EXPECT_GT(tree_->counters().data_run_splits, run_splits + 5);
  for (const std::string& k : keys) {
    ASSERT_TRUE(tree_->EraseUncommitted(k, txn).ok());
  }
  const Timestamp t3 = WriteRange(3000, 3001);
  std::vector<size_t> counts;
  LeafCounts(tree_->root(), &counts);
  EXPECT_GE(std::count(counts.begin(), counts.end(), size_t{0}), 5);
  EXPECT_TRUE(Check().ok());

  // Key i's expected presence as of t.
  auto present = [&](int i, Timestamp t) {
    return (i < 1000 && t >= t1) || (i >= 5000 && t >= t2) ||
           (i == 3000 && t >= t3);
  };
  for (const Timestamp t : {t1, t2, t3}) {
    std::vector<int> expected;
    for (int i = 0; i < 6000; ++i) {
      if (present(i, t)) expected.push_back(i);
    }
    auto c = tree_->NewCursor({.as_of = t});
    std::vector<int> forward;
    ASSERT_TRUE(c->SeekToFirst().ok());
    while (c->Valid()) {
      forward.push_back(std::stoi(c->key().ToString().substr(1)));
      EXPECT_EQ(Value(forward.back()), c->value().ToString());
      ASSERT_TRUE(c->Next().ok());
    }
    EXPECT_EQ(expected, forward) << "as of " << t;
    std::vector<int> reverse;
    ASSERT_TRUE(c->SeekToLast().ok());
    while (c->Valid()) {
      reverse.push_back(std::stoi(c->key().ToString().substr(1)));
      ASSERT_TRUE(c->Prev().ok());
    }
    std::reverse(reverse.begin(), reverse.end());
    EXPECT_EQ(expected, reverse) << "as of " << t;
    // Seeks into the empty stretch land on its neighbours.
    const auto above = std::lower_bound(expected.begin(), expected.end(), 1500);
    ASSERT_TRUE(c->Seek(Key(1500)).ok());
    ASSERT_EQ(above != expected.end(), c->Valid());
    if (c->Valid()) EXPECT_EQ(Key(*above), c->key().ToString());
    ASSERT_TRUE(c->SeekForPrev(Key(2500)).ok());
    ASSERT_TRUE(c->Valid());
    EXPECT_EQ(Key(999), c->key().ToString());
    std::string v;
    for (int i = 0; i < 6000; i += 13) {
      const Status s = tree_->Get({.as_of = t}, Key(i), &v);
      EXPECT_EQ(present(i, t), s.ok()) << Key(i) << " as of " << t;
      EXPECT_TRUE(present(i, t) || s.IsNotFound()) << s.ToString();
    }
  }
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
