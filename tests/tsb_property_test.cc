// Property tests: for random workloads swept over page size, split policy,
// update fraction and abort behaviour, the TSB-tree must agree with a
// multiversion oracle on every query class, and the structural checker
// must hold at every checkpoint.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "common/random.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"
#include "util/workload.h"

namespace tsb {
namespace tsb_tree {
namespace {

// Reference model: full multiversion history per key.
class Oracle {
 public:
  void Put(const std::string& k, const std::string& v, Timestamp ts) {
    versions_[k][ts] = v;
  }
  // Returns nullptr if no version at or before t.
  const std::string* VersionAt(const std::string& k, Timestamp t,
                               Timestamp* ts = nullptr) const {
    auto kit = versions_.find(k);
    if (kit == versions_.end()) return nullptr;
    auto it = kit->second.upper_bound(t);
    if (it == kit->second.begin()) return nullptr;
    --it;
    if (ts != nullptr) *ts = it->first;
    return &it->second;
  }
  const std::map<std::string, std::map<Timestamp, std::string>>& all() const {
    return versions_;
  }

 private:
  std::map<std::string, std::map<Timestamp, std::string>> versions_;
};

struct PropertyParam {
  uint32_t page_size;
  SplitKindPolicy kind_policy;
  double threshold;
  SplitTimeMode time_mode;
  double update_fraction;
};

class TsbPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(TsbPropertyTest, AgreesWithOracleEverywhere) {
  const PropertyParam p = GetParam();
  MemDevice magnetic;
  WormDevice worm(512);
  TsbOptions opts;
  opts.page_size = p.page_size;
  opts.buffer_pool_frames = 32;  // small pool: exercise eviction
  opts.policy.kind_policy = p.kind_policy;
  opts.policy.key_split_threshold = p.threshold;
  opts.policy.time_mode = p.time_mode;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &worm, opts, &tree).ok());

  util::WorkloadSpec spec;
  spec.seed = 1000 + p.page_size + static_cast<uint64_t>(p.update_fraction * 100);
  spec.num_ops = 2500;
  spec.update_fraction = p.update_fraction;
  spec.value_size = 24;
  spec.variable_value_size = true;
  util::WorkloadGenerator gen(spec);

  Oracle oracle;
  util::Op op;
  size_t applied = 0;
  while (gen.Next(&op)) {
    ASSERT_TRUE(tree->Put(op.key, op.value, op.ts).ok()) << applied;
    oracle.Put(op.key, op.value, op.ts);
    if (++applied % 1000 == 0) {
      TreeChecker checker(tree.get());
      Status s = checker.Check();
      ASSERT_TRUE(s.ok()) << "after " << applied << " ops: " << s.ToString();
    }
  }
  const Timestamp now = tree->Now();

  // 1. Current lookups for every key.
  for (const auto& [k, versions] : oracle.all()) {
    std::string v;
    Timestamp ts = 0;
    ASSERT_TRUE(tree->Get({}, k, &v, &ts).ok()) << k;
    EXPECT_EQ(versions.rbegin()->second, v);
    EXPECT_EQ(versions.rbegin()->first, ts);
  }

  // 2. Random as-of probes (present and absent keys, all eras).
  Random rnd(spec.seed ^ 0xabcdef);
  for (int probe = 0; probe < 600; ++probe) {
    const std::string k = gen.KeyFor(rnd.Uniform(gen.keys_created() + 10));
    const Timestamp t = rnd.Uniform(now + 2);
    std::string v;
    Timestamp got_ts = 0;
    Status s = tree->Get({.as_of = t}, k, &v, &got_ts);
    Timestamp want_ts = 0;
    const std::string* want = oracle.VersionAt(k, t, &want_ts);
    if (want == nullptr) {
      EXPECT_TRUE(s.IsNotFound()) << k << "@" << t;
    } else {
      ASSERT_TRUE(s.ok()) << k << "@" << t << " " << s.ToString();
      EXPECT_EQ(*want, v) << k << "@" << t;
      EXPECT_EQ(want_ts, got_ts);
    }
  }

  // 3. Snapshot scans at three times, exact match including order.
  for (Timestamp t : {now / 4, now / 2, now}) {
    auto it = tree->NewCursor({.as_of = t});
    ASSERT_TRUE(it->SeekToFirst().ok());
    for (const auto& [k, versions] : oracle.all()) {
      Timestamp want_ts = 0;
      const std::string* want = oracle.VersionAt(k, t, &want_ts);
      if (want == nullptr) continue;
      ASSERT_TRUE(it->Valid()) << "snapshot " << t << " ended before " << k;
      EXPECT_EQ(k, it->key().ToString());
      EXPECT_EQ(*want, it->value().ToString());
      EXPECT_EQ(want_ts, it->ts());
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_FALSE(it->Valid()) << "snapshot " << t << " has extra keys";
  }

  // 4. Version history of a handful of keys.
  for (int i = 0; i < 5; ++i) {
    const std::string k = gen.KeyFor(rnd.Uniform(gen.keys_created()));
    auto kit = oracle.all().find(k);
    if (kit == oracle.all().end()) continue;
    auto hist = tree->NewCursor({});
    ASSERT_TRUE(hist->Seek(k).ok());
    for (auto vit = kit->second.rbegin(); vit != kit->second.rend(); ++vit) {
      ASSERT_TRUE(hist->Valid() && hist->key() == Slice(k)) << k;
      EXPECT_EQ(vit->first, hist->ts());
      EXPECT_EQ(vit->second, hist->value().ToString());
      ASSERT_TRUE(hist->NextVersion().ok());
    }
    EXPECT_FALSE(hist->Valid());
  }

  // 5. Final structural check + space sanity.
  TreeChecker checker(tree.get());
  Status s = checker.Check();
  EXPECT_TRUE(s.ok()) << s.ToString();
  SpaceStats stats;
  ASSERT_TRUE(tree->ComputeSpaceStats(&stats).ok());
  EXPECT_EQ(spec.num_ops, stats.logical_versions);
  EXPECT_GE(stats.physical_record_copies, stats.logical_versions);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TsbPropertyTest,
    ::testing::Values(
        // Page size sweep at the default policy.
        PropertyParam{512, SplitKindPolicy::kThreshold, 0.67,
                      SplitTimeMode::kLastUpdate, 0.5},
        PropertyParam{1024, SplitKindPolicy::kThreshold, 0.67,
                      SplitTimeMode::kLastUpdate, 0.5},
        PropertyParam{4096, SplitKindPolicy::kThreshold, 0.67,
                      SplitTimeMode::kLastUpdate, 0.5},
        // Update-fraction sweep (the paper's evaluation axis).
        PropertyParam{512, SplitKindPolicy::kThreshold, 0.67,
                      SplitTimeMode::kLastUpdate, 0.0},
        PropertyParam{512, SplitKindPolicy::kThreshold, 0.67,
                      SplitTimeMode::kLastUpdate, 0.25},
        PropertyParam{512, SplitKindPolicy::kThreshold, 0.67,
                      SplitTimeMode::kLastUpdate, 0.9},
        // Policy sweep.
        PropertyParam{512, SplitKindPolicy::kWobtStyle, 0.67,
                      SplitTimeMode::kCurrentTime, 0.6},
        PropertyParam{512, SplitKindPolicy::kCostBased, 0.67,
                      SplitTimeMode::kCurrentTime, 0.6},
        PropertyParam{512, SplitKindPolicy::kThreshold, 0.2,
                      SplitTimeMode::kMinRedundancy, 0.6},
        PropertyParam{512, SplitKindPolicy::kThreshold, 0.9,
                      SplitTimeMode::kMinRedundancy, 0.6}));

// Aborting transactions must leave no trace, under splits.
class TsbAbortPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TsbAbortPropertyTest, AbortsLeaveNoTrace) {
  MemDevice magnetic;
  WormDevice worm(512);
  TsbOptions opts;
  opts.page_size = 512;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &worm, opts, &tree).ok());

  Random rnd(GetParam());
  Oracle oracle;
  Timestamp ts = 0;
  TxnId next_txn = 1;
  for (int i = 0; i < 1500; ++i) {
    char kb[16];
    snprintf(kb, sizeof(kb), "k%04d", static_cast<int>(rnd.Uniform(60)));
    std::string k(kb);
    std::string v = "v" + std::to_string(i);
    const int dice = static_cast<int>(rnd.Uniform(10));
    if (dice < 5) {
      // Plain committed write.
      ASSERT_TRUE(tree->Put(k, v, ++ts).ok());
      oracle.Put(k, v, ts);
    } else if (dice < 8) {
      // Write-then-commit through the uncommitted path.
      const TxnId txn = next_txn++;
      ASSERT_TRUE(tree->PutUncommitted(k, v, txn).ok());
      ASSERT_TRUE(tree->StampCommitted(k, txn, ++ts).ok());
      oracle.Put(k, v, ts);
    } else {
      // Write-then-abort: the oracle never sees it.
      const TxnId txn = next_txn++;
      ASSERT_TRUE(tree->PutUncommitted(k, v, txn).ok());
      ASSERT_TRUE(tree->EraseUncommitted(k, txn).ok());
    }
  }
  // Exhaustive comparison (bare stamps never publish the watermark).
  for (const auto& [k, versions] : oracle.all()) {
    std::string v;
    ASSERT_TRUE(tree->Get({.as_of = kMaxCommittedTs}, k, &v).ok()) << k;
    EXPECT_EQ(versions.rbegin()->second, v);
  }
  SpaceStats stats;
  ASSERT_TRUE(tree->ComputeSpaceStats(&stats).ok());
  uint64_t oracle_versions = 0;
  for (const auto& [k, versions] : oracle.all()) {
    oracle_versions += versions.size();
  }
  EXPECT_EQ(oracle_versions, stats.logical_versions);
  TreeChecker checker(tree.get());
  Status s = checker.Check();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsbAbortPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
