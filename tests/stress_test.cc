// Stress and adverse-configuration tests: tiny buffer pools (every access
// a cold read), large workloads with periodic invariant checks, long
// version chains, and mixed txn/abort pressure at scale.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"
#include "txn/txn_manager.h"
#include "util/workload.h"

namespace tsb {
namespace tsb_tree {
namespace {

TEST(StressTest, TinyBufferPoolColdReadsStayCorrect) {
  // 4 frames: nearly every page access misses; correctness must not depend
  // on residency.
  MemDevice magnetic;
  WormDevice worm(512);
  TsbOptions opts;
  opts.page_size = 512;
  opts.buffer_pool_frames = 4;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &worm, opts, &tree).ok());

  util::WorkloadSpec spec;
  spec.seed = 60;
  spec.num_ops = 3000;
  spec.update_fraction = 0.5;
  util::WorkloadGenerator gen(spec);
  std::map<std::string, std::map<Timestamp, std::string>> model;
  util::Op op;
  while (gen.Next(&op)) {
    ASSERT_TRUE(tree->Put(op.key, op.value, op.ts).ok());
    model[op.key][op.ts] = op.value;
  }
  EXPECT_GT(tree->buffer_pool()->stats().evictions, 100u);

  Random rnd(61);
  for (int probe = 0; probe < 400; ++probe) {
    const std::string k = gen.KeyFor(rnd.Uniform(gen.keys_created()));
    const Timestamp t = 1 + rnd.Uniform(spec.num_ops);
    std::string v;
    Status s = tree->Get({.as_of = t}, k, &v);
    auto& versions = model[k];
    auto it = versions.upper_bound(t);
    if (it == versions.begin()) {
      EXPECT_TRUE(s.IsNotFound());
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(std::prev(it)->second, v);
    }
  }
  TreeChecker checker(tree.get());
  EXPECT_TRUE(checker.Check().ok());
}

TEST(StressTest, LargeWorkloadPeriodicInvariants) {
  MemDevice magnetic;
  WormDevice worm(1024);
  TsbOptions opts;
  opts.page_size = 1024;
  opts.policy.key_split_threshold = 0.5;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &worm, opts, &tree).ok());

  util::WorkloadSpec spec;
  spec.seed = 70;
  spec.num_ops = 30000;
  spec.update_fraction = 0.7;
  spec.skewed_updates = true;  // hot keys: deep version chains
  util::WorkloadGenerator gen(spec);
  util::Op op;
  size_t n = 0;
  while (gen.Next(&op)) {
    ASSERT_TRUE(tree->Put(op.key, op.value, op.ts).ok()) << n;
    if (++n % 10000 == 0) {
      TreeChecker checker(tree.get());
      Status s = checker.Check();
      ASSERT_TRUE(s.ok()) << "after " << n << ": " << s.ToString();
    }
  }
  SpaceStats stats;
  ASSERT_TRUE(tree->ComputeSpaceStats(&stats).ok());
  EXPECT_EQ(30000u, stats.logical_versions);
  EXPECT_GT(tree->counters().records_migrated, 1000u);
  EXPECT_GT(tree->height(), 2u);
}

TEST(StressTest, ThousandVersionChainFullyWalkable) {
  MemDevice magnetic;
  WormDevice worm(512);
  TsbOptions opts;
  opts.page_size = 512;
  opts.policy.kind_policy = SplitKindPolicy::kWobtStyle;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &worm, opts, &tree).ok());
  const int kVersions = 1000;
  for (int i = 1; i <= kVersions; ++i) {
    ASSERT_TRUE(tree->Put("chain", "v" + std::to_string(i),
                          static_cast<Timestamp>(i))
                    .ok());
  }
  // Walk the complete chain through many migrated nodes.
  auto it = tree->NewCursor({});
  ASSERT_TRUE(it->Seek("chain").ok());
  int expect = kVersions;
  while (it->Valid()) {
    ASSERT_EQ(static_cast<Timestamp>(expect), it->ts());
    --expect;
    ASSERT_TRUE(it->NextVersion().ok());
  }
  EXPECT_EQ(0, expect);
  // Random point probes across the whole chain.
  Random rnd(71);
  std::string v;
  for (int probe = 0; probe < 200; ++probe) {
    const Timestamp t = 1 + rnd.Uniform(kVersions);
    ASSERT_TRUE(tree->Get({.as_of = t}, "chain", &v).ok());
    EXPECT_EQ("v" + std::to_string(t), v);
  }
}

TEST(StressTest, TxnChurnWithAbortsAtScale) {
  MemDevice magnetic;
  WormDevice worm(512);
  TsbOptions opts;
  opts.page_size = 512;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &worm, opts, &tree).ok());
  txn::TxnManager mgr(tree.get());

  Random rnd(80);
  std::map<std::string, std::string> committed;
  for (int round = 0; round < 800; ++round) {
    std::unique_ptr<txn::Transaction> t;
    ASSERT_TRUE(mgr.Begin(&t).ok());
    std::map<std::string, std::string> staged;
    for (int w = 0; w < 3; ++w) {
      char kb[12];
      snprintf(kb, sizeof(kb), "k%04d", static_cast<int>(rnd.Uniform(100)));
      const std::string v = "r" + std::to_string(round);
      Status s = t->Put(kb, v);
      if (s.ok()) staged[kb] = v;
    }
    if (rnd.OneIn(3)) {
      ASSERT_TRUE(t->Abort().ok());
    } else {
      ASSERT_TRUE(t->Commit().ok());
      for (auto& [k, v] : staged) committed[k] = v;
    }
  }
  for (const auto& [k, v] : committed) {
    std::string got;
    ASSERT_TRUE(tree->Get({}, k, &got).ok()) << k;
    EXPECT_EQ(v, got);
  }
  TreeChecker checker(tree.get());
  Status s = checker.Check();
  EXPECT_TRUE(s.ok()) << s.ToString();
  SpaceStats stats;
  ASSERT_TRUE(tree->ComputeSpaceStats(&stats).ok());
  // No uncommitted leftovers anywhere: every physical record committed.
  EXPECT_GE(stats.physical_record_copies, stats.logical_versions);
}

TEST(StressTest, ManyKeysLargeValuesNearPageLimit) {
  MemDevice magnetic;
  WormDevice worm(1024);
  TsbOptions opts;
  opts.page_size = 4096;
  std::unique_ptr<TsbTree> tree;
  ASSERT_TRUE(TsbTree::Open(&magnetic, &worm, opts, &tree).ok());
  // Values near the per-record cap (capacity/3 of the slotted area).
  const size_t big = (4096 - 26) / 3 - 64;
  Random rnd(90);
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    char kb[12];
    snprintf(kb, sizeof(kb), "k%04d", static_cast<int>(rnd.Uniform(80)));
    ASSERT_TRUE(
        tree->Put(kb, std::string(big, static_cast<char>('a' + i % 26)), ++ts)
            .ok())
        << i;
  }
  TreeChecker checker(tree.get());
  Status s = checker.Check();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
