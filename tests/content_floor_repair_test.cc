// Content-floor hint backfill (TreeChecker::RepairContentFloors): a tree
// grown with SplitPolicyConfig::content_floor_hints disabled reproduces a
// legacy database whose index cells all claim min_ts = 0. The repair pass
// must upgrade those cells to the exact subtree floors, the checker must
// accept the result, and every temporal query must answer identically
// before and after.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"

namespace tsb {
namespace tsb_tree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key-%04d", i);
  return buf;
}

class ContentFloorRepairTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 40;
  static constexpr int kRounds = 30;

  void OpenTree(bool hints) {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = 512;  // small pages: plenty of key and time splits
    opts.policy.content_floor_hints = hints;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
  }

  /// Multi-round workload; records every (key, ts, value) committed.
  void LoadWorkload() {
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kKeys; ++k) {
        const Timestamp ts = ++next_ts_;
        const std::string value =
            "v-" + std::to_string(round) + "-" + std::to_string(k);
        ASSERT_TRUE(tree_->Put(Key(k), value, ts).ok());
        committed_[{k, round}] = std::make_pair(ts, value);
      }
    }
  }

  /// Every version of every key readable at its exact timestamp.
  void VerifyAllVersions() {
    for (const auto& [kr, tv] : committed_) {
      std::string value;
      Timestamp version_ts = 0;
      ASSERT_TRUE(
          tree_->Get({.as_of = tv.first}, Key(kr.first), &value, &version_ts)
              .ok())
          << "key " << kr.first << " round " << kr.second;
      EXPECT_EQ(value, tv.second);
      EXPECT_EQ(version_ts, tv.first);
    }
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
  Timestamp next_ts_ = 0;
  std::map<std::pair<int, int>, std::pair<Timestamp, std::string>> committed_;
};

TEST_F(ContentFloorRepairTest, BackfillsLegacyCellsAndPreservesAnswers) {
  OpenTree(/*hints=*/false);
  LoadWorkload();
  TreeChecker checker(tree_.get());
  ASSERT_TRUE(checker.Check().ok()) << "hint-less tree must be valid";
  VerifyAllVersions();

  uint64_t repaired = 0;
  ASSERT_TRUE(checker.RepairContentFloors(&repaired).ok());
  EXPECT_GT(repaired, 0u) << "a split-heavy hint-less tree has index cells "
                             "to upgrade";
  EXPECT_TRUE(checker.Check().ok()) << "repair broke an invariant";
  VerifyAllVersions();

  // Idempotent: a second pass finds (almost) nothing left to do — only
  // full pages skipped for lack of varint room may remain at 0, and those
  // are skipped again, not re-counted.
  uint64_t again = 0;
  ASSERT_TRUE(checker.RepairContentFloors(&again).ok());
  EXPECT_EQ(again, 0u);
}

TEST_F(ContentFloorRepairTest, RepairedTreeKeepsAcceptingWrites) {
  OpenTree(/*hints=*/false);
  LoadWorkload();
  TreeChecker checker(tree_.get());
  uint64_t repaired = 0;
  ASSERT_TRUE(checker.RepairContentFloors(&repaired).ok());
  ASSERT_GT(repaired, 0u);
  // The upgraded floors are claims about EXISTING subtree contents; new
  // inserts carry newer timestamps and must never violate them.
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(tree_->Put(Key(k), "post-repair-" + std::to_string(round),
                             ++next_ts_)
                      .ok());
    }
  }
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(ContentFloorRepairTest, HintedTreeNeedsNoRepair) {
  OpenTree(/*hints=*/true);
  LoadWorkload();
  TreeChecker checker(tree_.get());
  ASSERT_TRUE(checker.Check().ok());
  // Hinted splits already stamp exact floors; the repair pass is a no-op
  // except for historical parent cells frozen at 0 before consolidation
  // learned their floors (none in this workload shape).
  uint64_t repaired = 0;
  ASSERT_TRUE(checker.RepairContentFloors(&repaired).ok());
  EXPECT_TRUE(checker.Check().ok());
  VerifyAllVersions();
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
