// Tests for the invariant checker itself plus low-level page formats and
// NodeRef encoding: the checker must catch real violations, not just pass
// healthy trees.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/data_page.h"
#include "tsb/index_page.h"
#include "tsb/node_ref.h"
#include "tsb/tree_check.h"
#include "tsb/tsb_tree.h"

namespace tsb {
namespace tsb_tree {
namespace {

// ---------------- NodeRef ----------------

TEST(NodeRefTest, CurrentRoundTrip) {
  std::string buf;
  EncodeNodeRef(&buf, NodeRef::Current(42));
  Slice in(buf);
  NodeRef ref;
  ASSERT_TRUE(DecodeNodeRef(&in, &ref));
  EXPECT_FALSE(ref.historical);
  EXPECT_EQ(42u, ref.page_id);
  EXPECT_TRUE(in.empty());
}

TEST(NodeRefTest, HistoricalRoundTrip) {
  std::string buf;
  EncodeNodeRef(&buf, NodeRef::Historical(HistAddr{123456789, 4321}));
  Slice in(buf);
  NodeRef ref;
  ASSERT_TRUE(DecodeNodeRef(&in, &ref));
  EXPECT_TRUE(ref.historical);
  EXPECT_EQ(123456789u, ref.addr.offset);
  EXPECT_EQ(4321u, ref.addr.length);
}

TEST(NodeRefTest, TruncatedFails) {
  std::string buf;
  EncodeNodeRef(&buf, NodeRef::Current(7));
  Slice in(buf.data(), buf.size() - 1);
  NodeRef ref;
  EXPECT_FALSE(DecodeNodeRef(&in, &ref));
}

TEST(NodeRefTest, EqualityRespectsKind) {
  EXPECT_EQ(NodeRef::Current(1), NodeRef::Current(1));
  EXPECT_FALSE(NodeRef::Current(1) == NodeRef::Current(2));
  EXPECT_EQ(NodeRef::Historical(HistAddr{5, 6}),
            NodeRef::Historical(HistAddr{5, 6}));
  EXPECT_FALSE(NodeRef::Current(5) == NodeRef::Historical(HistAddr{5, 5}));
}

// ---------------- data cells / pages ----------------

TEST(DataCellTest, RoundTrip) {
  std::string cell;
  EncodeDataCell(&cell, "key", 77, 0, "value");
  DataEntryView v;
  ASSERT_TRUE(DecodeDataCell(Slice(cell), &v));
  EXPECT_EQ("key", v.key.ToString());
  EXPECT_EQ(77u, v.ts);
  EXPECT_EQ(kNoTxn, v.txn);
  EXPECT_EQ("value", v.value.ToString());
  EXPECT_FALSE(v.uncommitted());
}

TEST(DataCellTest, UncommittedCarriesTxn) {
  std::string cell;
  EncodeDataCell(&cell, "k", kUncommittedTs, 99, "dirty");
  DataEntryView v;
  ASSERT_TRUE(DecodeDataCell(Slice(cell), &v));
  EXPECT_TRUE(v.uncommitted());
  EXPECT_EQ(99u, v.txn);
}

TEST(DataPageTest, SortedInsertAndFind) {
  std::string buf(1024, 0);
  InitPage(buf.data(), 1024, 1, PageType::kTsbData);
  DataPageRef::Format(buf.data(), 1024);
  DataPageRef page(buf.data(), 1024);
  auto put = [&page](const Slice& key, Timestamp ts, TxnId txn,
                     const Slice& value) {
    std::string cell;
    EncodeDataCell(&cell, key, ts, txn, value);
    return page.Put(key, ts, txn, cell);
  };
  ASSERT_TRUE(put("b", 5, kNoTxn, "b5"));
  ASSERT_TRUE(put("a", 9, kNoTxn, "a9"));
  ASSERT_TRUE(put("b", 2, kNoTxn, "b2"));
  ASSERT_TRUE(put("b", kUncommittedTs, 7, "dirty"));
  ASSERT_EQ(4, page.Count());
  // Order: a@9, b@2, b@5, b@dirty.
  DataEntryView v;
  ASSERT_TRUE(page.At(0, &v).ok());
  EXPECT_EQ("a", v.key.ToString());
  ASSERT_TRUE(page.At(1, &v).ok());
  EXPECT_EQ(2u, v.ts);
  ASSERT_TRUE(page.At(3, &v).ok());
  EXPECT_TRUE(v.uncommitted());
  // FindVersion semantics.
  EXPECT_EQ(-1, page.FindVersion("b", 1));
  EXPECT_EQ(1, page.FindVersion("b", 2));
  EXPECT_EQ(1, page.FindVersion("b", 4));
  EXPECT_EQ(2, page.FindVersion("b", 5));
  EXPECT_EQ(2, page.FindVersion("b", 1000));
  EXPECT_EQ(2, page.FindVersion("b", kInfiniteTs));  // skips uncommitted
  EXPECT_EQ(-1, page.FindVersion("c", 5));
  EXPECT_EQ(3, page.FindUncommitted("b", 7));
  EXPECT_EQ(-1, page.FindUncommitted("b", 8));
}

TEST(DataPageTest, HistBlobRoundTrip) {
  std::vector<DataEntry> entries = {
      {"a", 1, kNoTxn, "v1"}, {"a", 5, kNoTxn, "v5"}, {"b", 3, kNoTxn, "w"}};
  std::string blob;
  SerializeHistDataNode(ViewsOf(entries), &blob);
  uint8_t level = 9;
  ASSERT_TRUE(HistNodeLevel(Slice(blob), &level).ok());
  EXPECT_EQ(0, level);
  std::vector<DataEntry> decoded;
  ASSERT_TRUE(DecodeHistDataNode(Slice(blob), &decoded).ok());
  ASSERT_EQ(3u, decoded.size());
  EXPECT_EQ("a", decoded[0].key);
  EXPECT_EQ(5u, decoded[1].ts);
  EXPECT_EQ("w", decoded[2].value);
}

// ---------------- index cells / entries ----------------

TEST(IndexEntryTest, ContainmentSemantics) {
  IndexEntry e;
  e.key_lo = "b";
  e.key_hi = "m";
  e.t_lo = 10;
  e.t_hi = 20;
  EXPECT_TRUE(e.Contains("b", 10));
  EXPECT_TRUE(e.Contains("lzz", 19));
  EXPECT_FALSE(e.Contains("m", 15));   // key_hi exclusive
  EXPECT_FALSE(e.Contains("b", 20));   // t_hi exclusive
  EXPECT_FALSE(e.Contains("a", 15));
  EXPECT_FALSE(e.Contains("b", 9));
  EXPECT_TRUE(e.KeyRangeStrictlyContains("c"));
  EXPECT_FALSE(e.KeyRangeStrictlyContains("b"));   // not strict at lo
  EXPECT_FALSE(e.KeyRangeStrictlyContains("m"));
}

TEST(IndexEntryTest, InfiniteBounds) {
  IndexEntry e;
  e.key_lo = "";
  e.key_hi_inf = true;
  e.t_lo = 0;
  e.t_hi = kInfiniteTs;
  EXPECT_TRUE(e.Contains("anything", 0));
  EXPECT_TRUE(e.Contains("", kUncommittedTs));
  EXPECT_TRUE(e.current_child());
}

TEST(IndexEntryTest, CellRoundTripCurrent) {
  IndexEntry e;
  e.key_lo = "alpha";
  e.key_hi = "omega";
  e.t_lo = 100;
  e.t_hi = kInfiniteTs;
  e.child = NodeRef::Current(17);
  std::string cell;
  EncodeIndexCell(&cell, e);
  IndexEntry d;
  ASSERT_TRUE(DecodeIndexCell(Slice(cell), &d));
  EXPECT_EQ("alpha", d.key_lo);
  EXPECT_EQ("omega", d.key_hi);
  EXPECT_FALSE(d.key_hi_inf);
  EXPECT_EQ(100u, d.t_lo);
  EXPECT_TRUE(d.current_child());
  EXPECT_EQ(17u, d.child.page_id);
}

TEST(IndexEntryTest, CellRoundTripHistoricalInfiniteKeyHi) {
  IndexEntry e;
  e.key_lo = "m";
  e.key_hi_inf = true;
  e.t_lo = 5;
  e.t_hi = 99;
  e.child = NodeRef::Historical(HistAddr{1 << 20, 777});
  std::string cell;
  EncodeIndexCell(&cell, e);
  IndexEntry d;
  ASSERT_TRUE(DecodeIndexCell(Slice(cell), &d));
  EXPECT_TRUE(d.key_hi_inf);
  EXPECT_EQ(99u, d.t_hi);
  EXPECT_FALSE(d.current_child());
  EXPECT_TRUE(d.child.historical);
  EXPECT_EQ(static_cast<uint64_t>(1 << 20), d.child.addr.offset);
}

TEST(IndexPageTest, SortedInsertAndFindContaining) {
  std::string buf(1024, 0);
  InitPage(buf.data(), 1024, 1, PageType::kTsbIndex);
  IndexPageRef::Format(buf.data(), 1024, 1);
  IndexPageRef page(buf.data(), 1024);
  // Region [",inf) x [0,inf) split into: time < 5 historical, then keys
  // split at "m" from t=5 on.
  IndexEntry hist;
  hist.key_lo = "";
  hist.key_hi_inf = true;
  hist.t_lo = 0;
  hist.t_hi = 5;
  hist.child = NodeRef::Historical(HistAddr{0, 10});
  IndexEntry left;
  left.key_lo = "";
  left.key_hi = "m";
  left.t_lo = 5;
  left.t_hi = kInfiniteTs;
  left.child = NodeRef::Current(2);
  IndexEntry right;
  right.key_lo = "m";
  right.key_hi_inf = true;
  right.t_lo = 5;
  right.t_hi = kInfiniteTs;
  right.child = NodeRef::Current(3);
  ASSERT_TRUE(page.Insert(right));
  ASSERT_TRUE(page.Insert(hist));
  ASSERT_TRUE(page.Insert(left));
  ASSERT_EQ(3, page.Count());
  // Containment routing.
  IndexEntry got;
  int idx = page.FindContaining("zebra", 3);
  ASSERT_GE(idx, 0);
  ASSERT_TRUE(page.At(idx, &got).ok());
  EXPECT_TRUE(got.child.historical);
  idx = page.FindContaining("apple", 9);
  ASSERT_GE(idx, 0);
  ASSERT_TRUE(page.At(idx, &got).ok());
  EXPECT_EQ(2u, got.child.page_id);
  idx = page.FindContaining("zebra", kUncommittedTs);
  ASSERT_GE(idx, 0);
  ASSERT_TRUE(page.At(idx, &got).ok());
  EXPECT_EQ(3u, got.child.page_id);
  // A region's lower corner finds its own entry (how a split re-finds a
  // leaf's slot in its parent).
  for (const IndexEntry& e : {left, right}) {
    idx = page.FindContaining(e.key_lo, e.t_lo);
    ASSERT_GE(idx, 0);
    ASSERT_TRUE(page.At(idx, &got).ok());
    EXPECT_EQ(e.child.page_id, got.child.page_id);
  }
}

TEST(IndexPageTest, HistIndexBlobRoundTrip) {
  IndexEntry e;
  e.key_lo = "a";
  e.key_hi = "b";
  e.t_lo = 1;
  e.t_hi = 2;
  e.child = NodeRef::Historical(HistAddr{44, 55});
  std::string blob;
  SerializeHistIndexNode(3, {e}, &blob);
  uint8_t level = 0;
  std::vector<IndexEntry> decoded;
  ASSERT_TRUE(DecodeHistIndexNode(Slice(blob), &level, &decoded).ok());
  EXPECT_EQ(3, level);
  ASSERT_EQ(1u, decoded.size());
  EXPECT_EQ("a", decoded[0].key_lo);
  // A data blob must be rejected by the index decoder and vice versa.
  std::string data_blob;
  SerializeHistDataNode({}, &data_blob);
  EXPECT_TRUE(DecodeHistIndexNode(Slice(data_blob), &level, &decoded)
                  .IsCorruption());
  std::vector<DataEntry> data_decoded;
  EXPECT_TRUE(DecodeHistDataNode(Slice(blob), &data_decoded).IsCorruption());
}

// ---------------- the checker catches real violations ----------------

class CheckerCatchesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = 512;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
    // A healthy tree with some structure.
    Timestamp ts = 0;
    for (int i = 0; i < 400; ++i) {
      char kb[16];
      snprintf(kb, sizeof(kb), "k%04d", i % 40);
      ASSERT_TRUE(tree_->Put(kb, std::string(20, 'v'), ++ts).ok());
    }
    ASSERT_TRUE(TreeChecker(tree_.get()).Check().ok());
  }

  // Rewrites the root page's cell `idx` with `entry`, bypassing the tree.
  void CorruptRootEntry(int idx, const IndexEntry& entry) {
    PageHandle h;
    ASSERT_TRUE(tree_->buffer_pool()->Fetch(tree_->root().page_id, &h).ok());
    IndexPageRef page(h.data(), 512);
    ASSERT_TRUE(page.Replace(idx, entry));
    h.MarkDirty();
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
};

TEST_F(CheckerCatchesTest, DetectsCoverageGap) {
  DecodedNode root;
  ASSERT_TRUE(tree_->ReadNode(tree_->root(), &root).ok());
  ASSERT_GE(root.index.size(), 2u);
  // Shrink one entry's time range to open a gap.
  IndexEntry mangled = root.index[0];
  mangled.t_lo += 1000000;
  if (mangled.t_hi != kInfiniteTs) mangled.t_hi += 2000000;
  CorruptRootEntry(0, mangled);
  EXPECT_FALSE(TreeChecker(tree_.get()).Check().ok());
}

TEST_F(CheckerCatchesTest, DetectsOverlap) {
  DecodedNode root;
  ASSERT_TRUE(tree_->ReadNode(tree_->root(), &root).ok());
  ASSERT_GE(root.index.size(), 2u);
  // Expand entry 1 backwards in time so it overlaps entry 0's region.
  int victim = -1;
  for (size_t i = 0; i < root.index.size(); ++i) {
    if (root.index[i].t_lo > 0) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0) << "need an entry with t_lo > 0";
  IndexEntry mangled = root.index[victim];
  mangled.t_lo = 0;
  CorruptRootEntry(victim, mangled);
  EXPECT_FALSE(TreeChecker(tree_.get()).Check().ok());
}

TEST_F(CheckerCatchesTest, DetectsMigrationInvariantViolation) {
  DecodedNode root;
  ASSERT_TRUE(tree_->ReadNode(tree_->root(), &root).ok());
  // Make a current child look historical by giving it a finite t_hi.
  int victim = -1;
  for (size_t i = 0; i < root.index.size(); ++i) {
    if (root.index[i].current_child()) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0);
  IndexEntry mangled = root.index[victim];
  mangled.t_hi = tree_->Now() + 1;  // finite, but child is a current page
  CorruptRootEntry(victim, mangled);
  EXPECT_FALSE(TreeChecker(tree_.get()).Check().ok());
}

TEST_F(CheckerCatchesTest, NodesVisitedCoversWholeTree) {
  TreeChecker checker(tree_.get());
  ASSERT_TRUE(checker.Check().ok());
  // At minimum: root + its children + every migrated node.
  EXPECT_GE(checker.nodes_visited(),
            1 + tree_->counters().hist_data_nodes);
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
