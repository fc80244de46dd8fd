// Transaction layer tests: commit-time stamping, atomic multi-key commits,
// abort erase, write-write conflicts, and the paper's section 4.1 claim —
// read-only transactions see a consistent snapshot without locks while
// updaters run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/tree_check.h"
#include "txn/txn_manager.h"

namespace tsb {
namespace txn {
namespace {

using tsb_tree::TsbOptions;
using tsb_tree::TsbTree;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    TsbOptions opts;
    opts.page_size = 512;
    ASSERT_TRUE(TsbTree::Open(magnetic_.get(), worm_.get(), opts, &tree_).ok());
    mgr_ = std::make_unique<TxnManager>(tree_.get());
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<TsbTree> tree_;
  std::unique_ptr<TxnManager> mgr_;
};

TEST_F(TxnTest, CommitMakesWritesVisibleAtOneTimestamp) {
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_->Begin(&t).ok());
  ASSERT_TRUE(t->Put("a", "1").ok());
  ASSERT_TRUE(t->Put("b", "2").ok());
  // Invisible before commit.
  std::string v;
  EXPECT_TRUE(tree_->Get({}, "a", &v).IsNotFound());
  Timestamp cts = 0;
  ASSERT_TRUE(t->Commit(&cts).ok());
  EXPECT_GT(cts, 0u);
  Timestamp ats = 0, bts = 0;
  ASSERT_TRUE(tree_->Get({}, "a", &v, &ats).ok());
  EXPECT_EQ("1", v);
  ASSERT_TRUE(tree_->Get({}, "b", &v, &bts).ok());
  EXPECT_EQ("2", v);
  EXPECT_EQ(cts, ats);  // one commit timestamp for the whole transaction
  EXPECT_EQ(cts, bts);
}

TEST_F(TxnTest, AbortErasesEverything) {
  ASSERT_TRUE(tree_->Put("a", "keep", 1).ok());
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_->Begin(&t).ok());
  ASSERT_TRUE(t->Put("a", "doomed").ok());
  ASSERT_TRUE(t->Put("b", "doomed too").ok());
  ASSERT_TRUE(t->Abort().ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "a", &v).ok());
  EXPECT_EQ("keep", v);
  EXPECT_TRUE(tree_->Get({}, "b", &v).IsNotFound());
  tsb_tree::TreeChecker checker(tree_.get());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(TxnTest, DestructionAbortsActiveTxn) {
  {
    std::unique_ptr<Transaction> t;
    ASSERT_TRUE(mgr_->Begin(&t).ok());
    ASSERT_TRUE(t->Put("ghost", "boo").ok());
    // dropped without Commit/Abort
  }
  std::string v;
  EXPECT_TRUE(tree_->Get({}, "ghost", &v).IsNotFound());
  EXPECT_EQ(0u, mgr_->active_txns());
  // The lock is released: a new transaction can write the key.
  std::unique_ptr<Transaction> t2;
  ASSERT_TRUE(mgr_->Begin(&t2).ok());
  EXPECT_TRUE(t2->Put("ghost", "alive").ok());
  ASSERT_TRUE(t2->Commit().ok());
}

TEST_F(TxnTest, WriteWriteConflictRejected) {
  std::unique_ptr<Transaction> t1, t2;
  ASSERT_TRUE(mgr_->Begin(&t1).ok());
  ASSERT_TRUE(mgr_->Begin(&t2).ok());
  ASSERT_TRUE(t1->Put("contested", "one").ok());
  EXPECT_TRUE(t2->Put("contested", "two").IsTxnConflict());
  // Different key is fine.
  EXPECT_TRUE(t2->Put("other", "x").ok());
  ASSERT_TRUE(t1->Commit().ok());
  // After t1 finishes, t2 can take the key.
  EXPECT_TRUE(t2->Put("contested", "two").ok());
  ASSERT_TRUE(t2->Commit().ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "contested", &v).ok());
  EXPECT_EQ("two", v);
}

TEST_F(TxnTest, ReadYourOwnWrites) {
  ASSERT_TRUE(tree_->Put("k", "committed", 1).ok());
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_->Begin(&t).ok());
  std::string v;
  ASSERT_TRUE(t->Get("k", &v).ok());
  EXPECT_EQ("committed", v);
  ASSERT_TRUE(t->Put("k", "mine").ok());
  ASSERT_TRUE(t->Get("k", &v).ok());
  EXPECT_EQ("mine", v);
  // Others still see the committed version.
  ASSERT_TRUE(tree_->Get({}, "k", &v).ok());
  EXPECT_EQ("committed", v);
  ASSERT_TRUE(t->Abort().ok());
}

TEST_F(TxnTest, RepeatedPutInTxnOverwritesOwnWrite) {
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_->Begin(&t).ok());
  ASSERT_TRUE(t->Put("k", "v1").ok());
  ASSERT_TRUE(t->Put("k", "v2").ok());
  EXPECT_EQ(1u, t->write_count());
  ASSERT_TRUE(t->Commit().ok());
  std::string v;
  ASSERT_TRUE(tree_->Get({}, "k", &v).ok());
  EXPECT_EQ("v2", v);
}

TEST_F(TxnTest, FinishedTxnRejectsFurtherUse) {
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_->Begin(&t).ok());
  ASSERT_TRUE(t->Put("k", "v").ok());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_TRUE(t->Put("k", "again").IsTxnNotActive());
  std::string v;
  EXPECT_TRUE(t->Get("k", &v).IsTxnNotActive());
  EXPECT_TRUE(t->Commit().IsTxnNotActive());
  EXPECT_TRUE(t->Abort().IsTxnNotActive());
}

// Section 4.1: a read-only transaction started before an update commits
// never sees that update — even though the updater's records are in the
// same pages — and never waits.
TEST_F(TxnTest, ReadOnlySnapshotIsolation) {
  ASSERT_TRUE(tree_->Put("x", "old-x", 1).ok());
  ASSERT_TRUE(tree_->Put("y", "old-y", 2).ok());

  ReadTransaction reader = mgr_->BeginReadOnly();

  // An updater commits AFTER the reader started.
  std::unique_ptr<Transaction> w;
  ASSERT_TRUE(mgr_->Begin(&w).ok());
  ASSERT_TRUE(w->Put("x", "new-x").ok());
  ASSERT_TRUE(w->Put("z", "new-z").ok());
  ASSERT_TRUE(w->Commit().ok());

  // The reader sees the pre-commit state — no locks were taken.
  std::string v;
  ASSERT_TRUE(reader.Get("x", &v).ok());
  EXPECT_EQ("old-x", v);
  ASSERT_TRUE(reader.Get("y", &v).ok());
  EXPECT_EQ("old-y", v);
  EXPECT_TRUE(reader.Get("z", &v).IsNotFound());

  // A fresh reader sees the new state.
  ReadTransaction reader2 = mgr_->BeginReadOnly();
  ASSERT_TRUE(reader2.Get("x", &v).ok());
  EXPECT_EQ("new-x", v);
}

TEST_F(TxnTest, ReadOnlyBackupScanIgnoresConcurrentUncommitted) {
  // The paper's motivating case: database unloading/backup without locks.
  for (int i = 0; i < 50; ++i) {
    char kb[8];
    snprintf(kb, sizeof(kb), "k%03d", i);
    ASSERT_TRUE(tree_->Put(kb, "stable", i + 1).ok());
  }
  ReadTransaction backup = mgr_->BeginReadOnly();
  // Concurrent uncommitted writes land while the "backup" runs.
  std::unique_ptr<Transaction> w;
  ASSERT_TRUE(mgr_->Begin(&w).ok());
  ASSERT_TRUE(w->Put("k010", "dirty").ok());
  ASSERT_TRUE(w->Put("zz-new", "dirty").ok());

  auto it = backup.NewCursor();
  ASSERT_TRUE(it->SeekToFirst().ok());
  size_t n = 0;
  while (it->Valid()) {
    EXPECT_EQ("stable", it->value().ToString());
    ++n;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(50u, n);
  ASSERT_TRUE(w->Commit().ok());
}

TEST_F(TxnTest, ManyTransactionsUnderSplits) {
  // Transactions with writes spanning splits: stamping must find every
  // uncommitted record wherever it moved.
  for (int round = 0; round < 120; ++round) {
    std::unique_ptr<Transaction> t;
    ASSERT_TRUE(mgr_->Begin(&t).ok());
    for (int i = 0; i < 5; ++i) {
      char kb[8];
      snprintf(kb, sizeof(kb), "k%03d", (round + i * 7) % 40);
      ASSERT_TRUE(t->Put(kb, "r" + std::to_string(round)).ok());
    }
    if (round % 3 == 2) {
      ASSERT_TRUE(t->Abort().ok());
    } else {
      ASSERT_TRUE(t->Commit().ok());
    }
  }
  tsb_tree::TreeChecker checker(tree_.get());
  Status s = checker.Check();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(0u, mgr_->active_txns());
}

}  // namespace
}  // namespace txn
}  // namespace tsb
