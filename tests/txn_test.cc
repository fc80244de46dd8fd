// Transaction layer tests: commit-time stamping, atomic multi-key commits,
// abort erase, write-write conflicts, the paper's section 4.1 claim —
// read-only transactions see a consistent snapshot without locks while
// updaters run — and the watermark pin a commit that fails mid-stamp sets.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/tree_check.h"
#include "txn/commit_ledger.h"
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

// A commit hook that fails every commit of key "bad" — after the keys are
// stamped, so the failure is mid-stamp.
Status FailBadKey(const Slice& key, const Slice*, const Slice&, Timestamp) {
  return key == Slice("bad") ? Status::IOError("injected hook failure")
                             : Status::OK();
}

/// Commits one transaction writing `key`; returns its status.
Status CommitOne(TxnManager* mgr, const std::string& key,
                 Timestamp* ts = nullptr) {
  std::unique_ptr<Transaction> t;
  TSB_RETURN_IF_ERROR(mgr->Begin(&t));
  TSB_RETURN_IF_ERROR(t->Put(key, "v"));
  return t->Commit(ts);
}

TEST_F(TxnTest, MidStampFailurePinsWatermarkUntilRepair) {
  mgr_->SetCommitHook(FailBadKey);
  Timestamp before = 0;
  ASSERT_TRUE(CommitOne(mgr_.get(), "a", &before).ok());
  EXPECT_EQ(before, tree_->VisibleNow());

  EXPECT_FALSE(CommitOne(mgr_.get(), "bad").ok());
  ASSERT_EQ(1u, mgr_->failed_commits().size());
  const Timestamp ts_a = mgr_->failed_commits()[0];
  EXPECT_GT(ts_a, before);

  // A later commit on other keys succeeds, but the watermark stays below
  // the torn timestamp.
  Timestamp later = 0;
  ASSERT_TRUE(CommitOne(mgr_.get(), "b", &later).ok());
  EXPECT_GT(later, ts_a);
  EXPECT_LT(tree_->VisibleNow(), ts_a);
  std::string v;
  EXPECT_TRUE(mgr_->BeginReadOnly().Get("b", &v).IsNotFound());

  // Repair as the database's Resume does: purge, then lift the pin.
  mgr_->FreezeCommits();
  uint64_t purged = 0;
  ASSERT_TRUE(tree_->PurgeCommittedAt(ts_a, &purged).ok());
  EXPECT_EQ(1u, purged);
  mgr_->ResetAfterRepair();
  mgr_->UnfreezeCommits();
  EXPECT_TRUE(mgr_->failed_commits().empty());
  EXPECT_EQ(later, tree_->VisibleNow());
  ASSERT_TRUE(mgr_->BeginReadOnly().Get("b", &v).ok());
  EXPECT_TRUE(mgr_->BeginReadOnly().Get("bad", &v).IsNotFound());
}

TEST_F(TxnTest, MidStampFailurePinsSharedLedgerUntilRepair) {
  // Two trees on one clock, two managers committing through one ledger:
  // the shape of a sharded database.
  CommitLedger ledger;
  TsbOptions opts;
  opts.page_size = 512;
  opts.external_clock = ledger.clock();
  MemDevice magnetic_a, magnetic_b;
  WormDevice worm_a(512), worm_b(512);
  std::unique_ptr<TsbTree> tree_a, tree_b;
  ASSERT_TRUE(TsbTree::Open(&magnetic_a, &worm_a, opts, &tree_a).ok());
  ASSERT_TRUE(TsbTree::Open(&magnetic_b, &worm_b, opts, &tree_b).ok());
  TxnManager mgr_a(tree_a.get(), &ledger);
  TxnManager mgr_b(tree_b.get(), &ledger);
  mgr_a.SetCommitHook(FailBadKey);
  mgr_b.SetCommitHook(FailBadKey);
  LogicalClock* clock = ledger.clock();

  // A failure on one manager pins the other manager's publishes.
  EXPECT_FALSE(CommitOne(&mgr_a, "bad").ok());
  ASSERT_EQ(1u, mgr_a.failed_commits().size());
  const Timestamp ts_a = mgr_a.failed_commits()[0];
  Timestamp on_b = 0;
  ASSERT_TRUE(CommitOne(&mgr_b, "x", &on_b).ok());
  EXPECT_GT(on_b, ts_a);
  EXPECT_LT(clock->Visible(), ts_a);
  mgr_a.FreezeCommits();
  uint64_t purged = 0;
  ASSERT_TRUE(tree_a->PurgeCommittedAt(ts_a, &purged).ok());
  mgr_a.ResetAfterRepair();
  mgr_a.UnfreezeCommits();
  EXPECT_EQ(on_b, clock->Visible());

  // A failed CommitPrepared at an external timestamp stays pinned through
  // the manager's repair: its caller lifts the pin.
  const Timestamp ts_e = ledger.TickCommit();
  std::unique_ptr<Transaction> t;
  ASSERT_TRUE(mgr_b.Begin(&t).ok());
  ASSERT_TRUE(t->Put("bad", "v").ok());
  EXPECT_FALSE(mgr_b.CommitPrepared(t.get(), ts_e).ok());
  EXPECT_EQ(ts_e - 1, ledger.PoisonCommit(ts_e));
  Timestamp on_a = 0;
  ASSERT_TRUE(CommitOne(&mgr_a, "y", &on_a).ok());
  EXPECT_GT(on_a, ts_e);
  EXPECT_EQ(ts_e - 1, clock->Visible());
  ASSERT_EQ(std::vector<Timestamp>{ts_e}, mgr_b.failed_commits());
  mgr_b.FreezeCommits();
  ASSERT_TRUE(tree_b->PurgeCommittedAt(ts_e, &purged).ok());
  mgr_b.ResetAfterRepair();
  mgr_b.UnfreezeCommits();
  EXPECT_TRUE(mgr_b.failed_commits().empty());
  EXPECT_EQ(ts_e - 1, clock->Visible());
  ledger.Unpoison(ts_e);
  EXPECT_EQ(on_a, clock->Visible());
}

}  // namespace
}  // namespace txn
}  // namespace tsb
