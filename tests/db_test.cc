// MultiVersionDB facade tests: autocommit, transactions with secondary
// index maintenance, temporal joins through FindBySecondary, and flush.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "db/multiversion_db.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"

namespace tsb {
namespace db {
namespace {

// Record values are "owner=NAME;balance=N"; the owner index extracts NAME.
std::optional<std::string> ExtractOwner(const Slice& value) {
  const std::string s = value.ToString();
  const size_t start = s.find("owner=");
  if (start == std::string::npos) return std::nullopt;
  const size_t end = s.find(';', start);
  return s.substr(start + 6,
                  end == std::string::npos ? std::string::npos : end - start - 6);
}

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    magnetic_ = std::make_unique<MemDevice>();
    worm_ = std::make_unique<WormDevice>(512);
    DbOptions opts;
    opts.tree.page_size = 512;
    ASSERT_TRUE(
        MultiVersionDB::Open(magnetic_.get(), worm_.get(), opts, &db_).ok());
  }

  std::unique_ptr<MemDevice> magnetic_;
  std::unique_ptr<WormDevice> worm_;
  std::unique_ptr<MultiVersionDB> db_;
};

TEST_F(DbTest, PoolAndHistStatsDiagnoseBothAxes) {
  // Drive enough versions through the tree to force time splits, then
  // read both axes: buffer-pool counters cover the magnetic (current)
  // side, HistStats the historical side — together the mixed workload is
  // observable end to end.
  Timestamp first_round_done = 0;
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 8; ++k) {
      const std::string key = "acct-" + std::to_string(k);
      Timestamp cts = 0;
      ASSERT_TRUE(
          db_->Put(key, "owner=o" + std::to_string(k) + ";balance=" +
                            std::to_string(round),
                   &cts)
              .ok());
      if (round == 0) first_round_done = cts;
    }
  }
  std::string v;
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(db_->Get({}, "acct-" + std::to_string(k), &v).ok());
    ASSERT_TRUE(
        db_->Get({.as_of = first_round_done}, "acct-" + std::to_string(k), &v)
            .ok());
  }
  const BufferPoolStats pool = db_->PoolStats();
  EXPECT_GT(pool.hits, 0u);
  EXPECT_GE(pool.hit_ratio(), 0.0);
  EXPECT_LE(pool.hit_ratio(), 1.0);
  const HistReadStats hist = db_->HistStats();
  EXPECT_GT(hist.blob_reads, 0u);
  // The WORM device cannot mmap: every miss takes the copying path.
  EXPECT_EQ(0u, hist.mapped_bytes);
  EXPECT_GT(hist.copied_bytes, 0u);
  // v3 is the default write format; written nodes shrink vs raw.
  EXPECT_GT(hist.node_stored_bytes, 0u);
  EXPECT_LT(hist.compression_ratio(), 1.0);
}

TEST_F(DbTest, AutocommitPutGet) {
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Put("acct-1", "owner=ann;balance=100", &cts).ok());
  EXPECT_GT(cts, 0u);
  std::string v;
  Timestamp ts = 0;
  ASSERT_TRUE(db_->Get({}, "acct-1", &v, &ts).ok());
  EXPECT_EQ("owner=ann;balance=100", v);
  EXPECT_EQ(cts, ts);
}

TEST_F(DbTest, AsOfReadsReconstructHistory) {
  Timestamp t1, t2, t3;
  ASSERT_TRUE(db_->Put("acct", "owner=ann;balance=100", &t1).ok());
  ASSERT_TRUE(db_->Put("acct", "owner=ann;balance=250", &t2).ok());
  ASSERT_TRUE(db_->Put("acct", "owner=bob;balance=250", &t3).ok());
  std::string v;
  ASSERT_TRUE(db_->Get({.as_of = t1}, "acct", &v).ok());
  EXPECT_EQ("owner=ann;balance=100", v);
  ASSERT_TRUE(db_->Get({.as_of = t2}, "acct", &v).ok());
  EXPECT_EQ("owner=ann;balance=250", v);
  ASSERT_TRUE(db_->Get({.as_of = t3}, "acct", &v).ok());
  EXPECT_EQ("owner=bob;balance=250", v);
}

TEST_F(DbTest, SecondaryIndexMaintainedOnCommit) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  Timestamp t1 = 0, t2 = 0;
  ASSERT_TRUE(db_->Put("acct-1", "owner=ann;balance=1", &t1).ok());
  ASSERT_TRUE(db_->Put("acct-2", "owner=ann;balance=2", &t2).ok());
  ASSERT_TRUE(db_->Put("acct-3", "owner=bob;balance=3").ok());

  std::vector<std::string> pks;
  ASSERT_TRUE(db_->index("by_owner")->Lookup("ann", &pks).ok());
  ASSERT_EQ(2u, pks.size());
  EXPECT_EQ("acct-1", pks[0]);
  EXPECT_EQ("acct-2", pks[1]);

  // acct-2 changes hands.
  Timestamp t4 = 0;
  ASSERT_TRUE(db_->Put("acct-2", "owner=bob;balance=2", &t4).ok());
  ASSERT_TRUE(db_->index("by_owner")->Lookup("ann", &pks).ok());
  EXPECT_EQ(1u, pks.size());
  ASSERT_TRUE(db_->index("by_owner")->Lookup("bob", &pks).ok());
  EXPECT_EQ(2u, pks.size());
  // The past is intact.
  ASSERT_TRUE(db_->index("by_owner")->LookupAsOf("ann", t2, &pks).ok());
  EXPECT_EQ(2u, pks.size());
}

TEST_F(DbTest, SecondaryIndexUnchangedFieldNotTouched) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  ASSERT_TRUE(db_->Put("acct", "owner=ann;balance=1").ok());
  const auto& before = db_->index("by_owner")->tree()->counters();
  const uint64_t puts_before = before.puts;
  // Balance update, same owner: the index must not be written.
  ASSERT_TRUE(db_->Put("acct", "owner=ann;balance=2").ok());
  EXPECT_EQ(puts_before, db_->index("by_owner")->tree()->counters().puts);
}

TEST_F(DbTest, FindBySecondaryJoinsPrimary) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  Timestamp t_ann = 0;
  ASSERT_TRUE(db_->Put("acct-1", "owner=ann;balance=10", &t_ann).ok());
  ASSERT_TRUE(db_->Put("acct-2", "owner=ann;balance=20").ok());
  ASSERT_TRUE(db_->Put("acct-1", "owner=cho;balance=11").ok());

  std::vector<std::pair<std::string, std::string>> kvs;
  // As of t_ann both accounts... acct-2 did not exist yet at t_ann.
  ASSERT_TRUE(
      db_->FindBySecondary({.as_of = t_ann}, "by_owner", "ann", &kvs).ok());
  ASSERT_EQ(1u, kvs.size());
  EXPECT_EQ("acct-1", kvs[0].first);
  EXPECT_EQ("owner=ann;balance=10", kvs[0].second);
  // Now: only acct-2 belongs to ann.
  ASSERT_TRUE(db_->FindBySecondary({}, "by_owner", "ann", &kvs).ok());
  ASSERT_EQ(1u, kvs.size());
  EXPECT_EQ("acct-2", kvs[0].first);
  ASSERT_TRUE(db_->FindBySecondary({}, "by_owner", "cho", &kvs).ok());
  ASSERT_EQ(1u, kvs.size());
  EXPECT_EQ("acct-1", kvs[0].first);
}

TEST_F(DbTest, TxnAtomicAcrossPrimaryAndSecondary) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  std::unique_ptr<txn::Transaction> t;
  ASSERT_TRUE(db_->Begin(&t).ok());
  ASSERT_TRUE(t->Put("a1", "owner=x;balance=1").ok());
  ASSERT_TRUE(t->Put("a2", "owner=x;balance=2").ok());
  // Nothing visible before commit, in primary or index.
  std::vector<std::string> pks;
  ASSERT_TRUE(db_->index("by_owner")->Lookup("x", &pks).ok());
  EXPECT_TRUE(pks.empty());
  Timestamp cts = 0;
  ASSERT_TRUE(t->Commit(&cts).ok());
  ASSERT_TRUE(db_->index("by_owner")->Lookup("x", &pks).ok());
  EXPECT_EQ(2u, pks.size());
}

TEST_F(DbTest, AbortedTxnNeverReachesIndexes) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  std::unique_ptr<txn::Transaction> t;
  ASSERT_TRUE(db_->Begin(&t).ok());
  ASSERT_TRUE(t->Put("a1", "owner=ghost;balance=1").ok());
  ASSERT_TRUE(t->Abort().ok());
  std::vector<std::string> pks;
  ASSERT_TRUE(db_->index("by_owner")->Lookup("ghost", &pks).ok());
  EXPECT_TRUE(pks.empty());
  std::string v;
  EXPECT_TRUE(db_->Get({}, "a1", &v).IsNotFound());
}

TEST_F(DbTest, UnindexedValuesSkipped) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  ASSERT_TRUE(db_->Put("weird", "no owner field here").ok());
  std::string v;
  ASSERT_TRUE(db_->Get({}, "weird", &v).ok());
  // Transition into indexed state works too.
  ASSERT_TRUE(db_->Put("weird", "owner=late;balance=0").ok());
  std::vector<std::string> pks;
  ASSERT_TRUE(db_->index("by_owner")->Lookup("late", &pks).ok());
  EXPECT_EQ(1u, pks.size());
  // And out again.
  ASSERT_TRUE(db_->Put("weird", "gone plain").ok());
  ASSERT_TRUE(db_->index("by_owner")->Lookup("late", &pks).ok());
  EXPECT_TRUE(pks.empty());
}

TEST_F(DbTest, DuplicateIndexNameRejected) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  EXPECT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner)
                  .IsInvalidArgument());
  EXPECT_EQ(nullptr, db_->index("nope"));
}

TEST_F(DbTest, SnapshotAndHistoryIterationThroughFacade) {
  Timestamp first = 0;
  ASSERT_TRUE(db_->Put("k1", "v1", &first).ok());
  ASSERT_TRUE(db_->Put("k2", "v2").ok());
  ASSERT_TRUE(db_->Put("k1", "v1b").ok());
  auto snap = db_->NewCursor({.as_of = first});
  ASSERT_TRUE(snap->SeekToFirst().ok());
  ASSERT_TRUE(snap->Valid());
  EXPECT_EQ("k1", snap->key().ToString());
  EXPECT_EQ("v1", snap->value().ToString());
  ASSERT_TRUE(snap->Next().ok());
  EXPECT_FALSE(snap->Valid());

  auto hist = db_->NewCursor();
  ASSERT_TRUE(hist->Seek("k1").ok());
  ASSERT_TRUE(hist->Valid());
  EXPECT_EQ("v1b", hist->value().ToString());
  ASSERT_TRUE(hist->NextVersion().ok());
  EXPECT_EQ("v1", hist->value().ToString());
  ASSERT_TRUE(hist->NextVersion().ok());
  EXPECT_FALSE(hist->Valid());
}

TEST_F(DbTest, FlushSucceedsWithIndexes) {
  ASSERT_TRUE(db_->CreateSecondaryIndex("by_owner", ExtractOwner).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put("k" + std::to_string(i),
                         "owner=o" + std::to_string(i % 5) + ";balance=1")
                    .ok());
  }
  EXPECT_TRUE(db_->Flush().ok());
  tsb_tree::SpaceStats stats;
  ASSERT_TRUE(db_->ComputeSpaceStats(&stats).ok());
  EXPECT_EQ(100u, stats.logical_versions);
}

}  // namespace
}  // namespace db
}  // namespace tsb
