// Sharded fault injection: one sick shard degrades read-only ALONE while
// the others keep writing; a multi-shard batch that loses a shard
// mid-commit stays decided-but-invisible (no reader ever sees it torn)
// until Resume() or a reopen completes it whole; a coordinator-log fault
// before the decision point aborts cleanly with nothing committed.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "shard/sharded_db.h"
#include "storage/fault_device.h"

namespace tsb {
namespace shard {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "fk%05d", i);
  return buf;
}

class ShardedFaultTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;
  static constexpr uint32_t kSick = 2;

  void SetUp() override {
    static std::atomic<int> counter{0};
    path_ = "/tmp/tsb_sharded_fault." + std::to_string(::getpid()) + "." +
            std::to_string(counter.fetch_add(1));
    ShardedDB::Destroy(path_);
    sick_wal_plan_ = std::make_shared<FaultPlan>();
    coord_plan_ = std::make_shared<FaultPlan>();
  }
  void TearDown() override {
    db_.reset();
    ShardedDB::Destroy(path_);
  }

  ShardedOptions Options() {
    ShardedOptions o;
    o.num_shards = kShards;
    o.base.tree.page_size = 512;
    o.base.tree.buffer_pool_frames = 4096;
    o.coord_fault_plan = coord_plan_;
    // Target exactly one shard's WAL: the per-shard hook is the last
    // word on each shard's options.
    o.shard_options_hook = [this](uint32_t shard, DbOptions* opts) {
      if (shard == kSick) opts->wal_fault_plan = sick_wal_plan_;
    };
    return o;
  }

  void OpenDb() {
    Status s = ShardedDB::Open(path_, Options(), &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  /// One key per shard, round-robin probed from a dense range.
  std::string KeyOnShard(uint32_t shard, int salt = 0) {
    for (int i = salt * 1000; i < salt * 1000 + 1000; ++i) {
      if (db_->ShardOf(Key(i)) == shard) return Key(i);
    }
    ADD_FAILURE() << "no key found for shard " << shard;
    return "";
  }

  std::string path_;
  std::shared_ptr<FaultPlan> sick_wal_plan_;
  std::shared_ptr<FaultPlan> coord_plan_;
  std::unique_ptr<ShardedDB> db_;
};

TEST_F(ShardedFaultTest, OneSickShardDegradesAlone) {
  OpenDb();
  // Baseline on every shard.
  std::vector<std::string> baseline(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    baseline[s] = KeyOnShard(s);
    ASSERT_TRUE(db_->Put(baseline[s], "base").ok());
  }

  // Trip the sick shard's next WAL append: the commit fails before
  // anything is stamped, so the shard degrades with a clean ledger abort
  // — no global watermark pin — and the others stay fully live.
  sick_wal_plan_->FailNth(FaultOp::kAppend, 1, FaultKind::kEIO,
                          /*sticky=*/false);
  const std::string sick_key = KeyOnShard(kSick, /*salt=*/1);
  EXPECT_TRUE(db_->Put(sick_key, "doomed").IsIOError());

  // Exactly one shard is degraded; the facade reports it per shard.
  EXPECT_TRUE(db_->degraded());
  EXPECT_TRUE(db_->BackgroundError().IsIOError());
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(s == kSick, db_->shard_degraded(s)) << "shard " << s;
  }
  EXPECT_GE(db_->shard_error_stats(kSick).degradations, 1u);
  EXPECT_EQ(0u, db_->shard_error_stats(0).degradations);

  // The sick shard is read-only: its baseline still serves, new writes
  // fail fast. Every OTHER shard keeps accepting writes that become
  // durable AND visible (the failed commit aborted in the ledger, so the
  // watermark is not pinned).
  std::string v;
  ASSERT_TRUE(db_->Get({}, baseline[kSick], &v).ok());
  EXPECT_EQ("base", v);
  EXPECT_TRUE(db_->Put(KeyOnShard(kSick, 2), "x").IsIOError());
  for (uint32_t s = 0; s < kShards; ++s) {
    if (s == kSick) continue;
    const std::string k = KeyOnShard(s, /*salt=*/3);
    Timestamp cts = 0;
    ASSERT_TRUE(db_->Put(k, "healthy-write", &cts).ok()) << "shard " << s;
    ASSERT_TRUE(db_->Get({}, k, &v).ok());
    EXPECT_EQ("healthy-write", v);
    EXPECT_GE(db_->Now(), cts);
  }
  // Multi-shard batches touching the sick shard fail fast at the health
  // gate — BEFORE any decision is logged.
  WriteBatch touching;
  touching.Put(baseline[0], "t0");
  touching.Put(baseline[kSick], "t2");
  EXPECT_TRUE(db_->Write(touching).IsIOError());
  EXPECT_EQ(0u, db_->pending_decisions());

  // Heal + resume restores full service on the sick shard.
  sick_wal_plan_->Clear();
  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  EXPECT_FALSE(db_->degraded());
  ASSERT_TRUE(db_->Put(sick_key, "recovered").ok());
  ASSERT_TRUE(db_->Get({}, sick_key, &v).ok());
  EXPECT_EQ("recovered", v);
  // The doomed pre-heal write never surfaces.
  EXPECT_TRUE(db_->Get({}, KeyOnShard(kSick, 2), &v).IsNotFound());
}

TEST_F(ShardedFaultTest, DecidedBatchSurvivesMidCommitShardFailure) {
  OpenDb();
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(db_->Put(KeyOnShard(s), "base").ok());
  }

  // Build a batch spanning every shard, then arm the sick shard's WAL:
  // the decision will reach the coordinator, the sick shard's
  // CommitPrepared will fail.
  WriteBatch batch;
  std::vector<std::string> batch_keys;
  for (uint32_t s = 0; s < kShards; ++s) {
    batch_keys.push_back(KeyOnShard(s, /*salt=*/4));
    batch.Put(batch_keys.back(), "decided-" + std::to_string(s));
  }
  sick_wal_plan_->FailNth(FaultOp::kSync, 1, FaultKind::kEIO,
                          /*sticky=*/false);
  Timestamp cts = 0;
  // Acked: the decision record is durable, the batch IS committed.
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  ASSERT_GT(cts, 0u);
  EXPECT_EQ(1u, db_->pending_decisions());
  EXPECT_TRUE(db_->shard_degraded(kSick));
  EXPECT_FALSE(db_->shard_degraded(0));

  // Torn-batch check: the watermark is pinned below the decision, so NO
  // part of the batch is visible — not even slices on healthy shards
  // that stamped successfully.
  EXPECT_LT(db_->Now(), cts);
  ShardedReadTransaction snap = db_->BeginReadOnly();
  std::string v;
  for (const auto& k : batch_keys) {
    EXPECT_TRUE(snap.Get(k, &v).IsNotFound()) << k;
    EXPECT_TRUE(db_->Get({}, k, &v).IsNotFound()) << k;
  }

  // Healthy shards still accept writes; they are durable but invisible
  // above the pin (visibility is deferred, never torn).
  const std::string healthy_key = KeyOnShard(0, /*salt=*/5);
  Timestamp healthy_ts = 0;
  ASSERT_TRUE(db_->Put(healthy_key, "behind-the-pin", &healthy_ts).ok());
  EXPECT_GT(healthy_ts, cts);
  EXPECT_TRUE(db_->Get({}, healthy_key, &v).IsNotFound());

  // Heal + resume: the pending decision completes on the healed shard
  // and the pin lifts — the batch becomes visible atomically, at its
  // original timestamp, along with everything queued behind it.
  sick_wal_plan_->Clear();
  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  EXPECT_EQ(0u, db_->pending_decisions());
  EXPECT_FALSE(db_->degraded());
  EXPECT_GE(db_->Now(), healthy_ts);
  for (uint32_t s = 0; s < kShards; ++s) {
    Timestamp vts = 0;
    ASSERT_TRUE(db_->Get({}, batch_keys[s], &v, &vts).ok()) << batch_keys[s];
    EXPECT_EQ("decided-" + std::to_string(s), v);
    EXPECT_EQ(cts, vts);
  }
  ASSERT_TRUE(db_->Get({}, healthy_key, &v).ok());
  EXPECT_EQ("behind-the-pin", v);
}

TEST_F(ShardedFaultTest, CrashWithPendingDecisionRecoversWholeBatch) {
  OpenDb();
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(db_->Put(KeyOnShard(s), "base").ok());
  }
  WriteBatch batch;
  std::vector<std::string> batch_keys;
  for (uint32_t s = 0; s < kShards; ++s) {
    batch_keys.push_back(KeyOnShard(s, /*salt=*/6));
    batch.Put(batch_keys.back(), "crashed-" + std::to_string(s));
  }
  sick_wal_plan_->FailNth(FaultOp::kSync, 1, FaultKind::kEIO,
                          /*sticky=*/false);
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  ASSERT_EQ(1u, db_->pending_decisions());

  // "Crash" instead of Resume: tear the facade down degraded (the
  // destructor skips the checkpoint, so the coordinator log survives)
  // and reopen. Recovery must re-apply the missing slice and surface the
  // whole batch.
  sick_wal_plan_->Clear();
  db_.reset();
  OpenDb();
  EXPECT_GE(db_->in_doubt_replayed(), 1u);
  EXPECT_EQ(0u, db_->pending_decisions());
  EXPECT_FALSE(db_->degraded());
  EXPECT_GE(db_->Now(), cts);
  std::string v;
  for (uint32_t s = 0; s < kShards; ++s) {
    Timestamp vts = 0;
    ASSERT_TRUE(db_->Get({}, batch_keys[s], &v, &vts).ok()) << batch_keys[s];
    EXPECT_EQ("crashed-" + std::to_string(s), v);
    EXPECT_EQ(cts, vts);
  }
  // And atomically: just below the decision, fully absent.
  ReadOptions before;
  before.as_of = cts - 1;
  for (const auto& k : batch_keys) {
    EXPECT_TRUE(db_->Get(before, k, &v).IsNotFound()) << k;
  }
}

// Shards checkpoint in parallel; one shard's device failing mid-fold
// fails ShardedDB::Checkpoint with that error and keeps the coordinator
// log (only a fold where every shard succeeded may reset it). A reopen
// then recovers every acknowledged batch.
TEST_F(ShardedFaultTest, ParallelCheckpointFaultKeepsCoordinatorLog) {
  auto device_plan = std::make_shared<FaultPlan>();
  ShardedOptions o = Options();
  o.base.wrap_device = [device_plan](const std::string& role,
                                     std::unique_ptr<Device> device)
      -> std::unique_ptr<Device> {
    if (role != "shard-00" + std::to_string(kSick) + "/magnetic") {
      return device;
    }
    return std::make_unique<FaultInjectingDevice>(std::move(device),
                                                  device_plan);
  };
  ASSERT_TRUE(ShardedDB::Open(path_, o, &db_).ok());
  std::map<std::string, std::pair<std::string, Timestamp>> acked;
  for (int round = 0; round < 40; ++round) {
    WriteBatch batch;
    for (uint32_t s = 0; s < kShards; ++s) {
      batch.Put(KeyOnShard(s, round), "v" + std::to_string(round));
    }
    Timestamp cts = 0;
    ASSERT_TRUE(db_->Write(batch, &cts).ok());
    for (uint32_t s = 0; s < kShards; ++s) {
      acked[KeyOnShard(s, round)] = {"v" + std::to_string(round), cts};
    }
  }
  const std::string coord_log = path_ + "/coord.tsb";
  struct stat before;
  ASSERT_EQ(0, ::stat(coord_log.c_str(), &before));
  ASSERT_GT(before.st_size, 0);

  device_plan->FailNth(FaultOp::kWrite, 1, FaultKind::kEIO, /*sticky=*/true);
  Status s = db_->Checkpoint();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_GE(device_plan->fired(FaultOp::kWrite), 1u);
  EXPECT_TRUE(db_->shard_degraded(kSick));
  struct stat after;
  ASSERT_EQ(0, ::stat(coord_log.c_str(), &after));
  EXPECT_EQ(before.st_size, after.st_size);

  // Close degraded (no fold), heal the disk, reopen.
  db_.reset();
  device_plan->Clear();
  OpenDb();
  EXPECT_FALSE(db_->degraded());
  for (const auto& [key, want] : acked) {
    std::string v;
    Timestamp vts = 0;
    ASSERT_TRUE(db_->Get({}, key, &v, &vts).ok()) << key;
    EXPECT_EQ(want.first, v) << key;
    EXPECT_EQ(want.second, vts) << key;
  }
}

TEST_F(ShardedFaultTest, CoordinatorAppendFaultAbortsCleanly) {
  OpenDb();
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(db_->Put(KeyOnShard(s), "base").ok());
  }
  // The decision record never lands (a failed append truncates back to
  // the last whole frame): the batch cleanly never happened, nothing is
  // pinned, and a retry succeeds once the fault passes.
  coord_plan_->FailNth(FaultOp::kAppend, 1, FaultKind::kEIO,
                       /*sticky=*/false);
  WriteBatch batch;
  std::vector<std::string> batch_keys;
  for (uint32_t s = 0; s < kShards; ++s) {
    batch_keys.push_back(KeyOnShard(s, /*salt=*/7));
    batch.Put(batch_keys.back(), "retried");
  }
  EXPECT_TRUE(db_->Write(batch).IsIOError());
  EXPECT_EQ(0u, db_->pending_decisions());
  // No shard degraded — the shards never saw an error; locks released.
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_FALSE(db_->shard_degraded(s)) << "shard " << s;
  }
  std::string v;
  for (const auto& k : batch_keys) {
    EXPECT_TRUE(db_->Get({}, k, &v).IsNotFound()) << k;
  }
  // One-shot fault spent: the same batch retries to a clean commit.
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  EXPECT_GE(db_->Now(), cts);

  db_.reset();
  OpenDb();
  for (const auto& k : batch_keys) {
    ASSERT_TRUE(db_->Get({}, k, &v).ok()) << k;
    EXPECT_EQ("retried", v);
  }
}

TEST_F(ShardedFaultTest, CoordinatorSyncFaultResolvesToAbortViaResume) {
  OpenDb();
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(db_->Put(KeyOnShard(s), "base").ok());
  }
  // The commit point's SYNC fails after a complete append: the outcome
  // is indeterminate (the frame may be durable), so the writer gets the
  // error and the timestamp stays pinned — invisible — until resolved.
  coord_plan_->FailNth(FaultOp::kSync, 1, FaultKind::kEIO, /*sticky=*/false);
  WriteBatch batch;
  std::vector<std::string> batch_keys;
  for (uint32_t s = 0; s < kShards; ++s) {
    batch_keys.push_back(KeyOnShard(s, /*salt=*/9));
    batch.Put(batch_keys.back(), "ghost");
  }
  const Timestamp before_ts = db_->Now();
  EXPECT_TRUE(db_->Write(batch).IsIOError());
  std::string v;
  for (const auto& k : batch_keys) {
    EXPECT_TRUE(db_->Get({}, k, &v).IsNotFound()) << k;
  }
  // No shard degraded, but visibility is pinned: later writes stay
  // durable-but-invisible behind the indeterminate timestamp.
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_FALSE(db_->shard_degraded(s)) << "shard " << s;
  }
  const std::string later = KeyOnShard(1, /*salt=*/10);
  Timestamp later_ts = 0;
  ASSERT_TRUE(db_->Put(later, "queued", &later_ts).ok());
  EXPECT_EQ(before_ts, db_->Now());
  EXPECT_TRUE(db_->Get({}, later, &v).IsNotFound());

  // Resume resolves the ghost to ABORT: the coordinator log is rebuilt
  // without the frame, the pin lifts, and everything queued behind it
  // becomes visible. Multi-shard commits work again on the fresh log.
  Status resume = db_->Resume();
  ASSERT_TRUE(resume.ok()) << resume.ToString();
  EXPECT_GE(db_->Now(), later_ts);
  ASSERT_TRUE(db_->Get({}, later, &v).ok());
  EXPECT_EQ("queued", v);
  for (const auto& k : batch_keys) {
    EXPECT_TRUE(db_->Get({}, k, &v).IsNotFound()) << k;
  }
  Timestamp cts = 0;
  ASSERT_TRUE(db_->Write(batch, &cts).ok());
  EXPECT_GE(db_->Now(), cts);

  // Reopen: the aborted ghost can never replay — only the post-Resume
  // commit of the same ops survives.
  db_.reset();
  OpenDb();
  EXPECT_EQ(0u, db_->in_doubt_replayed());
  for (const auto& k : batch_keys) {
    Timestamp vts = 0;
    ASSERT_TRUE(db_->Get({}, k, &v, &vts).ok()) << k;
    EXPECT_EQ("ghost", v);
    EXPECT_EQ(cts, vts);
  }
}

}  // namespace
}  // namespace shard
}  // namespace tsb
