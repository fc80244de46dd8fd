// Crash recovery: kill -9 fault injection against the WAL + checkpoint
// subsystem. Each crash test forks a child that opens the database and
// commits a concurrent write workload, appending one oracle line per
// ACKNOWLEDGED commit (written with O_APPEND write(2), so the line itself
// survives the kill exactly when the ack did). The parent SIGKILLs the
// child at a random point, reopens the database in-process, and checks
// the durability contract: every acknowledged commit is fully present at
// its commit timestamp, every batch is all-or-nothing, and the tree
// passes structural verification. KillAtEachCheckpointWindowRecovers
// instead stops one deterministic checkpoint at chosen page writes (fresh
// pages, journaled applies, the meta page). Satellite coverage rides
// along: torn MANIFEST.tmp resolution.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "db/multiversion_db.h"
#include "db/salvage.h"
#include "db/scrubber.h"
#include "storage/page.h"
#include "tsb/tree_check.h"
#include "wal/checkpoint.h"

namespace tsb {
namespace db {
namespace {

std::string Key(int writer, int seq) {
  char buf[32];
  snprintf(buf, sizeof(buf), "w%02d-key-%06d", writer, seq);
  return buf;
}

std::string Value(int writer, int seq) {
  char buf[64];
  snprintf(buf, sizeof(buf), "value-%02d-%06d-", writer, seq);
  std::string v = buf;
  v.append(48, 'x');  // some bulk so the WAL sees real volume
  return v;
}

DbOptions SmallPageOptions() {
  DbOptions opts;
  opts.tree.page_size = 512;  // small pages force splits + hist migration
  opts.tree.buffer_pool_frames = 4096;
  return opts;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/tsb_crash_test." + std::to_string(::getpid()) + "." +
            std::to_string(counter_++);
    MultiVersionDB::Destroy(path_);
  }
  void TearDown() override { MultiVersionDB::Destroy(path_); }

  std::string OraclePath() const { return path_ + ".oracle"; }

  /// Child body: commits batches forever (until killed), acking each
  /// durable commit to the oracle file. Never returns normally.
  [[noreturn]] void ChildWorkload(const DbOptions& opts, int writers,
                                  int batch_size) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    const int fd =
        ::open(OraclePath().c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) ::_exit(3);
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        for (int seq = 0;; ++seq) {
          WriteBatch batch;
          for (int i = 0; i < batch_size; ++i) {
            batch.Put(Key(w, seq * batch_size + i),
                      Value(w, seq * batch_size + i));
          }
          Timestamp cts = 0;
          if (!db->Write(batch, &cts).ok()) ::_exit(4);
          char line[64];
          const int n = snprintf(line, sizeof(line), "%d %d %llu\n", w, seq,
                                 (unsigned long long)cts);
          // One O_APPEND write per ack: the oracle can claim a commit
          // only after Write() returned, mirroring a client's view.
          if (::write(fd, line, n) != n) ::_exit(5);
        }
      });
    }
    for (auto& t : threads) t.join();
    ::_exit(0);
  }

  /// Forks the workload, kills it after `run_ms`, reaps it. Returns false
  /// if the child exited on its own (setup error) instead of being killed.
  bool RunAndKill(const DbOptions& opts, int writers, int batch_size,
                  int run_ms) {
    const pid_t pid = ::fork();
    if (pid == 0) ChildWorkload(opts, writers, batch_size);
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    return WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  }

  struct Ack {
    int writer;
    int seq;
    Timestamp ts;
  };

  std::vector<Ack> ReadOracle() {
    std::vector<Ack> acks;
    FILE* f = fopen(OraclePath().c_str(), "r");
    if (f == nullptr) return acks;
    char line[64];
    while (fgets(line, sizeof(line), f) != nullptr) {
      Ack a;
      unsigned long long ts = 0;
      if (sscanf(line, "%d %d %llu", &a.writer, &a.seq, &ts) == 3) {
        a.ts = ts;
        acks.push_back(a);
      }
      // A torn last line (kill mid-write) parses short and is skipped:
      // its commit was never acknowledged.
    }
    fclose(f);
    return acks;
  }

  /// The contract: every acked commit fully present at its timestamp;
  /// every batch all-or-nothing; structure clean.
  void VerifyRecovered(MultiVersionDB* db, const std::vector<Ack>& acks,
                       int batch_size) {
    for (const Ack& a : acks) {
      for (int i = 0; i < batch_size; ++i) {
        const int n = a.seq * batch_size + i;
        std::string value;
        Timestamp version_ts = 0;
        Status s =
            db->Get({.as_of = a.ts}, Key(a.writer, n), &value, &version_ts);
        ASSERT_TRUE(s.ok()) << "acked commit lost: writer " << a.writer
                            << " seq " << a.seq << " key " << n << ": "
                            << s.ToString();
        EXPECT_EQ(value, Value(a.writer, n));
        EXPECT_EQ(version_ts, a.ts) << "wrong version for acked key";
      }
    }
    // Unacked commits may or may not have survived, but never partially:
    // the first missing key of a batch means the whole batch is absent.
    std::map<int, int> max_seq;  // writer -> highest acked seq
    for (const Ack& a : acks) {
      auto [it, inserted] = max_seq.emplace(a.writer, a.seq);
      if (!inserted && it->second < a.seq) it->second = a.seq;
    }
    for (const auto& [writer, seq] : max_seq) {
      for (int probe = seq + 1; probe < seq + 3; ++probe) {
        std::string first;
        const bool have_first =
            db->Get({}, Key(writer, probe * batch_size), &first).ok();
        for (int i = 1; i < batch_size; ++i) {
          std::string value;
          const bool have =
              db->Get({}, Key(writer, probe * batch_size + i), &value).ok();
          EXPECT_EQ(have, have_first)
              << "torn batch: writer " << writer << " seq " << probe;
        }
      }
    }
    tsb_tree::TreeChecker checker(db->primary());
    EXPECT_TRUE(checker.Check().ok());
  }

  std::string path_;
  static int counter_;
};

int CrashRecoveryTest::counter_ = 0;

TEST_F(CrashRecoveryTest, KillDuringConcurrentWritesLosesNoAckedCommit) {
  DbOptions opts = SmallPageOptions();
  std::mt19937 rng(20260808);
  for (int cycle = 0; cycle < 6; ++cycle) {
    std::uniform_int_distribution<int> run_ms(20, 160);
    ASSERT_TRUE(RunAndKill(opts, /*writers=*/4, /*batch_size=*/3,
                           run_ms(rng)));
    const std::vector<Ack> acks = ReadOracle();
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok())
        << "reopen failed on cycle " << cycle;
    VerifyRecovered(db.get(), acks, /*batch_size=*/3);
    // Leave the DB dirty again for the next cycle (recovery-on-recovery).
  }
}

TEST_F(CrashRecoveryTest, RecoveryIsIdempotentAcrossRepeatedOpens) {
  DbOptions opts = SmallPageOptions();
  ASSERT_TRUE(RunAndKill(opts, /*writers=*/2, /*batch_size=*/2, 120));
  const std::vector<Ack> acks = ReadOracle();
  ASSERT_FALSE(acks.empty());
  for (int round = 0; round < 3; ++round) {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    VerifyRecovered(db.get(), acks, /*batch_size=*/2);
    if (round == 0) {
      // First reopen after the crash replays (or finds checkpointed) the
      // acked suffix; later DESTRUCTOR-closed opens must replay nothing.
    } else {
      EXPECT_EQ(db->recovery_stats().frames_replayed, 0u);
      EXPECT_EQ(db->recovery_stats().purged_uncommitted, 0u);
    }
  }
}

TEST_F(CrashRecoveryTest, CleanShutdownReplaysNothing) {
  DbOptions opts = SmallPageOptions();
  Timestamp last_ts = 0;
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db->Put(Key(0, i), Value(0, i), &last_ts).ok());
    }
  }  // clean close: checkpoint + clean_shutdown=1
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_EQ(db->recovery_stats().frames_replayed, 0u);
  EXPECT_EQ(db->recovery_stats().purged_uncommitted, 0u);
  EXPECT_FALSE(db->recovery_stats().journal_applied);
  std::string value;
  ASSERT_TRUE(db->Get({}, Key(0, 199), &value).ok());
  EXPECT_EQ(value, Value(0, 199));
  EXPECT_EQ(db->Now(), last_ts);
}

// A kOff bulk load promises nothing until a checkpoint returns; the
// clean close's checkpoint is what makes it durable. The next open
// replays nothing and reads every key.
TEST_F(CrashRecoveryTest, UnsyncedBulkLoadIsWholeAfterCleanClose) {
  DbOptions opts = SmallPageOptions();
  opts.wal_sync = wal::WalSyncMode::kOff;
  constexpr int kKeys = 3000;
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    for (int i = 0; i < kKeys; i += 10) {
      WriteBatch batch;
      for (int j = i; j < i + 10; ++j) batch.Put(Key(0, j), Value(0, j));
      ASSERT_TRUE(db->Write(batch).ok());
    }
  }
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_EQ(0u, db->recovery_stats().frames_replayed);
  EXPECT_EQ(0u, db->recovery_stats().wal_bytes_scanned);
  for (int i = 0; i < kKeys; ++i) {
    std::string value;
    ASSERT_TRUE(db->Get({}, Key(0, i), &value).ok()) << i;
    EXPECT_EQ(Value(0, i), value);
  }
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
}

// A clean close does not sync the log its checkpoint supersedes, so a
// power cut after it can leave the log shorter than the MANIFEST's
// checkpoint_lsn, ending mid-frame. Cut the log in half to play that
// cut, reopen with group commit, acknowledge more commits and crash.
// Recovery must have emptied the log (every frame in it was in the base)
// and rewound checkpoint_lsn: a checkpoint_lsn past the log's end makes
// the next open start replay past the acknowledged frames, and appends
// placed after the torn frame break the frame chain that scrub and
// salvage walk from byte 0.
TEST_F(CrashRecoveryTest, LogCutShortAfterCleanCloseKeepsLaterAckedCommits) {
  DbOptions opts = SmallPageOptions();
  opts.wal_sync = wal::WalSyncMode::kOff;
  opts.wal_checkpoint_bytes = 1ull << 40;  // no rotation: the log stays
  constexpr int kLoaded = 5000;
  constexpr int kLater = 1000;
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    for (int i = 0; i < kLoaded; i += 10) {
      WriteBatch batch;
      for (int j = i; j < i + 10; ++j) batch.Put(Key(0, j), Value(0, j));
      ASSERT_TRUE(db->Write(batch).ok());
    }
  }
  const std::string wal_file = path_ + "/wal-000000.tsb";
  struct stat st;
  ASSERT_EQ(0, ::stat(wal_file.c_str(), &st));
  ASSERT_GT(st.st_size, 10000);
  // Every frame is the same size, so half the log is a frame boundary;
  // 20 bytes past it is inside the next frame's payload.
  ASSERT_EQ(0, ::truncate(wal_file.c_str(), st.st_size / 2 + 20));

  opts.wal_sync = wal::WalSyncMode::kGroup;
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    for (int i = 0; i < kLater; ++i) {
      if (!db->Put(Key(1, i), Value(1, i)).ok()) ::_exit(3);  // acked
    }
    ScrubStats scrub;
    if (!db->Scrub(&scrub).ok() || scrub.corruptions_detected != 0) {
      ::_exit(5);
    }
    if (db->degraded()) ::_exit(6);
    ::kill(::getpid(), SIGKILL);
    ::_exit(7);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited " << WEXITSTATUS(wstatus)
      << " (5: scrub found corruption, 6: degraded)";

  // Salvage reads the crashed directory physically: the acknowledged
  // commits live only in the log, so it must walk the log's frames.
  const std::string salvaged = path_ + ".salvaged";
  MultiVersionDB::Destroy(salvaged);
  SalvageReport report;
  ASSERT_TRUE(SalvageDatabase(path_, salvaged, {}, &report).ok());
  EXPECT_EQ(0u, report.wal_frames_rejected);
  EXPECT_EQ(static_cast<uint64_t>(kLater), report.wal_frames_salvaged);
  {
    std::unique_ptr<MultiVersionDB> out;
    ASSERT_TRUE(MultiVersionDB::Open(salvaged, opts, &out).ok());
    int lost = 0;
    for (int i = 0; i < kLater; ++i) {
      std::string value;
      if (!out->Get({}, Key(1, i), &value).ok() || value != Value(1, i)) {
        ++lost;
      }
    }
    EXPECT_EQ(0, lost) << "of " << kLater << " later keys salvaged";
  }
  MultiVersionDB::Destroy(salvaged);

  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  int missing = 0;
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < (w == 0 ? kLoaded : kLater); ++i) {
      std::string value;
      if (!db->Get({}, Key(w, i), &value).ok() || value != Value(w, i)) {
        ++missing;
      }
    }
  }
  EXPECT_EQ(0, missing) << "of " << kLoaded + kLater << " keys";
  ScrubStats scrub;
  ASSERT_TRUE(db->Scrub(&scrub).ok());
  EXPECT_EQ(0u, scrub.corruptions_detected);
  EXPECT_FALSE(db->degraded());
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(CrashRecoveryTest, TornWalTailIsTruncatedNotFatal) {
  DbOptions opts = SmallPageOptions();
  // Large checkpoint threshold so commits stay in the live log, then kill
  // so the close-time checkpoint never folds them into the base.
  ASSERT_TRUE(RunAndKill(opts, /*writers=*/1, /*batch_size=*/2, 100));
  const std::vector<Ack> acks = ReadOracle();
  ASSERT_FALSE(acks.empty());
  // Append garbage to the live WAL: a torn in-flight frame.
  {
    struct stat st;
    std::string wal_file;
    for (int seq = 0; seq < 10; ++seq) {
      char name[32];
      snprintf(name, sizeof(name), "/wal-%06d.tsb", seq);
      if (::stat((path_ + name).c_str(), &st) == 0) {
        wal_file = path_ + name;
        break;
      }
    }
    ASSERT_FALSE(wal_file.empty());
    FILE* f = fopen(wal_file.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x37\x13\x00\x00\xff\xff\xff\x7ftorn-frame";
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_TRUE(db->recovery_stats().tail_truncated);
  VerifyRecovered(db.get(), acks, /*batch_size=*/2);
}

TEST_F(CrashRecoveryTest, UncommittedGhostsArePurged) {
  DbOptions opts = SmallPageOptions();
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    if (!db->Put("committed", "yes").ok()) ::_exit(3);
    std::unique_ptr<txn::Transaction> txn;
    if (!db->Begin(&txn).ok()) ::_exit(4);
    if (!txn->Put("ghost", "uncommitted").ok()) ::_exit(5);
    // Force the uncommitted record into the device files the way a real
    // crash can: a checkpoint runs while the transaction is open.
    if (!db->Checkpoint().ok()) ::_exit(6);
    ::kill(::getpid(), SIGKILL);  // die with the txn still open
    ::_exit(7);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_GE(db->recovery_stats().purged_uncommitted, 1u);
  std::string value;
  EXPECT_TRUE(db->Get({}, "committed", &value).ok());
  std::unique_ptr<txn::Transaction> probe;
  ASSERT_TRUE(db->Begin(&probe).ok());
  EXPECT_TRUE(probe->Get("ghost", &value).IsNotFound());
  probe->Abort();
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(CrashRecoveryTest, ReplayTimeSplitsOneKeyUpdatedPastAPage) {
  // Far more versions of one key than a 512-byte page holds, all still in
  // the live log: replay can only fit them by time-splitting the leaf,
  // and a time split caps its boundary at the published watermark.
  DbOptions opts = SmallPageOptions();
  opts.wal_checkpoint_bytes = 1ull << 40;
  constexpr int kVersions = 600;
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    for (int i = 0; i < kVersions; ++i) {
      if (!db->Put("hot", Value(0, i)).ok()) ::_exit(3);
    }
    ::kill(::getpid(), SIGKILL);  // no close-time checkpoint
    ::_exit(4);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  std::unique_ptr<MultiVersionDB> db;
  Status s = MultiVersionDB::Open(path_, opts, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(db->recovery_stats().frames_replayed, uint64_t{kVersions});
  std::string value;
  ASSERT_TRUE(db->Get({}, "hot", &value).ok());
  EXPECT_EQ(value, Value(0, kVersions - 1));
  EXPECT_GT(db->primary()->counters().data_time_splits, 0u);
  tsb_tree::TreeChecker checker(db->primary());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(CrashRecoveryTest, SecondaryIndexRecoversWithPrimary) {
  DbOptions opts = SmallPageOptions();
  auto extract = [](const Slice& value) -> std::optional<std::string> {
    const std::string s = value.ToString();
    const size_t pos = s.find("owner=");
    if (pos == std::string::npos) return std::nullopt;
    return s.substr(pos + 6, 1);
  };
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    if (!db->CreateSecondaryIndex("owner", extract).ok()) ::_exit(3);
    for (int i = 0; i < 60; ++i) {
      const std::string owner(1, static_cast<char>('a' + i % 3));
      if (!db->Put(Key(0, i), "owner=" + owner + ";n=" + std::to_string(i))
               .ok()) {
        ::_exit(4);
      }
    }
    ::kill(::getpid(), SIGKILL);
    ::_exit(5);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  DbOptions reopen = opts;
  reopen.index_extractors["owner"] = extract;
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, reopen, &db).ok());
  // Index answers must agree with a primary scan for every owner.
  std::map<std::string, int> expect;
  for (int i = 0; i < 60; ++i) {
    std::string value;
    if (db->Get({}, Key(0, i), &value).ok()) {
      expect[value.substr(value.find("owner=") + 6, 1)]++;
    }
  }
  ASSERT_FALSE(expect.empty());
  for (const auto& [owner, count] : expect) {
    std::vector<std::pair<std::string, std::string>> kvs;
    ASSERT_TRUE(
        db->FindBySecondary(ReadOptions(), "owner", owner, &kvs).ok());
    EXPECT_EQ(static_cast<int>(kvs.size()), count) << "owner " << owner;
  }
  tsb_tree::TreeChecker checker(db->index("owner")->tree());
  EXPECT_TRUE(checker.Check().ok());
}

TEST_F(CrashRecoveryTest, CheckpointRotationSurvivesCrash) {
  DbOptions opts = SmallPageOptions();
  opts.wal_checkpoint_bytes = 16 << 10;  // rotate every ~16 KiB of log
  // A fixed commit count (not a timed kill) so the test is deterministic
  // under load: ~600 commits x ~80 B of frame is several rotations past
  // the 16 KiB threshold before the child dies.
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::unique_ptr<MultiVersionDB> db;
    if (!MultiVersionDB::Open(path_, opts, &db).ok()) ::_exit(2);
    const int fd =
        ::open(OraclePath().c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) ::_exit(3);
    for (int seq = 0; seq < 600; ++seq) {
      WriteBatch batch;
      batch.Put(Key(0, seq), Value(0, seq));
      Timestamp cts = 0;
      if (!db->Write(batch, &cts).ok()) ::_exit(4);
      char line[64];
      const int n = snprintf(line, sizeof(line), "0 %d %llu\n", seq,
                             (unsigned long long)cts);
      if (::write(fd, line, n) != n) ::_exit(5);
    }
    ::kill(::getpid(), SIGKILL);  // die with rotations behind us
    ::_exit(6);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  const std::vector<Ack> acks = ReadOracle();
  ASSERT_EQ(acks.size(), 600u);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  VerifyRecovered(db.get(), acks, /*batch_size=*/1);
  // The log must have rotated at least once: the seq-0 file is gone.
  struct stat st;
  EXPECT_NE(::stat((path_ + "/wal-000000.tsb").c_str(), &st), 0);
}

// ---- deterministic kills inside one checkpoint ------------------------

// Magnetic-device wrapper for the checkpoint crash windows. While armed it
// logs every write (page slot) and every sync (-1), and exits the process
// on the kill_at-th write before that write reaches the base device.
struct WriteProbe {
  bool armed = false;
  int kill_at = 0;  // 1-based; 0 = never
  int writes = 0;
  std::vector<int64_t> events;
};

constexpr int kProbeKillExit = 42;

class ProbeDevice : public Device {
 public:
  ProbeDevice(std::unique_ptr<Device> base, uint32_t page_size,
              WriteProbe* probe)
      : Device(base->kind(), base->cost_params()),
        base_(std::move(base)),
        page_size_(page_size),
        probe_(probe) {}
  Status Read(uint64_t offset, size_t n, char* scratch) override {
    return base_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const Slice& data) override {
    if (probe_->armed) {
      probe_->events.push_back(static_cast<int64_t>(offset / page_size_));
      if (++probe_->writes == probe_->kill_at) ::_exit(kProbeKillExit);
    }
    return base_->Write(offset, data);
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    if (probe_->armed) probe_->events.push_back(-1);
    return base_->Sync();
  }

 private:
  std::unique_ptr<Device> base_;
  const uint32_t page_size_;
  WriteProbe* probe_;
};

// Deterministic (one thread) workload for the window test: a checkpointed
// base, then updates of every third key (overwritten pages: journaled) and
// new keys past the end (pages above the durable high-water mark: fresh).
constexpr int kWindowBaseKeys = 600;
constexpr int kWindowNewKeys = 300;

std::string WindowValue(int i) {
  return i < kWindowBaseKeys && i % 3 == 0 ? "updated-" + Value(0, i)
                                           : Value(0, i);
}

bool LoadWindowWorkload(MultiVersionDB* db) {
  for (int i = 0; i < kWindowBaseKeys; ++i) {
    if (!db->Put(Key(0, i), Value(0, i)).ok()) return false;
  }
  if (!db->Checkpoint().ok()) return false;
  for (int i = 0; i < kWindowBaseKeys + kWindowNewKeys; ++i) {
    if (i < kWindowBaseKeys && i % 3 != 0) continue;
    if (!db->Put(Key(0, i), WindowValue(i)).ok()) return false;
  }
  return true;
}

// Current pages reachable from the root; every one has exactly one parent.
uint64_t ReachableCurrentPages(tsb_tree::TsbTree* tree) {
  uint64_t pages = 0;
  std::vector<tsb_tree::NodeRef> stack = {tree->root()};
  while (!stack.empty()) {
    const tsb_tree::NodeRef ref = stack.back();
    stack.pop_back();
    if (ref.historical) continue;
    pages++;
    tsb_tree::DecodedNode node;
    EXPECT_TRUE(tree->ReadNode(ref, &node).ok());
    for (const auto& e : node.index) stack.push_back(e.child);
  }
  return pages;
}

TEST_F(CrashRecoveryTest, KillAtEachCheckpointWindowRecovers) {
  const DbOptions plain = SmallPageOptions();
  WriteProbe probe;
  DbOptions probed = plain;
  probed.wrap_device = [&probe](const std::string& role,
                                std::unique_ptr<Device> dev)
      -> std::unique_ptr<Device> {
    if (role != "magnetic") return dev;
    return std::make_unique<ProbeDevice>(std::move(dev), 512, &probe);
  };

  // Dry run of the same workload: record the checkpoint's write sequence.
  std::vector<int64_t> events;
  {
    const std::string dry = path_ + ".dry";
    MultiVersionDB::Destroy(dry);
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(dry, probed, &db).ok());
    ASSERT_TRUE(LoadWindowWorkload(db.get()));
    probe.armed = true;
    ASSERT_TRUE(db->Checkpoint().ok());
    probe.armed = false;
    events = probe.events;
    db.reset();
    MultiVersionDB::Destroy(dry);
  }
  // Expected shape: fresh writes, sync, journaled applies, meta, sync.
  ASSERT_EQ(2, std::count(events.begin(), events.end(), -1));
  ASSERT_EQ(-1, events.back());
  const int fresh = static_cast<int>(
      std::find(events.begin(), events.end(), -1) - events.begin());
  const int writes = static_cast<int>(events.size()) - 2;
  ASSERT_GE(fresh, 3);
  ASSERT_GE(writes - fresh, 2) << "no journaled page besides the meta";
  ASSERT_EQ(0, events[events.size() - 2]) << "meta is the last write";

  const struct {
    const char* window;
    int kill_at;
  } kills[] = {
      {"first fresh write", 1},
      {"middle fresh write", fresh / 2 + 1},
      {"last fresh write", fresh},
      {"first journaled apply", fresh + 1},
      {"meta write", writes},
  };
  for (const auto& kill : kills) {
    SCOPED_TRACE(kill.window);
    MultiVersionDB::Destroy(path_);
    probe = WriteProbe{};
    probe.kill_at = kill.kill_at;
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::unique_ptr<MultiVersionDB> db;
      if (!MultiVersionDB::Open(path_, probed, &db).ok()) ::_exit(2);
      if (!LoadWindowWorkload(db.get())) ::_exit(3);
      probe.armed = true;
      (void)db->Checkpoint();
      ::_exit(4);  // the probe never fired
    }
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(kProbeKillExit, WEXITSTATUS(wstatus));

    std::unique_ptr<MultiVersionDB> db;
    Status s = MultiVersionDB::Open(path_, plain, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const bool after_commit = kill.kill_at > fresh;
    EXPECT_EQ(after_commit, db->recovery_stats().journal_applied);
    // Every fresh write before the kill is an orphan slot past the
    // durable mark when the journal never committed.
    EXPECT_EQ(!after_commit && kill.kill_at > 1,
              db->recovery_stats().orphan_slots_dropped > 0);
    for (int i = 0; i < kWindowBaseKeys + kWindowNewKeys; ++i) {
      std::string value;
      ASSERT_TRUE(db->Get({}, Key(0, i), &value).ok()) << "key " << i;
      EXPECT_EQ(WindowValue(i), value) << "key " << i;
    }
    tsb_tree::TreeChecker checker(db->primary());
    checker.set_verify_checksums(true);
    EXPECT_TRUE(checker.Check().ok());
    ScrubStats scrub;
    ASSERT_TRUE(db->Scrub(&scrub).ok());
    EXPECT_EQ(0u, scrub.corruptions_detected);
    // No orphan slots: every allocated slot is reachable or free, and the
    // device holds no slot past the allocator's high-water mark.
    Pager* pager = db->primary()->pager();
    EXPECT_EQ(ReachableCurrentPages(db->primary()), pager->live_pages());
    EXPECT_EQ(pager->device()->Size(),
              uint64_t{pager->high_water_pages() + 1} * 512);
  }
}

// ---- satellite: MANIFEST torn-write resolution -----------------------

TEST_F(CrashRecoveryTest, LeftoverManifestTmpBesideManifestIsDiscarded) {
  DbOptions opts = SmallPageOptions();
  Timestamp ts = 0;
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    ASSERT_TRUE(db->Put("k", "v", &ts).ok());
  }
  // Crash shape 1: tmp written, rename never ran — MANIFEST (with the
  // real WAL position) stays authoritative, the tmp must go away.
  const std::string tmp = path_ + "/MANIFEST.tmp";
  FILE* f = fopen(tmp.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("tsb-manifest v1\npage_size=9999\n", f);  // stale/garbage contents
  fclose(f);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get({}, "k", &value).ok());
  EXPECT_EQ(value, "v");
  struct stat st;
  EXPECT_NE(::stat(tmp.c_str(), &st), 0) << "leftover tmp not cleaned up";
}

TEST_F(CrashRecoveryTest, OrphanManifestTmpIsPromotedWhenComplete) {
  DbOptions opts = SmallPageOptions();
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
    ASSERT_TRUE(db->Put("k", "v").ok());
  }
  // Crash shape 2: the MANIFEST vanished mid-rewrite, only a complete
  // tmp remains. Promote it instead of re-creating a blank manifest that
  // would forget the WAL position.
  ASSERT_EQ(::rename((path_ + "/MANIFEST").c_str(),
                     (path_ + "/MANIFEST.tmp").c_str()),
            0);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get({}, "k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(db->recovery_stats().frames_replayed, 0u) << "clean flag lost";
  struct stat st;
  EXPECT_EQ(::stat((path_ + "/MANIFEST").c_str(), &st), 0);
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

TEST_F(CrashRecoveryTest, TornOrphanManifestTmpIsDiscarded) {
  DbOptions opts = SmallPageOptions();
  ASSERT_EQ(::mkdir(path_.c_str(), 0755), 0);
  FILE* f = fopen((path_ + "/MANIFEST.tmp").c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("garbage, not a manifest header", f);
  fclose(f);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  ASSERT_TRUE(db->Put("k", "v").ok());
  struct stat st;
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

/// Body of a manifest that parses cleanly for SmallPageOptions (matching
/// the geometry a built DB records) and catalogs one index — everything
/// but the crc terminator line.
std::string GhostManifestBody() {
  return
      "tsb-manifest v1\n"
      "page_size=512\n"
      "worm_historical=0\n"
      "worm_sector_size=1024\n"
      "enable_mmap=1\n"
      "wal_seq=0\n"
      "checkpoint_lsn=0\n"
      "clean_shutdown=1\n"
      "index=ghost\n";
}

/// Builds a DB (so current.tsb exists and the manifest is authoritative),
/// then replaces MANIFEST with a MANIFEST.tmp-only crash shape whose
/// contents are `body`.
void StageOrphanTmp(const std::string& path, const DbOptions& opts,
                    const std::string& body) {
  {
    std::unique_ptr<MultiVersionDB> db;
    ASSERT_TRUE(MultiVersionDB::Open(path, opts, &db).ok());
    ASSERT_TRUE(db->Put("k", "v").ok());
  }
  ASSERT_EQ(::unlink((path + "/MANIFEST").c_str()), 0);
  FILE* f = fopen((path + "/MANIFEST.tmp").c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs(body.c_str(), f);
  fclose(f);
}

TEST_F(CrashRecoveryTest, IncompleteOrphanManifestTmpIsNotPromoted) {
  // A tmp flushed halfway can parse line-by-line yet be missing its tail.
  // Promotion must demand the crc terminator; this tmp has none, so it is
  // discarded — the ghost index entry it carries must never attach.
  DbOptions opts = SmallPageOptions();
  StageOrphanTmp(path_, opts, GhostManifestBody());
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_EQ(db->index("ghost"), nullptr) << "incomplete tmp was promoted";
  struct stat st;
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

TEST_F(CrashRecoveryTest, TerminatedOrphanManifestTmpIsPromoted) {
  // Control for the test above: the same tmp WITH a valid terminator is
  // whole, so promotion must install it — observable through the ghost
  // index the catalog re-attaches.
  DbOptions opts = SmallPageOptions();
  std::string body = GhostManifestBody();
  char trailer[24];
  snprintf(trailer, sizeof(trailer), "crc=%08x\n",
           crc32c::Mask(crc32c::Value(body.data(), body.size())));
  body += trailer;
  StageOrphanTmp(path_, opts, body);
  std::unique_ptr<MultiVersionDB> db;
  ASSERT_TRUE(MultiVersionDB::Open(path_, opts, &db).ok());
  EXPECT_NE(db->index("ghost"), nullptr) << "complete tmp was not promoted";
  struct stat st;
  EXPECT_NE(::stat((path_ + "/MANIFEST.tmp").c_str(), &st), 0);
}

}  // namespace
}  // namespace db
}  // namespace tsb
