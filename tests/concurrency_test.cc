// Engine-level concurrency: one updater + N lock-free timestamped readers
// (paper section 4.1) running against the full stack — MultiVersionDB →
// TxnManager → TsbTree → BufferPool → Pager → MemDevice. These tests are
// the ThreadSanitizer targets for the latching protocol.
//
// Invariants checked while the writer runs:
//  - a reader pinned at timestamp T sees, for every key, a version with
//    commit time <= T whose payload decodes to a consistent (key, seq)
//    pair;
//  - per key, the sequence a reader observes across successive read
//    transactions never goes backwards (commit order = timestamp order);
//  - snapshot iteration at T yields strictly increasing keys, each with
//    version timestamp <= T, even when splits restructure the tree mid
//    scan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/multiversion_db.h"
#include "storage/append_store.h"
#include "storage/file_device.h"
#include "storage/mem_device.h"
#include "tsb/cursor.h"

namespace tsb {
namespace {

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

std::string ValueOf(const std::string& key, uint64_t seq) {
  return key + ":" + std::to_string(seq) + ":payload-padding-to-split-pages";
}

// Decodes "key:seq:..." back into (key, seq); false on malformed payloads
// (which would indicate a torn read).
bool DecodeValue(const std::string& v, std::string* key, uint64_t* seq) {
  const size_t c1 = v.find(':');
  if (c1 == std::string::npos) return false;
  const size_t c2 = v.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  *key = v.substr(0, c1);
  errno = 0;
  *seq = strtoull(v.c_str() + c1 + 1, nullptr, 10);
  return errno == 0;
}

struct Fixture {
  MemDevice magnetic;
  MemDevice optical{DeviceKind::kOpticalErasable, CostParams::OpticalWorm()};
  std::unique_ptr<db::MultiVersionDB> db;

  explicit Fixture(uint32_t page_size = 1024, size_t frames = 64) {
    db::DbOptions options;
    options.tree.page_size = page_size;
    options.tree.buffer_pool_frames = frames;
    Status s = db::MultiVersionDB::Open(&magnetic, &optical, options, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

TEST(ConcurrencyTest, ReadersNeverBlockAndSeeCommittedStateOnly) {
  Fixture f;
  constexpr int kKeys = 120;
  constexpr int kRounds = 40;
  constexpr int kReaders = 4;

  // Seed every key once so readers always find something.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.db->Put(KeyOf(i), ValueOf(KeyOf(i), 0)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads_done{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x853C49E6748FEA9Bull * (r + 1);
      // Last sequence observed per key: must never go backwards.
      std::vector<uint64_t> last_seq(kKeys, 0);
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        txn::ReadTransaction snap = f.db->BeginReadOnly();
        for (int probe = 0; probe < 8; ++probe) {
          rng = rng * 6364136223846793005ull + 1442695040888963407ull;
          const int ki = static_cast<int>((rng >> 33) % kKeys);
          std::string value;
          Timestamp version_ts = 0;
          Status s = snap.Get(KeyOf(ki), &value, &version_ts);
          if (!s.ok()) {
            failed.store(true);
            break;
          }
          std::string key;
          uint64_t seq = 0;
          if (!DecodeValue(value, &key, &seq) || key != KeyOf(ki) ||
              version_ts > snap.timestamp() || seq < last_seq[ki]) {
            failed.store(true);
            break;
          }
          last_seq[ki] = seq;
          reads_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The single updater: rewrites every key each round through autocommit
  // transactions, driving leaf time splits and key splits underneath the
  // readers.
  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    for (int i = 0; i < kKeys; ++i) {
      Status s = f.db->Put(KeyOf(i), ValueOf(KeyOf(i), round));
      if (!s.ok()) {
        ADD_FAILURE() << "writer Put failed: " << s.ToString();
        failed.store(true);
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads_done.load(), 0u);
  // Splits really happened under the readers (the interesting case).
  EXPECT_GT(f.db->primary()->counters().data_time_splits +
                f.db->primary()->counters().data_key_splits,
            0u);
}

// Walks the cursor's current key down its version chain: the values must
// run ValueOf(key, R), ValueOf(key, R - 1), ..., ValueOf(key, 0) with
// strictly falling timestamps no greater than `snapshot_ts`, and then the
// walk must end. False on any deviation or error.
bool VersionChainExact(tsb_tree::VersionCursor* it, Timestamp snapshot_ts) {
  const std::string key = it->key().ToString();
  std::string decoded_key;
  uint64_t top = 0;
  if (!DecodeValue(it->value().ToString(), &decoded_key, &top) ||
      decoded_key != key) {
    return false;
  }
  Timestamp bound = snapshot_ts;  // the next version's ts must be <= this
  for (uint64_t seq = top + 1; seq-- > 0;) {
    if (!it->Valid() || it->value().ToString() != ValueOf(key, seq) ||
        it->ts() > bound || it->ts() == 0) {
      return false;
    }
    bound = it->ts() - 1;
    if (!it->NextVersion().ok()) return false;
  }
  return !it->Valid();
}

TEST(ConcurrencyTest, SnapshotScansStayExactUnderConcurrentSplits) {
  // Two inputs: key scans alone, and key scans that also walk every key's
  // versions with NextVersion inside the same snapshot; each over a
  // 64-frame pool and a 512-frame one, whose index pages are resident.
  for (const size_t frames : {size_t{64}, size_t{512}})
  for (const bool walk_versions : {false, true}) {
    SCOPED_TRACE(walk_versions ? "with version walks" : "key scans only");
    SCOPED_TRACE(std::to_string(frames) + " frames");
    Fixture f(1024, frames);
    constexpr int kKeys = 150;
    constexpr int kRounds = 25;
    constexpr int kScanners = 3;

    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(f.db->Put(KeyOf(i), ValueOf(KeyOf(i), 0)).ok());
    }

    std::atomic<bool> stop{false};
    std::atomic<bool> failed{false};
    std::atomic<uint64_t> scans_done{0};

    std::vector<std::thread> scanners;
    for (int r = 0; r < kScanners; ++r) {
      scanners.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire) && !failed.load()) {
          txn::ReadTransaction snap = f.db->BeginReadOnly();
          auto it = snap.NewCursor();
          Status s = it->SeekToFirst();
          int count = 0;
          std::string prev_key;
          while (s.ok() && it->Valid()) {
            if (!prev_key.empty() && it->key().ToString() <= prev_key) {
              failed.store(true);  // out of order or duplicate
              break;
            }
            if (it->ts() > snap.timestamp()) {
              failed.store(true);  // future version leaked into the snapshot
              break;
            }
            prev_key = it->key().ToString();
            count++;
            if (walk_versions &&
                !VersionChainExact(it.get(), snap.timestamp())) {
              failed.store(true);
              break;
            }
            s = it->Next();  // resumes the key scan after a version walk
          }
          if (!s.ok() || count != kKeys) {
            // Every key was seeded before any snapshot began, so every
            // snapshot must contain all of them exactly once.
            failed.store(true);
          }
          scans_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    for (int round = 1; round <= kRounds && !failed.load(); ++round) {
      for (int i = 0; i < kKeys; ++i) {
        Status s = f.db->Put(KeyOf(i), ValueOf(KeyOf(i), round));
        if (!s.ok()) {
          ADD_FAILURE() << "writer Put failed: " << s.ToString();
          failed.store(true);
          break;
        }
      }
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : scanners) t.join();

    EXPECT_FALSE(failed.load());
    EXPECT_GT(scans_done.load(), 0u);
  }
}

// Point reads at past times share the writers' descent: a Get as of a
// finished round must return exactly that round's value while the writer
// keeps splitting leaves, index pages and the root underneath it, and
// whether the version resolves in a current leaf or a historical node.
void PointReadsAtPastTimesStayExact(size_t frames) {
  Fixture f(1024, frames);
  constexpr int kKeys = 120;
  constexpr int kRounds = 60;
  constexpr int kReaders = 3;

  // round_ts[r] = the commit ts of round r's last Put; rounds up to
  // `finished` are complete and their slots written.
  std::vector<std::atomic<Timestamp>> round_ts(kRounds + 1);
  std::atomic<int> finished{0};
  for (int i = 0; i < kKeys; ++i) {
    Timestamp ts = 0;
    ASSERT_TRUE(f.db->Put(KeyOf(i), ValueOf(KeyOf(i), 0), &ts).ok());
    round_ts[0].store(ts, std::memory_order_relaxed);
  }
  const tsb_tree::TsbCounters& c = f.db->primary()->counters();
  const uint64_t index_changes_before =
      c.index_key_splits + c.index_time_splits + c.root_grows;

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads_done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (r + 1);
      std::string value;
      db::PinnableValue pinned;
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int done = finished.load(std::memory_order_acquire);
        const int round = static_cast<int>((rng >> 40) % (done + 1));
        const std::string key = KeyOf(static_cast<int>((rng >> 20) % kKeys));
        db::ReadOptions ro;
        ro.as_of = round_ts[round].load(std::memory_order_relaxed);
        Status s;
        if (rng & 1) {
          s = f.db->Get(ro, key, &value);
        } else {
          s = f.db->Get(ro, key, &pinned);
          if (s.ok()) value = pinned.data().ToString();
        }
        if (!s.ok() || value != ValueOf(key, round)) {
          ADD_FAILURE() << key << " as of round " << round << ": "
                        << s.ToString() << " " << value;
          failed.store(true);
          break;
        }
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    Timestamp ts = 0;
    for (int i = 0; i < kKeys && !failed.load(); ++i) {
      Status s = f.db->Put(KeyOf(i), ValueOf(KeyOf(i), round), &ts);
      if (!s.ok()) {
        ADD_FAILURE() << "writer Put failed: " << s.ToString();
        failed.store(true);
      }
    }
    if (failed.load()) break;
    round_ts[round].store(ts, std::memory_order_relaxed);
    finished.store(round, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads_done.load(), 0u);
  // Index pages and the root changed under the readers, not just leaves.
  EXPECT_GT(c.index_key_splits + c.index_time_splits + c.root_grows,
            index_changes_before);
}

TEST(ConcurrencyTest, PointReadsAtPastTimesStayExactUnderConcurrentSplits) {
  PointReadsAtPastTimesStayExact(64);
}

// The same with resident index pages: the descent above the leaf takes
// no shard mutex and no pin.
TEST(ConcurrencyTest,
     PointReadsAtPastTimesStayExactUnderConcurrentSplitsResidentIndex) {
  PointReadsAtPastTimesStayExact(512);
}

// Three writers time-split their own key ranges with 10-key batches while
// readers Get at past times. A split installs its historical node before
// the writing call flushes it, so a reader can meet a node still staged in
// the append store's tail: that read flushes it and must return exactly
// the value of the round it asked for. At the end every node is on the
// device.
TEST(ConcurrencyTest, PastReadsStayExactWhileWritersStageHistory) {
  Fixture f(1024, 512);
  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 40;
  constexpr int kBatch = 10;
  constexpr int kRounds = 100;
  constexpr int kReaders = 3;
  // round_ts[w][r] = writer w's last commit ts of round r.
  std::vector<std::vector<std::atomic<Timestamp>>> round_ts(kWriters);
  std::vector<std::atomic<int>> finished(kWriters);
  auto key_of = [](int w, int k) { return KeyOf(w * kKeysPerWriter + k); };
  for (int w = 0; w < kWriters; ++w) {
    round_ts[w] = std::vector<std::atomic<Timestamp>>(kRounds + 1);
    for (int k = 0; k < kKeysPerWriter; ++k) {
      Timestamp ts = 0;
      ASSERT_TRUE(f.db->Put(key_of(w, k), ValueOf(key_of(w, k), 0), &ts).ok());
      round_ts[w][0].store(ts, std::memory_order_relaxed);
    }
    finished[w].store(0, std::memory_order_relaxed);
  }
  const tsb_tree::TsbCounters& c = f.db->primary()->counters();
  const uint64_t time_splits_before = c.data_time_splits;

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads_done{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (r + 1);
      std::string value;
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int w = static_cast<int>((rng >> 50) % kWriters);
        const int done = finished[w].load(std::memory_order_acquire);
        const int round = static_cast<int>((rng >> 40) % (done + 1));
        const std::string key =
            key_of(w, static_cast<int>((rng >> 20) % kKeysPerWriter));
        db::ReadOptions ro;
        ro.as_of = round_ts[w][round].load(std::memory_order_relaxed);
        Status s = f.db->Get(ro, key, &value);
        if (!s.ok() || value != ValueOf(key, round)) {
          ADD_FAILURE() << key << " as of round " << round << ": "
                        << s.ToString() << " " << value;
          failed.store(true);
          break;
        }
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 1; round <= kRounds && !failed.load(); ++round) {
        Timestamp ts = 0;
        for (int k = 0; k < kKeysPerWriter && !failed.load(); k += kBatch) {
          db::WriteBatch batch;
          for (int b = k; b < k + kBatch; ++b) {
            batch.Put(key_of(w, b), ValueOf(key_of(w, b), round));
          }
          Status s = f.db->Write(batch, &ts);
          if (!s.ok()) {
            ADD_FAILURE() << "writer " << w << ": " << s.ToString();
            failed.store(true);
          }
        }
        round_ts[w][round].store(ts, std::memory_order_relaxed);
        finished[w].store(round, std::memory_order_release);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_GT(c.data_time_splits, time_splits_before);
  AppendStore* hist = f.db->primary()->hist_store();
  EXPECT_EQ(hist->device_bytes(), hist->flushed_end());
  EXPECT_EQ(hist->device_bytes(), f.optical.Size());
}

// Reverse scans ride the same pinned-frame machinery as forward ones:
// current-page frames revalidate a per-page mutation counter and re-seek
// on invalidation. Under a splitting writer, a backward walk taken inside
// one read snapshot must equal the reversed forward walk of the SAME
// snapshot — exact count, exact order, no version from the future.
TEST(ConcurrencyTest, ReverseScansMatchReversedForwardUnderSplits) {
  Fixture f;
  constexpr int kKeys = 150;
  constexpr int kRounds = 25;
  constexpr int kScanners = 3;

  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.db->Put(KeyOf(i), ValueOf(KeyOf(i), 0)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> scans_done{0};

  std::vector<std::thread> scanners;
  for (int r = 0; r < kScanners; ++r) {
    scanners.emplace_back([&] {
      std::vector<std::pair<std::string, Timestamp>> forward, backward;
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        txn::ReadTransaction snap = f.db->BeginReadOnly();
        auto c = snap.NewCursor();
        forward.clear();
        backward.clear();
        Status s = c->SeekToFirst();
        while (s.ok() && c->Valid()) {
          forward.emplace_back(c->key().ToString(), c->ts());
          s = c->Next();
        }
        if (!s.ok() || forward.size() != static_cast<size_t>(kKeys)) {
          failed.store(true);
          break;
        }
        // Same snapshot, walked backward from the last key.
        s = c->Seek(Slice(forward.back().first));
        while (s.ok() && c->Valid()) {
          if (c->ts() > snap.timestamp()) {
            failed.store(true);  // future version leaked into the snapshot
            break;
          }
          backward.emplace_back(c->key().ToString(), c->ts());
          s = c->Prev();
        }
        std::reverse(backward.begin(), backward.end());
        if (!s.ok() || backward != forward) {
          failed.store(true);
          break;
        }
        scans_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    for (int i = 0; i < kKeys; ++i) {
      Status s = f.db->Put(KeyOf(i), ValueOf(KeyOf(i), round));
      if (!s.ok()) {
        ADD_FAILURE() << "writer Put failed: " << s.ToString();
        failed.store(true);
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : scanners) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(scans_done.load(), 0u);
  EXPECT_GT(f.db->primary()->counters().data_time_splits +
                f.db->primary()->counters().data_key_splits,
            0u);
}

// A multi-key transaction must be all-or-nothing to lock-free readers:
// the commit timestamp is published to the reader watermark only after
// every key is stamped, so a snapshot can never see key A from a commit
// without key B (paper 4.1: no updater commits at or before an issued
// read timestamp).
TEST(ConcurrencyTest, MultiKeyCommitsAreAtomicToReaders) {
  Fixture f;
  constexpr int kPairs = 30;
  constexpr int kRounds = 60;

  auto a_key = [](int i) { return "a-" + KeyOf(i); };
  auto b_key = [](int i) { return "b-" + KeyOf(i); };
  for (int i = 0; i < kPairs; ++i) {
    std::unique_ptr<txn::Transaction> t;
    ASSERT_TRUE(f.db->Begin(&t).ok());
    ASSERT_TRUE(t->Put(a_key(i), ValueOf(a_key(i), 0)).ok());
    ASSERT_TRUE(t->Put(b_key(i), ValueOf(b_key(i), 0)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0xD1B54A32D192ED03ull * (r + 1);
      while (!stop.load(std::memory_order_acquire) && !failed.load()) {
        txn::ReadTransaction snap = f.db->BeginReadOnly();
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int i = static_cast<int>((rng >> 33) % kPairs);
        std::string va, vb, ka, kb;
        uint64_t sa = 0, sb = 0;
        if (!snap.Get(a_key(i), &va).ok() || !snap.Get(b_key(i), &vb).ok() ||
            !DecodeValue(va, &ka, &sa) || !DecodeValue(vb, &kb, &sb) ||
            sa != sb) {
          failed.store(true);  // torn commit: pair out of sync at snapshot
          break;
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Each round rewrites every pair in ONE transaction with a new seq.
  for (int round = 1; round <= kRounds && !failed.load(); ++round) {
    for (int i = 0; i < kPairs; ++i) {
      std::unique_ptr<txn::Transaction> t;
      ASSERT_TRUE(f.db->Begin(&t).ok());
      Status s = t->Put(a_key(i), ValueOf(a_key(i), round));
      if (s.ok()) s = t->Put(b_key(i), ValueOf(b_key(i), round));
      if (s.ok()) s = t->Commit();
      if (!s.ok()) {
        ADD_FAILURE() << "pair commit failed: " << s.ToString();
        failed.store(true);
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(checks.load(), 0u);
}

// Two updater threads racing on overlapping key ranges: first-writer-wins
// conflicts surface as TxnConflict, never as corruption, and committed
// state stays decodable.
TEST(ConcurrencyTest, ConcurrentUpdatersConflictCleanly) {
  Fixture f;
  constexpr int kKeys = 40;
  constexpr int kOpsPerWriter = 300;

  std::atomic<bool> failed{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> conflicts{0};

  auto writer = [&](int wid) {
    uint64_t rng = 0xA0761D64ull * (wid + 3);
    for (int i = 0; i < kOpsPerWriter && !failed.load(); ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const int ki = static_cast<int>((rng >> 33) % kKeys);
      std::unique_ptr<txn::Transaction> t;
      if (!f.db->Begin(&t).ok()) {
        failed.store(true);
        return;
      }
      Status s = t->Put(KeyOf(ki), ValueOf(KeyOf(ki), i));
      if (s.IsTxnConflict()) {
        conflicts.fetch_add(1);
        t->Abort();
        continue;
      }
      if (!s.ok() || !t->Commit().ok()) {
        failed.store(true);
        return;
      }
      commits.fetch_add(1);
    }
  };
  std::thread w1(writer, 1), w2(writer, 2);
  w1.join();
  w2.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(commits.load(), 0u);
  // All keys that were committed decode cleanly.
  for (int i = 0; i < kKeys; ++i) {
    std::string value, key;
    uint64_t seq = 0;
    Status s = f.db->Get({}, KeyOf(i), &value);
    if (s.IsNotFound()) continue;
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(DecodeValue(value, &key, &seq));
    EXPECT_EQ(KeyOf(i), key);
  }
}

// The shared-blob read path under TSan: N readers pin and walk the SAME
// cached blob through ReadView while a writer keeps appending (rotating
// the LRU cache underneath them). Exercises the pin-vs-evict and
// publish-once races in AppendStore.
TEST(ConcurrencyTest, AppendStoreSharedBlobReadersWhileWriterAppends) {
  MemDevice dev;
  AppendStore store(&dev, /*cache_blobs=*/2);

  constexpr int kSharedBlobs = 4;
  std::vector<HistAddr> addrs(kSharedBlobs);
  std::vector<std::string> payloads(kSharedBlobs);
  for (int i = 0; i < kSharedBlobs; ++i) {
    payloads[i] = "blob-" + std::to_string(i) + "-" +
                  std::string(200 + i * 37, static_cast<char>('a' + i));
    ASSERT_TRUE(store.Append(payloads[i], &addrs[i]).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads{0};

  std::thread writer([&] {
    HistAddr scratch;
    for (int i = 0; i < 500 && !stop.load(std::memory_order_acquire); ++i) {
      if (!store.Append(Slice("writer-era-" + std::to_string(i)), &scratch)
               .ok()) {
        failed.store(true);
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 400; ++i) {
        const int b = (r + i) % kSharedBlobs;
        BlobHandle h;
        if (!store.ReadView(addrs[b], &h).ok() ||
            h.data() != Slice(payloads[b])) {
          failed.store(true);
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(4u * 400u, reads.load());
  const HistReadStats s = store.hist_stats();
  EXPECT_GT(s.cache_hits + s.cache_misses, 0u);
}

// The mmap read path under TSan: N readers pin blobs straight out of the
// file mapping (cache disabled, so every read takes the mapped cold path)
// while a writer keeps appending — forcing remaps whose old mappings must
// stay valid for outstanding pins. Exercises the mapping-refcount,
// verified-set and size/high-water races in FileDevice + AppendStore.
TEST(ConcurrencyTest, AppendStoreMappedReadersWhileWriterAppends) {
  char tmpl[] = "/tmp/tsb_concurrency_mmap_XXXXXX";
  const int tmp_fd = ::mkstemp(tmpl);
  ASSERT_GE(tmp_fd, 0);
  ::close(tmp_fd);
  const std::string path = tmpl;

  FileDevice* raw = nullptr;
  ASSERT_TRUE(FileDevice::Open(path, &raw, DeviceKind::kOpticalErasable,
                               CostParams::OpticalWorm(),
                               /*enable_mmap=*/true)
                  .ok());
  std::unique_ptr<FileDevice> dev(raw);
  AppendStore store(dev.get(), /*cache_blobs=*/0);

  constexpr int kSharedBlobs = 4;
  std::vector<HistAddr> addrs(kSharedBlobs);
  std::vector<std::string> payloads(kSharedBlobs);
  for (int i = 0; i < kSharedBlobs; ++i) {
    payloads[i] = "mapped-blob-" + std::to_string(i) + "-" +
                  std::string(300 + i * 53, static_cast<char>('a' + i));
    ASSERT_TRUE(store.Append(payloads[i], &addrs[i]).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads{0};

  std::thread writer([&] {
    // Each append grows the file; crossing page boundaries forces readers
    // of later blobs to remap while earlier pins are still live.
    HistAddr scratch;
    for (int i = 0; i < 500 && !stop.load(std::memory_order_acquire); ++i) {
      if (!store.Append(Slice(std::string(600, 'w')), &scratch).ok()) {
        failed.store(true);
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      BlobHandle held;  // keep one pin across iterations (old mappings)
      for (int i = 0; i < 400; ++i) {
        const int b = (r + i) % kSharedBlobs;
        BlobHandle h;
        if (!store.ReadView(addrs[b], &h).ok() ||
            h.data() != Slice(payloads[b])) {
          failed.store(true);
          return;
        }
        if (i % 16 == 0) held = h;
        if (held.valid() && held.data().empty()) {
          failed.store(true);
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(4u * 400u, reads.load());
  const HistReadStats s = store.hist_stats();
  EXPECT_GT(s.mapped_bytes, 0u);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace tsb
