// Concurrency experiment (paper section 4.1): one updater advancing the
// logical clock while N read-only transactions run lock-free against
// timestamped snapshots. Reports aggregate reader throughput as the reader
// count grows — with per-frame shared latches and a sharded buffer pool,
// point reads should scale nearly linearly until the memory bus saturates.
//
// Second phase: N committing WRITERS on the optimistic-latch-coupling
// write path (with one writer, the paper's single-updater model), on
// disjoint key ranges and on one contended key space. Emits
// BENCH_concurrency.json (BENCH_CONCURRENCY_JSON overrides the path) with
// the ratios CI gates on.
//
// The deterministic tables are the acceptance artifacts: reader scaling at
// 4 threads vs 1, 4-writer throughput vs 1-writer on disjoint ranges, and
// 1-writer throughput against the retired serial write mode's recorded
// rate. Two counts repeat exactly on any machine: buffer-pool shard
// lookups per warm Get (the 512-frame pool keeps index pages resident, so
// only the leaf goes through a shard) and per single-key disjoint commit.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"
#include "txn/txn_manager.h"
#include "txn/write_batch.h"

namespace tsb {
namespace bench {
namespace {

constexpr int kKeys = 4000;
constexpr int kMeasureMs = 400;

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

tsb_tree::TsbOptions Options() {
  tsb_tree::TsbOptions options;
  options.page_size = 4096;
  options.buffer_pool_frames = 512;
  options.hist_cache_blobs = 32;
  return options;
}

struct ConcurrencyFixture {
  std::unique_ptr<MemDevice> magnetic;
  std::unique_ptr<MemDevice> optical;
  std::unique_ptr<tsb_tree::TsbTree> tree;

  static ConcurrencyFixture Build() {
    ConcurrencyFixture f;
    f.magnetic = std::make_unique<MemDevice>();
    f.optical = std::make_unique<MemDevice>(DeviceKind::kOpticalErasable,
                                            CostParams::OpticalWorm());
    Status s = tsb_tree::TsbTree::Open(f.magnetic.get(), f.optical.get(),
                                       Options(), &f.tree);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      abort();
    }
    for (int i = 0; i < kKeys; ++i) {
      const Timestamp ts = f.tree->clock().Tick();
      s = f.tree->Put(KeyOf(i), "v0-initial-payload-for-key-" + KeyOf(i), ts);
      if (!s.ok()) {
        fprintf(stderr, "seed put failed: %s\n", s.ToString().c_str());
        abort();
      }
    }
    return f;
  }
};

struct RunResult {
  double reader_ops_per_sec = 0;
  double writer_ops_per_sec = 0;
};

// Runs 1 writer + `n_readers` reader threads for kMeasureMs and returns
// the aggregate throughputs.
RunResult RunMix(tsb_tree::TsbTree* tree, int n_readers) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_ops{0};
  std::atomic<uint64_t> writer_ops{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string key = KeyOf(static_cast<int>(seq % kKeys));
      const Timestamp ts = tree->clock().Tick();
      Status s = tree->Put(key, "v" + std::to_string(ts) + "-updated", ts);
      if (!s.ok()) {
        failed.store(true);
        break;
      }
      writer_ops.fetch_add(1, std::memory_order_relaxed);
      seq++;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (r + 1);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // A read-only transaction: capture the committed watermark, read
        // as of it.
        const Timestamp t = tree->VisibleNow();
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int ki = static_cast<int>((rng >> 33) % kKeys);
        std::string value;
        Status s = tree->Get({.as_of = t}, KeyOf(ki), &value);
        if (!s.ok()) {
          failed.store(true);
          break;
        }
        local++;
      }
      reader_ops.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(kMeasureMs));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  if (failed.load()) {
    fprintf(stderr, "concurrent run failed\n");
    abort();
  }

  RunResult res;
  res.reader_ops_per_sec =
      static_cast<double>(reader_ops.load()) * 1000.0 / kMeasureMs;
  res.writer_ops_per_sec =
      static_cast<double>(writer_ops.load()) * 1000.0 / kMeasureMs;
  return res;
}

struct ReaderRow {
  int readers;
  RunResult r;
};

// Pool fetches per warm Get at latest over every key, on a quiet tree.
struct GetCounts {
  uint32_t height = 0;
  double pages_per_get = 0;
  double shard_lookups_per_get = 0;
};

GetCounts CountWarmGets(tsb_tree::TsbTree* tree) {
  std::string value;
  auto get_all = [&] {
    for (int i = 0; i < kKeys; ++i) {
      if (!tree->Get({}, KeyOf(i), &value).ok()) abort();
    }
  };
  get_all();  // warms the pool
  const BufferPoolStats before = tree->PoolStats();
  get_all();
  const BufferPoolStats after = tree->PoolStats();
  GetCounts c;
  c.height = tree->height();
  c.pages_per_get = static_cast<double>((after.hits + after.misses) -
                                        (before.hits + before.misses)) /
                    kKeys;
  c.shard_lookups_per_get =
      static_cast<double>(after.shard_lookups - before.shard_lookups) / kKeys;
  return c;
}

std::vector<ReaderRow> PrintTable(GetCounts* gets) {
  printf("# E9 concurrency: 1 writer + N lock-free timestamped readers\n");
  printf("# keys=%d page=4096 frames=512 measure=%dms cores=%u\n", kKeys,
         kMeasureMs, std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 4) {
    printf(
        "# NOTE: <4 cores — reader threads time-share; the scaling column\n"
        "# is capped by the scheduler, not by the latching protocol\n"
        "# (single-core ceiling for 1 writer + N readers is ~(N/(N+1))/0.5).\n");
  }
  printf("%-10s %16s %16s %10s\n", "readers", "reads/s", "writes/s",
         "scaling");
  ConcurrencyFixture f = ConcurrencyFixture::Build();
  std::vector<ReaderRow> rows;
  double base = 0;
  for (int n : {1, 2, 4, 8}) {
    const RunResult r = RunMix(f.tree.get(), n);
    if (n == 1) base = r.reader_ops_per_sec;
    printf("%-10d %16.0f %16.0f %9.2fx\n", n, r.reader_ops_per_sec,
           r.writer_ops_per_sec,
           base > 0 ? r.reader_ops_per_sec / base : 0.0);
    rows.push_back({n, r});
  }
  *gets = CountWarmGets(f.tree.get());
  printf("warm Get at latest (height %u): %.3f pages, %.3f shard lookups\n\n",
         gets->height, gets->pages_per_get, gets->shard_lookups_per_get);
  return rows;
}

// ---- writer scaling (optimistic latch coupling) -----------------------

// The serial write mode this path replaced committed 374,790 single-key
// transactions/s with one writer on the disjoint workload (Release build,
// median of 5 runs, 4-vCPU Intel Xeon). That rate is recorded as the
// floor the one-writer OLC path is held to.
constexpr double kSerialOneWriterFloorCommitsPerSec = 374790.0;

struct WriterFixture {
  std::unique_ptr<MemDevice> magnetic;
  std::unique_ptr<MemDevice> optical;
  std::unique_ptr<tsb_tree::TsbTree> tree;
  std::unique_ptr<txn::TxnManager> txns;

  static WriterFixture Build() {
    WriterFixture f;
    f.magnetic = std::make_unique<MemDevice>();
    f.optical = std::make_unique<MemDevice>(DeviceKind::kOpticalErasable,
                                            CostParams::OpticalWorm());
    Status s = tsb_tree::TsbTree::Open(f.magnetic.get(), f.optical.get(),
                                       Options(), &f.tree);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      abort();
    }
    f.txns = std::make_unique<txn::TxnManager>(f.tree.get());
    for (int i = 0; i < kKeys; ++i) {
      const Timestamp ts = f.tree->clock().Tick();
      s = f.tree->Put(KeyOf(i), "v0-initial-payload-for-key-" + KeyOf(i), ts);
      if (!s.ok()) {
        fprintf(stderr, "seed put failed: %s\n", s.ToString().c_str());
        abort();
      }
    }
    f.tree->clock().Publish(f.tree->clock().Now());
    return f;
  }
};

struct WriterRun {
  double commits_per_sec = 0;
  uint64_t conflicts = 0;
  uint64_t olc_restarts = 0;
  uint64_t olc_sidesteps = 0;
};

// Runs `n_writers` threads committing single-key transactions for
// kMeasureMs. Disjoint = each writer owns kKeys/n_writers keys (the
// scaling case); contended = every writer draws from the whole key space
// (first-writer-wins conflicts are counted, not fatal).
WriterRun RunWriters(WriterFixture* f, int n_writers, bool disjoint) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> conflicts{0};
  std::atomic<bool> failed{false};
  const uint64_t restarts0 = f->tree->counters().olc_restarts.load();
  const uint64_t sidesteps0 = f->tree->counters().olc_sidesteps.load();

  std::vector<std::thread> writers;
  for (int w = 0; w < n_writers; ++w) {
    writers.emplace_back([&, w] {
      const int shard = kKeys / n_writers;
      const int lo = w * shard;
      uint64_t rng = 0x9E3779B97F4A7C15ull * (w + 1);
      uint64_t seq = 0;
      uint64_t local_commits = 0;
      uint64_t local_conflicts = 0;
      while (!stop.load(std::memory_order_acquire)) {
        int ki;
        if (disjoint) {
          ki = lo + static_cast<int>(seq % shard);
        } else {
          rng = rng * 6364136223846793005ull + 1442695040888963407ull;
          ki = static_cast<int>((rng >> 33) % kKeys);
        }
        txn::WriteBatch batch;
        batch.Put(KeyOf(ki),
                  "w" + std::to_string(w) + "-v" + std::to_string(seq));
        Status s = f->txns->Write(batch);
        seq++;
        if (s.IsTxnConflict()) {
          local_conflicts++;
          continue;
        }
        if (!s.ok()) {
          fprintf(stderr, "writer commit failed: %s\n", s.ToString().c_str());
          failed.store(true);
          break;
        }
        local_commits++;
      }
      commits.fetch_add(local_commits, std::memory_order_relaxed);
      conflicts.fetch_add(local_conflicts, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(kMeasureMs));
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  if (failed.load()) {
    fprintf(stderr, "writer run failed\n");
    abort();
  }

  WriterRun res;
  res.commits_per_sec =
      static_cast<double>(commits.load()) * 1000.0 / kMeasureMs;
  res.conflicts = conflicts.load();
  res.olc_restarts = f->tree->counters().olc_restarts.load() - restarts0;
  res.olc_sidesteps = f->tree->counters().olc_sidesteps.load() - sidesteps0;
  return res;
}

// Shard lookups per single-key commit of one writer walking its keys in
// order (the disjoint pattern), after one warming pass. Single-threaded,
// so the count repeats exactly.
double CountCommitLookups() {
  WriterFixture f = WriterFixture::Build();
  constexpr int kCommits = 2 * kKeys;
  BufferPoolStats before;
  for (int i = 0; i < kKeys + kCommits; ++i) {
    if (i == kKeys) before = f.tree->PoolStats();
    txn::WriteBatch batch;
    batch.Put(KeyOf(i % kKeys), "w0-v" + std::to_string(i));
    if (!f.txns->Write(batch).ok()) abort();
  }
  const BufferPoolStats after = f.tree->PoolStats();
  return static_cast<double>(after.shard_lookups - before.shard_lookups) /
         kCommits;
}

void PrintWriterTableAndJson(const std::vector<ReaderRow>& readers,
                             const GetCounts& gets) {
  printf("# E10 writer scaling: N single-key committing writers\n");
  printf("# keys=%d page=4096 frames=512 measure=%dms cores=%u\n", kKeys,
         kMeasureMs, std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 4) {
    printf(
        "# NOTE: <4 cores — writer threads time-share; scaling is capped\n"
        "# by the scheduler, not by the latching protocol.\n");
  }
  printf("%-10s %-8s %14s %10s %10s %10s\n", "pattern", "writers",
         "commits/s", "conflicts", "restarts", "sidesteps");

  struct Row {
    bool disjoint;
    int n;
    WriterRun r;
  };
  std::vector<Row> rows;
  for (const bool disjoint : {true, false}) {
    for (const int n : {1, 2, 4, 8}) {
      // Fresh tree per run: every configuration pays the same seed state
      // instead of inheriting the previous run's versions/splits.
      WriterFixture f = WriterFixture::Build();
      Row row{disjoint, n, RunWriters(&f, n, disjoint)};
      printf("%-10s %-8d %14.0f %10llu %10llu %10llu\n",
             disjoint ? "disjoint" : "contended", n, row.r.commits_per_sec,
             (unsigned long long)row.r.conflicts,
             (unsigned long long)row.r.olc_restarts,
             (unsigned long long)row.r.olc_sidesteps);
      rows.push_back(std::move(row));
    }
  }
  printf("\n");

  auto find = [&](bool disjoint, int n) -> const WriterRun& {
    for (const Row& row : rows) {
      if (row.disjoint == disjoint && row.n == n) return row.r;
    }
    abort();
  };
  const double one_w = find(true, 1).commits_per_sec;
  const double four_w = find(true, 4).commits_per_sec;
  const double speedup_4w = one_w > 0 ? four_w / one_w : 0.0;
  const double over_floor = one_w / kSerialOneWriterFloorCommitsPerSec;
  printf("4 writers vs 1 (disjoint):           %.2fx\n", speedup_4w);
  printf("1 writer vs retired serial floor:    %.2fx (floor %.0f commits/s)"
         "\n",
         over_floor, kSerialOneWriterFloorCommitsPerSec);
  const double commit_lookups = CountCommitLookups();
  printf("shard lookups per disjoint commit:   %.4f\n\n", commit_lookups);

  const char* path = std::getenv("BENCH_CONCURRENCY_JSON");
  if (path == nullptr) path = "BENCH_concurrency.json";
  FILE* out = fopen(path, "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fprintf(out,
          "{\n"
          "  \"hardware_concurrency\": %u,\n"
          "  \"keys\": %d,\n"
          "  \"measure_ms\": %d,\n"
          "  \"reader_runs\": [\n",
          std::thread::hardware_concurrency(), kKeys, kMeasureMs);
  for (size_t i = 0; i < readers.size(); ++i) {
    fprintf(out,
            "    {\"readers\": %d, \"reads_per_sec\": %.1f, "
            "\"writes_per_sec\": %.1f}%s\n",
            readers[i].readers, readers[i].r.reader_ops_per_sec,
            readers[i].r.writer_ops_per_sec,
            i + 1 < readers.size() ? "," : "");
  }
  fprintf(out,
          "  ],\n"
          "  \"tree_height\": %u,\n"
          "  \"pages_per_warm_get\": %.4f,\n"
          "  \"shard_lookups_per_warm_get\": %.4f,\n"
          "  \"shard_lookups_per_disjoint_commit\": %.4f,\n"
          "  \"runs\": [\n",
          gets.height, gets.pages_per_get, gets.shard_lookups_per_get,
          commit_lookups);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    fprintf(out,
            "    {\"pattern\": \"%s\", \"writers\": %d, "
            "\"commits_per_sec\": %.1f, \"conflicts\": %llu, "
            "\"olc_restarts\": %llu, \"olc_sidesteps\": %llu}%s\n",
            row.disjoint ? "disjoint" : "contended", row.n,
            row.r.commits_per_sec, (unsigned long long)row.r.conflicts,
            (unsigned long long)row.r.olc_restarts,
            (unsigned long long)row.r.olc_sidesteps,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(out,
          "  ],\n"
          "  \"speedup_4w_disjoint_vs_1w\": %.3f,\n"
          "  \"serial_floor_commits_per_sec\": %.1f,\n"
          "  \"one_writer_over_serial_floor\": %.3f\n"
          "}\n",
          speedup_4w, kSerialOneWriterFloorCommitsPerSec, over_floor);
  fclose(out);
  printf("wrote %s\n\n", path);
}

void BM_ConcurrentWriters(benchmark::State& state) {
  const int n_writers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WriterFixture f = WriterFixture::Build();
    const WriterRun r = RunWriters(&f, n_writers, /*disjoint=*/true);
    state.counters["commits_per_sec"] = r.commits_per_sec;
    state.counters["olc_restarts"] = static_cast<double>(r.olc_restarts);
  }
}
BENCHMARK(BM_ConcurrentWriters)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ConcurrentReaders(benchmark::State& state) {
  static ConcurrencyFixture* f = [] {
    auto* fix = new ConcurrencyFixture(ConcurrencyFixture::Build());
    return fix;
  }();
  const int n_readers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const RunResult r = RunMix(f->tree.get(), n_readers);
    state.counters["reads_per_sec"] = r.reader_ops_per_sec;
    state.counters["writes_per_sec"] = r.writer_ops_per_sec;
  }
}
BENCHMARK(BM_ConcurrentReaders)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::GetCounts gets;
  const auto readers = tsb::bench::PrintTable(&gets);
  tsb::bench::PrintWriterTableAndJson(readers, gets);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
