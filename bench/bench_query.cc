// Experiment E6 (paper sections 2.2, 2.5, 3.7): query performance — the
// design goal is that current data stays concentrated in a small number of
// fast-device nodes while history is still reachable. We measure current
// lookups, as-of lookups into deep history, snapshot scans and version
// history scans on the TSB-tree vs the WOBT vs a B+-tree (current only),
// reporting both wall time and SIMULATED device time (the 1989-hardware
// cost model: magnetic vs 3x-slower optical seeks).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bpt/bplus_tree.h"
#include "common/random.h"
#include "db/multiversion_db.h"
#include "storage/file_device.h"
#include "tsb/cursor.h"
#include "wobt/wobt_tree.h"

// ---- binary-wide allocation counter ----
// Counts every operator-new call so the historical as-of section can
// report allocations per lookup (the zero-copy read path must show ~0 on
// the cache-hit path) and the batch-write section allocations per written
// key.
//
// All replacement news below are malloc/aligned_alloc-backed, so free()
// in the deletes is correct; GCC's pairing heuristic cannot see that.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace tsb {
namespace bench {
namespace {

constexpr size_t kOps = 12000;
constexpr double kUpdateFraction = 0.7;

util::WorkloadSpec QuerySpec() {
  util::WorkloadSpec spec;
  spec.seed = 42;
  spec.num_ops = kOps;
  spec.update_fraction = kUpdateFraction;
  spec.value_size = 40;
  return spec;
}

// Shared fixtures, built once.
struct Fixtures {
  TsbFixture tsb;
  std::unique_ptr<WormDevice> wobt_worm;
  std::unique_ptr<wobt::WobtTree> wobt;
  std::unique_ptr<MemDevice> bpt_dev;
  std::unique_ptr<bpt::BPlusTree> bpt;
  size_t keys = 0;

  static Fixtures& Get() {
    static Fixtures* f = Build();
    return *f;
  }

  static Fixtures* Build() {
    auto* f = new Fixtures();
    tsb_tree::TsbOptions topts;
    topts.page_size = 2048;
    topts.buffer_pool_frames = 128;
    f->tsb = TsbFixture::Build(QuerySpec(), topts);

    f->wobt_worm = std::make_unique<WormDevice>(1024);
    wobt::WobtOptions wopts;
    wopts.node_sectors = 4;
    f->wobt = std::make_unique<wobt::WobtTree>(f->wobt_worm.get(), wopts);

    f->bpt_dev = std::make_unique<MemDevice>();
    bpt::BptOptions bopts;
    bopts.page_size = 2048;
    bpt::BPlusTree::Open(f->bpt_dev.get(), bopts, &f->bpt);

    util::WorkloadGenerator gen(QuerySpec());
    util::Op op;
    while (gen.Next(&op)) {
      if (!f->wobt->Insert(op.key, op.value, op.ts).ok()) abort();
      if (!f->bpt->Put(op.key, op.value).ok()) abort();
    }
    f->keys = gen.keys_created();
    return f;
  }

  std::string KeyAt(uint64_t i) const {
    util::WorkloadGenerator gen(QuerySpec());
    return gen.KeyFor(i % keys);
  }
};

void PrintIoTable() {
  Fixtures& f = Fixtures::Get();
  printf("== E6: query I/O and simulated device time per 1000 queries ==\n");
  printf("(%zu ops at %.0f%% updates; magnetic seek 16 ms, optical 48 ms)\n\n",
         kOps, kUpdateFraction * 100);

  auto run = [&](const char* label, auto&& body) {
    f.tsb.magnetic->ResetStats();
    f.tsb.worm->ResetStats();
    f.wobt_worm->ResetStats();
    f.bpt_dev->ResetStats();
    body();
    printf("%-28s | tsb: mag %7.0fms opt %7.0fms | wobt: %8.0fms | "
           "b+: %7.0fms\n",
           label, f.tsb.magnetic->stats().simulated_ms,
           f.tsb.worm->stats().simulated_ms,
           f.wobt_worm->stats().simulated_ms,
           f.bpt_dev->stats().simulated_ms);
  };

  Random rnd(1);
  run("current point lookups", [&] {
    std::string v;
    for (int i = 0; i < 1000; ++i) {
      const std::string k = f.KeyAt(rnd.Next());
      f.tsb.tree->Get({}, k, &v);
      f.wobt->GetCurrent(k, &v);
      f.bpt->Get(k, &v);
    }
  });
  run("as-of lookups (deep past)", [&] {
    std::string v;
    for (int i = 0; i < 1000; ++i) {
      const std::string k = f.KeyAt(rnd.Next());
      const Timestamp t = 1 + rnd.Uniform(kOps / 4);  // oldest quarter
      f.tsb.tree->Get({.as_of = t}, k, &v);
      f.wobt->GetAsOf(k, t, &v);
      f.bpt->Get(k, &v);  // B+ has no history: current read for contrast
    }
  });
  run("version-history scans", [&] {
    for (int i = 0; i < 100; ++i) {
      const std::string k = f.KeyAt(rnd.Next());
      auto it = f.tsb.tree->NewCursor({});
      it->Seek(k);
      while (it->Valid()) it->NextVersion();
      std::vector<std::pair<Timestamp, std::string>> versions;
      f.wobt->GetVersions(k, &versions);
    }
  });
  printf("\n(current lookups touch only the magnetic disk in the TSB-tree —\n"
         "the small-current-database property; deep as-of reads pay optical\n"
         "seeks; the WOBT pays optical seeks for EVERYTHING)\n\n");
}

// ---- historical as-of workload: the zero-copy read path ----
//
// Measures SearchPoint phase 2 on its cache-hit path (the shared-blob
// cache is sized to the whole historical working set) and writes
// BENCH_query.json: ops/sec, allocations per op and owning node decodes
// (which the point-read path never performs) for string and pinned Gets.
// The owning-decode read path this replaced ran 169,451 ops/s on the same
// workload (Release build, 1-core machine); that rate is recorded as the
// floor both paths must stay above.
constexpr double kOwnedDecodeFloorOpsPerSec = 169451.0;

struct HistAsOfResult {
  double ops_per_sec = 0;
  double allocs_per_op = 0;
  double cache_hit_ratio = 0;
  uint64_t owned_decodes = 0;
};

// ---- cold-read fixtures: FileDevice-backed historical store ----
//
// The cold phase measures SearchPoint phase 2 with the shared-blob cache
// disabled, so every historical pin goes to the device: once through the
// mmap read path (pins served straight from the file mapping; CRC paid on
// each blob's first pin ever) and once on the same device class with mmap
// off (the copying pread + CRC baseline). The blob cache is also cleared
// between rounds, so enabling it would not leak warmth across rounds.

struct ColdFixture {
  std::string path;
  std::unique_ptr<MemDevice> magnetic;
  std::unique_ptr<FileDevice> hist;
  std::unique_ptr<tsb_tree::TsbTree> tree;  // declared last: destroyed
                                            // (and flushed) before devices

  ColdFixture() = default;
  ColdFixture(ColdFixture&&) = default;
  ColdFixture& operator=(ColdFixture&&) = default;

  ~ColdFixture() {
    tree.reset();
    hist.reset();
    if (!path.empty()) ::unlink(path.c_str());
  }
};

ColdFixture BuildColdFixture(bool enable_mmap, const char* suffix) {
  ColdFixture f;
  f.path = "/tmp/tsb_bench_cold_" + std::to_string(::getpid()) + "_" +
           suffix + ".dat";
  ::unlink(f.path.c_str());  // fresh store
  f.magnetic = std::make_unique<MemDevice>();
  FileDevice* raw = nullptr;
  Status s = FileDevice::Open(f.path, &raw, DeviceKind::kOpticalErasable,
                              CostParams::OpticalWorm(), enable_mmap);
  if (!s.ok()) {
    fprintf(stderr, "cold fixture open failed: %s\n", s.ToString().c_str());
    abort();
  }
  f.hist.reset(raw);

  tsb_tree::TsbOptions topts;
  topts.page_size = 2048;
  topts.buffer_pool_frames = 1024;  // current axis fully resident
  topts.hist_cache_blobs = 0;       // every historical pin is cold
  s = tsb_tree::TsbTree::Open(f.magnetic.get(), f.hist.get(), topts,
                              &f.tree);
  if (!s.ok()) {
    fprintf(stderr, "cold fixture tree open failed: %s\n",
            s.ToString().c_str());
    abort();
  }
  util::WorkloadGenerator gen(QuerySpec());
  util::Op op;
  while (gen.Next(&op)) {
    if (!f.tree->Put(op.key, op.value, op.ts).ok()) abort();
  }
  return f;
}

struct ColdReadResult {
  double ops_per_sec = 0;
  double allocs_per_op = 0;  // measured after the first (verifying) pass
};

ColdReadResult MeasureColdRead(
    tsb_tree::TsbTree* tree,
    const std::vector<std::pair<std::string, Timestamp>>& probes,
    int rounds) {
  std::string v;
  // First pass pays the one-time costs (CRC verification on the mmap
  // path, value capacity growth); the measured rounds are pure re-pins.
  tsb_tree::ReadOptions opts;
  for (const auto& [k, t] : probes) {
    opts.as_of = t;
    tree->Get(opts, k, &v);
  }
  tree->hist_store()->ClearCache();
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  size_t ops = 0;
  for (int r = 0; r < rounds; ++r) {
    tree->hist_store()->ClearCache();  // no warmth across rounds
    for (const auto& [k, t] : probes) {
      opts.as_of = t;
      benchmark::DoNotOptimize(tree->Get(opts, k, &v));
      ++ops;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const double secs = std::chrono::duration<double>(end - start).count();
  ColdReadResult r;
  r.ops_per_sec = secs > 0 ? static_cast<double>(ops) / secs : 0;
  r.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  return r;
}

// ---- node bytes vs uncompressed size on a prefix-heavy key workload ----
//
// Mirrors what time splits consolidate: runs of versions for keys that
// share long prefixes, chunked into node-sized blobs. `raw_bytes` is the
// builder's uncompressed slotted size (header, cells, one offset each).

struct NodeBytesResult {
  uint64_t raw_bytes = 0;
  uint64_t v3_bytes = 0;
};

NodeBytesResult MeasureHistNodeBytes() {
  using tsb_tree::DataEntry;
  Random rnd(97);
  std::vector<DataEntry> entries;
  Timestamp ts = 1;
  for (int k = 0; k < 400; ++k) {
    char key[48];
    snprintf(key, sizeof(key), "tenant-0042/user-%08d/balance", k * 7);
    const int versions = 2 + static_cast<int>(rnd.Uniform(4));
    for (int v = 0; v < versions; ++v) {
      DataEntry e;
      e.key = key;
      e.ts = ts;
      ts += 1 + rnd.Uniform(3);
      e.value = "balance=" + std::to_string(1000 + ts);
      entries.push_back(std::move(e));
    }
  }
  NodeBytesResult r;
  constexpr size_t kEntriesPerNode = 32;  // ~2 KiB consolidated nodes
  std::string blob;
  for (size_t i = 0; i < entries.size(); i += kEntriesPerNode) {
    const size_t n = std::min(kEntriesPerNode, entries.size() - i);
    const std::vector<DataEntry> node(entries.begin() + i,
                                      entries.begin() + i + n);
    uint64_t raw = 0;
    tsb_tree::SerializeHistDataNode(tsb_tree::ViewsOf(node), &blob, &raw);
    r.raw_bytes += raw;
    r.v3_bytes += blob.size();
  }
  return r;
}

// ---- scan phase: zero-copy frames forward, true backward walk reverse ----
//
// Measures full snapshot scans through the VersionCursor in both
// directions. Forward scans ride pinned-page-view frames (no owned index
// entries, no latch across iteration); reverse scans ride the same stack
// walked leftward (one O(height) descent at the direction switch, then
// amortized O(1) per key like Next). Warm rounds reuse every capacity in
// the cursor, so allocations per emitted entry must be ~0; cold rounds
// clear the blob cache so historical frames re-pin from the mapping.

struct ScanResult {
  double entries_per_sec = 0;
  double allocs_per_entry = 0;
  size_t entries_per_scan = 0;
};

ScanResult MeasureScan(tsb_tree::TsbTree* tree, Timestamp t, bool reverse,
                       int rounds, AppendStore* clear_cache) {
  tsb_tree::ReadOptions opts;
  opts.as_of = t;
  auto c = tree->NewCursor(opts);
  // Find the snapshot's last key once — the reverse walk's anchor.
  std::string last_key;
  size_t per_scan = 0;
  if (!c->SeekToFirst().ok()) return {};
  while (c->Valid()) {
    last_key.assign(c->key().data(), c->key().size());
    ++per_scan;
    if (!c->Next().ok()) return {};
  }
  if (per_scan == 0) return {};
  auto pass = [&]() -> size_t {
    size_t n = 0;
    if (reverse) {
      if (!c->Seek(Slice(last_key)).ok()) return 0;
      while (c->Valid()) {
        benchmark::DoNotOptimize(c->value().data());
        ++n;
        if (!c->Prev().ok()) return 0;
      }
    } else {
      if (!c->SeekToFirst().ok()) return 0;
      while (c->Valid()) {
        benchmark::DoNotOptimize(c->value().data());
        ++n;
        if (!c->Next().ok()) return 0;
      }
    }
    return n;
  };
  pass();  // warmup: emission slots, frame pool and value capacities grow once
  // BENCH_SCAN_DEBUG=1 prints one scan's IO profile per direction — the
  // node-visit asymmetry this exposes is how the old-snapshot forward-scan
  // gap (fixed by the index-entry content-floor hints) was diagnosed.
  if (getenv("BENCH_SCAN_DEBUG") != nullptr) {
    const HistReadStats h0 = tree->HistStats();
    const BufferPoolStats p0 = tree->PoolStats();
    pass();
    const HistReadStats h1 = tree->HistStats();
    const BufferPoolStats p1 = tree->PoolStats();
    fprintf(stderr,
            "[scan-debug] reverse=%d t=%llu keys=%zu blob_reads=%llu "
            "blob_bytes=%llu view_decodes=%llu owned_decodes=%llu "
            "pool_lookups=%llu\n",
            reverse ? 1 : 0, (unsigned long long)t, per_scan,
            (unsigned long long)(h1.blob_reads - h0.blob_reads),
            (unsigned long long)(h1.blob_bytes - h0.blob_bytes),
            (unsigned long long)(h1.view_decodes - h0.view_decodes),
            (unsigned long long)(h1.owned_decodes - h0.owned_decodes),
            (unsigned long long)((p1.hits + p1.misses) -
                                 (p0.hits + p0.misses)));
  }
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  size_t total = 0;
  for (int r = 0; r < rounds; ++r) {
    if (clear_cache != nullptr) clear_cache->ClearCache();
    total += pass();
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const double secs = std::chrono::duration<double>(end - start).count();
  ScanResult r;
  r.entries_per_sec = secs > 0 ? static_cast<double>(total) / secs : 0;
  r.allocs_per_entry =
      total == 0 ? 0
                 : static_cast<double>(allocs) / static_cast<double>(total);
  r.entries_per_scan = per_scan;
  return r;
}

// ---- batch writes: heap allocations per written key ----
//
// One thread writes kBatchWriteKeys keys x kBatchWriteVersions versions
// as kBatchWriteBatch-key WriteBatches through a path-opened
// MultiVersionDB (WAL on, sync off, no checkpoint): every version after
// the first supersedes one, so the load is time-split heavy, and with one
// thread it is deterministic. Only the Write calls are counted — building
// the batch is the caller's business — so allocs_per_key is what locking,
// the uncommitted inserts, the WAL frame, splits and stamping cost per
// key. writer_descents_per_key counts every leaf descent (inserts,
// splits, stamps): a split works on the leaf its insert latched.
constexpr uint64_t kBatchWriteKeys = 50000;
constexpr int kBatchWriteVersions = 10;
constexpr size_t kBatchWriteBatch = 500;

struct BatchWriteResult {
  double keys_per_sec = 0;
  double allocs_per_key = 0;
  double writer_descents_per_key = 0;
  uint64_t keys = 0;
  uint64_t time_splits = 0;
  uint64_t key_splits = 0;
};

/// Opens a fresh path-based database for the write rows (4 KiB pages,
/// WAL on with sync off, checkpoints only when asked) with `frames`
/// buffer-pool frames; `magnetic`, if set, receives its magnetic device.
std::unique_ptr<db::MultiVersionDB> OpenWriteDb(const std::string& path,
                                                size_t frames,
                                                Device** magnetic = nullptr) {
  (void)db::MultiVersionDB::Destroy(path);
  db::DbOptions o;
  o.tree.page_size = 4096;
  o.tree.buffer_pool_frames = frames;
  o.wal_sync = wal::WalSyncMode::kOff;
  o.wal_checkpoint_bytes = 1ull << 30;
  o.wrap_device = [magnetic](const std::string& role,
                             std::unique_ptr<Device> device) {
    if (magnetic != nullptr && role == "magnetic") *magnetic = device.get();
    return device;
  };
  std::unique_ptr<db::MultiVersionDB> db;
  Status s = db::MultiVersionDB::Open(path, o, &db);
  if (!s.ok()) {
    fprintf(stderr, "open %s failed: %s\n", path.c_str(),
            s.ToString().c_str());
    abort();
  }
  return db;
}

/// Refills `batch` with version `version` of keys [first, end): 9-byte
/// keys, 100-byte values.
void FillBatch(uint64_t first, uint64_t end, int version,
               txn::WriteBatch* batch) {
  char key[16];
  char value[100];
  memset(value, 'v', sizeof(value));
  batch->Clear();
  for (uint64_t id = first; id < end; ++id) {
    snprintf(key, sizeof(key), "k%08u", static_cast<unsigned>(id));
    snprintf(value, 25, "%08x-%015u", static_cast<unsigned>(id),
             static_cast<unsigned>(version));
    batch->Put(key, Slice(value, sizeof(value)));
  }
}

BatchWriteResult MeasureBatchWrite() {
  const std::string path =
      "/tmp/tsb_bench_batch_write." + std::to_string(::getpid());
  // The current database stays resident.
  std::unique_ptr<db::MultiVersionDB> db = OpenWriteDb(path, 8192);
  txn::WriteBatch batch;
  uint64_t allocs = 0;
  double secs = 0;
  BatchWriteResult r;
  for (int version = 0; version < kBatchWriteVersions; ++version) {
    for (uint64_t first = 0; first < kBatchWriteKeys;
         first += kBatchWriteBatch) {
      FillBatch(first, std::min(first + kBatchWriteBatch, kBatchWriteKeys),
                version, &batch);
      const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
      const auto start = std::chrono::steady_clock::now();
      const Status s = db->Write(batch);
      const auto end = std::chrono::steady_clock::now();
      allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
      secs += std::chrono::duration<double>(end - start).count();
      if (!s.ok()) {
        fprintf(stderr, "batch write failed: %s\n", s.ToString().c_str());
        abort();
      }
      r.keys += batch.Count();
    }
  }
  const tsb_tree::TsbCounters& c = db->primary()->counters();
  r.keys_per_sec = secs > 0 ? static_cast<double>(r.keys) / secs : 0;
  r.allocs_per_key = static_cast<double>(allocs) / static_cast<double>(r.keys);
  r.writer_descents_per_key = static_cast<double>(c.writer_descents) /
                              static_cast<double>(r.keys);
  r.time_splits = c.data_time_splits;
  r.key_splits = c.data_key_splits;
  db.reset();
  (void)db::MultiVersionDB::Destroy(path);
  return r;
}

// ---- sorted load: leaf fill after a bulk load of new keys ----
//
// One thread loads kSortedLoadKeys new keys in ascending order as
// kBatchWriteBatch-key WriteBatches (one version each, WAL on, sync off),
// then checkpoints once. A midpoint key split leaves every leaf of such a
// load about half full; a run split cuts where the run is inserted, so
// the leaves fill. fill = magnetic_used_bytes / magnetic_bytes over the
// pages the checkpoint wrote; the counts repeat exactly.
constexpr uint64_t kSortedLoadKeys = 200000;

struct SortedLoadResult {
  double keys_per_sec = 0;
  uint64_t key_splits = 0;
  uint64_t run_splits = 0;
  uint64_t checkpoint_page_writes = 0;  ///< fresh pages + the meta page
  uint64_t magnetic_pages = 0;
  double fill = 0;
};

SortedLoadResult MeasureSortedLoad() {
  const std::string path =
      "/tmp/tsb_bench_sorted_load." + std::to_string(::getpid());
  Device* magnetic = nullptr;
  // The loaded database stays resident.
  std::unique_ptr<db::MultiVersionDB> db = OpenWriteDb(path, 16384, &magnetic);
  txn::WriteBatch batch;
  Status s;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t first = 0; first < kSortedLoadKeys && s.ok();
       first += kBatchWriteBatch) {
    FillBatch(first, std::min(first + kBatchWriteBatch, kSortedLoadKeys), 0,
              &batch);
    s = db->Write(batch);
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t writes_before = magnetic->stats().writes;
  if (s.ok()) s = db->Checkpoint();
  tsb_tree::SpaceStats space;
  if (s.ok()) s = db->ComputeSpaceStats(&space);
  if (!s.ok()) {
    fprintf(stderr, "sorted load failed: %s\n", s.ToString().c_str());
    abort();
  }
  SortedLoadResult r;
  r.keys_per_sec = static_cast<double>(kSortedLoadKeys) /
                   std::chrono::duration<double>(end - start).count();
  const tsb_tree::TsbCounters& c = db->primary()->counters();
  r.key_splits = c.data_key_splits;
  r.run_splits = c.data_run_splits;
  r.checkpoint_page_writes = magnetic->stats().writes - writes_before;
  r.magnetic_pages = space.magnetic_pages;
  r.fill = static_cast<double>(space.magnetic_used_bytes) /
           static_cast<double>(space.magnetic_bytes);
  db.reset();
  (void)db::MultiVersionDB::Destroy(path);
  return r;
}

// ---- pinned-Get phase: the zero-copy public read surface ----
//
// Same warm-cache workload as the view phase, but through
// Get(ReadOptions, key, PinnableValue*): the blob pin moves into the
// result and the value stays a view, so a cache-hit lookup does ZERO
// value memcpys and zero heap allocations (the reused PinnableValue's
// scratch absorbs v3 delta cells inline).

HistAsOfResult MeasureHistAsOfPinned(
    tsb_tree::TsbTree* tree,
    const std::vector<std::pair<std::string, Timestamp>>& probes,
    int rounds) {
  tsb_tree::PinnableValue pv;
  tsb_tree::ReadOptions opts;
  // Warmup populates the shared-blob cache and the scratch capacity.
  for (const auto& [k, t] : probes) {
    opts.as_of = t;
    tree->Get(opts, k, &pv);
  }
  const HistReadStats before_stats = tree->HistStats();
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  size_t ops = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& [k, t] : probes) {
      opts.as_of = t;
      benchmark::DoNotOptimize(tree->Get(opts, k, &pv));
      ++ops;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const double secs = std::chrono::duration<double>(end - start).count();
  const HistReadStats after_stats = tree->HistStats();
  HistAsOfResult r;
  r.ops_per_sec = secs > 0 ? static_cast<double>(ops) / secs : 0;
  r.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  r.owned_decodes = after_stats.owned_decodes - before_stats.owned_decodes;
  const uint64_t lookups = (after_stats.cache_hits + after_stats.cache_misses) -
                           (before_stats.cache_hits + before_stats.cache_misses);
  const uint64_t hits = after_stats.cache_hits - before_stats.cache_hits;
  r.cache_hit_ratio =
      lookups == 0 ? 1.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
  return r;
}

/// Interleaved repetitions behind each ratio a CI gate compares.
constexpr int kRatioReps = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

HistAsOfResult MeasureHistAsOf(
    tsb_tree::TsbTree* tree,
    const std::vector<std::pair<std::string, Timestamp>>& probes,
    int rounds) {
  std::string v;
  tsb_tree::ReadOptions opts;
  // Warmup populates the shared-blob cache; the measured loop then runs
  // entirely on cache hits.
  for (const auto& [k, t] : probes) {
    opts.as_of = t;
    tree->Get(opts, k, &v);
  }
  const HistReadStats before_stats = tree->HistStats();
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  size_t ops = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& [k, t] : probes) {
      opts.as_of = t;
      benchmark::DoNotOptimize(tree->Get(opts, k, &v));
      ++ops;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const double secs = std::chrono::duration<double>(end - start).count();
  const HistReadStats after_stats = tree->HistStats();
  HistAsOfResult r;
  r.ops_per_sec = secs > 0 ? static_cast<double>(ops) / secs : 0;
  r.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  r.owned_decodes = after_stats.owned_decodes - before_stats.owned_decodes;
  const uint64_t lookups = (after_stats.cache_hits + after_stats.cache_misses) -
                           (before_stats.cache_hits + before_stats.cache_misses);
  const uint64_t hits = after_stats.cache_hits - before_stats.cache_hits;
  r.cache_hit_ratio =
      lookups == 0 ? 1.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
  return r;
}

void WriteHistAsOfJson() {
  tsb_tree::TsbOptions topts;
  topts.page_size = 2048;
  topts.buffer_pool_frames = 1024;  // current axis fully resident
  topts.hist_cache_blobs = 4096;    // whole historical working set cached
  TsbFixture view_f = TsbFixture::Build(QuerySpec(), topts);

  // Probe set: deep-past as-of lookups that land on a version, so the
  // measured loop exercises full descents into historical data nodes.
  size_t keys = 0;
  {
    util::WorkloadGenerator gen(QuerySpec());
    util::Op op;
    while (gen.Next(&op)) {
    }
    keys = gen.keys_created();
  }
  util::WorkloadGenerator gen(QuerySpec());
  Random rnd(29);
  std::vector<std::pair<std::string, Timestamp>> probes;
  std::string v;
  for (int attempt = 0; attempt < 20000 && probes.size() < 512; ++attempt) {
    std::string k = gen.KeyFor(rnd.Uniform(keys));
    const Timestamp t = 1 + rnd.Uniform(kOps / 4);  // oldest quarter
    if (view_f.tree->Get({.as_of = t}, k, &v).ok()) {
      probes.emplace_back(std::move(k), t);
    }
  }
  if (probes.empty()) {
    fprintf(stderr, "hist as-of bench: no probes found, skipping JSON\n");
    return;
  }
  const int rounds =
      static_cast<int>(200000 / probes.size()) + 1;  // ~200k measured ops

  const HistAsOfResult view = MeasureHistAsOf(view_f.tree.get(), probes, rounds);
  const HistAsOfResult pinned =
      MeasureHistAsOfPinned(view_f.tree.get(), probes, rounds);

  // ---- checksum overhead: the same warm pinned-Get loop with
  // verify-on-read disabled (what DbOptions::paranoid_checks = false
  // maps to). Warm reads serve from the buffer pool and the verified-
  // blob memo, so end-to-end checksums must cost ~nothing here; CI
  // gates the ratio at 5%.
  // kRatioReps interleaved (off, on) pairs, the order flipped every
  // pair; the gated ratio is the median of the per-pair ratios, so one
  // scheduler hiccup in one timed window cannot move it.
  std::vector<double> verify_on, verify_off, verify_ratios;
  for (int rep = 0; rep < kRatioReps; ++rep) {
    double pair[2] = {0, 0};  // {off, on}
    for (int k = 0; k < 2; ++k) {
      const bool on = (k == 1) != (rep % 2 == 1);
      view_f.tree->pager()->set_verify_on_read(on);
      pair[on ? 1 : 0] =
          MeasureHistAsOfPinned(view_f.tree.get(), probes, rounds)
              .ops_per_sec;
    }
    verify_off.push_back(pair[0]);
    verify_on.push_back(pair[1]);
    verify_ratios.push_back(pair[0] > 0 ? pair[1] / pair[0] : 0);
  }
  view_f.tree->pager()->set_verify_on_read(true);
  HistAsOfResult pinned_verify, pinned_noverify;
  pinned_verify.ops_per_sec = Median(verify_on);
  pinned_noverify.ops_per_sec = Median(verify_off);
  const double verify_over_noverify = Median(verify_ratios);

  printf("== historical as-of lookups: zero-copy views ==\n");
  printf("(%zu probes x %d rounds, shared-blob cache covers the working set)\n",
         probes.size(), rounds);
  printf("view path : %12.0f ops/s  %6.2f allocs/op  hit ratio %.3f  "
         "owned decodes %llu\n",
         view.ops_per_sec, view.allocs_per_op, view.cache_hit_ratio,
         static_cast<unsigned long long>(view.owned_decodes));
  printf("pinned Get: %12.0f ops/s  %6.2f allocs/op  hit ratio %.3f  "
         "owned decodes %llu (zero value memcpy)\n",
         pinned.ops_per_sec, pinned.allocs_per_op, pinned.cache_hit_ratio,
         static_cast<unsigned long long>(pinned.owned_decodes));
  printf("floor (retired owning-decode path): %.0f ops/s\n",
         kOwnedDecodeFloorOpsPerSec);
  printf("checksum overhead (warm pinned Get): verify-on %.0f ops/s vs "
         "verify-off %.0f ops/s = %.3fx\n\n",
         pinned_verify.ops_per_sec, pinned_noverify.ops_per_sec,
         verify_over_noverify);

  // ---- cold reads: mmap pins vs pread copies, cache disabled ----
  ColdFixture mmap_f = BuildColdFixture(/*enable_mmap=*/true, "mmap");
  ColdFixture copy_f = BuildColdFixture(/*enable_mmap=*/false, "copy");
  const int cold_rounds = static_cast<int>(60000 / probes.size()) + 1;
  const ColdReadResult cold_mmap =
      MeasureColdRead(mmap_f.tree.get(), probes, cold_rounds);
  const ColdReadResult cold_copy =
      MeasureColdRead(copy_f.tree.get(), probes, cold_rounds);
  const double cold_speedup = cold_copy.ops_per_sec > 0
                                  ? cold_mmap.ops_per_sec / cold_copy.ops_per_sec
                                  : 0;
  const HistReadStats mmap_stats = mmap_f.tree->HistStats();
  const HistReadStats copy_stats = copy_f.tree->HistStats();
  const BufferPoolStats cold_pool = mmap_f.tree->PoolStats();

  printf("== historical cold reads: mmap pins vs pread copies ==\n");
  printf("(%zu probes x %d rounds, blob cache disabled + cleared per round)\n",
         probes.size(), cold_rounds);
  printf("mmap path : %12.0f ops/s  %6.2f allocs/op (re-pin)  "
         "mapped %llu KiB, copied %llu B\n",
         cold_mmap.ops_per_sec, cold_mmap.allocs_per_op,
         static_cast<unsigned long long>(mmap_stats.mapped_bytes / 1024),
         static_cast<unsigned long long>(mmap_stats.copied_bytes));
  printf("copy path : %12.0f ops/s  %6.2f allocs/op          "
         "copied %llu KiB\n",
         cold_copy.ops_per_sec, cold_copy.allocs_per_op,
         static_cast<unsigned long long>(copy_stats.copied_bytes / 1024));
  printf("cold speedup: %.2fx; buffer-pool hit ratio (magnetic axis): %.3f\n",
         cold_speedup, cold_pool.hit_ratio());
  printf("written-node compression (workload keys, v3): %.3f\n\n",
         mmap_stats.compression_ratio());

  // ---- node bytes: prefix compression vs the uncompressed size ----
  const NodeBytesResult nb = MeasureHistNodeBytes();
  const double v3_over_raw =
      nb.raw_bytes > 0
          ? static_cast<double>(nb.v3_bytes) / static_cast<double>(nb.raw_bytes)
          : 1.0;
  printf("== historical node bytes, prefix-heavy keys ==\n");
  printf("raw: %llu bytes  v3: %llu bytes  ratio %.3f\n\n",
         static_cast<unsigned long long>(nb.raw_bytes),
         static_cast<unsigned long long>(nb.v3_bytes), v3_over_raw);

  // ---- snapshot scans: zero-copy frames, forward and reverse ----
  const Timestamp t_now = view_f.tree->VisibleNow();
  const Timestamp t_old = 1 + kOps / 4;
  const ScanResult scan_fwd_cur =
      MeasureScan(view_f.tree.get(), t_now, /*reverse=*/false, 30, nullptr);
  const ScanResult scan_rev_cur =
      MeasureScan(view_f.tree.get(), t_now, /*reverse=*/true, 30, nullptr);
  // The old-snapshot directions are gated against each other: kRatioReps
  // interleaved (forward, reverse) pairs, order flipped every pair, and
  // the median per-pair ratio (each direction reports its median pair).
  std::vector<ScanResult> old_fwd, old_rev;
  std::vector<double> old_ratios;
  for (int rep = 0; rep < kRatioReps; ++rep) {
    for (int k = 0; k < 2; ++k) {
      const bool reverse = (k == 1) != (rep % 2 == 1);
      (reverse ? old_rev : old_fwd)
          .push_back(MeasureScan(view_f.tree.get(), t_old, reverse, 30,
                                 nullptr));
    }
    old_ratios.push_back(old_fwd.back().entries_per_sec > 0
                             ? old_rev.back().entries_per_sec /
                                   old_fwd.back().entries_per_sec
                             : 0.0);
  }
  auto median_scan = [](std::vector<ScanResult> runs) {
    std::sort(runs.begin(), runs.end(),
              [](const ScanResult& a, const ScanResult& b) {
                return a.entries_per_sec < b.entries_per_sec;
              });
    return runs[runs.size() / 2];
  };
  const ScanResult scan_fwd_old = median_scan(old_fwd);
  const ScanResult scan_rev_old = median_scan(old_rev);
  const ScanResult scan_fwd_cold = MeasureScan(
      mmap_f.tree.get(), t_old, /*reverse=*/false, 8,
      mmap_f.tree->hist_store());
  const ScanResult scan_rev_cold = MeasureScan(
      mmap_f.tree.get(), t_old, /*reverse=*/true, 8,
      mmap_f.tree->hist_store());
  auto ratio = [](const ScanResult& rev, const ScanResult& fwd) {
    return fwd.entries_per_sec > 0 ? rev.entries_per_sec / fwd.entries_per_sec
                                   : 0.0;
  };
  const double rev_over_fwd_cur = ratio(scan_rev_cur, scan_fwd_cur);
  const double rev_over_fwd_old = Median(old_ratios);
  const double rev_over_fwd_cold = ratio(scan_rev_cold, scan_fwd_cold);

  printf("== snapshot scans: zero-copy frames + true backward walk ==\n");
  printf("(warm = blob cache covers the working set; cold = cache cleared "
         "per round, mmap pins)\n");
  printf("forward current : %12.0f entries/s  %6.3f allocs/entry  "
         "(%zu keys/scan)\n",
         scan_fwd_cur.entries_per_sec, scan_fwd_cur.allocs_per_entry,
         scan_fwd_cur.entries_per_scan);
  printf("reverse current : %12.0f entries/s  %6.3f allocs/entry  "
         "(%.2fx forward)\n",
         scan_rev_cur.entries_per_sec, scan_rev_cur.allocs_per_entry,
         rev_over_fwd_cur);
  printf("forward old     : %12.0f entries/s  %6.3f allocs/entry  "
         "(%zu keys/scan)\n",
         scan_fwd_old.entries_per_sec, scan_fwd_old.allocs_per_entry,
         scan_fwd_old.entries_per_scan);
  printf("reverse old     : %12.0f entries/s  %6.3f allocs/entry  "
         "(%.2fx forward)\n",
         scan_rev_old.entries_per_sec, scan_rev_old.allocs_per_entry,
         rev_over_fwd_old);
  printf("forward cold    : %12.0f entries/s  %6.3f allocs/entry\n",
         scan_fwd_cold.entries_per_sec, scan_fwd_cold.allocs_per_entry);
  printf("reverse cold    : %12.0f entries/s  %6.3f allocs/entry  "
         "(%.2fx forward)\n\n",
         scan_rev_cold.entries_per_sec, scan_rev_cold.allocs_per_entry,
         rev_over_fwd_cold);

  // ---- batch writes: allocations and descents per written key ----
  const BatchWriteResult bw = MeasureBatchWrite();
  printf("== batch writes: %llu keys as %zu-key WriteBatches, 1 thread ==\n",
         static_cast<unsigned long long>(bw.keys), kBatchWriteBatch);
  printf("%12.0f keys/s  %6.3f allocs/key  %6.3f writer descents/key  "
         "(%llu time splits, %llu key splits)\n\n",
         bw.keys_per_sec, bw.allocs_per_key, bw.writer_descents_per_key,
         static_cast<unsigned long long>(bw.time_splits),
         static_cast<unsigned long long>(bw.key_splits));

  // ---- sorted load: leaf fill, key splits and checkpoint pages ----
  const SortedLoadResult sl = MeasureSortedLoad();
  printf("== sorted load: %llu new keys as %zu-key WriteBatches, 1 thread "
         "==\n",
         static_cast<unsigned long long>(kSortedLoadKeys), kBatchWriteBatch);
  printf("%12.0f keys/s  fill %.3f  %llu key splits (%llu run splits)  "
         "%llu checkpoint page writes\n\n",
         sl.keys_per_sec, sl.fill,
         static_cast<unsigned long long>(sl.key_splits),
         static_cast<unsigned long long>(sl.run_splits),
         static_cast<unsigned long long>(sl.checkpoint_page_writes));

  const char* path = std::getenv("BENCH_QUERY_JSON");
  if (path == nullptr) path = "BENCH_query.json";
  FILE* f = fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fprintf(f,
          "{\n"
          "  \"workload\": {\"ops\": %zu, \"update_fraction\": %.2f, "
          "\"probes\": %zu, \"rounds\": %d},\n"
          "  \"hist_asof_view\": {\"ops_per_sec\": %.1f, "
          "\"allocs_per_op\": %.4f, \"cache_hit_ratio\": %.4f, "
          "\"owned_decodes\": %llu},\n"
          "  \"hist_asof_pinned\": {\"ops_per_sec\": %.1f, "
          "\"allocs_per_op\": %.4f, \"cache_hit_ratio\": %.4f, "
          "\"owned_decodes\": %llu},\n"
          "  \"floor_ops_per_sec\": %.1f,\n"
          "  \"checksum_overhead\": {\"pinned_verify_ops_per_sec\": %.1f, "
          "\"pinned_noverify_ops_per_sec\": %.1f, "
          "\"verify_over_noverify\": %.3f, \"reps\": %d},\n"
          "  \"hist_cold_read\": {\"mmap_ops_per_sec\": %.1f, "
          "\"copy_ops_per_sec\": %.1f, \"speedup_mmap_vs_copy\": %.3f, "
          "\"allocs_per_op_repin\": %.4f, \"mapped_bytes\": %llu, "
          "\"copied_bytes\": %llu, \"mmap_copied_bytes\": %llu, "
          "\"rounds\": %d},\n"
          "  \"hist_node_bytes\": {\"workload\": \"prefix-heavy\", "
          "\"raw_bytes\": %llu, \"v3_bytes\": %llu, \"v3_over_raw\": %.3f, "
          "\"tree_compression_ratio\": %.3f},\n"
          "  \"scan\": {\n"
          "    \"forward_current\": {\"entries_per_sec\": %.1f, "
          "\"allocs_per_entry\": %.4f, \"entries_per_scan\": %zu},\n"
          "    \"reverse_current\": {\"entries_per_sec\": %.1f, "
          "\"allocs_per_entry\": %.4f, \"entries_per_scan\": %zu},\n"
          "    \"reverse_over_forward_current\": %.3f,\n"
          "    \"forward_old\": {\"entries_per_sec\": %.1f, "
          "\"allocs_per_entry\": %.4f, \"entries_per_scan\": %zu},\n"
          "    \"reverse_old\": {\"entries_per_sec\": %.1f, "
          "\"allocs_per_entry\": %.4f, \"entries_per_scan\": %zu},\n"
          "    \"reverse_over_forward_old\": %.3f,\n"
          "    \"old_reps\": %d,\n"
          "    \"forward_cold\": {\"entries_per_sec\": %.1f, "
          "\"allocs_per_entry\": %.4f},\n"
          "    \"reverse_cold\": {\"entries_per_sec\": %.1f, "
          "\"allocs_per_entry\": %.4f},\n"
          "    \"reverse_over_forward_cold\": %.3f\n"
          "  },\n"
          "  \"batch_write\": {\"keys\": %llu, \"batch\": %zu, "
          "\"keys_per_sec\": %.1f, \"allocs_per_key\": %.4f, "
          "\"writer_descents_per_key\": %.4f, \"data_time_splits\": %llu, "
          "\"data_key_splits\": %llu},\n"
          "  \"sorted_load\": {\"keys\": %llu, \"batch\": %zu, "
          "\"keys_per_sec\": %.1f, \"data_key_splits\": %llu, "
          "\"data_run_splits\": %llu, \"checkpoint_page_writes\": %llu, "
          "\"magnetic_pages\": %llu, \"fill\": %.4f}\n"
          "}\n",
          kOps, kUpdateFraction, probes.size(), rounds, view.ops_per_sec,
          view.allocs_per_op, view.cache_hit_ratio,
          static_cast<unsigned long long>(view.owned_decodes),
          pinned.ops_per_sec, pinned.allocs_per_op, pinned.cache_hit_ratio,
          static_cast<unsigned long long>(pinned.owned_decodes),
          kOwnedDecodeFloorOpsPerSec, pinned_verify.ops_per_sec,
          pinned_noverify.ops_per_sec, verify_over_noverify, kRatioReps,
          cold_mmap.ops_per_sec, cold_copy.ops_per_sec, cold_speedup,
          cold_mmap.allocs_per_op,
          static_cast<unsigned long long>(mmap_stats.mapped_bytes),
          static_cast<unsigned long long>(copy_stats.copied_bytes),
          static_cast<unsigned long long>(mmap_stats.copied_bytes),
          cold_rounds,
          static_cast<unsigned long long>(nb.raw_bytes),
          static_cast<unsigned long long>(nb.v3_bytes), v3_over_raw,
          mmap_stats.compression_ratio(),
          scan_fwd_cur.entries_per_sec, scan_fwd_cur.allocs_per_entry,
          scan_fwd_cur.entries_per_scan,
          scan_rev_cur.entries_per_sec, scan_rev_cur.allocs_per_entry,
          scan_rev_cur.entries_per_scan, rev_over_fwd_cur,
          scan_fwd_old.entries_per_sec, scan_fwd_old.allocs_per_entry,
          scan_fwd_old.entries_per_scan,
          scan_rev_old.entries_per_sec, scan_rev_old.allocs_per_entry,
          scan_rev_old.entries_per_scan, rev_over_fwd_old, kRatioReps,
          scan_fwd_cold.entries_per_sec, scan_fwd_cold.allocs_per_entry,
          scan_rev_cold.entries_per_sec, scan_rev_cold.allocs_per_entry,
          rev_over_fwd_cold, static_cast<unsigned long long>(bw.keys),
          kBatchWriteBatch, bw.keys_per_sec, bw.allocs_per_key,
          bw.writer_descents_per_key,
          static_cast<unsigned long long>(bw.time_splits),
          static_cast<unsigned long long>(bw.key_splits),
          static_cast<unsigned long long>(kSortedLoadKeys), kBatchWriteBatch,
          sl.keys_per_sec, static_cast<unsigned long long>(sl.key_splits),
          static_cast<unsigned long long>(sl.run_splits),
          static_cast<unsigned long long>(sl.checkpoint_page_writes),
          static_cast<unsigned long long>(sl.magnetic_pages), sl.fill);
  fclose(f);
  printf("wrote %s\n\n", path);
}

void BM_TsbGetLatest(benchmark::State& state) {
  Fixtures& f = Fixtures::Get();
  Random rnd(2);
  std::string v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tsb.tree->Get({}, f.KeyAt(rnd.Next()), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsbGetLatest);

void BM_WobtGetCurrent(benchmark::State& state) {
  Fixtures& f = Fixtures::Get();
  Random rnd(2);
  std::string v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.wobt->GetCurrent(f.KeyAt(rnd.Next()), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WobtGetCurrent);

void BM_BptGetCurrent(benchmark::State& state) {
  Fixtures& f = Fixtures::Get();
  Random rnd(2);
  std::string v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.bpt->Get(f.KeyAt(rnd.Next()), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BptGetCurrent);

void BM_TsbGetDeepPast(benchmark::State& state) {
  Fixtures& f = Fixtures::Get();
  Random rnd(3);
  std::string v;
  for (auto _ : state) {
    const Timestamp t = 1 + rnd.Uniform(kOps / 4);
    benchmark::DoNotOptimize(
        f.tsb.tree->Get({.as_of = t}, f.KeyAt(rnd.Next()), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsbGetDeepPast);

void BM_WobtGetAsOfDeep(benchmark::State& state) {
  Fixtures& f = Fixtures::Get();
  Random rnd(3);
  std::string v;
  for (auto _ : state) {
    const Timestamp t = 1 + rnd.Uniform(kOps / 4);
    benchmark::DoNotOptimize(f.wobt->GetAsOf(f.KeyAt(rnd.Next()), t, &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WobtGetAsOfDeep);

void BM_TsbSnapshotScan(benchmark::State& state) {
  Fixtures& f = Fixtures::Get();
  const Timestamp t = state.range(0) == 0 ? kOps / 4 : kOps;  // old vs now
  for (auto _ : state) {
    auto it = f.tsb.tree->NewCursor({.as_of = t});
    it->SeekToFirst();
    size_t n = 0;
    while (it->Valid()) {
      ++n;
      it->Next();
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetLabel(state.range(0) == 0 ? "old snapshot" : "current snapshot");
}
BENCHMARK(BM_TsbSnapshotScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::PrintIoTable();
  tsb::bench::WriteHistAsOfJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
