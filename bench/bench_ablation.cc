// Ablations over this implementation's own design choices (DESIGN.md):
//   A1  page size — split frequency, space, and query cost
//   A2  buffer pool capacity — hit rate and simulated magnetic time
//   A3  historical read cache — optical I/O saved on history scans
// These are not paper experiments; they justify the defaults the library
// ships with.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/random.h"
#include "tsb/cursor.h"

namespace tsb {
namespace bench {
namespace {

constexpr size_t kOps = 10000;

util::WorkloadSpec Spec() {
  util::WorkloadSpec spec;
  spec.seed = 42;
  spec.num_ops = kOps;
  spec.update_fraction = 0.6;
  spec.value_size = 40;
  return spec;
}

void PrintPageSizeTable() {
  printf("== A1: page size ablation (%zu ops, 60%% updates) ==\n\n", kOps);
  printf("%8s | %10s %10s %10s | %12s %12s\n", "page B", "key splits",
         "time splits", "height", "SpaceM KiB", "SpaceO KiB");
  printf("%s\n", std::string(78, '-').c_str());
  for (uint32_t page : {512u, 1024u, 2048u, 4096u, 8192u}) {
    tsb_tree::TsbOptions opts;
    opts.page_size = page;
    TsbFixture f = TsbFixture::Build(Spec(), opts);
    tsb_tree::SpaceStats stats = f.Stats();
    const auto& c = f.tree->counters();
    printf("%8u | %10llu %10llu %10u | %12.1f %12.1f\n", page,
           (unsigned long long)c.data_key_splits,
           (unsigned long long)c.data_time_splits, f.tree->height(),
           KiB(stats.magnetic_bytes), KiB(stats.optical_device_bytes));
  }
  printf("\n");
}

void PrintBufferPoolTable() {
  printf("== A2: buffer pool ablation (current-lookup working set) ==\n\n");
  printf("%8s | %10s %10s | %14s\n", "frames", "hits", "misses",
         "sim magnetic ms");
  printf("%s\n", std::string(52, '-').c_str());
  for (size_t frames : {4ul, 16ul, 64ul, 256ul}) {
    tsb_tree::TsbOptions opts;
    opts.page_size = 1024;
    opts.buffer_pool_frames = frames;
    TsbFixture f = TsbFixture::Build(Spec(), opts);
    f.magnetic->ResetStats();
    f.tree->buffer_pool()->ResetStats();
    Random rnd(9);
    util::WorkloadGenerator gen(Spec());
    std::string v;
    for (int i = 0; i < 2000; ++i) {
      f.tree->Get({}, gen.KeyFor(rnd.Uniform(gen.spec().num_ops / 3)), &v);
    }
    const auto& st = f.tree->buffer_pool()->stats();
    printf("%8zu | %10llu %10llu | %14.0f\n", frames,
           (unsigned long long)st.hits, (unsigned long long)st.misses,
           f.magnetic->stats().simulated_ms);
  }
  printf("\n");
}

void PrintHistCacheTable() {
  printf("== A3: historical read cache ablation (history scans) ==\n\n");
  printf("%8s | %12s %12s | %14s\n", "blobs", "cache hits", "dev reads",
         "sim optical ms");
  printf("%s\n", std::string(56, '-').c_str());
  for (size_t blobs : {0ul, 4ul, 32ul, 256ul}) {
    tsb_tree::TsbOptions opts;
    opts.page_size = 1024;
    opts.hist_cache_blobs = blobs;
    TsbFixture f = TsbFixture::Build(Spec(), opts);
    f.worm->ResetStats();
    Random rnd(9);
    util::WorkloadGenerator gen(Spec());
    for (int i = 0; i < 100; ++i) {
      auto it = f.tree->NewCursor({});
      it->Seek(gen.KeyFor(rnd.Uniform(gen.spec().num_ops / 4)));
      while (it->Valid()) it->NextVersion();
    }
    printf("%8zu | %12llu %12llu | %14.0f\n", blobs,
           (unsigned long long)f.tree->hist_store()->cache_hits(),
           (unsigned long long)f.worm->stats().reads,
           f.worm->stats().simulated_ms);
  }
  printf("\n");
}

void BM_GetLatestByPageSize(benchmark::State& state) {
  tsb_tree::TsbOptions opts;
  opts.page_size = static_cast<uint32_t>(state.range(0));
  TsbFixture f = TsbFixture::Build(Spec(), opts);
  Random rnd(4);
  util::WorkloadGenerator gen(Spec());
  std::string v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree->Get({}, gen.KeyFor(rnd.Uniform(kOps / 3)), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetLatestByPageSize)->Arg(512)->Arg(2048)->Arg(8192);

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::PrintPageSizeTable();
  tsb::bench::PrintBufferPoolTable();
  tsb::bench::PrintHistCacheTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
