// Experiment E9 (paper section 3.6): secondary indexes as TSB-trees.
// Temporal queries on secondary values ("how many records had secondary
// key S at time T") are answered from the secondary tree alone, without
// searching primary data — we measure that against the brute-force
// alternative (scan a primary snapshot and test every record).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench_common.h"
#include "db/multiversion_db.h"

namespace tsb {
namespace bench {
namespace {

constexpr int kRecords = 400;
constexpr int kRounds = 20;
constexpr int kRegions = 8;

std::optional<std::string> ExtractRegion(const Slice& v) {
  const std::string s = v.ToString();
  const size_t bar = s.find('|');
  if (bar == std::string::npos) return std::nullopt;
  return s.substr(0, bar);
}

struct DbFixture {
  std::unique_ptr<MemDevice> magnetic;
  std::unique_ptr<WormDevice> worm;
  std::unique_ptr<db::MultiVersionDB> mvdb;
  Timestamp mid = 0;

  static DbFixture& Get() {
    static DbFixture* f = Build();
    return *f;
  }

  static DbFixture* Build() {
    auto* f = new DbFixture();
    f->magnetic = std::make_unique<MemDevice>();
    f->worm = std::make_unique<WormDevice>(1024);
    db::DbOptions opts;
    opts.tree.page_size = 2048;
    if (!db::MultiVersionDB::Open(f->magnetic.get(), f->worm.get(), opts,
                                  &f->mvdb)
             .ok()) {
      abort();
    }
    if (!f->mvdb->CreateSecondaryIndex("by_region", ExtractRegion).ok()) {
      abort();
    }
    Random rnd(42);
    for (int round = 0; round < kRounds; ++round) {
      for (int r = 0; r < kRecords; ++r) {
        const std::string region =
            "region-" + std::to_string(rnd.Uniform(kRegions));
        const std::string key = "rec-" + std::to_string(r);
        Timestamp cts = 0;
        if (!f->mvdb->Put(key, region + "|payload-" + std::to_string(round),
                          &cts)
                 .ok()) {
          abort();
        }
        if (round == kRounds / 2 && r == kRecords - 1) f->mid = cts;
      }
    }
    return f;
  }
};

// Brute force: scan the primary snapshot at t, extracting regions.
size_t BruteForceCount(db::MultiVersionDB* mvdb, const std::string& region,
                       Timestamp t) {
  size_t n = 0;
  auto it = mvdb->NewCursor({.as_of = t});
  it->SeekToFirst();
  while (it->Valid()) {
    auto r = ExtractRegion(it->value());
    if (r.has_value() && *r == region) ++n;
    it->Next();
  }
  return n;
}

void PrintTable() {
  DbFixture& f = DbFixture::Get();
  printf("== E9: secondary-index temporal count vs primary scan ==\n");
  printf("(%d records x %d update rounds, %d regions)\n\n", kRecords, kRounds,
         kRegions);
  printf("%12s %10s | %12s %14s | %s\n", "time", "region", "index count",
         "primary scan", "agree?");
  printf("%s\n", std::string(70, '-').c_str());
  for (Timestamp t : {f.mid, f.mvdb->Now()}) {
    for (int r = 0; r < 3; ++r) {
      const std::string region = "region-" + std::to_string(r);
      size_t via_index = 0;
      if (!f.mvdb->index("by_region")->CountAsOf(region, t, &via_index).ok()) {
        abort();
      }
      const size_t via_scan = BruteForceCount(f.mvdb.get(), region, t);
      printf("%12llu %10s | %12zu %14zu | %s\n", (unsigned long long)t,
             region.c_str(), via_index, via_scan,
             via_index == via_scan ? "yes" : "NO — BUG");
    }
  }
  printf("\n");
}

void BM_CountViaSecondaryIndex(benchmark::State& state) {
  DbFixture& f = DbFixture::Get();
  Random rnd(3);
  for (auto _ : state) {
    const std::string region =
        "region-" + std::to_string(rnd.Uniform(kRegions));
    size_t n = 0;
    benchmark::DoNotOptimize(
        f.mvdb->index("by_region")->CountAsOf(region, f.mid, &n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountViaSecondaryIndex);

void BM_CountViaPrimaryScan(benchmark::State& state) {
  DbFixture& f = DbFixture::Get();
  Random rnd(3);
  for (auto _ : state) {
    const std::string region =
        "region-" + std::to_string(rnd.Uniform(kRegions));
    benchmark::DoNotOptimize(BruteForceCount(f.mvdb.get(), region, f.mid));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountViaPrimaryScan);

void BM_FindBySecondaryJoined(benchmark::State& state) {
  DbFixture& f = DbFixture::Get();
  Random rnd(4);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (auto _ : state) {
    const std::string region =
        "region-" + std::to_string(rnd.Uniform(kRegions));
    benchmark::DoNotOptimize(
        f.mvdb->FindBySecondary({.as_of = f.mid}, "by_region", region, &kvs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindBySecondaryJoined);

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
