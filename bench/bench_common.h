// The TSB-tree fixture the query and paper benches build their trees with.
#ifndef TSBTREE_BENCH_BENCH_COMMON_H_
#define TSBTREE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/tsb_stats.h"
#include "tsb/tsb_tree.h"
#include "util/workload.h"

namespace tsb {
namespace bench {

/// A TSB-tree with its two devices, built from a workload.
struct TsbFixture {
  std::unique_ptr<MemDevice> magnetic;
  std::unique_ptr<WormDevice> worm;
  /// Optional decorator between the tree and `worm` (see Build).
  std::unique_ptr<Device> historical;
  std::unique_ptr<tsb_tree::TsbTree> tree;

  /// `wrap_worm`, when set, returns a decorator the tree writes the WORM
  /// through; the WORM device still accounts the I/O.
  static TsbFixture Build(
      const util::WorkloadSpec& spec, const tsb_tree::TsbOptions& options,
      uint32_t sector_size = 1024,
      const std::function<std::unique_ptr<Device>(WormDevice*)>& wrap_worm =
          nullptr) {
    TsbFixture f;
    f.magnetic = std::make_unique<MemDevice>();
    f.worm = std::make_unique<WormDevice>(sector_size);
    if (wrap_worm) f.historical = wrap_worm(f.worm.get());
    Status s = tsb_tree::TsbTree::Open(
        f.magnetic.get(),
        f.historical != nullptr ? f.historical.get() : f.worm.get(), options,
        &f.tree);
    if (!s.ok()) {
      fprintf(stderr, "fixture open failed: %s\n", s.ToString().c_str());
      abort();
    }
    util::WorkloadGenerator gen(spec);
    util::Op op;
    while (gen.Next(&op)) {
      s = f.tree->Put(op.key, op.value, op.ts);
      if (!s.ok()) {
        fprintf(stderr, "fixture put failed: %s\n", s.ToString().c_str());
        abort();
      }
    }
    return f;
  }

  tsb_tree::SpaceStats Stats() {
    tsb_tree::SpaceStats stats;
    Status s = tree->ComputeSpaceStats(&stats);
    if (!s.ok()) {
      fprintf(stderr, "stats failed: %s\n", s.ToString().c_str());
      abort();
    }
    return stats;
  }
};

}  // namespace bench
}  // namespace tsb

#endif  // TSBTREE_BENCH_BENCH_COMMON_H_
