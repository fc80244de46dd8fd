// TreeChecker: structural verification of a TSB-tree.
//
// Checks:
//  - node levels decrease by one per level; data nodes are level 0;
//  - index entries are (key_lo, t_lo)-sorted, rectangles well-formed;
//  - finite t_hi <=> historical child (the migration invariant);
//  - the clipped rectangles of each index node exactly TILE the node's
//    region (no gap, no overlap) — verified on the grid induced by the
//    entry boundaries, so unique-containment search is sound;
//  - entries whose rectangle is not fully inside the node's region are
//    historical (straddlers duplicated by keyspace splits, rule 4);
//  - every current page is referenced by exactly one parent entry (only
//    historical nodes may have several parents — the DAG property);
//  - data records lie inside their node's key range; committed records
//    below the node's t_lo are exactly the TIME-SPLIT-RULE redundant
//    copies: per key the single latest version preceding t_lo;
//  - historical data records all precede the node's t_hi;
//  - content-floor hints hold: no committed record in a subtree predates
//    the strongest min_ts claim on the path to it (0 claims nothing).
#ifndef TSBTREE_TSB_TREE_CHECK_H_
#define TSBTREE_TSB_TREE_CHECK_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "tsb/tsb_tree.h"

namespace tsb {
namespace tsb_tree {

/// Walks the whole DAG and validates structure. Cheap enough for tests to
/// run after every few hundred operations.
class TreeChecker {
 public:
  explicit TreeChecker(TsbTree* tree) : tree_(tree) {}

  /// Returns OK or the first violation (Corruption with a description).
  Status Check();

  /// When set, Check() additionally audits every node against the DEVICE
  /// bytes: current pages are re-read raw from the pager's device and
  /// verified (header + trailer CRC, page-id identity) — the buffer pool
  /// can mask on-disk rot behind a good in-memory copy — and historical
  /// blobs re-CRC past the verified memo and the read cache. Pages dirty
  /// in the pool are skipped (no-steal: their device copy is legitimately
  /// behind until the next checkpoint), so the audit is exact right after
  /// a checkpoint and sound at any quiesced moment.
  void set_verify_checksums(bool v) { verify_checksums_ = v; }

  /// Number of nodes visited by the last Check() (tests use it to assert
  /// the walk saw the whole tree).
  uint64_t nodes_visited() const { return nodes_visited_; }

 private:
  struct Window {
    std::string key_lo;
    std::string key_hi;
    bool key_hi_inf = true;
    Timestamp t_lo = 0;
    Timestamp t_hi = kInfiniteTs;
    Timestamp min_ts = 0;  ///< strongest content-floor claim on the path
  };

  Status CheckNode(const NodeRef& ref, uint8_t expected_level,
                   const Window& win);
  // The entry checks run over views: historical nodes are validated
  // directly on the pinned blob; current pages are copied out under their
  // latch once and then viewed.
  Status CheckIndexEntries(const NodeRef& ref, uint8_t level,
                           const std::vector<IndexEntryView>& entries,
                           const Window& win);
  Status CheckDataEntries(const NodeRef& ref,
                          const std::vector<DataEntryView>& entries,
                          const Window& win);

  TsbTree* tree_;
  bool verify_checksums_ = false;
  /// Pages dirty in the pool when Check() started (checksums mode skips
  /// their device-side verification).
  std::set<uint32_t> dirty_at_start_;
  uint64_t nodes_visited_ = 0;
  std::map<uint32_t, int> current_parent_counts_;
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_TREE_CHECK_H_
