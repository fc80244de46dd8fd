// WriteBatch: a group of writes applied atomically under ONE commit
// timestamp.
//
// The batch is plain data — building it touches no locks and no tree
// state. TxnManager::Write turns it into a transaction at apply time, so
// the batch inherits the full commit discipline: first-writer-wins key
// locks, a single clock tick stamping every record, secondary-index
// maintenance through the commit hook, and all-or-nothing visibility at
// the published watermark. This replaces N autocommit Puts, which would
// burn N timestamps and let readers observe the group half-applied.
#ifndef TSBTREE_TXN_WRITE_BATCH_H_
#define TSBTREE_TXN_WRITE_BATCH_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"

namespace tsb {
namespace txn {

class WriteBatch {
 public:
  /// Buffers a write of `key` = `value`. A later Put of the same key
  /// within the batch wins (one version per key per commit timestamp).
  void Put(const Slice& key, const Slice& value) {
    ops_.emplace_back(key.ToString(), value.ToString());
  }

  void Clear() { ops_.clear(); }
  size_t Count() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Buffered (key, value) pairs in Put order.
  const std::vector<std::pair<std::string, std::string>>& ops() const {
    return ops_;
  }

  /// Views of the buffered writes, sorted by key and distinct, each key
  /// with the value of its LAST Put: the write set a commit locks,
  /// inserts, logs and stamps. Valid while the batch is unchanged.
  void SortedOps(std::vector<std::pair<Slice, Slice>>* out) const {
    out->clear();
    out->reserve(ops_.size());
    for (const auto& [key, value] : ops_) out->emplace_back(key, value);
    auto by_key = [](const std::pair<Slice, Slice>& a,
                     const std::pair<Slice, Slice>& b) {
      return a.first < b.first;
    };
    // Stable, so the last of a run of equal keys is the last Put.
    if (!std::is_sorted(out->begin(), out->end(), by_key)) {
      std::stable_sort(out->begin(), out->end(), by_key);
    }
    size_t distinct = 0;
    for (const auto& op : *out) {
      if (distinct > 0 && (*out)[distinct - 1].first == op.first) {
        (*out)[distinct - 1] = op;
      } else {
        (*out)[distinct++] = op;
      }
    }
    out->resize(distinct);
  }

 private:
  std::vector<std::pair<std::string, std::string>> ops_;
};

}  // namespace txn
}  // namespace tsb

#endif  // TSBTREE_TXN_WRITE_BATCH_H_
