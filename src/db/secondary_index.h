// Secondary indexes as Time-Split B-trees, paper section 3.6.
//
// Entries are <timestamp, secondary key, primary key>: the secondary and
// primary keys form the tree key (escape-encoded composite so prefix scans
// by secondary key are exact), the timestamp is inherited from the record
// change that caused the entry, and the value is a presence marker
// ("linked"/"unlinked") so updates of the secondary field supersede older
// entries without deleting them. Like the primary index, the structure
// spans the historical and current databases, and temporal queries about
// secondary values ("how many records had secondary key S at time T") are
// answered WITHOUT touching primary data.
#ifndef TSBTREE_DB_SECONDARY_INDEX_H_
#define TSBTREE_DB_SECONDARY_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "tsb/cursor.h"
#include "tsb/tsb_tree.h"

namespace tsb {
namespace db {

/// Escape-encodes (secondary, primary) into one tree key such that
/// composite order == (secondary, primary) order and the secondary-key
/// prefix range is scannable exactly. 0x00 bytes in `secondary` are
/// escaped as 0x00 0xFF; the separator is 0x00 0x00.
std::string EncodeCompositeKey(const Slice& secondary, const Slice& primary);

/// Splits a composite key; false on malformed input.
bool DecodeCompositeKey(const Slice& composite, std::string* secondary,
                        std::string* primary);

/// Lower bound of the range of composite keys with secondary key `s`.
std::string CompositePrefix(const Slice& secondary);

/// A secondary index over a primary TSB-tree. Thread-safe with the same
/// guarantees as the underlying TsbTree: lock-free timestamped lookups,
/// serialized updates (Add/Remove run inside the commit hook, on the
/// committing transaction's thread, in timestamp order). One commit
/// writes several entries at its timestamp, so the index tree's watermark
/// runs one commit behind: a write at `ts` publishes every timestamp
/// before it, and a failed write pins it below `ts` until the purge of
/// `ts` (see TsbTree::PurgeCommittedAt). Lookups take explicit times.
class SecondaryIndex {
 public:
  /// `tree` is the index's own TSB-tree (the index spans both devices just
  /// like the primary).
  explicit SecondaryIndex(std::unique_ptr<tsb_tree::TsbTree> tree)
      : tree_(std::move(tree)) {}

  /// Records that `primary` acquired secondary key `secondary` at `ts`.
  Status Add(const Slice& secondary, const Slice& primary, Timestamp ts);

  /// Records that `primary` no longer has `secondary` as of `ts` (the old
  /// entry is superseded, never deleted — non-deletion policy).
  Status Remove(const Slice& secondary, const Slice& primary, Timestamp ts);

  /// WAL-recovery variants of Add/Remove: exempt from the monotone-clock
  /// check (the index tree's persisted clock may already have advanced
  /// past the replayed timestamps) and idempotent per (key, ts).
  Status ReplayAdd(const Slice& secondary, const Slice& primary,
                   Timestamp ts);
  Status ReplayRemove(const Slice& secondary, const Slice& primary,
                      Timestamp ts);

  /// Primary keys that had secondary key `secondary` at time `t`,
  /// ascending.
  Status LookupAsOf(const Slice& secondary, Timestamp t,
                    std::vector<std::string>* primary_keys);

  /// Count of records with `secondary` at time `t` — section 3.6's
  /// "without searching for primary data records" query.
  Status CountAsOf(const Slice& secondary, Timestamp t, size_t* count);

  /// Current lookup (t = latest committed time).
  Status Lookup(const Slice& secondary, std::vector<std::string>* primary_keys);

  tsb_tree::TsbTree* tree() { return tree_.get(); }

 private:
  static constexpr char kLinked[] = "1";
  static constexpr char kUnlinked[] = "0";

  /// Add and Remove: writes the composite key's link marker at `ts`.
  Status Write(const Slice& composite, const Slice& marker, Timestamp ts);

  std::unique_ptr<tsb_tree::TsbTree> tree_;
};

}  // namespace db
}  // namespace tsb

#endif  // TSBTREE_DB_SECONDARY_INDEX_H_
