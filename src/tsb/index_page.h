// TSB-tree index node format.
//
// Every index entry describes the key-time *rectangle* its child is
// responsible for: [key_lo, key_hi) x [t_lo, t_hi), with key_hi possibly
// +infinity and t_hi == kInfiniteTs for current children. The 1989 paper
// stores only the low bounds and searches by insertion order; its split
// rules, however, are stated in terms of the key ranges' lower AND upper
// bounds (section 3.5), which this encoding makes explicit. Search is by
// unique containment of the (key, time) point. Entries with a finite t_hi
// reference historical nodes; t_hi == infinity references current pages —
// an invariant the checker enforces.
//
// Index cell:
//   [u8 flags: bit0 = key_hi is +inf]
//   [varint klen_lo][key_lo]  ([varint klen_hi][key_hi] unless bit0)
//   [fixed64 t_lo][fixed64 t_hi]
//   [NodeRef]
//   [varint64 min_ts]   (optional; absent in legacy cells == 0)
//
// min_ts is a content-floor hint: no committed record anywhere in the
// child's subtree has a timestamp below it (0 = unknown, claim nothing).
// It is computed when the entry is created at a split — commit timestamps
// are monotonic, so later inserts can only raise the true floor — and it
// lets as-of readers skip subtrees whose rectangle contains the query
// time but whose content is entirely younger (rectangles inherit loose
// time floors across key splits; the hint is tight where the rectangle
// is not). Cells are length-delimited by their slotted container, so the
// trailing varint decodes iff present and legacy cells stay readable.
// Historical index blob: a hist_node.h container (prefix-compressed
// restart blocks) holding index cells.
#ifndef TSBTREE_TSB_INDEX_PAGE_H_
#define TSBTREE_TSB_INDEX_PAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/slotted.h"
#include "tsb/data_page.h"
#include "tsb/node_ref.h"

namespace tsb {
namespace tsb_tree {

/// One index entry (owning). The rectangle is half-open on both axes.
struct IndexEntry {
  std::string key_lo;
  std::string key_hi;   // meaningful iff !key_hi_inf
  bool key_hi_inf = false;
  Timestamp t_lo = 0;
  Timestamp t_hi = kInfiniteTs;  // kInfiniteTs <=> current child
  NodeRef child;
  Timestamp min_ts = 0;  ///< subtree content floor; 0 = unknown

  bool current_child() const { return t_hi == kInfiniteTs; }

  bool ContainsKey(const Slice& k) const {
    if (Slice(key_lo) > k) return false;
    return key_hi_inf || k < Slice(key_hi);
  }
  bool ContainsTime(Timestamp t) const { return t_lo <= t && t < t_hi; }
  bool Contains(const Slice& k, Timestamp t) const {
    return ContainsKey(k) && ContainsTime(t);
  }
  /// True if the key interval strictly contains `s` in its interior
  /// (key_lo < s < key_hi) — the "straddler" test of the keyspace split
  /// rule, clause 4.
  bool KeyRangeStrictlyContains(const Slice& s) const {
    if (Slice(key_lo) >= s) return false;
    return key_hi_inf || s < Slice(key_hi);
  }

  size_t EncodedSize() const;
  std::string ToString() const;

  /// Order used in index pages: (key_lo, t_lo).
  bool operator<(const IndexEntry& o) const {
    const int c = Slice(key_lo).compare(Slice(o.key_lo));
    if (c != 0) return c < 0;
    return t_lo < o.t_lo;
  }
};

/// Non-owning view of an index cell (Slices point into the cell's buffer).
struct IndexEntryView {
  Slice key_lo;
  Slice key_hi;  // meaningful iff !key_hi_inf
  bool key_hi_inf = false;
  Timestamp t_lo = 0;
  Timestamp t_hi = kInfiniteTs;
  NodeRef child;
  Timestamp min_ts = 0;  ///< subtree content floor; 0 = unknown

  bool current_child() const { return t_hi == kInfiniteTs; }

  bool ContainsKey(const Slice& k) const {
    if (key_lo > k) return false;
    return key_hi_inf || k < key_hi;
  }
  bool ContainsTime(Timestamp t) const { return t_lo <= t && t < t_hi; }
  bool Contains(const Slice& k, Timestamp t) const {
    return ContainsKey(k) && ContainsTime(t);
  }

  /// Copies the entry into `e`, reusing its string buffers.
  void CopyTo(IndexEntry* e) const {
    e->key_lo.assign(key_lo.data(), key_lo.size());
    e->key_hi.assign(key_hi.data(), key_hi.size());
    e->key_hi_inf = key_hi_inf;
    e->t_lo = t_lo;
    e->t_hi = t_hi;
    e->child = child;
    e->min_ts = min_ts;
  }

  IndexEntry ToOwned() const {
    IndexEntry e;
    CopyTo(&e);
    return e;
  }
};

void EncodeIndexCell(std::string* out, const IndexEntry& e);
bool DecodeIndexCell(const Slice& cell, IndexEntry* e);
bool DecodeIndexCellView(const Slice& cell, IndexEntryView* e);

/// Accessor over a current index page. Caller keeps the page pinned.
class IndexPageRef {
 public:
  IndexPageRef(char* buf, uint32_t page_size)
      : buf_(buf),
        slots_(buf + kTsbSlotBase, PageUsableSize(page_size) - kTsbSlotBase) {}

  static void Format(char* buf, uint32_t page_size, uint8_t level);

  uint8_t Level() const { return TsbPageLevel(buf_); }
  int Count() const { return slots_.count(); }
  Status At(int i, IndexEntry* e) const;
  /// Non-owning variant; the view is valid while the page stays pinned.
  Status AtView(int i, IndexEntryView* e) const;

  /// Index of the unique entry containing (key, t); -1 if none (corrupt
  /// tree or t outside the node's region). Binary search on key_lo over
  /// the slotted directory, then a backward scan over the candidate
  /// prefix — the same algorithm historical index nodes use.
  int FindContaining(const Slice& key, Timestamp t) const;

  bool HasRoomFor(const IndexEntry& e) const {
    return slots_.HasRoomFor(static_cast<uint32_t>(e.EncodedSize()));
  }
  bool Insert(const IndexEntry& e);
  bool Replace(int i, const IndexEntry& e);
  void Remove(int i) { slots_.Remove(i); }

  Status DecodeAll(std::vector<IndexEntry>* out) const;
  Status Load(const std::vector<IndexEntry>& entries);

  uint32_t UsedBytes() const { return slots_.capacity() - slots_.FreeBytes(); }
  uint32_t FreeBytes() const { return slots_.FreeBytes(); }

 private:
  char* buf_;
  SlottedView slots_;
};

/// Serializes a historical index node (level > 0). When `raw_bytes` is
/// non-null it receives the uncompressed size. `restart_interval` sets the
/// restart-block size.
void SerializeHistIndexNode(uint8_t level, const std::vector<IndexEntry>& entries,
                            std::string* out, uint64_t* raw_bytes = nullptr,
                            uint32_t restart_interval = kHistRestartInterval);

/// Zero-copy accessor over a historical index node blob.
/// The caller keeps the blob alive while the ref and its views are in use.
///
/// View lifetime: as with HistDataNodeRef, a cell may live in the ref's
/// scratch buffer, so an IndexEntryView is valid only until the next
/// AtView/FindContaining call on the same ref.
class HistIndexNodeRef {
 public:
  /// Parses `blob`; fails unless it is a level>0 historical node.
  Status Parse(const Slice& blob);

  uint8_t Level() const { return node_.level(); }
  int Count() const { return node_.Count(); }
  /// Named like IndexPageRef::AtView so generic code can use either.
  Status AtView(int i, IndexEntryView* e) const;

  /// Index of the unique entry containing (key, t) into *pos; -1 if none.
  /// Binary search on key_lo (entries are (key_lo, t_lo)-sorted; restart
  /// blocks are searched first), then a backward scan over the
  /// candidates whose key_lo <= key. A bad cell is Corruption, not a
  /// miss — historical blobs are supposed to be immutable.
  Status FindContaining(const Slice& key, Timestamp t, int* pos) const;

 private:
  HistNodeRef node_;
  mutable CellScratch scratch_;
};

/// Parses a historical index node blob into owning entries.
Status DecodeHistIndexNode(const Slice& blob, uint8_t* level,
                           std::vector<IndexEntry>* out);

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_INDEX_PAGE_H_
