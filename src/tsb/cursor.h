// VersionCursor: the one traversal surface over the TSB-tree's key x time
// rectangle.
//
// A cursor is pinned at one as-of time (ReadOptions::as_of). Along the
// KEY axis it behaves like the paper's snapshot query (section 2.5):
// Seek/SeekToFirst/Next/Prev walk the database state as of that time in
// key order. Along the TIME axis, NextVersion/SeekTimestamp move through
// the committed versions of the *current* key — the version-history
// query — without disturbing the key-axis position, so a scan can stop
// at any record and drill into its past.
//
// Key movement — forward AND backward — uses one descent stack of
// zero-copy frames. Historical frames keep the node blob pinned and
// re-read surviving entry views on demand (blobs are immutable).
// Current-page frames keep the page PINNED but NOT latched, plus the
// frame's mutation counter sampled under a shared latch: every entry read
// relatches for an instant, revalidates the counter, and on mismatch the
// whole walk re-seeks from its anchor key — so no latch is ever held
// across user-paced iteration, and nothing is materialized per entry.
// Because index keyspace splits duplicate straddling historical
// references into both siblings (section 3.5 rule 4), the walk clips
// every child's emission to the intersection of the ancestor entries' key
// ranges — each region is visited exactly once, in either direction.
//
// Prev is a real backward walk: the first Prev after forward movement
// rebuilds the stack in reverse mode with ONE O(height) descent anchored
// just below the current key; every further Prev steps frames leftward
// and is amortized O(1) like Next. The O(height) descent recurs only as
// the invalidation fallback (a frame's page version moved) and on
// direction switches.
#ifndef TSBTREE_TSB_CURSOR_H_
#define TSBTREE_TSB_CURSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "tsb/index_page.h"
#include "tsb/tsb_tree.h"

namespace tsb {
namespace tsb_tree {

/// Usage:
///   auto c = tree->NewCursor({.as_of = t});
///   for (c->SeekToFirst(); c->Valid(); ) {                     // key axis
///     for (; c->Valid(); c->NextVersion()) { ... }             // time axis
///     c->Next();  // resumes the key scan even though the version walk
///   }             // ran the cursor dry — the key axis stays anchored
///
/// Safe under a concurrent updater: current-page frames revalidate a
/// per-page mutation counter before every use; when a split rewrote a
/// page underneath the scan the cursor transparently re-seeks to the
/// successor (predecessor, when walking backward) of the last emitted
/// key. Because the as-of-T state cannot change (new commits always carry
/// larger timestamps), the restarted scan emits exactly the remaining
/// keys — no duplicates, no gaps.
///
/// Lifetime: frames pin buffer-pool pages and historical blobs, so a
/// cursor must not outlive its tree.
class VersionCursor {
 public:
  VersionCursor(TsbTree* tree, const ReadOptions& options);

  // ---- key axis (at the cursor's as-of time) ----

  Status SeekToFirst();
  /// Positions at the first key >= target (clearing any range bounds).
  Status Seek(const Slice& target);
  /// Positions at the LAST key of the as-of state (clearing any range
  /// bounds), walking backward: a following Prev yields the
  /// second-to-last key. The k-way merged sharded cursor needs this to
  /// anchor children that have no key >= a forward target.
  Status SeekToLast();
  /// Positions at the largest key STRICTLY BELOW `upper_exclusive`
  /// (clearing any range bounds), walking backward — the reverse twin of
  /// Seek, with the same exclusive-upper convention as Prev's anchor.
  Status SeekForPrev(const Slice& upper_exclusive);
  /// Scans only keys in [start, end_exclusive).
  Status SeekRange(const Slice& start, const Slice& end_exclusive);
  /// Advances to the next key.
  Status Next();
  /// Moves to the largest key smaller than the current one (that has a
  /// version at the as-of time and lies within the range bounds);
  /// invalidates the cursor at the front. The first Prev after forward
  /// movement re-anchors with one O(height) descent; consecutive Prevs
  /// walk the descent stack backward and are amortized O(1) like Next.
  Status Prev();

  // ---- time axis (of the current key) ----

  /// Moves to the next-older committed version of the current key;
  /// invalidates the cursor when none remains. The key-axis position is
  /// untouched: a later Next() resumes the key scan.
  Status NextVersion();
  /// Positions at the current key's version valid at time `t` (any
  /// committed time, including times newer than the cursor's as-of);
  /// invalidates the cursor if the key has no version at `t`.
  Status SeekTimestamp(Timestamp t);

  bool Valid() const { return valid_; }
  Slice key() const { return Slice(key_); }
  Slice value() const { return Slice(value_); }
  Timestamp ts() const { return ts_; }
  /// The time the key axis reads at (resolved; fixed at construction).
  Timestamp as_of() const { return t_; }

 private:
  /// One level of the descent stack — zero-copy in BOTH axes' node kinds.
  /// Historical frames keep the blob pinned and re-read surviving entry
  /// views on demand (immutable). Current-page frames keep the page
  /// pinned but UNLATCHED plus the mutation counter sampled when the
  /// frame was built; entry reads relatch briefly and revalidate it.
  /// `order` holds the surviving cell/slot indices (already
  /// key_lo-sorted, see PushIndexFrame); `next` is the walk position:
  /// forward consumes order[next] and increments, backward consumes
  /// order[next - 1] and decrements.
  ///
  /// Frames are pooled: PopFrame drops pins but keeps the containers'
  /// capacity, so a steady-state scan pushes and pops frames without
  /// allocating.
  struct Frame {
    bool historical = false;
    // Historical frames:
    BlobHandle blob;             // pins the node bytes
    HistIndexNodeRef hist_node;  // parsed over `blob`
    // Current-page frames:
    PageHandle page;             // pinned, NOT latched
    uint64_t page_version = 0;   // counter sampled under the build latch
    // Both:
    std::vector<int> order;      // surviving cells (key_lo-sorted)
    size_t next = 0;
    std::string win_lo;
    std::string win_hi;
    bool win_hi_inf = true;
  };

  struct Record {
    std::string key;
    Timestamp ts;
    std::string value;
  };

  /// (Re)builds the forward stack for keys >= target, preserving the
  /// range bounds (Seek/SeekRange and forward re-anchors funnel here).
  Status SeekInternal(const Slice& target);

  /// Backward twin: (re)builds the reverse stack for keys < upper (all
  /// keys when upper_inf), preserving the range bounds.
  Status SeekReverseInternal(const Slice& upper, bool upper_inf);

  /// Clears the stack and pushes the root under the CURRENT direction's
  /// bounds (forward: keys >= seek_target_; reverse: keys < rev_upper_).
  Status BuildStack();

  Status PushNode(const NodeRef& ref, const std::string& win_lo,
                  const std::string& win_hi, bool win_hi_inf);
  Status Advance();

  /// Fills the emission buffer from a leaf accessor (DataPageRef over a
  /// latched page, or HistDataNodeRef over a pinned blob): per key the
  /// latest committed version with ts <= t, clipped to the window and the
  /// direction's bounds. Only emitted records are copied; record slots
  /// reuse their string capacity across leaves instead of reallocating
  /// per visited version.
  template <typename DataAccessor>
  Status EmitLeaf(const DataAccessor& node, const std::string& win_lo,
                  const std::string& win_hi, bool win_hi_inf);

  /// Builds and pushes a descent frame from a current index page: filters
  /// entry views against the window/direction bounds under the handle's
  /// (still held) shared latch, keeps only surviving slot indices, then
  /// drops the latch but KEEPS the pin — nothing is materialized.
  Status PushIndexFrame(PageHandle page, const std::string& win_lo,
                        const std::string& win_hi, bool win_hi_inf);

  /// Builds and pushes a historical descent frame: filters entry views in
  /// place and keeps only surviving cell indices plus the pinned blob.
  Status PushHistIndexFrame(BlobHandle blob, HistIndexNodeRef node,
                            const std::string& win_lo,
                            const std::string& win_hi, bool win_hi_inf);

  /// True when the entry view survives the window and the current
  /// direction's seek/end (forward) or upper/floor (reverse) bounds.
  bool EntrySurvives(const IndexEntryView& e, const std::string& win_lo,
                     const std::string& win_hi, bool win_hi_inf) const;

  /// Reads entry `cell` of the top frame into entry_lo_/entry_hi_/
  /// entry_hi_inf_ and *child. Current frames relatch and revalidate the
  /// page version; *stale reports a mismatch (caller re-seeks, no error).
  Status ReadFrameEntry(Frame& f, int cell, NodeRef* child, bool* stale);

  /// All current frames still carry their sampled page versions and the
  /// root has not moved. Checked before serving a freshly emitted buffer
  /// and before concluding the scan (the root check is what catches a
  /// time split of a leaf-root, which has no parent frame to version).
  bool StackValid() const;

  /// Re-seek fallback after an invalidation: forward from the successor
  /// of the last emitted key, reverse from just below it.
  Status Restart();

  Frame& EmplaceFrame();
  void PopFrame();
  void ClearStack();

  /// Time-axis probe: repositions value_/ts_ at the current key's version
  /// valid at `t` (key-axis state untouched).
  Status ProbeVersion(Timestamp t);

  TsbTree* tree_;
  ReadOptions opts_;
  Timestamp t_ = 0;          // resolved as-of time of the key axis
  // The key axis stays anchored (Next/Prev legal) even while valid_ is
  // false from a version-axis move that ran dry — that is what lets a
  // scan drill into one key's past and then resume walking keys.
  bool key_anchored_ = false;
  bool reverse_ = false;     // key-axis walk direction
  std::string seek_target_;  // forward: emit only keys >= this
  std::string end_key_;      // ...and < this, unless end_inf_
  bool end_inf_ = true;
  std::string range_lo_;     // SeekRange start; floor for Prev ("" = none)
  std::string rev_upper_;    // reverse: emit only keys < this (exclusive)
  bool rev_upper_inf_ = false;  // ...unless true (SeekToLast: no upper)
  uint32_t root_page_ = 0;   // root page id the stack was built from
  bool emitted_any_ = false;
  std::vector<Frame> stack_;     // frame pool; [0, depth_) is the stack
  size_t depth_ = 0;
  std::vector<Record> records_;  // emission slots; capacity reused
  size_t rec_count_ = 0;         // live records in records_
  size_t rec_idx_ = 0;           // forward: next to serve; reverse: served
                                 // records are [rec_idx_, rec_count_)
  std::string run_key_;          // EmitLeaf key run (reused)
  std::string entry_lo_, entry_hi_;    // ReadFrameEntry scratch
  bool entry_hi_inf_ = true;
  std::string child_lo_, child_hi_;    // Advance window-clip scratch
  bool valid_ = false;
  std::string key_, value_;
  Timestamp ts_ = 0;
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_CURSOR_H_
