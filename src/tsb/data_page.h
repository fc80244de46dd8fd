// TSB-tree data node format.
//
// Current data pages (magnetic disk) are slotted pages holding record
// versions sorted by (key asc, timestamp asc); records of uncommitted
// transactions carry the kUncommittedTs sentinel (they sort after every
// committed version of the key) plus their transaction id — per paper
// section 4 they are never migrated and can be erased.
//
// Historical data nodes are the *consolidated* serialization of the same
// entries into an exactly-sized blob for the append store (section 3.4).
//
// Record cell: [varint klen][key][fixed64 ts][varint64 txn][value...]
// Historical blob: a hist_node.h container (prefix-compressed
// restart blocks) holding record cells.
#ifndef TSBTREE_TSB_DATA_PAGE_H_
#define TSBTREE_TSB_DATA_PAGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/slotted.h"
#include "tsb/hist_node.h"

namespace tsb {
namespace tsb_tree {

/// Sub-header after the 24-byte page header: [24] level, [25] pad.
inline constexpr uint32_t kTsbSubHeader = 2;
inline constexpr uint32_t kTsbSlotBase = kPageHeaderSize + kTsbSubHeader;

/// Encoded size of the record cell for (key, txn, value); the ts is a
/// fixed64, so the size does not depend on it.
size_t DataCellSize(const Slice& key, TxnId txn, const Slice& value);
/// Encodes the cell into `dst`, which has DataCellSize bytes; returns the
/// end of the cell.
char* EncodeDataCell(char* dst, const Slice& key, Timestamp ts, TxnId txn,
                     const Slice& value);
/// Appends the cell to `out`.
void EncodeDataCell(std::string* out, const Slice& key, Timestamp ts,
                    TxnId txn, const Slice& value);

struct DataEntry;

/// Non-owning view of a record cell inside a page (or of a DataEntry).
struct DataEntryView {
  Slice key;
  Timestamp ts = 0;
  TxnId txn = kNoTxn;
  Slice value;

  bool uncommitted() const { return ts == kUncommittedTs; }
  size_t EncodedSize() const { return DataCellSize(key, txn, value); }
  DataEntry ToOwned() const;
};

/// A decoded record version (owning).
struct DataEntry {
  std::string key;
  Timestamp ts = 0;   ///< commit time; kUncommittedTs if not yet committed
  TxnId txn = kNoTxn; ///< issuing transaction while uncommitted
  std::string value;

  bool uncommitted() const { return ts == kUncommittedTs; }
  size_t EncodedSize() const { return DataCellSize(key, txn, value); }

  /// Sort order used everywhere: (key, ts); the uncommitted sentinel sorts
  /// after all committed versions of the same key.
  bool operator<(const DataEntry& o) const {
    const int c = Slice(key).compare(Slice(o.key));
    if (c != 0) return c < 0;
    return ts < o.ts;
  }
};

inline DataEntry DataEntryView::ToOwned() const {
  return DataEntry{key.ToString(), ts, txn, value.ToString()};
}

bool DecodeDataCell(const Slice& cell, DataEntryView* view);

/// Views of owned entries, for the span-taking helpers below; valid while
/// `entries` lives unchanged.
std::vector<DataEntryView> ViewsOf(std::span<const DataEntry> entries);

/// Accessor over a current data page's bytes. Does not own the buffer; the
/// caller keeps the page pinned while a ref is live.
class DataPageRef {
 public:
  DataPageRef(char* buf, uint32_t page_size)
      : buf_(buf),
        slots_(buf + kTsbSlotBase, PageUsableSize(page_size) - kTsbSlotBase) {}

  /// Initializes the sub-header + slotted area of a freshly created page.
  static void Format(char* buf, uint32_t page_size);

  int Count() const { return slots_.count(); }
  Status At(int i, DataEntryView* view) const;

  /// First index with (key, ts) >= (k, t); Count() if none.
  int LowerBound(const Slice& key, Timestamp t) const;

  /// Index of the version of `key` valid at time `t`: the last entry with
  /// this key and ts <= t (committed only). -1 if none.
  int FindVersion(const Slice& key, Timestamp t) const;

  /// Index of the uncommitted entry for (key, txn); -1 if none.
  /// `hint`, when given, is a slot no later than the entry (callers
  /// walking a sorted key run pass the slot after the previous key's
  /// entry): the search gallops forward from it instead of bisecting the
  /// whole page. It is updated to the slot after the entry found.
  int FindUncommitted(const Slice& key, TxnId txn, int* hint = nullptr) const;

  /// True if a cell of `cell_size` encoded bytes fits.
  bool HasRoomFor(size_t cell_size) const {
    return slots_.HasRoomFor(static_cast<uint32_t>(cell_size));
  }

  /// Writes `cell` (the encoding of (key, ts, txn)) at its sorted position,
  /// replacing the version already there: the transaction's own uncommitted
  /// version when `ts` is kUncommittedTs, else the committed version with
  /// the same (key, ts). False when the page is full. `hint` works as in
  /// FindUncommitted (the slot after the previous Put of a sorted run).
  bool Put(const Slice& key, Timestamp ts, TxnId txn, const Slice& cell,
           int* hint = nullptr);

  /// Commits the uncommitted cell at `pos` in place: rewrites its ts,
  /// sets its txn to kNoTxn and slides the value down over the shorter
  /// txn varint, so the cell shrinks to exactly its committed encoding.
  /// The slot normally stays put, because a commit ts sorts after every
  /// committed version of the key. When it does not (another
  /// transaction's uncommitted version of the key precedes the cell, or
  /// `ts` is below an existing version), the slot rotates to
  /// LowerBound(key, ts).
  Status StampAt(int pos, Timestamp ts);

  void Remove(int i) { slots_.Remove(i); }
  void Clear() { slots_.Clear(); }

  /// Decodes every entry (owning copies, for tools and the checker).
  Status DecodeAll(std::vector<DataEntry>* out) const;

  /// Views of every entry, into this page's bytes (split staging decodes
  /// a private copy of the leaf, so the views outlive the leaf's latch).
  Status DecodeViews(std::vector<DataEntryView>* out) const;

  /// Clears the page and bulk-loads `entries` (must be sorted, must fit,
  /// and must not point into this page).
  Status Load(std::span<const DataEntryView> entries);

  /// Live payload bytes (cells + slots).
  uint32_t UsedBytes() const {
    return slots_.capacity() - slots_.FreeBytes();
  }

 private:
  /// LowerBound restricted to entries [lo, hi); every entry before `lo`
  /// must sort before (key, t).
  int LowerBound(const Slice& key, Timestamp t, int lo, int hi) const;
  /// LowerBound when the answer is at or after `from`: a forward gallop
  /// (from, from+1, from+3, ...) brackets it, then a bisection inside the
  /// bracket. A negative `from` bisects the whole page.
  int LowerBoundFrom(const Slice& key, Timestamp t, int from) const;
  /// True when entry `i` sorts before (key, t); a bad cell reads as not.
  bool Precedes(int i, const Slice& key, Timestamp t) const;

  char* buf_;
  SlottedView slots_;
};

/// Serializes entries as a consolidated historical data node. When
/// `raw_bytes` is non-null it receives the uncompressed size, for
/// compression accounting. `restart_interval` sets the restart-block size.
void SerializeHistDataNode(std::span<const DataEntryView> entries,
                           std::string* out, uint64_t* raw_bytes = nullptr,
                           uint32_t restart_interval = kHistRestartInterval);

/// Parses a historical node blob of either kind; returns its level.
/// For level 0 use HistDataNodeRef (zero-copy) or DecodeHistDataNode.
Status HistNodeLevel(const Slice& blob, uint8_t* level);

/// Zero-copy accessor over a historical data node blob. The caller keeps
/// the blob alive (pinned BlobHandle) while the ref and any views from it
/// are in use. Lookups binary-search restart blocks and reassemble
/// delta-encoded cells into the ref's scratch buffer.
///
/// View lifetime: because cells may live in the shared scratch, a
/// DataEntryView is valid only until the NEXT At/LowerBound/FindVersion
/// call on the same ref. Callers that need two entries at once (or an
/// entry across another probe) must copy first.
class HistDataNodeRef {
 public:
  /// Parses `blob`; fails unless it is a level-0 historical node.
  Status Parse(const Slice& blob);

  int Count() const { return node_.Count(); }
  Status At(int i, DataEntryView* view) const;

  /// Like At, but reassembles a delta-encoded cell into the CALLER's
  /// scratch: the returned view stays valid as long as `scratch` and the
  /// blob live, surviving later calls on this ref. Pinned point lookups
  /// use this to hand the user a stable zero-copy view.
  Status At(int i, DataEntryView* view, CellScratch* scratch) const;

  /// First index with (key, ts) >= (k, t) into *pos; Count() if none.
  /// Binary search over the restart blocks first, then within one block.
  /// Unlike the in-page DataPageRef search, a bad cell is reported as
  /// Corruption rather than folded into a miss — historical blobs are
  /// supposed to be immutable.
  Status LowerBound(const Slice& key, Timestamp t, int* pos) const;

  /// Index of the version of `key` valid at time `t` into *pos: the last
  /// committed entry with this key and ts <= t. -1 if none.
  Status FindVersion(const Slice& key, Timestamp t, int* pos) const;

 private:
  HistNodeRef node_;
  mutable CellScratch scratch_;
};

/// Parses a historical data node blob into owning entries.
Status DecodeHistDataNode(const Slice& blob, std::vector<DataEntry>* out);

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_DATA_PAGE_H_
