// Historical node container format.
//
// Historical nodes are immutable consolidated blobs in the append store
// (paper section 3.4), written exactly once. They use restart-block
// prefix compression, PISA/LevelDB-block style: cells are grouped into
// blocks of K (the restart interval, chosen per node by the split policy
// and stored in the header); each block's first cell (the restart cell)
// is stored whole, the others store only the byte suffix after their
// shared prefix with the restart cell. Sorted cells start with their
// encoded key, so key prefixes (and whole keys, for multi-version runs)
// compress away. The trailing directory indexes restart points only:
//
//   [u8 level][u8 3][u32 count][u16 restart_interval]
//   { [varint shared][varint rest_len][rest bytes] } * count
//   [u32 restart_offset] * ceil(count / K)
//
// Byte 1 is the format version. Only version 3 exists: any other value
// is rejected as corruption (the uncompressed v1/v2 formats of earlier
// releases are not readable). Readers binary-search the restarts, then
// decode at most K cells inside one block, directly over the pinned blob
// with no decode pass. Delta-encoded cells are reassembled into a small
// per-ref scratch buffer (restart cells stay pure views), so a view
// obtained from Cell/At is valid only until the NEXT Cell/At call on the
// same ref.
#ifndef TSBTREE_TSB_HIST_NODE_H_
#define TSBTREE_TSB_HIST_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace tsb {
namespace tsb_tree {

inline constexpr uint8_t kHistNodeVersion3 = 3;

/// Default cells per restart block (see SplitPolicy::ChooseRestartInterval).
inline constexpr uint32_t kHistRestartInterval = 16;

/// Reassembly buffer for delta-encoded cells. Cells up to the inline
/// size (the common case) rebuild with no heap traffic; larger cells fall
/// back to a heap buffer whose capacity is reused.
class CellScratch {
 public:
  char* Acquire(size_t n) {
    if (n <= sizeof(inline_)) return inline_;
    if (heap_.size() < n) heap_.resize(n);
    return heap_.data();
  }

 private:
  char inline_[512];
  std::vector<char> heap_;
};

/// Serializes a historical node: construct with the level, cell count and
/// restart interval (1..UINT16_MAX), AddCell() each cell's encoded bytes
/// in sorted order, then Finish() to emit the trailing directory.
class HistNodeBuilder {
 public:
  HistNodeBuilder(uint8_t level, uint32_t count, std::string* out,
                  uint32_t restart_interval = kHistRestartInterval);

  void AddCell(const Slice& cell);

  /// Appends the trailing directory. Must be called exactly once, after
  /// `count` AddCell() calls.
  void Finish();

  /// Bytes an uncompressed slotted encoding of the same cells would
  /// occupy (6-byte header, cells back to back, one u32 offset per cell);
  /// with out->size() after Finish this yields the node's compression
  /// ratio.
  uint64_t raw_bytes() const { return 6 + cell_bytes_ + 4ull * count_; }

 private:
  std::string* out_;
  uint32_t count_;
  uint32_t interval_;
  uint32_t added_ = 0;
  uint32_t in_block_ = 0;
  uint64_t cell_bytes_ = 0;
  // Current block's first cell, stored whole in *out_ (an offset: out_
  // may reallocate as it grows).
  size_t restart_at_ = 0;
  size_t restart_len_ = 0;
  std::vector<uint32_t> offsets_;  // restart offsets
};

/// Zero-copy accessor over a historical node blob. The caller keeps the
/// blob alive (pinned BlobHandle or owning string) while the ref and any
/// Slices obtained through it are in use. A Slice from Cell() may point
/// into the scratch buffer and is additionally invalidated by the next
/// Cell() call using the same scratch.
class HistNodeRef {
 public:
  /// Parses the container framing in O(1). Any version byte other than
  /// kHistNodeVersion3 is Corruption.
  Status Parse(const Slice& blob);

  uint8_t level() const { return level_; }
  int Count() const { return static_cast<int>(count_); }

  /// Cell i's payload; empty on out-of-range or a corrupt directory entry
  /// (cell decoders then report corruption). Restart cells are views into
  /// the blob; delta-encoded cells are reassembled into `scratch`.
  Slice Cell(int i, CellScratch* scratch) const;

  // ---- restart topology (two-phase binary search) ----

  uint32_t restart_interval() const { return interval_; }
  int RestartCount() const {
    return count_ == 0 ? 0
                       : static_cast<int>((count_ + interval_ - 1) / interval_);
  }
  /// First cell index of restart block r.
  int RestartIndex(int r) const { return r * static_cast<int>(interval_); }

 private:
  Slice blob_;
  uint8_t level_ = 0;
  uint32_t count_ = 0;
  uint32_t interval_ = 1;       // restart interval
  const char* dir_ = nullptr;   // restart offsets
  uint32_t dir_entries_ = 0;    // number of fixed32 entries behind dir_
  uint32_t cells_end_ = 0;      // blob offset where the directory starts
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_HIST_NODE_H_
