// SlottedView: classic slotted-page layout over an arbitrary byte region.
//
// Region layout:
//   [0..2)  cell count n
//   [2..4)  cell_start: lowest byte offset occupied by any live cell
//   [4..6)  live_bytes: total bytes of live cells
//   [6..6+2n)  slot array, slot i = offset of cell i within the region
//   [cell_start..cap)  cells, allocated downward, possibly with holes
// Cells are opaque byte strings; each cell is stored as [u16 len][bytes].
// The slot array keeps logical order (callers keep it sorted); holes from
// removals and shrunk cells are reclaimed by an in-place compaction when
// contiguous space runs out.
#ifndef TSBTREE_STORAGE_SLOTTED_H_
#define TSBTREE_STORAGE_SLOTTED_H_

#include <cstdint>

#include "common/slice.h"

namespace tsb {

/// Mutable view over a slotted region. Does not own memory.
class SlottedView {
 public:
  SlottedView(char* base, uint32_t cap) : base_(base), cap_(cap) {}

  /// Zeroes the bookkeeping of a fresh region.
  void Init();

  uint16_t count() const;
  /// Returns cell i's payload (view into the region).
  Slice Cell(int i) const;

  /// Total free bytes (contiguous + holes), accounting for the slot the
  /// insert would add.
  uint32_t FreeBytes() const;

  /// True if a cell of `payload_size` bytes fits (after compaction if
  /// necessary).
  bool HasRoomFor(uint32_t payload_size) const;

  /// Inserts `cell` so it becomes cell `pos` (0 <= pos <= count()). Returns
  /// false if there is no room.
  bool Insert(int pos, const Slice& cell);

  /// Inserts an uninitialized cell of `size` bytes so it becomes cell
  /// `pos` and returns its bytes for the caller to fill in place; nullptr
  /// if there is no room.
  char* Allocate(int pos, uint32_t size);

  /// Removes cell `pos`.
  void Remove(int pos);

  /// Replaces cell `pos` with `cell`; false, with the page unchanged, if
  /// no room (the old cell's bytes count as free, so shrinking always
  /// succeeds).
  bool Replace(int pos, const Slice& cell);

  /// Writable bytes of cell `pos`, for in-place rewrites that keep or
  /// shrink its length (see ShrinkCell).
  char* MutableCell(int pos);

  /// Cuts cell `pos` to its first `new_len` bytes. The cut tail becomes a
  /// hole that compaction reclaims.
  void ShrinkCell(int pos, uint32_t new_len);

  /// Moves slot `from` left to position `to` (to <= from), shifting the
  /// slots in between right by one. Cell bytes stay where they are.
  void MoveSlot(int from, int to);

  /// Drops all cells.
  void Clear() { Init(); }

  uint32_t capacity() const { return cap_; }

 private:
  uint16_t cell_start() const;
  uint16_t live_bytes() const;
  void set_count(uint16_t v);
  void set_cell_start(uint16_t v);
  void set_live_bytes(uint16_t v);
  uint16_t slot(int i) const;
  void set_slot(int i, uint16_t v);
  uint32_t ContiguousFree() const;
  void Compact();

  char* base_;
  uint32_t cap_;
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_SLOTTED_H_
