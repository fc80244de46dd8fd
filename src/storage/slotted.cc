#include "storage/slotted.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/coding.h"

namespace tsb {

namespace {
constexpr uint32_t kHeader = 6;
constexpr uint32_t kSlot = 2;
constexpr uint32_t kCellHeader = 2;  // u16 length prefix
}  // namespace

void SlottedView::Init() {
  set_count(0);
  set_cell_start(static_cast<uint16_t>(cap_));
  set_live_bytes(0);
}

uint16_t SlottedView::count() const { return DecodeFixed16(base_); }
uint16_t SlottedView::cell_start() const { return DecodeFixed16(base_ + 2); }
uint16_t SlottedView::live_bytes() const { return DecodeFixed16(base_ + 4); }
void SlottedView::set_count(uint16_t v) { EncodeFixed16(base_, v); }
void SlottedView::set_cell_start(uint16_t v) { EncodeFixed16(base_ + 2, v); }
void SlottedView::set_live_bytes(uint16_t v) { EncodeFixed16(base_ + 4, v); }

uint16_t SlottedView::slot(int i) const {
  return DecodeFixed16(base_ + kHeader + kSlot * i);
}

void SlottedView::set_slot(int i, uint16_t v) {
  EncodeFixed16(base_ + kHeader + kSlot * i, v);
}

Slice SlottedView::Cell(int i) const {
  assert(i >= 0 && i < count());
  const uint16_t off = slot(i);
  const uint16_t len = DecodeFixed16(base_ + off);
  return Slice(base_ + off + kCellHeader, len);
}

uint32_t SlottedView::ContiguousFree() const {
  const uint32_t slots_end = kHeader + kSlot * count();
  const uint32_t cs = cell_start();
  return cs > slots_end ? cs - slots_end : 0;
}

uint32_t SlottedView::FreeBytes() const {
  const uint32_t used = kHeader + kSlot * count() + live_bytes();
  return cap_ > used ? cap_ - used : 0;
}

bool SlottedView::HasRoomFor(uint32_t payload_size) const {
  return FreeBytes() >= payload_size + kCellHeader + kSlot;
}

void SlottedView::Compact() {
  // Every cell takes at least a slot and a length prefix, so a 16-bit
  // region holds fewer than this many cells.
  constexpr int kMaxCells = 65536 / (kSlot + kCellHeader);
  const int n = count();
  assert(n < kMaxCells);
  // Slide cells toward the end of the region in descending-offset order:
  // every cell above the one being moved is already packed, so a move
  // only ever lands on holes or on its own old bytes.
  uint16_t order[kMaxCells];
  for (int i = 0; i < n; ++i) order[i] = static_cast<uint16_t>(i);
  std::sort(order, order + n,
            [this](uint16_t a, uint16_t b) { return slot(a) > slot(b); });
  uint16_t write = static_cast<uint16_t>(cap_);
  for (int k = 0; k < n; ++k) {
    const int i = order[k];
    const uint16_t off = slot(i);
    const uint16_t size =
        static_cast<uint16_t>(DecodeFixed16(base_ + off) + kCellHeader);
    write = static_cast<uint16_t>(write - size);
    if (write != off) memmove(base_ + write, base_ + off, size);
    set_slot(i, write);
  }
  set_cell_start(write);
}

bool SlottedView::Insert(int pos, const Slice& cell) {
  char* dst = Allocate(pos, static_cast<uint32_t>(cell.size()));
  if (dst == nullptr) return false;
  memcpy(dst, cell.data(), cell.size());
  return true;
}

char* SlottedView::Allocate(int pos, uint32_t size) {
  assert(pos >= 0 && pos <= count());
  const uint32_t need = size + kCellHeader;
  if (!HasRoomFor(size)) return nullptr;
  if (ContiguousFree() < need + kSlot) Compact();
  const int n = count();
  // Shift slots [pos, n) right by one.
  memmove(base_ + kHeader + kSlot * (pos + 1), base_ + kHeader + kSlot * pos,
          kSlot * static_cast<size_t>(n - pos));
  const uint16_t write = static_cast<uint16_t>(cell_start() - need);
  EncodeFixed16(base_ + write, static_cast<uint16_t>(size));
  set_slot(pos, write);
  set_cell_start(write);
  set_count(static_cast<uint16_t>(n + 1));
  set_live_bytes(static_cast<uint16_t>(live_bytes() + need));
  return base_ + write + kCellHeader;
}

void SlottedView::Remove(int pos) {
  const int n = count();
  assert(pos >= 0 && pos < n);
  const uint16_t off = slot(pos);
  const uint16_t len = DecodeFixed16(base_ + off);
  memmove(base_ + kHeader + kSlot * pos, base_ + kHeader + kSlot * (pos + 1),
          kSlot * static_cast<size_t>(n - pos - 1));
  set_count(static_cast<uint16_t>(n - 1));
  set_live_bytes(static_cast<uint16_t>(live_bytes() - (len + kCellHeader)));
  if (off == cell_start()) {
    // Best-effort: advance cell_start past the removed cell so sequential
    // remove/insert patterns don't force compaction.
    set_cell_start(static_cast<uint16_t>(off + len + kCellHeader));
  }
}

char* SlottedView::MutableCell(int pos) {
  assert(pos >= 0 && pos < count());
  return base_ + slot(pos) + kCellHeader;
}

void SlottedView::ShrinkCell(int pos, uint32_t new_len) {
  assert(pos >= 0 && pos < count());
  const uint16_t off = slot(pos);
  const uint16_t len = DecodeFixed16(base_ + off);
  assert(new_len <= len);
  EncodeFixed16(base_ + off, static_cast<uint16_t>(new_len));
  set_live_bytes(static_cast<uint16_t>(live_bytes() - (len - new_len)));
}

void SlottedView::MoveSlot(int from, int to) {
  assert(to >= 0 && to <= from && from < count());
  const uint16_t off = slot(from);
  memmove(base_ + kHeader + kSlot * (to + 1), base_ + kHeader + kSlot * to,
          kSlot * static_cast<size_t>(from - to));
  set_slot(to, off);
}

bool SlottedView::Replace(int pos, const Slice& cell) {
  // Removing the old cell frees its bytes and its slot, which the new
  // cell takes back: refuse before touching anything when it would still
  // not fit, so a failed replace leaves the page as it was.
  const uint32_t old_len = static_cast<uint32_t>(Cell(pos).size());
  if (FreeBytes() + old_len < cell.size()) return false;
  Remove(pos);
  const bool ok = Insert(pos, cell);
  assert(ok);
  (void)ok;
  return true;
}

}  // namespace tsb
