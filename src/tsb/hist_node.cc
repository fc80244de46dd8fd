#include "tsb/hist_node.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"

namespace tsb {
namespace tsb_tree {

namespace {
// level + version + fixed32 count + fixed16 restart interval
constexpr uint32_t kHeaderSize = 8;

size_t SharedPrefix(const Slice& a, const Slice& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}
}  // namespace

HistNodeBuilder::HistNodeBuilder(uint8_t level, uint32_t count,
                                 std::string* out, uint32_t restart_interval)
    : out_(out), count_(count), interval_(restart_interval) {
  // The interval is fixed16 on the wire.
  assert(restart_interval >= 1 && restart_interval <= UINT16_MAX);
  out_->clear();
  out_->push_back(static_cast<char>(level));
  out_->push_back(static_cast<char>(kHistNodeVersion3));
  PutFixed32(out_, count);
  PutFixed16(out_, static_cast<uint16_t>(interval_));
  offsets_.reserve((count + interval_ - 1) / interval_);
}

void HistNodeBuilder::AddCell(const Slice& cell) {
  cell_bytes_ += cell.size();
  if (in_block_ == 0) {
    offsets_.push_back(static_cast<uint32_t>(out_->size()));
    PutVarint32(out_, 0);
    PutVarint32(out_, static_cast<uint32_t>(cell.size()));
    restart_at_ = out_->size();
    restart_len_ = cell.size();
    out_->append(cell.data(), cell.size());
  } else {
    const size_t shared =
        SharedPrefix(Slice(out_->data() + restart_at_, restart_len_), cell);
    PutVarint32(out_, static_cast<uint32_t>(shared));
    PutVarint32(out_, static_cast<uint32_t>(cell.size() - shared));
    out_->append(cell.data() + shared, cell.size() - shared);
  }
  if (++in_block_ == interval_) in_block_ = 0;
  ++added_;
}

void HistNodeBuilder::Finish() {
  assert(added_ == count_);
  for (const uint32_t off : offsets_) PutFixed32(out_, off);
}

Status HistNodeRef::Parse(const Slice& blob) {
  blob_ = blob;
  dir_ = nullptr;
  dir_entries_ = 0;
  count_ = 0;
  interval_ = 1;
  if (blob.size() < 2) {
    return Status::Corruption("historical node too short");
  }
  level_ = static_cast<uint8_t>(blob[0]);
  const uint8_t version = static_cast<uint8_t>(blob[1]);
  if (version != kHistNodeVersion3) {
    return Status::Corruption("unknown historical node version",
                              std::to_string(version));
  }
  if (blob.size() < kHeaderSize) {
    return Status::Corruption("historical node truncated header");
  }
  count_ = DecodeFixed32(blob.data() + 2);
  interval_ = DecodeFixed16(blob.data() + 6);
  if (interval_ == 0) {
    return Status::Corruption("historical node zero restart interval");
  }
  dir_entries_ = count_ == 0 ? 0 : (count_ + interval_ - 1) / interval_;
  const uint64_t dir_bytes = 4ull * dir_entries_;
  if (kHeaderSize + dir_bytes > blob.size()) {
    return Status::Corruption("historical node truncated directory");
  }
  cells_end_ = static_cast<uint32_t>(blob.size() - dir_bytes);
  dir_ = blob.data() + cells_end_;
  return Status::OK();
}

Slice HistNodeRef::Cell(int i, CellScratch* scratch) const {
  if (i < 0 || static_cast<uint32_t>(i) >= count_) return Slice();
  const uint32_t block = static_cast<uint32_t>(i) / interval_;
  const uint32_t start = DecodeFixed32(dir_ + 4 * block);
  const uint32_t end = (block + 1 < dir_entries_)
                           ? DecodeFixed32(dir_ + 4 * (block + 1))
                           : cells_end_;
  if (start < kHeaderSize || start > end || end > cells_end_) {
    return Slice();  // corrupt directory; decoders report it
  }
  Slice in(blob_.data() + start, end - start);
  // Decode the restart cell (stored whole: shared must be 0).
  uint32_t shared0 = 0, len0 = 0;
  if (!GetVarint32(&in, &shared0) || shared0 != 0 ||
      !GetVarint32(&in, &len0) || in.size() < len0) {
    return Slice();
  }
  const char* restart_body = in.data();
  const uint32_t target = static_cast<uint32_t>(i) % interval_;
  if (target == 0) return Slice(restart_body, len0);
  in.remove_prefix(len0);
  for (uint32_t j = 1;; ++j) {
    uint32_t shared = 0, rest = 0;
    if (!GetVarint32(&in, &shared) || !GetVarint32(&in, &rest) ||
        in.size() < rest || shared > len0) {
      return Slice();
    }
    if (j == target) {
      if (shared == 0) return Slice(in.data(), rest);
      char* buf = scratch->Acquire(shared + rest);
      memcpy(buf, restart_body, shared);
      memcpy(buf + shared, in.data(), rest);
      return Slice(buf, shared + rest);
    }
    in.remove_prefix(rest);
  }
}

}  // namespace tsb_tree
}  // namespace tsb
