#include "tsb/data_page.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace tsb {
namespace tsb_tree {

size_t DataCellSize(const Slice& key, TxnId txn, const Slice& value) {
  return VarintLength(key.size()) + key.size() + 8 + VarintLength(txn) +
         value.size();
}

char* EncodeDataCell(char* dst, const Slice& key, Timestamp ts, TxnId txn,
                     const Slice& value) {
  dst = EncodeVarint32(dst, static_cast<uint32_t>(key.size()));
  memcpy(dst, key.data(), key.size());
  dst += key.size();
  EncodeFixed64(dst, ts);
  dst = EncodeVarint64(dst + 8, txn);
  memcpy(dst, value.data(), value.size());
  return dst + value.size();
}

void EncodeDataCell(std::string* out, const Slice& key, Timestamp ts,
                    TxnId txn, const Slice& value) {
  const size_t at = out->size();
  out->resize(at + DataCellSize(key, txn, value));
  EncodeDataCell(out->data() + at, key, ts, txn, value);
}

bool DecodeDataCell(const Slice& cell, DataEntryView* view) {
  Slice in = cell;
  if (!GetLengthPrefixedSlice(&in, &view->key)) return false;
  if (in.size() < 8) return false;
  view->ts = DecodeFixed64(in.data());
  in.remove_prefix(8);
  if (!GetVarint64(&in, &view->txn)) return false;
  view->value = in;
  return true;
}

std::vector<DataEntryView> ViewsOf(std::span<const DataEntry> entries) {
  std::vector<DataEntryView> views;
  views.reserve(entries.size());
  for (const DataEntry& e : entries) {
    views.push_back(DataEntryView{e.key, e.ts, e.txn, e.value});
  }
  return views;
}

void DataPageRef::Format(char* buf, uint32_t page_size) {
  SetTsbPageLevel(buf, 0);
  SlottedView(buf + kTsbSlotBase, PageUsableSize(page_size) - kTsbSlotBase)
      .Init();
}

Status DataPageRef::At(int i, DataEntryView* view) const {
  if (!DecodeDataCell(slots_.Cell(i), view)) {
    return Status::Corruption("bad data cell");
  }
  return Status::OK();
}

int DataPageRef::LowerBound(const Slice& key, Timestamp t) const {
  return LowerBound(key, t, 0, Count());
}

int DataPageRef::LowerBound(const Slice& key, Timestamp t, int lo,
                            int hi) const {
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    DataEntryView v;
    if (!DecodeDataCell(slots_.Cell(mid), &v)) return Count();
    const int c = v.key.compare(key);
    if (c < 0 || (c == 0 && v.ts < t)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool DataPageRef::Precedes(int i, const Slice& key, Timestamp t) const {
  DataEntryView v;
  if (!DecodeDataCell(slots_.Cell(i), &v)) return false;
  const int c = v.key.compare(key);
  return c < 0 || (c == 0 && v.ts < t);
}

int DataPageRef::LowerBoundFrom(const Slice& key, Timestamp t,
                                int from) const {
  const int n = Count();
  if (from < 0) return LowerBound(key, t, 0, n);
  // Invariant: every entry before `lo` precedes (key, t).
  int lo = from;
  for (int step = 1;; step *= 2) {
    const int probe = lo + step - 1;
    if (probe >= n) return LowerBound(key, t, lo, n);
    if (!Precedes(probe, key, t)) return LowerBound(key, t, lo, probe);
    lo = probe + 1;
  }
}

int DataPageRef::FindVersion(const Slice& key, Timestamp t) const {
  // Entries for `key` are contiguous and ts-ascending: the candidate is the
  // last committed entry before LowerBound(key, t+1). Uncommitted entries
  // (kUncommittedTs sentinel) sit at the end of the run and are skipped.
  const Timestamp upper = (t == kInfiniteTs) ? kInfiniteTs : t + 1;
  int pos = LowerBound(key, upper) - 1;
  while (pos >= 0) {
    DataEntryView v;
    if (!DecodeDataCell(slots_.Cell(pos), &v)) return -1;
    if (v.key != key) return -1;
    if (v.uncommitted()) {
      --pos;
      continue;
    }
    return (v.ts <= t) ? pos : -1;
  }
  return -1;
}

int DataPageRef::FindUncommitted(const Slice& key, TxnId txn,
                                 int* hint) const {
  // Uncommitted entries sort at the very end of the key's run.
  int pos = LowerBoundFrom(key, kUncommittedTs, hint != nullptr ? *hint : -1);
  while (pos < Count()) {
    DataEntryView v;
    if (!DecodeDataCell(slots_.Cell(pos), &v)) return -1;
    if (v.key != key) break;
    if (v.uncommitted() && v.txn == txn) {
      if (hint != nullptr) *hint = pos + 1;
      return pos;
    }
    ++pos;
  }
  return -1;
}

bool DataPageRef::Put(const Slice& key, Timestamp ts, TxnId txn,
                      const Slice& cell, int* hint) {
  const int pos = LowerBoundFrom(key, ts, hint != nullptr ? *hint : -1);
  for (int i = pos; i < Count(); ++i) {
    DataEntryView v;
    if (!DecodeDataCell(slots_.Cell(i), &v) || v.key != key || v.ts != ts) {
      break;
    }
    // Committed: the same (key, ts). Uncommitted: the run of uncommitted
    // versions of the key, one per transaction.
    if (v.txn == txn) {
      if (!slots_.Replace(i, cell)) return false;
      if (hint != nullptr) *hint = i + 1;
      return true;
    }
    if (ts != kUncommittedTs) break;
  }
  if (!slots_.Insert(pos, cell)) return false;
  if (hint != nullptr) *hint = pos + 1;
  return true;
}

Status DataPageRef::StampAt(int pos, Timestamp ts) {
  const Slice cell = slots_.Cell(pos);
  DataEntryView v;
  if (!DecodeDataCell(cell, &v) || !v.uncommitted()) {
    return Status::Corruption("stamp target is not an uncommitted cell");
  }
  // Cell: [varint klen][key][fixed64 ts][varint64 txn][value...]
  char* const base = slots_.MutableCell(pos);
  char* const ts_at = base + (v.key.data() + v.key.size() - cell.data());
  char* const value_at = base + (v.value.data() - cell.data());
  EncodeFixed64(ts_at, ts);
  char* const new_value_at = EncodeVarint64(ts_at + 8, kNoTxn);
  memmove(new_value_at, value_at, v.value.size());
  slots_.ShrinkCell(pos, static_cast<uint32_t>(new_value_at - base +
                                               v.value.size()));
  // Everything after `pos` sorts at or after (key, kUncommittedTs), so the
  // stamped version can only belong further left — and almost always
  // stays put, which one look at its left neighbour proves.
  if (pos == 0 || Precedes(pos - 1, v.key, ts)) return Status::OK();
  const int target = LowerBound(v.key, ts, 0, pos);
  if (target < pos) slots_.MoveSlot(pos, target);
  return Status::OK();
}

Status DataPageRef::DecodeAll(std::vector<DataEntry>* out) const {
  out->clear();
  out->reserve(Count());
  for (int i = 0; i < Count(); ++i) {
    DataEntryView v;
    TSB_RETURN_IF_ERROR(At(i, &v));
    out->push_back(v.ToOwned());
  }
  return Status::OK();
}

Status DataPageRef::DecodeViews(std::vector<DataEntryView>* out) const {
  out->resize(Count());
  for (int i = 0; i < Count(); ++i) TSB_RETURN_IF_ERROR(At(i, &(*out)[i]));
  return Status::OK();
}

Status DataPageRef::Load(std::span<const DataEntryView> entries) {
  slots_.Clear();
  for (size_t i = 0; i < entries.size(); ++i) {
    const DataEntryView& e = entries[i];
    // Encoded straight into the page: no staging copy.
    char* cell = slots_.Allocate(static_cast<int>(i),
                                 static_cast<uint32_t>(e.EncodedSize()));
    if (cell == nullptr) {
      return Status::OutOfSpace("data page bulk load overflow");
    }
    EncodeDataCell(cell, e.key, e.ts, e.txn, e.value);
  }
  return Status::OK();
}

void SerializeHistDataNode(std::span<const DataEntryView> entries,
                           std::string* out, uint64_t* raw_bytes,
                           uint32_t restart_interval) {
  // Upper bound of the node: header, cells with both varints at their
  // widest, and a directory offset per cell, so `out` grows at most once.
  // The cell buffer is sized once for the largest cell.
  size_t bound = 8 + 4 * entries.size();
  size_t largest = 0;
  for (const DataEntryView& e : entries) {
    bound += e.EncodedSize() + 10;
    largest = std::max(largest, e.EncodedSize());
  }
  out->reserve(bound);
  std::string cell;
  cell.reserve(largest);
  HistNodeBuilder builder(0, static_cast<uint32_t>(entries.size()), out,
                          restart_interval);
  for (const DataEntryView& e : entries) {
    cell.clear();
    EncodeDataCell(&cell, e.key, e.ts, e.txn, e.value);
    builder.AddCell(cell);
  }
  builder.Finish();
  if (raw_bytes != nullptr) *raw_bytes = builder.raw_bytes();
}

Status HistNodeLevel(const Slice& blob, uint8_t* level) {
  if (blob.size() < 2) return Status::Corruption("historical node too short");
  *level = static_cast<uint8_t>(blob[0]);
  return Status::OK();
}

Status HistDataNodeRef::Parse(const Slice& blob) {
  TSB_RETURN_IF_ERROR(node_.Parse(blob));
  if (node_.level() != 0) {
    return Status::Corruption("not a historical data node");
  }
  return Status::OK();
}

Status HistDataNodeRef::At(int i, DataEntryView* view) const {
  return At(i, view, &scratch_);
}

Status HistDataNodeRef::At(int i, DataEntryView* view,
                           CellScratch* scratch) const {
  if (!DecodeDataCell(node_.Cell(i, scratch), view)) {
    return Status::Corruption("bad historical record cell");
  }
  return Status::OK();
}

Status HistDataNodeRef::LowerBound(const Slice& key, Timestamp t,
                                   int* pos) const {
  int lo = 0, hi = Count();
  if (node_.RestartCount() > 1) {
    // Phase 1: binary-search restart cells (always stored whole, O(1) to
    // decode) for the last block whose restart entry precedes (key, t).
    // The lower bound then lies inside that block or exactly at the next
    // restart, so phase 2 only ever decodes cells of one block.
    int blo = 0, bhi = node_.RestartCount() - 1, best = 0;
    while (blo <= bhi) {
      const int mid = (blo + bhi) / 2;
      DataEntryView v;
      TSB_RETURN_IF_ERROR(At(node_.RestartIndex(mid), &v));
      const int c = v.key.compare(key);
      if (c < 0 || (c == 0 && v.ts < t)) {
        best = mid;
        blo = mid + 1;
      } else {
        bhi = mid - 1;
      }
    }
    lo = node_.RestartIndex(best);
    hi = std::min(Count(), node_.RestartIndex(best + 1));
  }
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    DataEntryView v;
    TSB_RETURN_IF_ERROR(At(mid, &v));
    const int c = v.key.compare(key);
    if (c < 0 || (c == 0 && v.ts < t)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *pos = lo;
  return Status::OK();
}

Status HistDataNodeRef::FindVersion(const Slice& key, Timestamp t,
                                    int* pos) const {
  // Same logic as DataPageRef::FindVersion: entries are (key, ts) sorted,
  // so the candidate is the last entry before LowerBound(key, t+1).
  // Uncommitted sentinels never migrate but are skipped defensively.
  const Timestamp upper = (t == kInfiniteTs) ? kInfiniteTs : t + 1;
  int p = 0;
  TSB_RETURN_IF_ERROR(LowerBound(key, upper, &p));
  --p;
  while (p >= 0) {
    DataEntryView v;
    TSB_RETURN_IF_ERROR(At(p, &v));
    if (v.key != key) break;
    if (v.uncommitted()) {
      --p;
      continue;
    }
    *pos = (v.ts <= t) ? p : -1;
    return Status::OK();
  }
  *pos = -1;
  return Status::OK();
}

Status DecodeHistDataNode(const Slice& blob, std::vector<DataEntry>* out) {
  out->clear();
  HistDataNodeRef node;
  TSB_RETURN_IF_ERROR(node.Parse(blob));
  out->reserve(node.Count());
  for (int i = 0; i < node.Count(); ++i) {
    DataEntryView v;
    TSB_RETURN_IF_ERROR(node.At(i, &v));
    out->push_back(v.ToOwned());
  }
  return Status::OK();
}

}  // namespace tsb_tree
}  // namespace tsb
