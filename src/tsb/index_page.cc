#include "tsb/index_page.h"

#include <algorithm>

#include "common/coding.h"

namespace tsb {
namespace tsb_tree {

namespace {
constexpr uint8_t kFlagKeyHiInf = 0x1;
}  // namespace

size_t IndexEntry::EncodedSize() const {
  size_t n = 1 + VarintLength(key_lo.size()) + key_lo.size() + 16;
  if (!key_hi_inf) n += VarintLength(key_hi.size()) + key_hi.size();
  n += child.historical
           ? 1 + VarintLength(child.addr.offset) + VarintLength(child.addr.length)
           : 1 + 4;
  n += VarintLength(min_ts);
  return n;
}

std::string IndexEntry::ToString() const {
  std::string s = "[" + key_lo + ", " + (key_hi_inf ? "+inf" : key_hi) +
                  ") x [" + std::to_string(t_lo) + ", " +
                  (t_hi == kInfiniteTs ? "+inf" : std::to_string(t_hi)) +
                  ") -> " + child.ToString();
  if (min_ts != 0) s += " min_ts=" + std::to_string(min_ts);
  return s;
}

void EncodeIndexCell(std::string* out, const IndexEntry& e) {
  out->reserve(out->size() + e.EncodedSize());
  out->push_back(static_cast<char>(e.key_hi_inf ? kFlagKeyHiInf : 0));
  PutVarint32(out, static_cast<uint32_t>(e.key_lo.size()));
  out->append(e.key_lo);
  if (!e.key_hi_inf) {
    PutVarint32(out, static_cast<uint32_t>(e.key_hi.size()));
    out->append(e.key_hi);
  }
  PutFixed64(out, e.t_lo);
  PutFixed64(out, e.t_hi);
  EncodeNodeRef(out, e.child);
  PutVarint64(out, e.min_ts);
}

bool DecodeIndexCellView(const Slice& cell, IndexEntryView* e) {
  Slice in = cell;
  if (in.empty()) return false;
  const uint8_t flags = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  e->key_hi_inf = (flags & kFlagKeyHiInf) != 0;
  if (!GetLengthPrefixedSlice(&in, &e->key_lo)) return false;
  if (!e->key_hi_inf) {
    if (!GetLengthPrefixedSlice(&in, &e->key_hi)) return false;
  } else {
    e->key_hi.clear();
  }
  if (in.size() < 16) return false;
  e->t_lo = DecodeFixed64(in.data());
  e->t_hi = DecodeFixed64(in.data() + 8);
  in.remove_prefix(16);
  if (!DecodeNodeRef(&in, &e->child)) return false;
  // Trailing content-floor hint; legacy cells end at the NodeRef.
  e->min_ts = 0;
  if (!in.empty() && !GetVarint64(&in, &e->min_ts)) return false;
  return true;
}

bool DecodeIndexCell(const Slice& cell, IndexEntry* e) {
  IndexEntryView v;
  if (!DecodeIndexCellView(cell, &v)) return false;
  v.CopyTo(e);
  return true;
}

void IndexPageRef::Format(char* buf, uint32_t page_size, uint8_t level) {
  SetTsbPageLevel(buf, level);
  SlottedView(buf + kTsbSlotBase, PageUsableSize(page_size) - kTsbSlotBase)
      .Init();
}

Status IndexPageRef::At(int i, IndexEntry* e) const {
  if (!DecodeIndexCell(slots_.Cell(i), e)) {
    return Status::Corruption("bad index cell");
  }
  return Status::OK();
}

Status IndexPageRef::AtView(int i, IndexEntryView* e) const {
  if (!DecodeIndexCellView(slots_.Cell(i), e)) {
    return Status::Corruption("bad index cell");
  }
  return Status::OK();
}

int IndexPageRef::FindContaining(const Slice& key, Timestamp t) const {
  // Entries tile the node's region, so at most one contains the point,
  // and it has key_lo <= key. Binary-search the first entry with
  // key_lo > key (entries are (key_lo, t_lo)-sorted), then walk backwards
  // over the prefix — the match is almost always within the run of
  // entries sharing the nearest key_lo, so the walk is short. View
  // decode: no allocation per probed cell (this is the descent hot path).
  int lo = 0, hi = Count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    IndexEntryView e;
    if (!DecodeIndexCellView(slots_.Cell(mid), &e)) return -1;
    if (e.key_lo <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (int i = lo - 1; i >= 0; --i) {
    IndexEntryView e;
    if (!DecodeIndexCellView(slots_.Cell(i), &e)) return -1;
    if (e.Contains(key, t)) return i;
  }
  return -1;
}

bool IndexPageRef::Insert(const IndexEntry& e) {
  std::string cell;
  EncodeIndexCell(&cell, e);
  // Keep (key_lo, t_lo) order.
  int lo = 0, hi = Count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    IndexEntryView m;
    if (!DecodeIndexCellView(slots_.Cell(mid), &m)) return false;
    const int c = m.key_lo.compare(Slice(e.key_lo));
    if (c < 0 || (c == 0 && m.t_lo < e.t_lo)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return slots_.Insert(lo, cell);
}

bool IndexPageRef::Replace(int i, const IndexEntry& e) {
  std::string cell;
  EncodeIndexCell(&cell, e);
  return slots_.Replace(i, cell);
}

Status IndexPageRef::DecodeAll(std::vector<IndexEntry>* out) const {
  out->clear();
  out->reserve(Count());
  for (int i = 0; i < Count(); ++i) {
    IndexEntry e;
    TSB_RETURN_IF_ERROR(At(i, &e));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

Status IndexPageRef::Load(const std::vector<IndexEntry>& entries) {
  slots_.Clear();
  std::string cell;
  for (size_t i = 0; i < entries.size(); ++i) {
    cell.clear();
    EncodeIndexCell(&cell, entries[i]);
    if (!slots_.Insert(static_cast<int>(i), cell)) {
      return Status::OutOfSpace("index page bulk load overflow");
    }
  }
  return Status::OK();
}

void SerializeHistIndexNode(uint8_t level,
                            const std::vector<IndexEntry>& entries,
                            std::string* out, uint64_t* raw_bytes,
                            uint32_t restart_interval) {
  HistNodeBuilder builder(level, static_cast<uint32_t>(entries.size()), out,
                          restart_interval);
  std::string cell;
  for (const IndexEntry& e : entries) {
    cell.clear();
    EncodeIndexCell(&cell, e);
    builder.AddCell(cell);
  }
  builder.Finish();
  if (raw_bytes != nullptr) *raw_bytes = builder.raw_bytes();
}

Status HistIndexNodeRef::Parse(const Slice& blob) {
  TSB_RETURN_IF_ERROR(node_.Parse(blob));
  if (node_.level() == 0) {
    return Status::Corruption("not a historical index node");
  }
  return Status::OK();
}

Status HistIndexNodeRef::AtView(int i, IndexEntryView* e) const {
  if (!DecodeIndexCellView(node_.Cell(i, &scratch_), e)) {
    return Status::Corruption("bad historical index entry");
  }
  return Status::OK();
}

Status HistIndexNodeRef::FindContaining(const Slice& key, Timestamp t,
                                        int* pos) const {
  // Entries are (key_lo, t_lo)-sorted and tile the node's region: the
  // unique containing entry has key_lo <= key. Binary-search the first
  // entry with key_lo > key, then walk backwards over the prefix — the
  // match is almost always within the run of entries sharing the nearest
  // key_lo, so the walk is short in practice.
  int lo = 0, hi = Count();
  if (node_.RestartCount() > 1) {
    // Restart phase: the first entry with key_lo > key lies inside (or at
    // the far edge of) the last block whose restart key_lo <= key.
    int blo = 0, bhi = node_.RestartCount() - 1, best = -1;
    while (blo <= bhi) {
      const int mid = (blo + bhi) / 2;
      IndexEntryView v;
      TSB_RETURN_IF_ERROR(AtView(node_.RestartIndex(mid), &v));
      if (v.key_lo <= key) {
        best = mid;
        blo = mid + 1;
      } else {
        bhi = mid - 1;
      }
    }
    if (best < 0) {
      lo = hi = 0;  // every entry has key_lo > key
    } else {
      lo = node_.RestartIndex(best);
      hi = std::min(Count(), node_.RestartIndex(best + 1));
    }
  }
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    IndexEntryView v;
    TSB_RETURN_IF_ERROR(AtView(mid, &v));
    if (v.key_lo <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (int i = lo - 1; i >= 0; --i) {
    IndexEntryView v;
    TSB_RETURN_IF_ERROR(AtView(i, &v));
    if (v.Contains(key, t)) {
      *pos = i;
      return Status::OK();
    }
  }
  *pos = -1;
  return Status::OK();
}

Status DecodeHistIndexNode(const Slice& blob, uint8_t* level,
                           std::vector<IndexEntry>* out) {
  out->clear();
  HistIndexNodeRef node;
  TSB_RETURN_IF_ERROR(node.Parse(blob));
  *level = node.Level();
  out->reserve(node.Count());
  for (int i = 0; i < node.Count(); ++i) {
    IndexEntryView v;
    TSB_RETURN_IF_ERROR(node.AtView(i, &v));
    out->push_back(v.ToOwned());
  }
  return Status::OK();
}

}  // namespace tsb_tree
}  // namespace tsb
