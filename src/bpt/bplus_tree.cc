#include "bpt/bplus_tree.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "storage/slotted.h"

namespace tsb {
namespace bpt {

namespace {

// Sub-header after the common 24-byte page header:
//   [24]     level (u8): 0 = leaf
//   [25]     pad
//   [26..30) next leaf page id (u32, leaves only)
constexpr uint32_t kSubHeader = 6;
constexpr uint32_t kSlotBase = kPageHeaderSize + kSubHeader;

uint8_t NodeLevel(const char* buf) { return static_cast<uint8_t>(buf[24]); }
void SetNodeLevel(char* buf, uint8_t level) { buf[24] = static_cast<char>(level); }
uint32_t NextLeaf(const char* buf) { return DecodeFixed32(buf + 26); }
void SetNextLeaf(char* buf, uint32_t id) { EncodeFixed32(buf + 26, id); }

SlottedView Slots(char* buf, uint32_t page_size) {
  return SlottedView(buf + kSlotBase, PageUsableSize(page_size) - kSlotBase);
}

// Leaf cell: [varint klen][key][value...].
void EncodeLeafCell(std::string* out, const Slice& key, const Slice& value) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(key.size()));
  out->append(key.data(), key.size());
  out->append(value.data(), value.size());
}

bool DecodeLeafCell(const Slice& cell, Slice* key, Slice* value) {
  Slice in = cell;
  uint32_t klen = 0;
  if (!GetVarint32(&in, &klen) || in.size() < klen) return false;
  *key = Slice(in.data(), klen);
  *value = Slice(in.data() + klen, in.size() - klen);
  return true;
}

// Internal cell: [varint klen][key][fixed32 child]. The key is the lower
// bound of the child's key range; cell 0 of a node acts as minus infinity.
void EncodeInternalCell(std::string* out, const Slice& key, uint32_t child) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(key.size()));
  out->append(key.data(), key.size());
  PutFixed32(out, child);
}

bool DecodeInternalCell(const Slice& cell, Slice* key, uint32_t* child) {
  Slice in = cell;
  uint32_t klen = 0;
  if (!GetVarint32(&in, &klen) || in.size() < klen + 4) return false;
  *key = Slice(in.data(), klen);
  *child = DecodeFixed32(in.data() + klen);
  return true;
}

// First index i in the leaf with cell-key >= key; n if none.
int LeafLowerBound(const SlottedView& slots, const Slice& key) {
  int lo = 0, hi = slots.count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    Slice ck, cv;
    DecodeLeafCell(slots.Cell(mid), &ck, &cv);
    if (ck < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Index of the child entry to follow: last entry with key <= target
// (entry 0 if target precedes everything).
int InternalChildIndex(const SlottedView& slots, const Slice& key) {
  const int n = slots.count();
  int lo = 0, hi = n - 1, ans = 0;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    Slice ck;
    uint32_t child;
    DecodeInternalCell(slots.Cell(mid), &ck, &child);
    if (ck <= key) {
      ans = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return ans;
}

constexpr uint32_t kMetaMagic = 0x42505431;  // "BPT1"

}  // namespace

BPlusTree::BPlusTree(Device* device, const BptOptions& options)
    : options_(options),
      pager_(std::make_unique<Pager>(device, options.page_size)),
      pool_(std::make_unique<BufferPool>(pager_.get(),
                                         options.buffer_pool_frames)) {}

BPlusTree::~BPlusTree() { Flush(); }

Status BPlusTree::Open(Device* device, const BptOptions& options,
                       std::unique_ptr<BPlusTree>* out) {
  if (options.page_size < 256) {
    return Status::InvalidArgument("page_size too small");
  }
  std::unique_ptr<BPlusTree> tree(new BPlusTree(device, options));
  TSB_RETURN_IF_ERROR(tree->Load());
  *out = std::move(tree);
  return Status::OK();
}

Status BPlusTree::Load() {
  std::vector<char> meta(options_.page_size);
  TSB_RETURN_IF_ERROR(pager_->ReadMeta(meta.data()));
  const char* p = meta.data() + kPageHeaderSize;
  if (DecodeFixed32(p) == kMetaMagic) {
    root_ = DecodeFixed32(p + 4);
    height_ = DecodeFixed32(p + 8);
    num_keys_ = DecodeFixed64(p + 12);
    return Status::OK();
  }
  // Fresh tree: root is an empty leaf.
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kBptLeaf, &h));
  SetNodeLevel(h.data(), 0);
  SetNextLeaf(h.data(), kInvalidPageId);
  Slots(h.data(), options_.page_size).Init();
  h.MarkDirty();
  root_ = h.id();
  height_ = 1;
  return Status::OK();
}

Status BPlusTree::Flush() {
  std::vector<char> meta(options_.page_size);
  TSB_RETURN_IF_ERROR(pager_->ReadMeta(meta.data()));
  char* p = meta.data() + kPageHeaderSize;
  EncodeFixed32(p, kMetaMagic);
  EncodeFixed32(p + 4, root_);
  EncodeFixed32(p + 8, height_);
  EncodeFixed64(p + 12, num_keys_);
  TSB_RETURN_IF_ERROR(pager_->WriteMeta(meta.data()));
  return pool_->FlushAll();
}

Status BPlusTree::FindLeaf(const Slice& key, uint32_t* leaf_id) {
  uint32_t id = root_;
  for (;;) {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->Fetch(id, &h));
    if (NodeLevel(h.data()) == 0) {
      *leaf_id = id;
      return Status::OK();
    }
    SlottedView slots = Slots(h.data(), options_.page_size);
    const int idx = InternalChildIndex(slots, key);
    Slice ck;
    uint32_t child;
    if (!DecodeInternalCell(slots.Cell(idx), &ck, &child)) {
      return Status::Corruption("bad internal cell", std::to_string(id));
    }
    id = child;
  }
}

Status BPlusTree::Get(const Slice& key, std::string* value) {
  uint32_t leaf_id;
  TSB_RETURN_IF_ERROR(FindLeaf(key, &leaf_id));
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(leaf_id, &h));
  SlottedView slots = Slots(h.data(), options_.page_size);
  const int pos = LeafLowerBound(slots, key);
  if (pos < slots.count()) {
    Slice ck, cv;
    DecodeLeafCell(slots.Cell(pos), &ck, &cv);
    if (ck == key) {
      value->assign(cv.data(), cv.size());
      return Status::OK();
    }
  }
  return Status::NotFound("key absent");
}

Status BPlusTree::Put(const Slice& key, const Slice& value) {
  const uint32_t max_cell =
      (options_.page_size - kSlotBase - kPageTrailerSize) / 4;
  if (key.size() + value.size() + 8 > max_cell) {
    return Status::InvalidArgument("record too large for page size");
  }
  bool did_split = false, was_insert = false;
  std::string sep;
  uint32_t new_page = kInvalidPageId;
  TSB_RETURN_IF_ERROR(
      InsertRec(root_, key, value, &did_split, &sep, &new_page, &was_insert));
  if (did_split) {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->New(PageType::kBptInternal, &h));
    SetNodeLevel(h.data(), static_cast<uint8_t>(height_));
    SlottedView slots = Slots(h.data(), options_.page_size);
    slots.Init();
    std::string cell;
    EncodeInternalCell(&cell, Slice(), root_);
    slots.Insert(0, cell);
    EncodeInternalCell(&cell, sep, new_page);
    slots.Insert(1, cell);
    h.MarkDirty();
    root_ = h.id();
    height_++;
  }
  if (was_insert) num_keys_++;
  return Status::OK();
}

Status BPlusTree::InsertRec(uint32_t page_id, const Slice& key,
                            const Slice& value, bool* did_split,
                            std::string* sep, uint32_t* new_page,
                            bool* was_insert) {
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(page_id, &h));
  SlottedView slots = Slots(h.data(), options_.page_size);

  if (NodeLevel(h.data()) == 0) {
    std::string cell;
    EncodeLeafCell(&cell, key, value);
    int pos = LeafLowerBound(slots, key);
    bool exists = false;
    if (pos < slots.count()) {
      Slice ck, cv;
      DecodeLeafCell(slots.Cell(pos), &ck, &cv);
      exists = (ck == key);
    }
    const bool ok = exists ? slots.Replace(pos, cell) : slots.Insert(pos, cell);
    if (ok) {
      h.MarkDirty();
      *was_insert = !exists;
      return Status::OK();
    }
    // Full: split, then insert into the proper half.
    TSB_RETURN_IF_ERROR(SplitLeaf(&h, sep, new_page));
    *did_split = true;
    PageHandle target;
    uint32_t target_id = (key < Slice(*sep)) ? page_id : *new_page;
    TSB_RETURN_IF_ERROR(pool_->Fetch(target_id, &target));
    SlottedView ts = Slots(target.data(), options_.page_size);
    pos = LeafLowerBound(ts, key);
    if (exists) {
      if (!ts.Replace(pos, cell)) {
        return Status::Corruption("no room after leaf split");
      }
    } else if (!ts.Insert(pos, cell)) {
      return Status::Corruption("no room after leaf split");
    }
    target.MarkDirty();
    *was_insert = !exists;
    return Status::OK();
  }

  // Internal node.
  const int child_idx = InternalChildIndex(slots, key);
  Slice ck;
  uint32_t child;
  if (!DecodeInternalCell(slots.Cell(child_idx), &ck, &child)) {
    return Status::Corruption("bad internal cell");
  }
  bool child_split = false;
  std::string child_sep;
  uint32_t child_new = kInvalidPageId;
  h.Release();  // avoid holding pins across the whole recursion depth
  TSB_RETURN_IF_ERROR(InsertRec(child, key, value, &child_split, &child_sep,
                                &child_new, was_insert));
  if (!child_split) return Status::OK();

  TSB_RETURN_IF_ERROR(pool_->Fetch(page_id, &h));
  SlottedView slots2 = Slots(h.data(), options_.page_size);
  std::string cell;
  EncodeInternalCell(&cell, child_sep, child_new);
  if (slots2.Insert(child_idx + 1, cell)) {
    h.MarkDirty();
    return Status::OK();
  }
  // Internal node full: split it, then place the new separator.
  TSB_RETURN_IF_ERROR(SplitInternal(&h, sep, new_page));
  *did_split = true;
  const uint32_t target_id =
      (Slice(child_sep) < Slice(*sep)) ? page_id : *new_page;
  PageHandle target;
  TSB_RETURN_IF_ERROR(pool_->Fetch(target_id, &target));
  SlottedView ts = Slots(target.data(), options_.page_size);
  // Re-locate insert position in the target half.
  const int n = ts.count();
  int pos = n;
  for (int i = 0; i < n; ++i) {
    Slice k2;
    uint32_t c2;
    DecodeInternalCell(ts.Cell(i), &k2, &c2);
    if (Slice(child_sep) < k2) {
      pos = i;
      break;
    }
  }
  if (!ts.Insert(pos, cell)) {
    return Status::Corruption("no room after internal split");
  }
  target.MarkDirty();
  return Status::OK();
}

Status BPlusTree::SplitLeaf(PageHandle* page, std::string* sep,
                            uint32_t* new_page) {
  SlottedView slots = Slots(page->data(), options_.page_size);
  const int n = slots.count();
  if (n < 2) return Status::Corruption("split of leaf with <2 cells");
  // Split at the byte midpoint so variable-length records balance.
  uint32_t total = 0;
  std::vector<uint32_t> sizes(n);
  for (int i = 0; i < n; ++i) {
    sizes[i] = static_cast<uint32_t>(slots.Cell(i).size());
    total += sizes[i];
  }
  uint32_t acc = 0;
  int mid = n / 2;
  for (int i = 0; i < n; ++i) {
    acc += sizes[i];
    if (acc * 2 >= total) {
      mid = i + 1;
      break;
    }
  }
  if (mid >= n) mid = n - 1;
  if (mid == 0) mid = 1;

  PageHandle right;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kBptLeaf, &right));
  SetNodeLevel(right.data(), 0);
  SetNextLeaf(right.data(), NextLeaf(page->data()));
  SlottedView rslots = Slots(right.data(), options_.page_size);
  rslots.Init();
  for (int i = mid; i < n; ++i) {
    if (!rslots.Insert(i - mid, slots.Cell(i))) {
      return Status::Corruption("leaf split overflow");
    }
  }
  for (int i = n - 1; i >= mid; --i) slots.Remove(i);
  SetNextLeaf(page->data(), right.id());
  page->MarkDirty();
  right.MarkDirty();

  Slice first_key, v;
  DecodeLeafCell(rslots.Cell(0), &first_key, &v);
  sep->assign(first_key.data(), first_key.size());
  *new_page = right.id();
  return Status::OK();
}

Status BPlusTree::SplitInternal(PageHandle* page, std::string* sep,
                                uint32_t* new_page) {
  SlottedView slots = Slots(page->data(), options_.page_size);
  const int n = slots.count();
  if (n < 3) return Status::Corruption("split of internal with <3 cells");
  const int mid = n / 2;

  PageHandle right;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kBptInternal, &right));
  SetNodeLevel(right.data(), NodeLevel(page->data()));
  SlottedView rslots = Slots(right.data(), options_.page_size);
  rslots.Init();
  for (int i = mid; i < n; ++i) {
    if (!rslots.Insert(i - mid, slots.Cell(i))) {
      return Status::Corruption("internal split overflow");
    }
  }
  Slice mid_key;
  uint32_t mid_child;
  DecodeInternalCell(rslots.Cell(0), &mid_key, &mid_child);
  sep->assign(mid_key.data(), mid_key.size());
  for (int i = n - 1; i >= mid; --i) slots.Remove(i);
  page->MarkDirty();
  right.MarkDirty();
  *new_page = right.id();
  return Status::OK();
}

Status BPlusTree::Delete(const Slice& key) {
  uint32_t leaf_id;
  TSB_RETURN_IF_ERROR(FindLeaf(key, &leaf_id));
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(leaf_id, &h));
  SlottedView slots = Slots(h.data(), options_.page_size);
  const int pos = LeafLowerBound(slots, key);
  if (pos < slots.count()) {
    Slice ck, cv;
    DecodeLeafCell(slots.Cell(pos), &ck, &cv);
    if (ck == key) {
      slots.Remove(pos);
      h.MarkDirty();
      num_keys_--;
      return Status::OK();
    }
  }
  return Status::NotFound("key absent");
}

Status BPlusTree::Iterator::Seek(const Slice& target) {
  TSB_RETURN_IF_ERROR(tree_->FindLeaf(target, &leaf_));
  PageHandle h;
  TSB_RETURN_IF_ERROR(tree_->pool_->Fetch(leaf_, &h));
  SlottedView slots = Slots(h.data(), tree_->options_.page_size);
  idx_ = LeafLowerBound(slots, target);
  h.Release();
  return LoadPosition();
}

Status BPlusTree::Iterator::SeekToFirst() { return Seek(Slice()); }

Status BPlusTree::Iterator::LoadPosition() {
  valid_ = false;
  while (leaf_ != kInvalidPageId) {
    PageHandle h;
    TSB_RETURN_IF_ERROR(tree_->pool_->Fetch(leaf_, &h));
    SlottedView slots = Slots(h.data(), tree_->options_.page_size);
    if (idx_ < slots.count()) {
      Slice k, v;
      if (!DecodeLeafCell(slots.Cell(idx_), &k, &v)) {
        return Status::Corruption("bad leaf cell");
      }
      key_.assign(k.data(), k.size());
      value_.assign(v.data(), v.size());
      valid_ = true;
      return Status::OK();
    }
    leaf_ = NextLeaf(h.data());
    idx_ = 0;
  }
  return Status::OK();
}

Status BPlusTree::Iterator::Next() {
  if (!valid_) return Status::InvalidArgument("Next on invalid iterator");
  idx_++;
  return LoadPosition();
}

Status BPlusTree::CheckInvariants() {
  return CheckRec(root_, height_ - 1, Slice(), Slice(), true);
}

Status BPlusTree::CheckRec(uint32_t page_id, uint32_t level, const Slice& lower,
                           const Slice& upper, bool upper_unbounded) {
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(page_id, &h));
  if (NodeLevel(h.data()) != level) {
    return Status::Corruption("level mismatch", std::to_string(page_id));
  }
  SlottedView slots = Slots(h.data(), options_.page_size);
  const int n = slots.count();
  std::string prev;
  bool have_prev = false;
  for (int i = 0; i < n; ++i) {
    Slice k, v;
    uint32_t child = 0;
    if (level == 0) {
      if (!DecodeLeafCell(slots.Cell(i), &k, &v)) {
        return Status::Corruption("bad leaf cell");
      }
    } else {
      if (!DecodeInternalCell(slots.Cell(i), &k, &child)) {
        return Status::Corruption("bad internal cell");
      }
    }
    if (have_prev && Slice(prev) >= k && !(i == 0)) {
      return Status::Corruption("unsorted node", std::to_string(page_id));
    }
    // Internal cell 0 acts as -infinity; skip its bound checks.
    if (!(level > 0 && i == 0)) {
      if (k < lower) {
        return Status::Corruption("key below lower bound");
      }
      if (!upper_unbounded && k >= upper) {
        return Status::Corruption("key above upper bound");
      }
    }
    prev.assign(k.data(), k.size());
    have_prev = true;
  }
  if (level > 0) {
    for (int i = 0; i < n; ++i) {
      Slice k;
      uint32_t child;
      DecodeInternalCell(slots.Cell(i), &k, &child);
      Slice child_lower = (i == 0) ? lower : k;
      Slice child_upper;
      bool child_upper_unbounded = true;
      if (i + 1 < n) {
        Slice nk;
        uint32_t nc;
        DecodeInternalCell(slots.Cell(i + 1), &nk, &nc);
        child_upper = nk;
        child_upper_unbounded = false;
      } else {
        child_upper = upper;
        child_upper_unbounded = upper_unbounded;
      }
      // Copy bounds: the recursive call fetches pages and may evict ours.
      std::string cl = child_lower.ToString(), cu = child_upper.ToString();
      h.Release();
      TSB_RETURN_IF_ERROR(
          CheckRec(child, level - 1, Slice(cl), Slice(cu), child_upper_unbounded));
      TSB_RETURN_IF_ERROR(pool_->Fetch(page_id, &h));
      slots = Slots(h.data(), options_.page_size);
    }
  }
  return Status::OK();
}

}  // namespace bpt
}  // namespace tsb
