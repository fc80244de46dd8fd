#include "tsb/tsb_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/logger.h"
#include "storage/page.h"
#include "storage/worm_device.h"
#include "tsb/cursor.h"

namespace tsb {
namespace tsb_tree {

namespace {

constexpr uint32_t kMetaMagic = 0x54534231;  // "TSB1"
// Tag of the durable high-water mark, stored in the last 8 bytes of the
// meta page's usable area ([tag][u32 slots]). The free list never reaches
// them, so metas written before the mark existed hold zeros there and read
// as "every device slot is durable".
constexpr uint32_t kHighWaterMagic = 0x4d575448;  // "HTWM"
uint32_t HighWaterOffset(uint32_t page_size) {
  return PageUsableSize(page_size) - 8;
}

constexpr int kMaxInsertRetries = 64;
// Time budget for waiting on in-flight commits to publish so a
// watermark-capped time split can migrate history.
constexpr std::chrono::seconds kMaxWatermarkWait{2};

// Upper bound on the encoded size of an index entry we are about to create
// whose historical address and content-floor hint are not yet known
// (varints at their widest).
size_t IndexEntrySizeBound(const IndexEntry& prototype) {
  IndexEntry e = prototype;
  e.child = NodeRef::Historical(HistAddr{UINT64_MAX / 2, UINT32_MAX / 2});
  e.min_ts = UINT64_MAX / 2;
  return e.EncodedSize() + 8;
}

// Content-floor hint for an entry about to reference a data node holding
// exactly `entries`: the smallest committed timestamp present, or
// `fallback` when nothing is committed yet. An uncommitted record caps the
// floor at `pending`, the published watermark + 1: parallel commits stamp
// out of timestamp order, so a record may yet be stamped below a commit
// that stamped first, but every unpublished commit lies above the
// watermark.
Timestamp DataContentFloor(std::span<const DataEntryView> entries,
                           Timestamp fallback, Timestamp pending) {
  Timestamp min_ts = kInfiniteTs;
  bool uncommitted = false;
  for (const DataEntryView& e : entries) {
    if (e.uncommitted()) {
      uncommitted = true;
    } else if (e.ts < min_ts) {
      min_ts = e.ts;
    }
  }
  if (min_ts == kInfiniteTs) min_ts = fallback;
  return uncommitted ? std::min(min_ts, pending) : min_ts;
}

// Content-floor hint for an entry about to reference an index node holding
// exactly `entries`: the subtree floor is the weakest child claim — and a
// single unknown child (0) makes the whole claim unknown.
Timestamp IndexContentFloor(const std::vector<IndexEntry>& entries) {
  Timestamp min_ts = kInfiniteTs;
  for (const IndexEntry& e : entries) {
    if (e.min_ts < min_ts) min_ts = e.min_ts;
  }
  return min_ts == kInfiniteTs ? 0 : min_ts;
}

// Slot + length-prefix overhead of one slotted cell.
constexpr uint32_t kCellOverhead = 4;

// Node-shape inputs (distinct keys, total key bytes) for the per-node
// restart-interval choice; `entries` are sorted, so runs are adjacent.
void DataNodeShape(std::span<const DataEntryView> entries, size_t* distinct,
                   size_t* key_bytes) {
  *distinct = 0;
  *key_bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    *key_bytes += entries[i].key.size();
    if (i == 0 || entries[i].key != entries[i - 1].key) ++*distinct;
  }
}

void IndexNodeShape(const std::vector<IndexEntry>& entries, size_t* distinct,
                    size_t* key_bytes) {
  *distinct = 0;
  *key_bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    *key_bytes += entries[i].key_lo.size();
    if (i == 0 || entries[i].key_lo != entries[i - 1].key_lo) ++*distinct;
  }
}

}  // namespace

TsbTree::TsbTree(Device* magnetic, Device* historical,
                 const TsbOptions& options)
    : options_(options),
      pager_(std::make_unique<Pager>(magnetic, options.page_size)),
      pool_(std::make_unique<BufferPool>(pager_.get(),
                                         options.buffer_pool_frames)),
      hist_(std::make_unique<AppendStore>(historical,
                                          options.hist_cache_blobs)),
      policy_(options.policy),
      clock_(options.external_clock != nullptr ? options.external_clock
                                               : &own_clock_),
      put_ledger_(clock_) {}

TsbTree::~TsbTree() {
  if (pool_->no_steal()) {
    // WAL-protected tree: the on-disk base only advances through crash-
    // atomic checkpoints (the DB layer runs one at clean close). Flushing
    // meta + dirty pages here would overwrite the checkpointed base with
    // un-journaled state — on a degraded close, possibly half a commit.
    return;
  }
  Status s = Flush();
  if (!s.ok()) {
    TSB_LOG_ERROR("tree close flush failed: %s", s.ToString().c_str());
    if (hist_->flushed_end() != hist_->device_bytes()) {
      // Flush stopped at the history: pages may point at blobs that never
      // reached the device, so the pool's own close must not write them.
      pool_->set_no_steal(true);
    }
  }
}

Status TsbTree::Open(Device* magnetic, Device* historical,
                     const TsbOptions& options,
                     std::unique_ptr<TsbTree>* out) {
  if (options.page_size < 512) {
    return Status::InvalidArgument("page_size must be >= 512");
  }
  std::unique_ptr<TsbTree> tree(new TsbTree(magnetic, historical, options));
  TSB_RETURN_IF_ERROR(tree->Load());
  *out = std::move(tree);
  return Status::OK();
}

Status TsbTree::Load() {
  std::vector<char> meta(options_.page_size);
  TSB_RETURN_IF_ERROR(pager_->ReadMeta(meta.data()));
  const char* p = meta.data() + kPageHeaderSize;
  const bool formatted = DecodeFixed32(p) == kMetaMagic;
  const char* mark = meta.data() + HighWaterOffset(options_.page_size);
  if (formatted && DecodeFixed32(mark) == kHighWaterMagic) {
    // Slots above the mark are orphans of a checkpoint that died before
    // its commit point; left in place they would leak and scrub as torn.
    TSB_RETURN_IF_ERROR(
        pager_->TruncateSlots(DecodeFixed32(mark + 4), &orphan_slots_dropped_));
  }
  durable_high_water_ = pager_->high_water_pages() + 1;
  if (formatted) {
    root_ = DecodeFixed32(p + 4);
    height_ = DecodeFixed32(p + 8);
    clock_->AdvanceTo(DecodeFixed64(p + 12));
    clock_->Publish(DecodeFixed64(p + 12));  // persisted state is committed
    // Restore the free list persisted after the fixed fields.
    const size_t fixed = 20;
    Slice rest(p + fixed, PageUsableSize(options_.page_size) -
                              kPageHeaderSize - fixed);
    Status s = pager_->DecodeFreeList(rest);
    if (!s.ok()) {
      TSB_LOG_WARN("free list not restored: %s", s.ToString().c_str());
    }
    return Status::OK();
  }
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbData, &h));
  DataPageRef::Format(h.data(), options_.page_size);
  h.MarkDirty();
  root_ = h.id();
  height_ = 1;
  return Status::OK();
}

Status TsbTree::EncodeMeta(uint32_t high_water, std::vector<char>* meta) {
  meta->resize(options_.page_size);
  TSB_RETURN_IF_ERROR(pager_->ReadMeta(meta->data()));
  char* p = meta->data() + kPageHeaderSize;
  EncodeFixed32(p, kMetaMagic);
  EncodeFixed32(p + 4, root_.load(std::memory_order_acquire));
  EncodeFixed32(p + 8, height_.load(std::memory_order_acquire));
  EncodeFixed64(p + 12, clock_->Now());
  const size_t fixed = 20;
  std::string free_list;
  pager_->EncodeFreeList(&free_list,
                         PageUsableSize(options_.page_size) -
                             kPageHeaderSize - fixed - 8);
  memcpy(p + fixed, free_list.data(), free_list.size());
  char* mark = meta->data() + HighWaterOffset(options_.page_size);
  EncodeFixed32(mark, high_water == 0 ? 0 : kHighWaterMagic);
  EncodeFixed32(mark + 4, high_water);
  return Status::OK();
}

Status TsbTree::Flush() {
  // Exclusive writer lock: quiesces every mutator so the meta snapshot
  // and the page flush are mutually consistent.
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  TSB_RETURN_IF_ERROR(hist_->Flush());  // pages may reference staged blobs
  std::vector<char> meta;
  TSB_RETURN_IF_ERROR(EncodeMeta(/*high_water=*/0, &meta));
  TSB_RETURN_IF_ERROR(pager_->WriteMeta(meta.data()));
  return pool_->FlushAll();
}

// ---------------------------------------------------- durability (WAL)

Status TsbTree::BeginCheckpoint(CheckpointScope* scope) {
  // Exclusive writer lock, held until the scope is released: the journal,
  // the fresh writes and the in-place apply must see one tree state.
  scope->quiesce = std::unique_lock<std::shared_mutex>(writer_mu_);
  // Historical blobs referenced by the checkpointed pages must be durable
  // BEFORE the journal commits — recovery re-applies pages verbatim, and
  // a page pointing at a never-synced blob would dangle. Blobs still
  // staged (a write whose history flush failed) are written first.
  TSB_RETURN_IF_ERROR(hist_->Flush());
  TSB_RETURN_IF_ERROR(hist_->device()->Sync());
  const uint32_t high_water = pager_->high_water_pages() + 1;
  TSB_RETURN_IF_ERROR(EncodeMeta(high_water, &scope->meta));
  std::vector<PageHandle> dirty;
  pool_->PinDirty(&dirty);
  scope->fresh.clear();
  scope->journaled.clear();
  for (PageHandle& h : dirty) {
    (h.id() >= durable_high_water_ ? scope->fresh : scope->journaled)
        .push_back(std::move(h));
  }
  // From the journal write on, the new meta may be durable, and it
  // references pages below `high_water`: a later checkpoint must journal
  // them even if this one fails.
  durable_high_water_ = high_water;
  return Status::OK();
}

Status TsbTree::WritePageRuns(std::vector<PageHandle>* pages) {
  // PinDirty hands frames over in hash order; sorted, each run of
  // consecutive ids is one gather write instead of one write per page.
  std::sort(pages->begin(), pages->end(),
            [](const PageHandle& a, const PageHandle& b) {
              return a.id() < b.id();
            });
  std::vector<char*> run;
  for (size_t i = 0; i < pages->size();) {
    const uint32_t first = (*pages)[i].id();
    run.clear();
    for (; i < pages->size() && (*pages)[i].id() == first + run.size(); ++i) {
      run.push_back((*pages)[i].data());
    }
    TSB_RETURN_IF_ERROR(pager_->WriteRun(first, run));
  }
  return Status::OK();
}

Status TsbTree::WriteFreshPages(CheckpointScope* scope) {
  if (scope->fresh.empty()) return Status::OK();
  TSB_RETURN_IF_ERROR(WritePageRuns(&scope->fresh));
  return pager_->device()->Sync();
}

Status TsbTree::FinishCheckpoint(CheckpointScope* scope) {
  TSB_RETURN_IF_ERROR(WritePageRuns(&scope->journaled));
  TSB_RETURN_IF_ERROR(pager_->WriteMeta(scope->meta.data()));
  TSB_RETURN_IF_ERROR(pager_->device()->Sync());
  // Clean only now: a failure anywhere above leaves every frame dirty,
  // so the next checkpoint writes them all again.
  for (const PageHandle& h : scope->fresh) pool_->MarkClean(h);
  for (const PageHandle& h : scope->journaled) pool_->MarkClean(h);
  return Status::OK();
}

Status TsbTree::ReplayCommitted(const Slice& key, const Slice& value,
                                Timestamp ts) {
  WriterGuard wl(this);
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("timestamp out of committed range");
  }
  // No monotone-clock check: the persisted clock already advanced past
  // the timestamps the log re-inserts. Same-(key, ts) inserts replace in
  // place, so replaying an already-applied frame is idempotent.
  const KeyValue kv(key, value);
  TSB_RETURN_IF_ERROR(InsertRecords({&kv, 1}, ts, kNoTxn));
  clock_->AdvanceTo(ts);
  counters_.puts++;
  return Status::OK();
}

Status TsbTree::PurgeUncommitted(uint64_t* purged) {
  *purged = 0;
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  return PurgeRecordsRec(
      root_.load(std::memory_order_acquire),
      [](const DataEntryView& v) { return v.uncommitted(); }, purged);
}

Status TsbTree::PurgeCommittedAt(Timestamp ts, uint64_t* purged) {
  *purged = 0;
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("purge timestamp out of committed range");
  }
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  // A failed commit's timestamp sits above the published watermark, and
  // time splits cap their boundary at that watermark: nothing stamped
  // `ts` can live under a historical child.
  TSB_RETURN_IF_ERROR(PurgeRecordsRec(
      root_.load(std::memory_order_acquire),
      [ts](const DataEntryView& v) { return v.ts == ts; }, purged));
  put_ledger_.Unpoison(ts);
  return Status::OK();
}

Status TsbTree::PurgeRecordsRec(
    uint32_t page_id, const std::function<bool(const DataEntryView&)>& doomed,
    uint64_t* purged) {
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->Fetch(page_id, &h));
  if (TsbPageLevel(h.data()) == 0) {
    DataPageRef page(h.data(), options_.page_size);
    bool removed = false;
    for (int i = page.Count() - 1; i >= 0; --i) {
      DataEntryView v;
      TSB_RETURN_IF_ERROR(page.At(i, &v));
      if (doomed(v)) {
        page.Remove(i);
        ++*purged;
        removed = true;
      }
    }
    if (removed) h.MarkDirty();
    return Status::OK();
  }
  IndexPageRef page(h.data(), options_.page_size);
  std::vector<IndexEntry> entries;
  TSB_RETURN_IF_ERROR(page.DecodeAll(&entries));
  h.Release();
  for (const IndexEntry& e : entries) {
    if (!e.child.historical) {
      TSB_RETURN_IF_ERROR(PurgeRecordsRec(e.child.page_id, doomed, purged));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- descent

// The one descent, by optimistic latch coupling. At most ONE page latch is
// held at any moment: an index page is read under a brief shared latch, its
// routing entry viewed and only the pin (not the latch) carried to the next
// level; after latching the child, the parent's version is revalidated. A
// changed version means the routing entry may be stale, so the descent
// restarts from the root (counters_.olc_restarts). The root is validated
// against root_ after it is latched: any restructure of the old root goes
// through GrowRoot first. A leaf is latched in `mode`; exclusive goes through
// TryUpgrade, falling back to a blocking exclusive fetch. If the parent
// changed while the leaf latch was being acquired, the descent first tries to
// resolve locally: a concurrent key split leaves the shed upper range
// reachable through the leaf's B-link right sibling, so the parent entry is
// re-read and a lateral step (counters_.olc_sidesteps) replaces a full
// restart. The leaf latch is always RELEASED before relatching the parent —
// a splitter holds parent-exclusive while waiting for leaf-exclusive, so
// holding the leaf while waiting on the parent would deadlock.
Status TsbTree::Descend(const Slice& key, Timestamp t, LatchMode mode,
                        PageHandle* leaf, const DescentOut& out) {
  constexpr int kMaxOlcRestarts = 64;
  constexpr int kMaxSideSteps = 4;
  const bool writer = mode == LatchMode::kExclusive;
  if (writer) counters_.writer_descents++;
  for (int restart = 0; restart < kMaxOlcRestarts; ++restart) {
    if (writer && restart > 0) counters_.olc_restarts++;
    if (out.path != nullptr) out.path->clear();
    PageHandle parent;  // pinned, UNLATCHED between levels
    uint64_t parent_ver = 0;
    uint32_t id = root_.load(std::memory_order_acquire);
    for (;;) {
      TSB_RETURN_IF_ERROR(pool_->FetchShared(id, leaf));
      if (!parent.valid()) {
        const uint32_t cur_root = root_.load(std::memory_order_acquire);
        if (cur_root != id) {
          leaf->Release();
          id = cur_root;
          continue;
        }
      } else if (parent.version() != parent_ver) {
        break;  // the routing entry may be stale: restart
      }
      if (TsbPageLevel(leaf->data()) != 0) {
        IndexPageRef page(leaf->data(), options_.page_size);
        const int idx = page.FindContaining(key, t);
        if (idx < 0) {
          if (t != kUncommittedTs) {
            return Status::NotFound("time precedes database");
          }
          break;  // the current axis is always covered, so transient
        }
        // View decode: the walk copies nothing but the POD child ref,
        // and the parent entry only from the level-1 page.
        IndexEntryView e;
        TSB_RETURN_IF_ERROR(page.AtView(idx, &e));
        if (e.child.historical) {
          if (t == kUncommittedTs) {
            return Status::Corruption("current axis routed to historical node");
          }
          assert(out.hist != nullptr);
          *out.hist = e.child.addr;
          leaf->Release();
          return Status::OK();
        }
        if (out.pe != nullptr && page.Level() == 1) e.CopyTo(out.pe);
        if (out.path != nullptr) out.path->push_back(PathElem{id, idx});
        parent_ver = leaf->version();
        leaf->Unlatch();  // the pin survives; eviction stays blocked
        parent = std::move(*leaf);
        id = e.child.page_id;
        continue;
      }
      // Leaf. Upgrading cannot deadlock: no other latch is held.
      if (writer && !leaf->TryUpgrade()) {
        leaf->Release();
        TSB_RETURN_IF_ERROR(pool_->FetchExclusive(id, leaf));
      }
      if (!parent.valid()) {
        // Root leaf: valid iff still the root (a concurrent split moves
        // keys to a sibling reachable only through a new root).
        if (root_.load(std::memory_order_acquire) != id) break;
        if (out.pe != nullptr) {
          *out.pe = IndexEntry();
          out.pe->key_hi_inf = true;
          out.pe->child = NodeRef::Current(id);
        }
      }
      for (int step = 0; parent.valid() && parent.version() != parent_ver;
           ++step) {
        // The parent changed while the leaf latch was being acquired: if
        // its entry for the point now names this leaf's right sibling, the
        // key moved in a concurrent key split — step laterally.
        const uint32_t sibling = PageSibling(leaf->data());
        leaf->Release();  // ALWAYS before relatching the parent (lock order)
        if (step == kMaxSideSteps) break;
        parent.LatchShared();
        IndexPageRef page(parent.data(), options_.page_size);
        const int idx = page.FindContaining(key, t);
        IndexEntryView cand;
        if (idx >= 0) TSB_RETURN_IF_ERROR(page.AtView(idx, &cand));
        const bool local = idx >= 0 && !cand.child.historical &&
                           (cand.child.page_id == id ||
                            cand.child.page_id == sibling);
        if (local) {
          if (out.pe != nullptr) cand.CopyTo(out.pe);
          if (out.path != nullptr) out.path->back().entry_idx = idx;
          if (writer && cand.child.page_id == sibling) {
            counters_.olc_sidesteps++;
          }
          id = cand.child.page_id;
        }
        parent_ver = parent.version();
        parent.Unlatch();
        if (!local) break;  // parent restructured: restart
        TSB_RETURN_IF_ERROR(writer ? pool_->FetchExclusive(id, leaf)
                                   : pool_->FetchShared(id, leaf));
      }
      if (!leaf->valid()) break;
      if (out.parent_id != nullptr) {
        *out.parent_id = parent.valid() ? parent.id() : kInvalidPageId;
      }
      if (out.path != nullptr) out.path->push_back(PathElem{id, -1});
      return Status::OK();
    }
    leaf->Release();
  }
  return Status::Busy("descent did not converge");
}

Status TsbTree::SearchPoint(const Slice& key, Timestamp t, TxnId txn,
                            const BlobReadHints& hints,
                            const PointSink& sink) {
  PageHandle h;
  HistAddr addr;
  TSB_RETURN_IF_ERROR(
      Descend(key, t, LatchMode::kShared, &h, {.hist = &addr}));
  if (!h.valid()) return SearchHistPoint(addr, key, t, hints, sink);
  DataPageRef page(h.data(), options_.page_size);
  const int pos = txn != kNoTxn ? page.FindUncommitted(key, txn)
                                : page.FindVersion(key, t);
  if (pos < 0) return Status::NotFound("no version at time");
  DataEntryView v;
  TSB_RETURN_IF_ERROR(page.At(pos, &v));
  // Current pages are mutable: the value must leave the page before the
  // latch drops. A pinned sink copies into its reused buffer (no
  // allocation once the capacity is warm), never into a pin.
  if (sink.pinned != nullptr) {
    sink.pinned->SetCopied(v.value, v.ts);
  } else {
    sink.value->assign(v.value.data(), v.value.size());
  }
  if (sink.ts != nullptr) *sink.ts = v.ts;
  return Status::OK();
}

Status TsbTree::SearchHistPoint(HistAddr addr, const Slice& key, Timestamp t,
                                const BlobReadHints& hints,
                                const PointSink& sink) {
  // Zero-copy descent through the shared dispatch: every visited node
  // stays a pinned blob; data nodes are binary-searched through the slot
  // (or restart) directory, index nodes binary-search key_lo. On the
  // cache-hit path no per-entry heap allocation happens — and with a
  // pinned sink not even a value copy: the blob pin moves into the
  // PinnableValue and the value stays a view.
  for (;;) {
    bool done = false;
    HistAddr next_addr{};
    TSB_RETURN_IF_ERROR(DispatchHistNode(
        hist_.get(), &hist_decodes_, addr,
        [&](BlobHandle& blob, HistDataNodeRef& node) -> Status {
          int pos = -1;
          TSB_RETURN_IF_ERROR(node.FindVersion(key, t, &pos));
          if (pos < 0) return Status::NotFound("no version at time");
          DataEntryView v;
          if (sink.pinned != nullptr) {
            // Decode into the sink's own scratch so the view outlives
            // this dispatch (delta cells reassemble there; restart
            // cells stay views into the pinned blob).
            TSB_RETURN_IF_ERROR(node.At(pos, &v, sink.pinned->scratch()));
            if (sink.ts != nullptr) *sink.ts = v.ts;
            sink.pinned->SetPinned(std::move(blob), v.value, v.ts);
          } else {
            TSB_RETURN_IF_ERROR(node.At(pos, &v));
            sink.value->assign(v.value.data(), v.value.size());
            if (sink.ts != nullptr) *sink.ts = v.ts;
          }
          done = true;
          return Status::OK();
        },
        [&](BlobHandle&, HistIndexNodeRef& node) -> Status {
          int pos = -1;
          TSB_RETURN_IF_ERROR(node.FindContaining(key, t, &pos));
          if (pos < 0) return Status::NotFound("time precedes database");
          IndexEntryView next;
          TSB_RETURN_IF_ERROR(node.AtView(pos, &next));
          if (!next.child.historical) {
            return Status::Corruption(
                "historical index references current node");
          }
          next_addr = next.child.addr;
          return Status::OK();
        },
        hints));
    if (done) return Status::OK();
    addr = next_addr;
  }
}

// ---------------------------------------------------------------- reads

Status TsbTree::Get(const ReadOptions& options, const Slice& key,
                    std::string* value, Timestamp* ts) {
  const Timestamp t = ResolveAsOf(options.as_of);
  if (t > kMaxCommittedTs) {
    return Status::InvalidArgument("as-of time out of range");
  }
  PointSink sink;
  sink.value = value;
  sink.ts = ts;
  return SearchPoint(key, t, kNoTxn, MakeBlobReadHints(options), sink);
}

Status TsbTree::Get(const ReadOptions& options, const Slice& key,
                    PinnableValue* value) {
  // Clear the slot up front: a failed lookup must not leave the PREVIOUS
  // result readable through it — nor keep that result's blob (and,
  // transitively, a whole file mapping) pinned.
  value->Reset();
  const Timestamp t = ResolveAsOf(options.as_of);
  if (t > kMaxCommittedTs) {
    return Status::InvalidArgument("as-of time out of range");
  }
  PointSink sink;
  sink.pinned = value;
  return SearchPoint(key, t, kNoTxn, MakeBlobReadHints(options), sink);
}

Status TsbTree::GetUncommitted(const Slice& key, TxnId txn,
                               std::string* value) {
  if (txn == kNoTxn) return Status::InvalidArgument("txn id required");
  PointSink sink;
  sink.value = value;
  return SearchPoint(key, kUncommittedTs, txn, BlobReadHints(), sink);
}

// ---------------------------------------------------------------- writes

Status TsbTree::Put(const Slice& key, const Slice& value, Timestamp ts) {
  TSB_RETURN_IF_ERROR(PutUnpublished(key, value, ts));
  // A direct Put is a complete single-record commit: publish immediately.
  put_ledger_.EndCommit(ts);
  return Status::OK();
}

Status TsbTree::PutUnpublished(const Slice& key, const Slice& value,
                               Timestamp ts) {
  WriterGuard wl(this);
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("timestamp out of committed range");
  }
  if (ts < clock_->Now()) {
    return Status::InvalidArgument("timestamps must be non-decreasing");
  }
  const KeyValue kv(key, value);
  const Status s = InsertRecords({&kv, 1}, ts, kNoTxn);
  // Advanced even on failure: a failed history flush leaves the version
  // inserted, and no later Put may slip a version beneath it.
  clock_->AdvanceTo(ts);
  if (!s.ok()) {
    // InvalidArgument is raised before any page changes. Any other
    // failure may have left the version in place: readers must never see
    // it, and time splits (capped at the watermark) must never move it
    // out of PurgeCommittedAt's reach.
    if (!s.IsInvalidArgument()) put_ledger_.PoisonCommit(ts);
    return s;
  }
  counters_.puts++;
  return Status::OK();
}

Status TsbTree::PutUncommittedBatch(std::span<const KeyValue> kvs,
                                    TxnId txn) {
  WriterGuard wl(this);
  if (txn == kNoTxn) return Status::InvalidArgument("txn id required");
  TSB_RETURN_IF_ERROR(InsertRecords(kvs, kUncommittedTs, txn));
  counters_.uncommitted_puts += kvs.size();
  return Status::OK();
}

Status TsbTree::PutUncommitted(const Slice& key, const Slice& value,
                               TxnId txn) {
  const KeyValue kv(key, value);
  return PutUncommittedBatch({&kv, 1}, txn);
}

Status TsbTree::InsertRecords(std::span<const KeyValue> kvs, Timestamp ts,
                              TxnId txn) {
  const Status s = InsertStaged(kvs, ts, txn);
  // One history write for every node this call's splits staged.
  const Status flushed = hist_->Flush();
  return s.ok() ? flushed : s;
}

Status TsbTree::InsertStaged(std::span<const KeyValue> kvs, Timestamp ts,
                             TxnId txn) {
  const bool uncommitted = ts == kUncommittedTs;
  // Reject a record that can never fit before touching any page, so the
  // call fails with nothing inserted.
  const uint32_t capacity = PageUsableSize(options_.page_size) - kTsbSlotBase;
  for (const auto& [key, value] : kvs) {
    if (DataCellSize(key, txn, value) + kCellOverhead > capacity / 3) {
      return Status::InvalidArgument("record too large for page size");
    }
  }
  std::string cell;
  size_t i = 0;
  int splits = 0;       // splits made for kvs[i] without it fitting yet
  bool waited = false;  // the watermark wait below already ran for kvs[i]
  while (i < kvs.size()) {
    assert(i == 0 || kvs[i - 1].first < kvs[i].first);  // sorted + distinct
    PageHandle h;
    IndexEntry pe;
    uint32_t parent_id = kInvalidPageId;
    TSB_RETURN_IF_ERROR(Descend(kvs[i].first, kUncommittedTs,
                                LatchMode::kExclusive, &h,
                                {.pe = &pe, .parent_id = &parent_id}));
    if (uncommitted) counters_.put_descents++;
    // Region lower time bound: committed inserts must not predate it.
    if (!uncommitted && ts < pe.t_lo) {
      return Status::InvalidArgument(
          "timestamp predates the node's time-split boundary");
    }
    DataPageRef page(h.data(), options_.page_size);
    // One descent inserts this key and every following key whose point
    // falls inside the same leaf's key region, while the leaf has room.
    const size_t first = i;
    bool full = false;
    int hint = -1;  // a run's later keys search forward from the last slot
    do {
      cell.clear();
      EncodeDataCell(&cell, kvs[i].first, ts, txn, kvs[i].second);
      if (!page.Put(kvs[i].first, ts, txn, cell, &hint)) {
        full = true;
        break;
      }
      ++i;
    } while (i < kvs.size() && pe.ContainsKey(kvs[i].first));
    if (i > first) {
      h.MarkDirty();
      splits = 0;
      waited = false;
    }
    if (!full) continue;
    if (++splits > kMaxInsertRetries) {
      return Status::Corruption("insert did not converge after splits");
    }
    // The split takes over the leaf this descent latched: no descent of
    // its own. The insert of kvs[i] re-descends afterwards. When the next
    // key lands in the same leaf, kvs[i] may start a sorted run, and the
    // split may cut at it instead of at the byte midpoint.
    const Slice* next = i + 1 < kvs.size() && pe.ContainsKey(kvs[i + 1].first)
                            ? &kvs[i + 1].first
                            : nullptr;
    const Timestamp visible = clock_->Visible();
    Status split =
        SplitForInsert(std::move(h), pe, parent_id, kvs[i].first, next);
    const Timestamp target = clock_->Now();
    if (split.IsOutOfSpace() && visible < target && !waited) {
      // The page looks wedged only because the time-split boundary is
      // capped at the PUBLISHED watermark and in-flight commits were
      // holding it back when the split read it (they may have published
      // since, so compare against the watermark from before the split).
      // Those commits finish without our help (we hold no latch here and
      // only a shared writer lock), so yield until the watermark covers
      // every commit ticked so far, then retry the insert and its split
      // once. The target is fixed: under steady commit traffic Now()
      // keeps moving and the watermark never catches it.
      const auto deadline =
          std::chrono::steady_clock::now() + kMaxWatermarkWait;
      while (clock_->Visible() < target &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      waited = true;
      continue;
    }
    TSB_RETURN_IF_ERROR(split);
  }
  return Status::OK();
}

Status TsbTree::StampCommittedBatch(std::span<const KeyValue> kvs, TxnId txn,
                                    Timestamp ts) {
  WriterGuard wl(this);
  if (ts == kMinTimestamp || ts > kMaxCommittedTs) {
    return Status::InvalidArgument("timestamp out of committed range");
  }
  size_t i = 0;
  while (i < kvs.size()) {
    assert(i == 0 || kvs[i - 1].first < kvs[i].first);  // sorted + distinct
    PageHandle h;
    IndexEntry pe;
    TSB_RETURN_IF_ERROR(Descend(kvs[i].first, kUncommittedTs,
                                LatchMode::kExclusive, &h, {.pe = &pe}));
    // Defense in depth: stamping below the region's time-split boundary
    // would make the version unreachable for as-of reads (the region
    // [t_lo, inf) no longer covers it). Commits can never legally hit this
    // — splits cap the boundary at the published watermark, which trails
    // every in-flight commit — so treat it as corruption, not data loss.
    // Every key stamped below shares this leaf's region.
    if (ts < pe.t_lo) {
      return Status::Corruption(
          "commit timestamp predates the node's time-split boundary");
    }
    // Dirty (and version-bump) the leaf BEFORE mutating it: an error
    // return mid-leaf must leave the already-applied stamps flagged for
    // write-back (the caller poisons the watermark, so they stay
    // invisible either way). A spurious mark when the very first lookup
    // fails costs one rewrite.
    h.MarkDirty();
    DataPageRef page(h.data(), options_.page_size);
    // One descent stamps this key and every following key whose point
    // falls inside the same leaf's key region, each searched forward from
    // the slot after the previous one.
    int hint = -1;
    do {
      const int pos = page.FindUncommitted(kvs[i].first, txn, &hint);
      if (pos < 0) return Status::NotFound("no uncommitted version for txn");
      TSB_RETURN_IF_ERROR(page.StampAt(pos, ts));
      counters_.stamps++;
      ++i;
    } while (i < kvs.size() && pe.ContainsKey(kvs[i].first));
    counters_.stamp_descents++;
  }
  clock_->AdvanceTo(ts);
  return Status::OK();
}

Status TsbTree::StampCommitted(const Slice& key, TxnId txn, Timestamp ts) {
  const KeyValue kv(key, Slice());
  return StampCommittedBatch({&kv, 1}, txn, ts);
}

Status TsbTree::EraseUncommitted(const Slice& key, TxnId txn) {
  WriterGuard wl(this);
  PageHandle h;
  IndexEntry pe;
  TSB_RETURN_IF_ERROR(
      Descend(key, kUncommittedTs, LatchMode::kExclusive, &h, {.pe = &pe}));
  DataPageRef page(h.data(), options_.page_size);
  const int pos = page.FindUncommitted(key, txn);
  if (pos < 0) return Status::NotFound("no uncommitted version for txn");
  page.Remove(pos);
  h.MarkDirty();
  counters_.erases++;
  return Status::OK();
}

// ---------------------------------------------------------------- splits

Status TsbTree::ParentEntryFor(const std::vector<PathElem>& path, size_t idx,
                               IndexEntry* entry, int* pos_in_parent) {
  if (idx == 0) {
    entry->key_lo.clear();
    entry->key_hi_inf = true;
    entry->t_lo = kMinTimestamp;
    entry->t_hi = kInfiniteTs;
    entry->child = NodeRef::Current(path[0].page_id);
    *pos_in_parent = -1;
    return Status::OK();
  }
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->FetchShared(path[idx - 1].page_id, &h));
  IndexPageRef parent(h.data(), options_.page_size);
  const int pos = path[idx - 1].entry_idx;
  if (pos < 0 || pos >= parent.Count()) {
    return Status::Corruption("stale parent entry index");
  }
  TSB_RETURN_IF_ERROR(parent.At(pos, entry));
  if (entry->child.historical ||
      entry->child.page_id != path[idx].page_id) {
    return Status::Corruption("parent entry does not reference child");
  }
  *pos_in_parent = pos;
  return Status::OK();
}

void TsbTree::PartitionByTime(std::span<const DataEntryView> all, Timestamp t,
                              std::vector<DataEntryView>* hist,
                              std::vector<DataEntryView>* current,
                              size_t* redundant) {
  hist->clear();
  current->clear();
  *redundant = 0;
  size_t i = 0;
  while (i < all.size()) {
    // One key's run [i, j): committed versions ts-ascending, then the
    // uncommitted ones.
    size_t j = i;
    size_t latest_lt = all.size();  // largest committed ts < t
    bool has_exact = false;         // committed version with ts == t
    for (; j < all.size() && all[j].key == all[i].key; ++j) {
      if (all[j].uncommitted()) continue;
      if (all[j].ts < t) {
        latest_lt = j;
      } else if (all[j].ts == t) {
        has_exact = true;
      }
    }
    // Rule 3: the version valid at the split time must be in the new node
    // (a version stamped exactly t already is, by rule 2).
    const size_t retained = has_exact ? all.size() : latest_lt;
    for (size_t k = i; k < j; ++k) {
      const DataEntryView& e = all[k];
      if (!e.uncommitted() && e.ts < t) {
        hist->push_back(e);  // rule 1
        if (k == retained) {
          current->push_back(e);
          (*redundant)++;
        }
      } else {
        // Rule 2; uncommitted versions are never migrated (section 4).
        current->push_back(e);
      }
    }
    i = j;
  }
}

// A data split planned outside every latch from a private copy of the
// leaf. Both kinds install the same way: the leaf keeps `keep` under the
// rewritten entry `leaf_e`, and `new_e` is inserted beside it, pointing at
// the appended historical node (time split) or at the new right sibling
// holding `right` (key split). `keep` and `right` view the leaf copy.
struct TsbTree::DataSplitPlan {
  bool time_split = false;
  /// Free parent bytes the insert of `new_e` needs.
  uint32_t need = 0;
  IndexEntry leaf_e;
  IndexEntry new_e;  ///< child filled in at install
  std::span<const DataEntryView> keep;
  // Time split: the serialized historical node. It and the TIME-SPLIT
  // RULE survivors `keep` views live in PlanDataSplit's per-thread
  // buffers, which the thread's next split reuses.
  const std::string* blob = nullptr;
  uint64_t raw_bytes = 0;
  size_t migrated = 0;
  size_t redundant = 0;
  // Key split: the right sibling's records (empty when a run split cuts
  // past the leaf's last key).
  bool run_split = false;
  std::span<const DataEntryView> right;
};

Status TsbTree::PlanDataSplit(std::span<const DataEntryView> entries,
                              const IndexEntry& pe, const Slice& key,
                              const Slice* next, DataSplitPlan* plan) {
  const DataNodeStats stats = ComputeDataNodeStats(entries);
  const uint32_t capacity =
      options_.page_size - kTsbSlotBase - kPageTrailerSize;
  // Every commit not yet published stamps above this watermark. A record
  // still uncommitted in `entries` cannot have been stamped at or below it
  // by install time either: its stamp would move the leaf's version and
  // the install would retry.
  const Timestamp visible = clock_->Visible();
  const Timestamp pending = visible + 1;
  if (policy_.DecideDataSplit(stats, capacity) == SplitKind::kTimeSplit) {
    // The split time is capped at the PUBLISHED watermark, not the raw
    // clock: Now() may already exceed an in-flight commit's timestamp,
    // and a boundary above it would later make that commit's stamp land
    // below t_lo (unreachable for as-of reads).
    const Timestamp split_t =
        policy_.ChooseSplitTime(entries, pe.t_lo, visible);
    thread_local std::vector<DataEntryView> hist_set;
    thread_local std::vector<DataEntryView> current;
    thread_local std::string blob;
    PartitionByTime(entries, split_t, &hist_set, &current, &plan->redundant);
    // Progress = the current page sheds entries.
    if (!hist_set.empty() && current.size() < entries.size()) {
      plan->time_split = true;
      plan->keep = current;
      // Parent: the child's region now starts at split_t; the prefix of
      // its old region points at the migrated node. Retained-alive
      // records can predate split_t; with nothing committed, split_t is
      // sound — the watermark cap keeps every in-flight stamp above it.
      plan->leaf_e = pe;
      plan->leaf_e.t_lo = split_t;
      plan->leaf_e.min_ts = DataContentFloor(plan->keep, split_t, pending);
      plan->new_e = pe;
      plan->new_e.t_hi = split_t;
      plan->new_e.min_ts = DataContentFloor(hist_set, pe.min_ts, pending);
      plan->need = static_cast<uint32_t>(IndexEntrySizeBound(plan->new_e)) +
                   kCellOverhead;
      // Consolidate into one node (section 3.1). The restart interval is
      // chosen per node from its key shape.
      size_t distinct = 0, key_bytes = 0;
      DataNodeShape(hist_set, &distinct, &key_bytes);
      const uint32_t interval = SplitPolicy::ChooseRestartInterval(
          hist_set.size(), distinct, key_bytes);
      SerializeHistDataNode(hist_set, &blob, &plan->raw_bytes, interval);
      plan->blob = &blob;
      plan->migrated = hist_set.size();
      return Status::OK();
    }
    // No migratable history: fall through to a key split if possible.
    if (stats.distinct_keys < 2) {
      return Status::OutOfSpace("versions of a single key overflow the page");
    }
  }

  // ---- key split (B+-tree style, erasable medium; Fig 5) ----
  if (stats.distinct_keys < 2) {
    return Status::OutOfSpace("cannot key-split a single-key node");
  }
  size_t total_bytes = 0;
  for (const DataEntryView& e : entries) total_bytes += e.EncodedSize();
  size_t split_at = 0;  // first index of the right node
  Slice split_key;
  if (next != nullptr) {
    // Run split: `key` is new to the leaf and `next` follows it here, so a
    // sorted run is being inserted. Cut where the run goes in, not at the
    // byte midpoint, so the run fills the node it lands in: the left node
    // keeps everything below `key` (at least half the bytes), and the
    // entries above the run, if any, move right once. Past the leaf's last
    // key the right node starts empty and takes the run.
    const size_t at = static_cast<size_t>(
        std::partition_point(entries.begin(), entries.end(),
                             [&](const DataEntryView& e) { return e.key < key; }) -
        entries.begin());
    size_t below = 0;
    for (size_t i = 0; i < at; ++i) below += entries[i].EncodedSize();
    if (below * 2 >= total_bytes &&
        (at == entries.size() ||
         (key < entries[at].key && *next < entries[at].key))) {
      split_at = at;
      split_key = at == entries.size() ? key : entries[at].key;
      plan->run_split = true;
    }
  }
  if (!plan->run_split) {
    // Choose a distinct-key boundary near the byte midpoint.
    size_t acc = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      acc += entries[i].EncodedSize();
      if (acc * 2 >= total_bytes) {
        // Advance to the next key boundary.
        size_t j = i + 1;
        while (j < entries.size() && entries[j].key == entries[i].key) ++j;
        split_at = j;
        break;
      }
    }
    if (split_at == 0 || split_at >= entries.size()) {
      // Degenerate byte distribution: put the last key run on the right.
      size_t j = entries.size() - 1;
      while (j > 0 && entries[j - 1].key == entries.back().key) --j;
      split_at = j;
    }
    if (split_at == 0 || split_at >= entries.size()) {
      return Status::OutOfSpace("no key boundary available for split");
    }
    split_key = entries[split_at].key;
  }
  plan->time_split = false;
  plan->keep = entries.first(split_at);
  plan->right = entries.subspan(split_at);
  plan->leaf_e = pe;
  plan->leaf_e.key_hi.assign(split_key.data(), split_key.size());
  plan->leaf_e.key_hi_inf = false;
  plan->leaf_e.min_ts = DataContentFloor(plan->keep, pe.min_ts, pending);
  // The new entry inherits the predecessor's timestamp (Fig 5): t_lo
  // stays pe.t_lo. The rectangle keeps the predecessor's loose time
  // floor, but the content floor is tight: old-snapshot readers skip
  // siblings whose records are all younger than their as-of time.
  plan->new_e = pe;
  plan->new_e.key_lo.assign(split_key.data(), split_key.size());
  plan->new_e.min_ts = DataContentFloor(plan->right, pe.min_ts, pending);
  plan->need = static_cast<uint32_t>(IndexEntrySizeBound(plan->new_e)) +
               kCellOverhead;
  return Status::OK();
}

Status TsbTree::SplitForInsert(PageHandle leaf, const IndexEntry& pe,
                               uint32_t parent_id, const Slice& key,
                               const Slice* next) {
  if (parent_id == kInvalidPageId) {
    // The root is still a data page: grow first, split on the retry.
    leaf.Release();
    return GrowIndexFor(key, 0);
  }
  // Copy the leaf once and drop its latch, keeping the pin: the plan's
  // views point into the copy, the frame is not evicted and reloaded,
  // and the version baseline stays comparable. The copy and its decoded
  // views live in per-thread buffers a split never outlives, so a
  // split allocates nothing for them once the thread has split before.
  thread_local std::vector<char> snapshot;
  thread_local std::vector<DataEntryView> entries;
  snapshot.resize(options_.page_size);
  memcpy(snapshot.data(), leaf.data(), options_.page_size);
  const uint64_t leaf_ver = leaf.version();
  leaf.Unlatch();
  TSB_RETURN_IF_ERROR(
      DataPageRef(snapshot.data(), options_.page_size).DecodeViews(&entries));
  DataSplitPlan plan;
  TSB_RETURN_IF_ERROR(PlanDataSplit(entries, pe, key, next, &plan));

  // Install under the parent and leaf exclusive latches, taken top-down,
  // marking both dirty: a descent that latched the leaf before this
  // install sees the parent's version move and re-reads its entry. Every
  // check comes before the first write, so a retry leaves nothing behind.
  PageHandle parent_h;
  TSB_RETURN_IF_ERROR(pool_->FetchExclusive(parent_id, &parent_h));
  IndexPageRef parent(parent_h.data(), options_.page_size);
  // The entry whose region holds the leaf's must be the leaf's own; any
  // other answer means an index split moved it to a new sibling of the
  // parent, and the insert retries.
  const int pe_pos = parent.FindContaining(pe.key_lo, pe.t_lo);
  if (pe_pos < 0) return Status::OK();
  {
    IndexEntryView e;
    TSB_RETURN_IF_ERROR(parent.AtView(pe_pos, &e));
    if (e.child.historical || e.child.page_id != leaf.id()) {
      return Status::OK();
    }
  }
  if (parent.FreeBytes() < plan.need) {
    parent_h.Release();
    leaf.Release();
    return GrowIndexFor(key, plan.need);
  }
  leaf.LatchExclusive();
  // A writer mutated the leaf after the decode: installing the stale plan
  // would lose its write. An unchanged version also proves the parent
  // entry still equals `pe` (only a split of this leaf rewrites it).
  if (leaf.version() != leaf_ver) return Status::OK();
  DataPageRef page(leaf.data(), options_.page_size);
  if (plan.time_split) {
    HistAddr addr;
    TSB_RETURN_IF_ERROR(AppendHistNode(*plan.blob, plan.raw_bytes, &addr));
    plan.new_e.child = NodeRef::Historical(addr);
    // The leaf keeps only the TIME-SPLIT RULE survivors.
    TSB_RETURN_IF_ERROR(page.Load(plan.keep));
  } else {
    // The right sibling is private until the parent publishes it.
    PageHandle right_h;
    TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbData, &right_h));
    DataPageRef::Format(right_h.data(), options_.page_size);
    DataPageRef rp(right_h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(rp.Load(plan.right));
    // B-link chain: the sibling inherits the leaf's old right link, then
    // the leaf links to the sibling — both set before the parent entry
    // makes the sibling reachable, so a concurrent OLC descent that finds
    // its routing stale can step laterally instead of restarting.
    SetPageSibling(right_h.data(), PageSibling(leaf.data()));
    right_h.MarkDirty();
    TSB_RETURN_IF_ERROR(page.Load(plan.keep));
    SetPageSibling(leaf.data(), right_h.id());
    plan.new_e.child = NodeRef::Current(right_h.id());
  }
  leaf.MarkDirty();
  if (!parent.Replace(pe_pos, plan.leaf_e)) {
    return Status::Corruption("parent entry replace failed");
  }
  if (!parent.Insert(plan.new_e)) {
    return Status::Corruption("parent lost reserved space");
  }
  parent_h.MarkDirty();
  if (plan.time_split) {
    counters_.data_time_splits++;
    counters_.hist_data_nodes++;
    counters_.records_migrated += plan.migrated;
    counters_.redundant_record_copies += plan.redundant;
  } else {
    counters_.data_key_splits++;
    if (plan.run_split) counters_.data_run_splits++;
  }
  return Status::OK();
}

Status TsbTree::GrowIndexFor(const Slice& key, uint32_t need) {
  std::lock_guard<std::mutex> sl(structure_mu_);
  counters_.structure_locks++;
  std::vector<PathElem> path;
  {
    PageHandle leaf;
    TSB_RETURN_IF_ERROR(Descend(key, kUncommittedTs, LatchMode::kShared,
                                &leaf, {.path = &path}));
  }
  if (path.size() == 1) return GrowRoot();
  bool changed = false;
  return EnsureIndexRoom(path, path.size() - 2, need, &changed);
}

Status TsbTree::GrowRoot() {
  // The new root is fully built before root_ publishes it; readers that
  // loaded the old root id keep descending a still-valid subtree.
  PageHandle h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbIndex, &h));
  IndexPageRef::Format(h.data(), options_.page_size,
                       static_cast<uint8_t>(height_.load()));
  IndexPageRef page(h.data(), options_.page_size);
  IndexEntry e;
  e.key_lo.clear();
  e.key_hi_inf = true;
  e.t_lo = kMinTimestamp;
  e.t_hi = kInfiniteTs;
  e.child = NodeRef::Current(root_.load(std::memory_order_acquire));
  if (!page.Insert(e)) {
    return Status::Corruption("fresh root cannot hold one entry");
  }
  h.MarkDirty();
  root_.store(h.id(), std::memory_order_release);
  height_.fetch_add(1, std::memory_order_acq_rel);
  counters_.root_grows++;
  return Status::OK();
}

Status TsbTree::EnsureIndexRoom(const std::vector<PathElem>& path, size_t idx,
                                uint32_t need, bool* changed) {
  {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchShared(path[idx].page_id, &h));
    IndexPageRef page(h.data(), options_.page_size);
    if (page.FreeBytes() >= need) return Status::OK();
  }
  *changed = true;
  if (idx == 0) {
    // Full root: give it a parent; the retry path will then split it.
    return GrowRoot();
  }
  return SplitIndexPage(path, idx);
}

Status TsbTree::SplitIndexPage(const std::vector<PathElem>& path, size_t idx) {
  if (idx == 0) {
    return GrowRoot();
  }
  IndexEntry pe;
  int pe_pos;
  TSB_RETURN_IF_ERROR(ParentEntryFor(path, idx, &pe, &pe_pos));

  // A level-1 page still takes data-split installs while this runs: the
  // rewrite below installs only if the page's version still matches.
  std::vector<IndexEntry> entries;
  uint8_t level = 0;
  uint64_t ver = 0;
  {
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchShared(path[idx].page_id, &h));
    IndexPageRef page(h.data(), options_.page_size);
    level = page.Level();
    TSB_RETURN_IF_ERROR(page.DecodeAll(&entries));
    ver = h.version();
  }

  // ---- try a local time split (Figs 8-9): find the time before which all
  // references are historical. Entries referencing current children pin
  // the split time at their minimal t_lo.
  Timestamp split_t = kInfiniteTs;
  for (const IndexEntry& e : entries) {
    if (e.current_child()) split_t = std::min(split_t, e.t_lo);
  }
  std::vector<const IndexEntry*> hist_set, straddlers;
  size_t hist_bytes = 0, used_bytes = 0;
  for (const IndexEntry& e : entries) {
    used_bytes += e.EncodedSize();
    if (e.t_hi <= split_t) {
      hist_set.push_back(&e);
      hist_bytes += e.EncodedSize();
    } else if (e.t_lo < split_t) {
      straddlers.push_back(&e);  // guaranteed historical (t_hi finite > T)
    }
  }
  const bool time_split_useful =
      split_t > pe.t_lo && split_t != kInfiniteTs && !hist_set.empty() &&
      hist_bytes * 4 >= used_bytes;  // gain check: migrate >= 25% of bytes

  if (time_split_useful) {
    return TimeSplitIndexPage(path, idx, pe, pe_pos, level, entries, ver,
                              split_t);
  }

  // ---- keyspace split (section 3.5 rule). The split value must be a key
  // value actually used in an index entry AND strictly inside the node's
  // own key region: straddler entries carry key_lo values at or below the
  // region's lower bound, which would produce an empty sibling.
  std::vector<std::string> key_los;
  for (const IndexEntry& e : entries) {
    if (Slice(e.key_lo) <= Slice(pe.key_lo)) continue;
    if (!pe.key_hi_inf && Slice(e.key_lo) >= Slice(pe.key_hi)) continue;
    key_los.push_back(e.key_lo);
  }
  std::sort(key_los.begin(), key_los.end());
  key_los.erase(std::unique(key_los.begin(), key_los.end()), key_los.end());
  if (key_los.empty()) {
    // No key boundary: force a time split if one is at all possible (the
    // gain check above was advisory), else the node cannot shed anything.
    if (split_t > pe.t_lo && split_t != kInfiniteTs && !hist_set.empty()) {
      return TimeSplitIndexPage(path, idx, pe, pe_pos, level, entries, ver,
                                split_t);
    }
    return Status::OutOfSpace("index node has no key boundary to split at");
  }
  const std::string split_key = key_los[key_los.size() / 2];

  IndexEntry ne = pe;
  ne.key_lo = split_key;
  const uint32_t need =
      static_cast<uint32_t>(IndexEntrySizeBound(ne)) + kCellOverhead;
  bool changed = false;
  TSB_RETURN_IF_ERROR(EnsureIndexRoom(path, idx - 1, need, &changed));
  if (changed) return Status::OK();

  std::vector<IndexEntry> left, right;
  size_t dupes = 0;
  for (const IndexEntry& e : entries) {
    const bool hi_le = !e.key_hi_inf && Slice(e.key_hi) <= Slice(split_key);
    const bool lo_ge = Slice(e.key_lo) >= Slice(split_key);
    if (hi_le) {
      left.push_back(e);  // rule 2
    } else if (lo_ge) {
      right.push_back(e);  // rule 3
    } else {
      // Rule 4: the key range strictly contains the split value; such
      // references are guaranteed historical and are copied to BOTH nodes.
      if (!e.child.historical) {
        return Status::Corruption(
            "straddling index entry references a current node");
      }
      left.push_back(e);
      right.push_back(e);
      dupes++;
    }
  }
  if (left.empty() || right.empty()) {
    return Status::OutOfSpace("index keyspace split produced an empty side");
  }

  // The right sibling is private until the parent publishes it: no latch.
  PageHandle right_h;
  TSB_RETURN_IF_ERROR(pool_->New(PageType::kTsbIndex, &right_h));
  IndexPageRef::Format(right_h.data(), options_.page_size, level);
  {
    IndexPageRef rp(right_h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(rp.Load(right));
    right_h.MarkDirty();
  }
  // Shrink the node and publish the sibling under both exclusive latches.
  {
    PageHandle parent_h;
    TSB_RETURN_IF_ERROR(
        pool_->FetchExclusive(path[idx - 1].page_id, &parent_h));
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchExclusive(path[idx].page_id, &h));
    if (h.version() != ver) {
      // A data split rewrote the page after the decode: drop the
      // unpublished sibling; the caller retries from a fresh descent.
      h.Release();
      parent_h.Release();
      const uint32_t right_id = right_h.id();
      right_h.Release();
      return pool_->Drop(right_id);
    }
    // Keep the B-link chain at the index level too (uniform invariant;
    // only leaf links are consulted by the OLC side-step today).
    SetPageSibling(right_h.data(), PageSibling(h.data()));
    IndexPageRef page(h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(page.Load(left));
    SetPageSibling(h.data(), right_h.id());
    h.MarkDirty();
    IndexPageRef parent(parent_h.data(), options_.page_size);
    IndexEntry left_e = pe;
    left_e.key_hi = split_key;
    left_e.key_hi_inf = false;
    left_e.min_ts = IndexContentFloor(left);
    if (!parent.Replace(pe_pos, left_e)) {
      return Status::Corruption("index key split: parent replace failed");
    }
    IndexEntry right_e = pe;  // rule 1: a copy of the time used for the
    right_e.key_lo = split_key;  // previous reference is posted
    right_e.child = NodeRef::Current(right_h.id());
    right_e.min_ts = IndexContentFloor(right);
    if (!parent.Insert(right_e)) {
      return Status::Corruption("index key split: parent lost space");
    }
    parent_h.MarkDirty();
  }
  counters_.index_key_splits++;
  counters_.redundant_index_copies += dupes;
  return Status::OK();
}


Status TsbTree::TimeSplitIndexPage(const std::vector<PathElem>& path,
                                   size_t idx, const IndexEntry& pe,
                                   int pe_pos, uint8_t level,
                                   const std::vector<IndexEntry>& entries,
                                   uint64_t ver, Timestamp split_t) {
  IndexEntry he = pe;
  he.t_hi = split_t;
  const uint32_t need =
      static_cast<uint32_t>(IndexEntrySizeBound(he)) + kCellOverhead;
  bool changed = false;
  TSB_RETURN_IF_ERROR(EnsureIndexRoom(path, idx - 1, need, &changed));
  if (changed) return Status::OK();  // structure moved; caller retries

  std::vector<IndexEntry> hist_entries;
  size_t straddler_count = 0;
  for (const IndexEntry& e : entries) {
    if (e.t_hi <= split_t) {
      hist_entries.push_back(e);
    } else if (e.t_lo < split_t) {
      hist_entries.push_back(e);  // straddler: copied to BOTH nodes
      straddler_count++;
    }
  }
  std::sort(hist_entries.begin(), hist_entries.end());
  he.min_ts = IndexContentFloor(hist_entries);
  size_t distinct = 0, key_bytes = 0;
  IndexNodeShape(hist_entries, &distinct, &key_bytes);
  const uint32_t interval = SplitPolicy::ChooseRestartInterval(
      hist_entries.size(), distinct, key_bytes);
  std::string blob;
  uint64_t raw_bytes = 0;
  SerializeHistIndexNode(level, hist_entries, &blob, &raw_bytes, interval);

  std::vector<IndexEntry> keep;
  for (const IndexEntry& e : entries) {
    if (e.t_hi > split_t) keep.push_back(e);
  }
  // Rewrite the node and repoint the parent under both exclusive latches,
  // taken top-down and both marked dirty, so every descent revalidates.
  // The node is appended only once the page's version proves the decode
  // current, so a retry leaves no unreferenced blob behind.
  {
    PageHandle parent_h;
    TSB_RETURN_IF_ERROR(
        pool_->FetchExclusive(path[idx - 1].page_id, &parent_h));
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchExclusive(path[idx].page_id, &h));
    if (h.version() != ver) return Status::OK();  // caller retries
    HistAddr addr;
    TSB_RETURN_IF_ERROR(AppendHistNode(blob, raw_bytes, &addr));
    IndexPageRef page(h.data(), options_.page_size);
    TSB_RETURN_IF_ERROR(page.Load(keep));
    h.MarkDirty();
    IndexPageRef parent(parent_h.data(), options_.page_size);
    IndexEntry cur_e = pe;
    cur_e.t_lo = split_t;
    cur_e.min_ts = IndexContentFloor(keep);
    if (!parent.Replace(pe_pos, cur_e)) {
      return Status::Corruption("index time split: parent replace failed");
    }
    he.child = NodeRef::Historical(addr);
    if (!parent.Insert(he)) {
      return Status::Corruption("index time split: parent lost space");
    }
    parent_h.MarkDirty();
  }
  counters_.index_time_splits++;
  counters_.hist_index_nodes++;
  counters_.index_entries_migrated += hist_entries.size();
  counters_.redundant_index_copies += straddler_count;
  return Status::OK();
}

// ---------------------------------------------------------------- tools

Status TsbTree::AppendHistNode(const std::string& blob, uint64_t raw_bytes,
                               HistAddr* addr) {
  TSB_RETURN_IF_ERROR(hist_->Append(blob, addr));
  hist_node_raw_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  hist_node_stored_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status TsbTree::ReadNode(const NodeRef& ref, DecodedNode* out) {
  out->data.clear();
  out->index.clear();
  out->historical = ref.historical;
  if (!ref.historical) {
    // Shared latch for the duration of the decode: the node is copied out
    // as one consistent snapshot.
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->FetchShared(ref.page_id, &h));
    out->level = TsbPageLevel(h.data());
    if (out->level == 0) {
      DataPageRef page(h.data(), options_.page_size);
      return page.DecodeAll(&out->data);
    }
    IndexPageRef page(h.data(), options_.page_size);
    return page.DecodeAll(&out->index);
  }
  BlobHandle blob;
  TSB_RETURN_IF_ERROR(hist_->ReadView(ref.addr, &blob));
  hist_decodes_.owned_decodes.fetch_add(1, std::memory_order_relaxed);
  TSB_RETURN_IF_ERROR(HistNodeLevel(blob.data(), &out->level));
  if (out->level == 0) {
    return DecodeHistDataNode(blob.data(), &out->data);
  }
  uint8_t level = 0;
  return DecodeHistIndexNode(blob.data(), &level, &out->index);
}

HistReadStats TsbTree::HistStats() const {
  HistReadStats s = hist_->hist_stats();
  s.view_decodes = hist_decodes_.view_decodes.load(std::memory_order_relaxed);
  s.owned_decodes =
      hist_decodes_.owned_decodes.load(std::memory_order_relaxed);
  s.node_raw_bytes = hist_node_raw_bytes_.load(std::memory_order_relaxed);
  s.node_stored_bytes =
      hist_node_stored_bytes_.load(std::memory_order_relaxed);
  return s;
}

Status TsbTree::WalkStats(
    const NodeRef& ref, SpaceStats* stats,
    std::vector<std::pair<std::string, Timestamp>>* versions,
    std::vector<HistAddr>* seen_hist) {
  if (ref.historical) {
    // A historical node can have several parents (the structure is a DAG);
    // count each stored node once.
    for (const HistAddr& a : *seen_hist) {
      if (a == ref.addr) return Status::OK();
    }
    seen_hist->push_back(ref.addr);
  }
  DecodedNode node;
  TSB_RETURN_IF_ERROR(ReadNode(ref, &node));
  if (node.is_data()) {
    for (const DataEntry& e : node.data) {
      if (e.uncommitted()) continue;
      stats->physical_record_copies++;
      versions->emplace_back(e.key, e.ts);
    }
    return Status::OK();
  }
  for (const IndexEntry& e : node.index) {
    TSB_RETURN_IF_ERROR(WalkStats(e.child, stats, versions, seen_hist));
  }
  return Status::OK();
}

Status TsbTree::ComputeSpaceStats(SpaceStats* out) {
  // Maintenance walk: quiesce every mutator (exclusive writer lock, both
  // writer modes) for a consistent DAG traversal; readers may continue
  // concurrently.
  std::lock_guard<std::shared_mutex> wl(writer_mu_);
  *out = SpaceStats{};
  out->magnetic_pages = pager_->live_pages();
  out->magnetic_bytes = pager_->live_bytes();
  out->leaked_free_pages = pager_->leaked_free_pages();
  // The WORM's burned sectors count only what reached the device.
  TSB_RETURN_IF_ERROR(hist_->Flush());
  out->optical_payload_bytes = hist_->payload_bytes();
  out->hist_nodes = hist_->blob_count();
  auto* worm = dynamic_cast<WormDevice*>(hist_->device());
  out->optical_device_bytes =
      (worm != nullptr) ? worm->sectors_burned() * worm->sector_size()
                        : hist_->device_bytes();

  std::vector<std::pair<std::string, Timestamp>> versions;
  std::vector<HistAddr> seen_hist;
  TSB_RETURN_IF_ERROR(WalkStats(root(), out, &versions, &seen_hist));
  std::sort(versions.begin(), versions.end());
  versions.erase(std::unique(versions.begin(), versions.end()),
                 versions.end());
  out->logical_versions = versions.size();

  // Used bytes inside live current pages: walk current pages only.
  // (Re-walk is cheap relative to the full DAG walk above.)
  std::vector<uint32_t> stack = {root_.load(std::memory_order_acquire)};
  std::set<uint32_t> seen_pages;
  uint64_t used = 0;
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (!seen_pages.insert(id).second) continue;
    PageHandle h;
    TSB_RETURN_IF_ERROR(pool_->Fetch(id, &h));
    if (TsbPageLevel(h.data()) == 0) {
      DataPageRef page(h.data(), options_.page_size);
      used += page.UsedBytes();
    } else {
      IndexPageRef page(h.data(), options_.page_size);
      used += page.UsedBytes();
      for (int i = 0; i < page.Count(); ++i) {
        IndexEntry e;
        TSB_RETURN_IF_ERROR(page.At(i, &e));
        if (!e.child.historical) stack.push_back(e.child.page_id);
      }
    }
  }
  out->magnetic_used_bytes = used;
  return Status::OK();
}

std::unique_ptr<VersionCursor> TsbTree::NewCursor(const ReadOptions& options) {
  return std::make_unique<VersionCursor>(this, options);
}

}  // namespace tsb_tree
}  // namespace tsb
