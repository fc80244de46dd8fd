#include "tsb/cursor.h"

#include <mutex>
#include <shared_mutex>
#include <utility>

namespace tsb {
namespace tsb_tree {

VersionCursor::VersionCursor(TsbTree* tree, const ReadOptions& options)
    : tree_(tree), opts_(options), t_(tree->ResolveAsOf(options.as_of)) {}

Status VersionCursor::SeekToFirst() { return Seek(Slice()); }

Status VersionCursor::Seek(const Slice& target) {
  end_key_.clear();
  end_inf_ = true;
  range_lo_.clear();
  return SeekInternal(target);
}

Status VersionCursor::SeekRange(const Slice& start,
                                const Slice& end_exclusive) {
  end_key_.assign(end_exclusive.data(), end_exclusive.size());
  end_inf_ = false;
  range_lo_.assign(start.data(), start.size());
  return SeekInternal(start);
}

Status VersionCursor::SeekInternal(const Slice& target) {
  reverse_ = false;
  valid_ = false;
  key_anchored_ = false;
  emitted_any_ = false;
  seek_target_.assign(target.data(), target.size());
  TSB_RETURN_IF_ERROR(BuildStack());
  return Advance();
}

Status VersionCursor::SeekToLast() {
  end_key_.clear();
  end_inf_ = true;
  range_lo_.clear();
  return SeekReverseInternal(Slice(), /*upper_inf=*/true);
}

Status VersionCursor::SeekForPrev(const Slice& upper_exclusive) {
  end_key_.clear();
  end_inf_ = true;
  range_lo_.clear();
  return SeekReverseInternal(upper_exclusive, /*upper_inf=*/false);
}

Status VersionCursor::SeekReverseInternal(const Slice& upper, bool upper_inf) {
  reverse_ = true;
  valid_ = false;
  key_anchored_ = false;
  emitted_any_ = false;
  seek_target_.clear();
  rev_upper_.assign(upper.data(), upper.size());
  rev_upper_inf_ = upper_inf;
  TSB_RETURN_IF_ERROR(BuildStack());
  return Advance();
}

Status VersionCursor::BuildStack() {
  ClearStack();
  const NodeRef root = tree_->root();
  root_page_ = root.page_id;
  static const std::string kNoBound;
  return PushNode(root, kNoBound, kNoBound, true);
}

// ---------------------------------------------------------------- frames

VersionCursor::Frame& VersionCursor::EmplaceFrame() {
  if (depth_ == stack_.size()) stack_.emplace_back();
  Frame& f = stack_[depth_++];
  f.order.clear();  // pins were already dropped when the frame was popped
  return f;
}

void VersionCursor::PopFrame() {
  Frame& f = stack_[--depth_];
  // Drop the pins now (frames beyond depth_ must not hold pages or blobs
  // hostage), but keep the capacity-bearing members: a steady-state scan
  // pushes and pops frames without allocating.
  f.page.Release();
  f.blob.Release();
  f.order.clear();
}

void VersionCursor::ClearStack() {
  while (depth_ > 0) PopFrame();
  rec_count_ = 0;
  rec_idx_ = 0;
}

template <typename DataAccessor>
Status VersionCursor::EmitLeaf(const DataAccessor& node,
                               const std::string& win_lo,
                               const std::string& win_hi,
                               bool win_hi_inf) {
  // Emit per key the latest committed version with ts <= t, clipped to
  // the window and the direction's bounds. Entries are (key, ts) sorted.
  // A view is only guaranteed valid until the accessor's next At (v3
  // historical cells may live in the ref's scratch), so the run key is
  // copied into a reused buffer and the best version is re-fetched by
  // index when the run ends; only emitted records are copied, into reused
  // slots. The buffer is always filled in ascending key order; reverse
  // iteration serves it back-to-front.
  rec_count_ = 0;
  const int n = node.Count();
  int i = 0;
  while (i < n) {
    DataEntryView first;
    TSB_RETURN_IF_ERROR(node.At(i, &first));
    run_key_.assign(first.key.data(), first.key.size());
    bool have_best = false;
    Timestamp best_ts = 0;
    int best_j = -1;
    int j = i;
    for (; j < n; ++j) {
      DataEntryView e;
      TSB_RETURN_IF_ERROR(node.At(j, &e));
      if (e.key != Slice(run_key_)) break;
      if (!e.uncommitted() && e.ts <= t_) {
        have_best = true;
        best_ts = e.ts;
        best_j = j;
      }
    }
    if (have_best) {
      const Slice run_key(run_key_);
      bool in_window = run_key >= Slice(win_lo) &&
                       (win_hi_inf || run_key < Slice(win_hi));
      if (in_window) {
        // Forward emits [seek_target_, end); reverse emits [range floor,
        // rev_upper_) — backward movement may pass below the original
        // seek target, but never below a SeekRange start.
        in_window =
            reverse_ ? (rev_upper_inf_ || run_key < Slice(rev_upper_)) &&
                           run_key >= Slice(range_lo_)
                     : run_key >= Slice(seek_target_) &&
                           (end_inf_ || run_key < Slice(end_key_));
      }
      if (in_window) {
        DataEntryView best;
        TSB_RETURN_IF_ERROR(node.At(best_j, &best));
        if (rec_count_ == records_.size()) records_.emplace_back();
        Record& r = records_[rec_count_++];
        r.key.assign(run_key.data(), run_key.size());
        r.ts = best_ts;
        r.value.assign(best.value.data(), best.value.size());
      }
    }
    i = j;
  }
  rec_idx_ = reverse_ ? rec_count_ : 0;
  return Status::OK();
}

bool VersionCursor::EntrySurvives(const IndexEntryView& e,
                                  const std::string& win_lo,
                                  const std::string& win_hi,
                                  bool win_hi_inf) const {
  if (!e.ContainsTime(t_)) return false;
  // Content floor: the rectangle may contain t_ (time floors stay loose
  // across key splits), but if every committed record in the subtree is
  // younger than t_ there is nothing to emit there.
  if (e.min_ts > t_) return false;
  // Key overlap with the window?
  if (!win_hi_inf && e.key_lo >= Slice(win_hi)) return false;
  if (!e.key_hi_inf && e.key_hi <= Slice(win_lo)) return false;
  if (reverse_) {
    // Skip subtrees entirely at/above the backward anchor or below the
    // range floor.
    if (!rev_upper_inf_ && e.key_lo >= Slice(rev_upper_)) return false;
    if (!range_lo_.empty() && !e.key_hi_inf && e.key_hi <= Slice(range_lo_)) {
      return false;
    }
    return true;
  }
  // Skip subtrees entirely below the seek target or past the end bound.
  if (!e.key_hi_inf && e.key_hi <= Slice(seek_target_)) return false;
  if (!end_inf_ && e.key_lo >= Slice(end_key_)) return false;
  return true;
}

Status VersionCursor::PushIndexFrame(PageHandle page,
                                     const std::string& win_lo,
                                     const std::string& win_hi,
                                     bool win_hi_inf) {
  Frame& f = EmplaceFrame();
  f.historical = false;
  f.win_lo.assign(win_lo);
  f.win_hi.assign(win_hi);
  f.win_hi_inf = win_hi_inf;
  IndexPageRef node(page.data(), tree_->options_.page_size);
  const int n = node.Count();
  for (int i = 0; i < n; ++i) {
    IndexEntryView e;
    Status s = node.AtView(i, &e);
    if (!s.ok()) {
      PopFrame();
      return s;
    }
    if (!EntrySurvives(e, win_lo, win_hi, win_hi_inf)) continue;
    f.order.push_back(i);
  }
  // Stored entries are (key_lo, t_lo)-sorted and the rectangles that
  // contain t_ tile the key space (one per key stripe), hence `order` is
  // already key_lo-ordered — no sort, no copies.
  //
  // Sample the mutation counter while the build latch is still held, then
  // drop the latch but KEEP the pin: later entry reads relatch briefly
  // and compare against this baseline.
  f.page_version = page.version();
  page.Unlatch();
  f.page = std::move(page);
  f.next = reverse_ ? f.order.size() : 0;
  return Status::OK();
}

Status VersionCursor::PushHistIndexFrame(BlobHandle blob,
                                         HistIndexNodeRef node,
                                         const std::string& win_lo,
                                         const std::string& win_hi,
                                         bool win_hi_inf) {
  Frame& f = EmplaceFrame();
  f.historical = true;
  f.win_lo.assign(win_lo);
  f.win_hi.assign(win_hi);
  f.win_hi_inf = win_hi_inf;
  const int n = node.Count();
  for (int i = 0; i < n; ++i) {
    IndexEntryView e;
    Status s = node.AtView(i, &e);
    if (!s.ok()) {
      PopFrame();
      return s;
    }
    if (!EntrySurvives(e, win_lo, win_hi, win_hi_inf)) continue;
    f.order.push_back(i);
  }
  // Survivors are key_lo-ordered for the same reason as above.
  f.blob = std::move(blob);
  f.hist_node = std::move(node);
  f.next = reverse_ ? f.order.size() : 0;
  return Status::OK();
}

Status VersionCursor::PushNode(const NodeRef& ref,
                               const std::string& win_lo,
                               const std::string& win_hi,
                               bool win_hi_inf) {
  if (ref.historical) {
    // Historical nodes: the dispatch pins the blob (shared with the
    // append-store cache / device mapping) and hands us the parsed view
    // ref; index frames keep both alive for the subtree's lifetime. The
    // cursor is a range scan: mapped reads advise sequential access.
    return DispatchHistNode(
        tree_->hist_.get(), &tree_->hist_decodes_, ref.addr,
        [&](BlobHandle&, HistDataNodeRef& node) -> Status {
          return EmitLeaf(node, win_lo, win_hi, win_hi_inf);
        },
        [&](BlobHandle& blob, HistIndexNodeRef& node) -> Status {
          return PushHistIndexFrame(std::move(blob), std::move(node),
                                    win_lo, win_hi, win_hi_inf);
        },
        MakeBlobReadHints(opts_, /*sequential=*/true));
  }
  // Current pages: leaves are emitted under the shared latch; index pages
  // become pinned-but-unlatched frames.
  PageHandle h;
  TSB_RETURN_IF_ERROR(tree_->pool_->FetchShared(ref.page_id, &h));
  const uint32_t page_size = tree_->options_.page_size;
  if (TsbPageLevel(h.data()) == 0) {
    DataPageRef page(h.data(), page_size);
    return EmitLeaf(page, win_lo, win_hi, win_hi_inf);
  }
  return PushIndexFrame(std::move(h), win_lo, win_hi, win_hi_inf);
}

// ---------------------------------------------------------------- walking

bool VersionCursor::StackValid() const {
  // Root moved (GrowRoot): restart conservatively. This is also the only
  // signal for a time split of a LEAF root — a root data page can only be
  // rewritten after GrowRoot gave it a parent, so the root pointer always
  // moves before its content can change structurally.
  if (tree_->root().page_id != root_page_) return false;
  for (size_t i = 0; i < depth_; ++i) {
    const Frame& f = stack_[i];
    if (!f.historical && f.page.version() != f.page_version) return false;
  }
  return true;
}

Status VersionCursor::Restart() {
  // Invalidation fallback: one fresh O(height) descent from the walk's
  // anchor. Forward resumes at the successor of the last emitted key;
  // reverse resumes just below it (rev_upper_ tracks the last emitted key
  // already). The as-of-T state is immutable, so the restarted walk emits
  // exactly the remaining keys: no duplicates, no gaps.
  if (!reverse_ && emitted_any_) {
    seek_target_.assign(key_);
    seek_target_.push_back('\0');
  }
  return BuildStack();
}

Status VersionCursor::ReadFrameEntry(Frame& f, int cell, NodeRef* child,
                                     bool* stale) {
  *stale = false;
  IndexEntryView e;
  if (f.historical) {
    // Immutable blob: no latch needed. The view dies at the frame's next
    // AtView, so the bounds are copied into scratch before any descent.
    TSB_RETURN_IF_ERROR(f.hist_node.AtView(cell, &e));
    entry_lo_.assign(e.key_lo.data(), e.key_lo.size());
    entry_hi_.assign(e.key_hi.data(), e.key_hi.size());
    entry_hi_inf_ = e.key_hi_inf;
    *child = e.child;
    return Status::OK();
  }
  // Mutable page: relatch for the instant of the read and revalidate the
  // mutation counter first. On mismatch the stored slot indices may no
  // longer mean what they did — report stale (the caller re-seeks),
  // never decode.
  f.page.LatchShared();
  if (f.page.version() != f.page_version) {
    f.page.Unlatch();
    *stale = true;
    return Status::OK();
  }
  IndexPageRef page(f.page.data(), tree_->options_.page_size);
  Status s = page.AtView(cell, &e);
  if (s.ok()) {
    entry_lo_.assign(e.key_lo.data(), e.key_lo.size());
    entry_hi_.assign(e.key_hi.data(), e.key_hi.size());
    entry_hi_inf_ = e.key_hi_inf;
    *child = e.child;
  }
  f.page.Unlatch();
  return s;
}

Status VersionCursor::Advance() {
  // Liveness: invalidation restarts are optimistic a bounded number of
  // times, then the walk quiesces the writer for the remainder of this
  // Advance — with writer_mu_ held no page version can move, so the
  // rebuilt stack validates and the call is guaranteed to emit or
  // conclude. The lock drops when Advance returns; user-paced iteration
  // never holds it.
  constexpr int kOptimisticRestarts = 4;
  int restarts = 0;
  std::unique_lock<std::shared_mutex> quiesce(tree_->writer_mu_, std::defer_lock);
  auto restart = [&]() -> Status {
    if (++restarts > kOptimisticRestarts && !quiesce.owns_lock()) {
      quiesce.lock();
    }
    return Restart();
  };
  for (;;) {
    // Validate the stack before serving from a fresh leaf buffer, before
    // advancing frames, and before concluding the scan. (A partially
    // served buffer needs no re-check: passing the check once proves the
    // buffer was decoded from an unbroken structure, and later splits
    // cannot retroactively change that decode.)
    const bool fresh = reverse_ ? rec_idx_ == rec_count_ : rec_idx_ == 0;
    if (fresh && !StackValid()) {
      TSB_RETURN_IF_ERROR(restart());
      continue;
    }
    if (reverse_ ? rec_idx_ > 0 : rec_idx_ < rec_count_) {
      const Record& r = records_[reverse_ ? --rec_idx_ : rec_idx_++];
      key_ = r.key;
      ts_ = r.ts;
      value_ = r.value;
      if (reverse_) {
        rev_upper_ = key_;  // backward anchor follows the walk
        rev_upper_inf_ = false;
      }
      valid_ = true;
      key_anchored_ = true;
      emitted_any_ = true;
      return Status::OK();
    }
    rec_count_ = 0;
    rec_idx_ = 0;
    if (depth_ == 0) {
      valid_ = false;
      key_anchored_ = false;
      return Status::OK();
    }
    Frame& f = stack_[depth_ - 1];
    if (reverse_ ? f.next == 0 : f.next >= f.order.size()) {
      PopFrame();
      continue;
    }
    const int cell = f.order[reverse_ ? f.next - 1 : f.next];
    NodeRef child;
    bool stale = false;
    TSB_RETURN_IF_ERROR(ReadFrameEntry(f, cell, &child, &stale));
    if (stale) {
      TSB_RETURN_IF_ERROR(restart());
      continue;
    }
    if (reverse_) {
      --f.next;
    } else {
      ++f.next;
    }
    // Child window = entry rectangle's key range clipped by ours. The
    // entry bounds live in scratch (copied out under the latch), so
    // nothing below touches the frame's page or view — and `f` itself
    // must not be touched past PushNode, which may grow the frame pool.
    const Slice e_lo(entry_lo_);
    const Slice lo = e_lo < Slice(f.win_lo) ? Slice(f.win_lo) : e_lo;
    child_lo_.assign(lo.data(), lo.size());
    bool child_hi_inf;
    if (entry_hi_inf_) {
      child_hi_.assign(f.win_hi);
      child_hi_inf = f.win_hi_inf;
    } else {
      const Slice e_hi(entry_hi_);
      const Slice hi =
          f.win_hi_inf || e_hi < Slice(f.win_hi) ? e_hi : Slice(f.win_hi);
      child_hi_.assign(hi.data(), hi.size());
      child_hi_inf = false;
    }
    TSB_RETURN_IF_ERROR(PushNode(child, child_lo_, child_hi_, child_hi_inf));
  }
}

Status VersionCursor::Next() {
  // Version-axis moves may have invalidated the cursor (no older
  // version), but the key axis stays anchored: Next() resumes the scan
  // from the current key. Only a concluded/never-started scan errors.
  if (!key_anchored_) return Status::InvalidArgument("Next on invalid cursor");
  if (reverse_) {
    // Direction switch: one fresh forward descent anchored just past the
    // current key. The SeekRange bounds survive the turn.
    reverse_ = false;
    seek_target_.assign(key_);
    seek_target_.push_back('\0');
    TSB_RETURN_IF_ERROR(BuildStack());
  }
  return Advance();
}

Status VersionCursor::Prev() {
  if (!key_anchored_) return Status::InvalidArgument("Prev on invalid cursor");
  if (!reverse_) {
    // Direction switch: ONE O(height) descent anchored just below the
    // current key; afterwards the backward walk steps frames leftward and
    // is amortized O(1) per key, exactly like Next.
    reverse_ = true;
    rev_upper_.assign(key_);
    rev_upper_inf_ = false;
    TSB_RETURN_IF_ERROR(BuildStack());
  }
  return Advance();
}

// ---------------------------------------------------------------- time axis

Status VersionCursor::NextVersion() {
  if (!valid_) return Status::InvalidArgument("NextVersion on invalid cursor");
  if (ts_ <= 1) {
    valid_ = false;
    return Status::OK();
  }
  return ProbeVersion(ts_ - 1);
}

Status VersionCursor::SeekTimestamp(Timestamp t) {
  if (!valid_) {
    return Status::InvalidArgument("SeekTimestamp on invalid cursor");
  }
  return ProbeVersion(t);
}

Status VersionCursor::ProbeVersion(Timestamp t) {
  // As-of probe for the current key (each probe lands in the node holding
  // that version, so consecutive versions usually share nodes). Only
  // value_/ts_ move; the key-axis stack stays anchored where it was.
  ReadOptions probe = opts_;
  probe.as_of = t;
  Timestamp got_ts = 0;
  Status s = tree_->Get(probe, Slice(key_), &value_, &got_ts);
  if (s.IsNotFound()) {
    valid_ = false;
    return Status::OK();
  }
  TSB_RETURN_IF_ERROR(s);
  ts_ = got_ts;
  valid_ = true;
  return Status::OK();
}

}  // namespace tsb_tree
}  // namespace tsb
