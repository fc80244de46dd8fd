#include "tsb/tree_check.h"

#include <algorithm>
#include <set>
#include <vector>

#include "storage/append_store.h"
#include "storage/page.h"

namespace tsb {
namespace tsb_tree {

namespace {

std::string Describe(const NodeRef& ref) { return ref.ToString(); }

// The check functions run over entry views so historical nodes are
// validated directly on the pinned blob (no per-entry materialization);
// current pages are copied out under their latch once and viewed.
IndexEntryView ViewOf(const IndexEntry& e) {
  IndexEntryView v;
  v.key_lo = Slice(e.key_lo);
  v.key_hi = Slice(e.key_hi);
  v.key_hi_inf = e.key_hi_inf;
  v.t_lo = e.t_lo;
  v.t_hi = e.t_hi;
  v.child = e.child;
  v.min_ts = e.min_ts;
  return v;
}

DataEntryView ViewOf(const DataEntry& e) {
  DataEntryView v;
  v.key = Slice(e.key);
  v.ts = e.ts;
  v.txn = e.txn;
  v.value = Slice(e.value);
  return v;
}

}  // namespace

Status TreeChecker::Check() {
  nodes_visited_ = 0;
  current_parent_counts_.clear();
  dirty_at_start_.clear();
  if (verify_checksums_) {
    std::vector<uint32_t> dirty;
    tree_->pool_->DirtyIds(&dirty);
    dirty_at_start_.insert(dirty.begin(), dirty.end());
  }
  Window all;
  const NodeRef root = tree_->root();
  current_parent_counts_[root.page_id] = 1;
  TSB_RETURN_IF_ERROR(
      CheckNode(root, static_cast<uint8_t>(tree_->height() - 1), all));
  for (const auto& [page, count] : current_parent_counts_) {
    if (count != 1) {
      return Status::Corruption(
          "current page has wrong parent count",
          "page " + std::to_string(page) + " count " + std::to_string(count));
    }
  }
  return Status::OK();
}

Status TreeChecker::CheckNode(const NodeRef& ref, uint8_t expected_level,
                              const Window& win) {
  nodes_visited_++;
  if (ref.historical && verify_checksums_) {
    // Re-CRC the blob against the device bytes, past the verified memo
    // and the read cache (the dispatch below may legitimately serve a
    // copy verified long ago).
    BlobHandle device_bytes;
    BlobReadHints hints;
    hints.verify_checksums = true;
    hints.fill_cache = false;
    TSB_RETURN_IF_ERROR(
        tree_->hist_->ReadView(ref.addr, &device_bytes, hints));
  }
  if (ref.historical) {
    // Historical nodes go through the shared dispatch like every other
    // reader. The checker needs all entries of a node alive at once (the
    // tiling check cross-references them), and v3 views are only valid
    // one at a time, so entries are copied out — fine for a maintenance
    // walk.
    return DispatchHistNode(
        tree_->hist_.get(), &tree_->hist_decodes_, ref.addr,
        [&](BlobHandle&, HistDataNodeRef& node) -> Status {
          if (expected_level != 0) {
            return Status::Corruption(
                "node level mismatch",
                Describe(ref) + " level 0 expected " +
                    std::to_string(expected_level));
          }
          std::vector<DataEntry> owned(node.Count());
          for (int i = 0; i < node.Count(); ++i) {
            DataEntryView v;
            TSB_RETURN_IF_ERROR(node.At(i, &v));
            owned[i] = v.ToOwned();
          }
          std::vector<DataEntryView> entries;
          entries.reserve(owned.size());
          for (const DataEntry& e : owned) entries.push_back(ViewOf(e));
          return CheckDataEntries(ref, entries, win);
        },
        [&](BlobHandle&, HistIndexNodeRef& node) -> Status {
          if (node.Level() != expected_level) {
            return Status::Corruption(
                "node level mismatch",
                Describe(ref) + " level " + std::to_string(node.Level()) +
                    " expected " + std::to_string(expected_level));
          }
          std::vector<IndexEntry> owned(node.Count());
          for (int i = 0; i < node.Count(); ++i) {
            IndexEntryView v;
            TSB_RETURN_IF_ERROR(node.AtView(i, &v));
            owned[i] = v.ToOwned();
          }
          std::vector<IndexEntryView> entries;
          entries.reserve(owned.size());
          for (const IndexEntry& e : owned) entries.push_back(ViewOf(e));
          return CheckIndexEntries(ref, node.Level(), entries, win);
        });
  }
  if (verify_checksums_ && dirty_at_start_.count(ref.page_id) == 0) {
    // Clean (or evicted) page: the device copy is current under no-steal,
    // so its stored checksums must verify. A dirty page is skipped — its
    // device copy is legitimately behind until the next checkpoint.
    const uint32_t ps = tree_->pager()->page_size();
    std::vector<char> raw(ps);
    TSB_RETURN_IF_ERROR(tree_->pager()->device()->Read(
        static_cast<uint64_t>(ref.page_id) * ps, ps, raw.data()));
    Status vs = VerifyPage(raw.data(), ps, ref.page_id);
    if (!vs.ok()) {
      return Status::Corruption(
          "device page failed checksum audit",
          Describe(ref) + ": " + vs.ToString());
    }
  }
  DecodedNode node;
  TSB_RETURN_IF_ERROR(tree_->ReadNode(ref, &node));
  if (node.level != expected_level) {
    return Status::Corruption("node level mismatch",
                              Describe(ref) + " level " +
                                  std::to_string(node.level) + " expected " +
                                  std::to_string(expected_level));
  }
  if (node.is_data()) {
    std::vector<DataEntryView> entries;
    entries.reserve(node.data.size());
    for (const DataEntry& e : node.data) entries.push_back(ViewOf(e));
    return CheckDataEntries(ref, entries, win);
  }
  std::vector<IndexEntryView> entries;
  entries.reserve(node.index.size());
  for (const IndexEntry& e : node.index) entries.push_back(ViewOf(e));
  return CheckIndexEntries(ref, node.level, entries, win);
}

Status TreeChecker::CheckIndexEntries(
    const NodeRef& ref, uint8_t level,
    const std::vector<IndexEntryView>& entries, const Window& win) {
  if (entries.empty()) {
    return Status::Corruption("empty index node", Describe(ref));
  }

  // Well-formedness, ordering, and the migration invariant.
  for (size_t i = 0; i < entries.size(); ++i) {
    const IndexEntryView& e = entries[i];
    if (!e.key_hi_inf && e.key_lo >= e.key_hi) {
      return Status::Corruption("empty key range", e.ToOwned().ToString());
    }
    if (e.t_lo >= e.t_hi) {
      return Status::Corruption("empty time range", e.ToOwned().ToString());
    }
    if (e.current_child() == e.child.historical) {
      return Status::Corruption(
          "t_hi/device mismatch (finite t_hi <=> historical)",
          e.ToOwned().ToString());
    }
    if (i > 0) {
      const IndexEntryView& p = entries[i - 1];
      const int c = p.key_lo.compare(e.key_lo);
      if (c > 0 || (c == 0 && p.t_lo >= e.t_lo)) {
        return Status::Corruption("index entries out of order", Describe(ref));
      }
    }
    // Entries not fully inside the node window must be historical
    // straddlers (duplicated by keyspace splits, rule 4) — on the key axis.
    const bool inside_lo = e.key_lo >= Slice(win.key_lo);
    const bool inside_hi =
        win.key_hi_inf || (!e.key_hi_inf && e.key_hi <= Slice(win.key_hi));
    if ((!inside_lo || !inside_hi) && !e.child.historical) {
      return Status::Corruption("current child exceeds node key range",
                                e.ToOwned().ToString());
    }
    // Time axis: entries may begin before the node's t_lo only if they are
    // historical (local-time-split straddlers).
    if (e.t_lo < win.t_lo && !e.child.historical) {
      return Status::Corruption("current child predates node time range",
                                e.ToOwned().ToString());
    }
  }

  // ---- tiling check on the boundary grid ----
  // Key boundaries: window low plus every entry bound strictly inside.
  std::vector<Slice> kb = {Slice(win.key_lo)};
  auto add_key = [&](const Slice& k) {
    if (k <= Slice(win.key_lo)) return;
    if (!win.key_hi_inf && k >= Slice(win.key_hi)) return;
    kb.push_back(k);
  };
  std::vector<Timestamp> tb = {win.t_lo};
  auto add_time = [&](Timestamp t) {
    if (t <= win.t_lo) return;
    if (t >= win.t_hi) return;
    tb.push_back(t);
  };
  for (const IndexEntryView& e : entries) {
    add_key(e.key_lo);
    if (!e.key_hi_inf) add_key(e.key_hi);
    add_time(e.t_lo);
    if (e.t_hi != kInfiniteTs) add_time(e.t_hi);
  }
  std::sort(kb.begin(), kb.end());
  kb.erase(std::unique(kb.begin(), kb.end()), kb.end());
  std::sort(tb.begin(), tb.end());
  tb.erase(std::unique(tb.begin(), tb.end()), tb.end());

  for (const Slice& k : kb) {
    for (const Timestamp t : tb) {
      int cover = 0;
      for (const IndexEntryView& e : entries) {
        if (e.Contains(k, t)) cover++;
      }
      if (cover != 1) {
        return Status::Corruption(
            "index region not tiled",
            Describe(ref) + " point (" + k.ToString() + ", " +
                std::to_string(t) + ") covered " + std::to_string(cover) +
                " times");
      }
    }
  }

  // ---- recurse ----
  for (const IndexEntryView& e : entries) {
    if (!e.child.historical) {
      current_parent_counts_[e.child.page_id]++;
    }
    // The child's region is the ENTRY rectangle itself, not its clip by our
    // window: straddler references duplicated by keyspace/time splits carry
    // the full child rectangle into both hosting nodes (rule 4), and the
    // child's contents answer to that rectangle. (Queries clip; structure
    // does not.)
    Window child;
    child.key_lo = e.key_lo.ToString();
    child.key_hi = e.key_hi.ToString();
    child.key_hi_inf = e.key_hi_inf;
    child.t_lo = e.t_lo;
    child.t_hi = e.t_hi;
    // Claims compose: every entry on the path bounds the whole subtree
    // under it, so the child answers to the strongest one seen so far.
    child.min_ts = std::max(win.min_ts, e.min_ts);
    TSB_RETURN_IF_ERROR(
        CheckNode(e.child, static_cast<uint8_t>(level - 1), child));
  }
  return Status::OK();
}

Status TreeChecker::CheckDataEntries(const NodeRef& ref,
                                     const std::vector<DataEntryView>& entries,
                                     const Window& win) {
  Slice prev_key;
  Timestamp prev_ts = 0;
  bool have_prev = false;
  // Per key, committed records with ts < win.t_lo seen so far.
  Slice run_key;
  bool have_run = false;
  int run_below_tlo = 0;
  Timestamp run_max_committed = 0;

  for (const DataEntryView& e : entries) {
    const Slice k = e.key;
    if (k < Slice(win.key_lo) ||
        (!win.key_hi_inf && k >= Slice(win.key_hi))) {
      return Status::Corruption("record outside node key range",
                                Describe(ref) + " key " + k.ToString());
    }
    if (have_prev) {
      const int c = prev_key.compare(k);
      if (c > 0 || (c == 0 && prev_ts > e.ts)) {
        return Status::Corruption("data records out of order", Describe(ref));
      }
    }
    prev_key = k;
    prev_ts = e.ts;
    have_prev = true;

    if (e.uncommitted()) {
      if (ref.historical) {
        return Status::Corruption("uncommitted record migrated to history",
                                  Describe(ref));
      }
      continue;
    }
    if (e.ts >= win.t_hi) {
      return Status::Corruption("record after node time range",
                                Describe(ref) + " key " + k.ToString());
    }
    if (e.ts < win.min_ts) {
      return Status::Corruption(
          "committed record predates content-floor hint",
          Describe(ref) + " key " + k.ToString() + " ts " +
              std::to_string(e.ts) + " min_ts " +
              std::to_string(win.min_ts));
    }
    if (!have_run || k != run_key) {
      run_key = k;
      have_run = true;
      run_below_tlo = 0;
      run_max_committed = 0;
    }
    if (e.ts < win.t_lo) {
      run_below_tlo++;
      if (run_below_tlo > 1) {
        return Status::Corruption(
            "more than one pre-t_lo version of a key (TIME-SPLIT RULE 3)",
            Describe(ref) + " key " + k.ToString());
      }
    }
    if (e.ts < run_max_committed) {
      return Status::Corruption("committed versions out of ts order",
                                Describe(ref));
    }
    run_max_committed = e.ts;
  }
  return Status::OK();
}

}  // namespace tsb_tree
}  // namespace tsb
