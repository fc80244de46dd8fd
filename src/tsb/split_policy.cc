#include "tsb/split_policy.h"

#include <algorithm>

namespace tsb {
namespace tsb_tree {

DataNodeStats ComputeDataNodeStats(std::span<const DataEntryView> entries) {
  DataNodeStats s;
  s.total_entries = entries.size();
  size_t i = 0;
  while (i < entries.size()) {
    size_t j = i;
    while (j < entries.size() && entries[j].key == entries[i].key) ++j;
    s.distinct_keys++;
    // Within the run [i, j): committed versions first (ts asc), then
    // uncommitted. Current = latest committed + every uncommitted.
    int latest_committed = -1;
    for (size_t k = i; k < j; ++k) {
      s.bytes_total += entries[k].EncodedSize();
      if (entries[k].uncommitted()) {
        s.uncommitted_entries++;
        s.current_entries++;
        s.bytes_current += entries[k].EncodedSize();
      } else {
        latest_committed = static_cast<int>(k);
      }
    }
    if (latest_committed >= 0) {
      s.current_entries++;
      s.bytes_current += entries[latest_committed].EncodedSize();
    }
    i = j;
  }
  return s;
}

SplitKind SplitPolicy::DecideDataSplit(const DataNodeStats& stats,
                                       uint32_t page_capacity) const {
  // Boundary conditions (section 3.2) override any policy:
  // all data current => time splitting is useless, key split;
  // a single key => key splitting is impossible, time split.
  if (!stats.has_superseded_versions()) return SplitKind::kKeySplit;
  if (stats.distinct_keys <= 1) return SplitKind::kTimeSplit;

  switch (config_.kind_policy) {
    case SplitKindPolicy::kWobtStyle:
      return SplitKind::kTimeSplit;
    case SplitKindPolicy::kThreshold: {
      const double frac = stats.bytes_total == 0
                              ? 1.0
                              : static_cast<double>(stats.bytes_current) /
                                    static_cast<double>(stats.bytes_total);
      return frac >= config_.key_split_threshold ? SplitKind::kKeySplit
                                                 : SplitKind::kTimeSplit;
    }
    case SplitKindPolicy::kCostBased: {
      // Marginal CS of each choice (section 3.2): a key split allocates one
      // more magnetic page; a time split appends the superseded bytes to
      // the optical store.
      const double key_cost =
          config_.cost_magnetic * static_cast<double>(page_capacity);
      const double hist_bytes =
          static_cast<double>(stats.bytes_total - stats.bytes_current);
      const double time_cost = config_.cost_optical * hist_bytes;
      return key_cost <= time_cost ? SplitKind::kKeySplit
                                   : SplitKind::kTimeSplit;
    }
  }
  return SplitKind::kTimeSplit;
}

uint32_t SplitPolicy::ChooseRestartInterval(size_t entries,
                                            size_t distinct_keys,
                                            size_t key_bytes) {
  if (entries == 0) return kHistRestartInterval;
  const size_t avg_key = key_bytes / entries;
  const double versions_per_key =
      distinct_keys == 0
          ? 1.0
          : static_cast<double>(entries) / static_cast<double>(distinct_keys);
  if (avg_key >= 48) {
    // Long keys: every non-restart cell pays a suffix reassembly, so
    // small blocks bound the cells decoded per probe.
    return kHistRestartInterval / 4;
  }
  if (versions_per_key >= 4.0) {
    // Version runs: consecutive cells share the whole key, so a bigger
    // block amortizes the restart cell across more of them.
    return kHistRestartInterval * 4;
  }
  return kHistRestartInterval;
}

size_t SplitPolicy::RedundantAt(std::span<const DataEntryView> entries,
                                Timestamp t) {
  // Per key, the version with the largest ts <= T must be in the new node
  // (clause 3); it is redundant iff its ts < T (then clause 1 also places
  // it in the historical node).
  size_t redundant = 0;
  size_t i = 0;
  while (i < entries.size()) {
    size_t j = i;
    Timestamp best = kInfiniteTs;
    bool have = false;
    while (j < entries.size() && entries[j].key == entries[i].key) {
      if (!entries[j].uncommitted() && entries[j].ts <= t) {
        best = entries[j].ts;
        have = true;
      }
      ++j;
    }
    if (have && best < t) redundant++;
    i = j;
  }
  return redundant;
}

Timestamp SplitPolicy::ChooseSplitTime(
    std::span<const DataEntryView> entries, Timestamp t_lo,
    Timestamp now) const {
  Timestamp min_ts = kInfiniteTs;
  for (const DataEntryView& e : entries) {
    if (!e.uncommitted() && e.ts < min_ts) min_ts = e.ts;
  }
  if (min_ts == kInfiniteTs) return t_lo + 1;  // caller will fail gracefully

  auto clamp = [&](Timestamp t) {
    // Valid range: t_lo < T, min_ts < T (non-empty migration), T <= now.
    Timestamp lo = std::max(t_lo, min_ts) + 1;
    if (t < lo) t = lo;
    if (t > now) t = now;
    return t;
  };

  switch (config_.time_mode) {
    case SplitTimeMode::kCurrentTime:
      return clamp(now);
    case SplitTimeMode::kLastUpdate: {
      // T = timestamp of the last committed *update* (a version that
      // supersedes an earlier one); trailing pure insertions then stay out
      // of the historical node (section 3.3).
      Timestamp last_update = 0;
      size_t i = 0;
      while (i < entries.size()) {
        size_t j = i;
        size_t committed_in_run = 0;
        while (j < entries.size() && entries[j].key == entries[i].key) {
          if (!entries[j].uncommitted()) {
            committed_in_run++;
            if (committed_in_run >= 2) {
              last_update = std::max(last_update, entries[j].ts);
            }
          }
          ++j;
        }
        i = j;
      }
      if (last_update == 0) return clamp(now);
      return clamp(last_update);
    }
    case SplitTimeMode::kMinRedundancy: {
      // Candidates: every distinct committed timestamp (exclusive bounds
      // handled by clamp) plus `now`. Among redundancy minima prefer the
      // largest T (migrates the most history).
      std::vector<Timestamp> candidates;
      candidates.reserve(entries.size() + 1);
      for (const DataEntryView& e : entries) {
        if (!e.uncommitted()) candidates.push_back(e.ts);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      candidates.push_back(now);
      Timestamp best_t = clamp(now);
      size_t best_r = SIZE_MAX;
      for (Timestamp c : candidates) {
        const Timestamp t = clamp(c);
        const size_t r = RedundantAt(entries, t);
        if (r < best_r || (r == best_r && t > best_t)) {
          best_r = r;
          best_t = t;
        }
      }
      return best_t;
    }
  }
  return clamp(now);
}

}  // namespace tsb_tree
}  // namespace tsb
