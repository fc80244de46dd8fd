// Split policies, paper sections 3.2-3.3.
//
// Two orthogonal decisions are made when a data node fills:
//
// 1. *Kind*: key-space split vs time split. The boundary conditions are
//    hard rules (3.2): a node of all-distinct current keys MUST key-split
//    (time splitting is useless); a node of versions of a single key MUST
//    time-split (key splitting is impossible). In between, policy: the
//    threshold policy key-splits when current versions occupy at least a
//    configured fraction of the node; the cost policy minimizes the
//    marginal storage cost CS = SpaceM*CM + SpaceO*CO; the WOBT-style
//    policy always prefers time splits at current time (for the baseline
//    comparison).
//
// 2. *Time value* for time splits (3.3): current time (the only choice the
//    WOBT has), the time of the last update (so trailing insertions stay
//    out of the historical node), or the redundancy-minimizing time.
#ifndef TSBTREE_TSB_SPLIT_POLICY_H_
#define TSBTREE_TSB_SPLIT_POLICY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "tsb/data_page.h"

namespace tsb {
namespace tsb_tree {

enum class SplitKind : uint8_t {
  kKeySplit = 0,
  kTimeSplit = 1,
};

enum class SplitKindPolicy : uint8_t {
  /// Mimic the WOBT: time split whenever any superseded version exists.
  kWobtStyle = 0,
  /// Key split iff current-version bytes >= threshold * total bytes.
  kThreshold = 1,
  /// Pick the kind with smaller marginal cost under CS = SpaceM*CM +
  /// SpaceO*CO (section 3.2).
  kCostBased = 2,
};

enum class SplitTimeMode : uint8_t {
  kCurrentTime = 0,   ///< WOBT behaviour: split at now
  kLastUpdate = 1,    ///< push back to the last update (section 3.3)
  kMinRedundancy = 2, ///< choose the candidate time with fewest duplicates
};

struct SplitPolicyConfig {
  SplitKindPolicy kind_policy = SplitKindPolicy::kThreshold;
  /// kThreshold: key split when bytes_current/bytes_total >= this.
  double key_split_threshold = 0.67;
  SplitTimeMode time_mode = SplitTimeMode::kLastUpdate;
  /// kCostBased: per-byte storage prices.
  double cost_magnetic = 1.0;
  double cost_optical = 0.2;
};

/// What a full data node looks like to the policy.
struct DataNodeStats {
  size_t total_entries = 0;
  size_t distinct_keys = 0;
  size_t current_entries = 0;  ///< latest committed per key + uncommitted
  size_t bytes_total = 0;
  size_t bytes_current = 0;
  size_t uncommitted_entries = 0;
  bool has_superseded_versions() const {
    return total_entries > current_entries;
  }
};

/// Computes stats over a decoded node. `entries` must be (key, ts) sorted.
DataNodeStats ComputeDataNodeStats(std::span<const DataEntryView> entries);

/// The pluggable split policy.
class SplitPolicy {
 public:
  explicit SplitPolicy(const SplitPolicyConfig& config) : config_(config) {}

  const SplitPolicyConfig& config() const { return config_; }

  /// Chooses key vs time split for a full data node. `page_capacity` is the
  /// slotted capacity of a current page (for the cost estimate).
  SplitKind DecideDataSplit(const DataNodeStats& stats,
                            uint32_t page_capacity) const;

  /// Chooses the split time T for a time split of a data node whose region
  /// starts at `t_lo`, given `now`. Guarantees t_lo < T <= now+1 and that
  /// at least one committed entry has ts < T (callers verified such an
  /// entry exists). `entries` must be (key, ts) sorted. Only
  /// kMinRedundancy collects and sorts the timestamps.
  Timestamp ChooseSplitTime(std::span<const DataEntryView> entries,
                            Timestamp t_lo, Timestamp now) const;

  /// The restart-block size for ONE consolidated historical node about to
  /// be written; `entries`, `distinct_keys` and `key_bytes` describe its
  /// cells. Long-key nodes get small blocks (fewer cells decoded per
  /// probe), dense version-run nodes get large blocks (the shared key
  /// compresses across more cells), everything else kHistRestartInterval.
  /// The interval is stored per node, so readers need no configuration.
  static uint32_t ChooseRestartInterval(size_t entries, size_t distinct_keys,
                                        size_t key_bytes);

  /// Number of entries that would be stored redundantly (in both the
  /// historical and the current node) if the node split at time T — i.e.
  /// per key, the latest committed version with ts < T that persists
  /// through T (TIME-SPLIT RULE clause 3).
  static size_t RedundantAt(std::span<const DataEntryView> entries,
                            Timestamp t);

 private:
  SplitPolicyConfig config_;
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_SPLIT_POLICY_H_
