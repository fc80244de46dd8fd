// CommitLedger: the one publisher of the commit watermark.
//
// Every TxnManager commits through a ledger. A lone database's manager
// owns a one-member ledger over its tree's clock; a sharded database
// gives every shard one ledger, which owns the ONE clock all their trees
// point into, so a commit timestamp allocated on any shard is meaningful
// on all of them. If each shard published its own completed prefix,
// shard A finishing ts=10 would make ts=10 visible while shard B is still
// stamping its slice of the same multi-shard batch: a reader at the
// watermark would see a torn transaction. The ledger prevents that by
// owning both the timestamp allocation and the publish decision:
//
//   publish = min( ordered prefix over the in-flight set,
//                  smallest poisoned (failed mid-stamp) timestamp - 1 )
//
// TickCommit() allocates a timestamp and registers it in-flight in one
// critical section — the allocate-then-register race is what would let a
// later commit publish past an unregistered earlier one. EndCommit /
// AbortCommit / PoisonCommit retire a timestamp and recompute the
// watermark. The sharded facade also drives the ledger directly for
// multi-shard batches, holding the timestamp in-flight from before the
// coordinator-log append until every touched shard has stamped — the
// prepare/commit ts-barrier.
#ifndef TSBTREE_TXN_COMMIT_LEDGER_H_
#define TSBTREE_TXN_COMMIT_LEDGER_H_

#include <mutex>
#include <set>

#include "common/clock.h"

namespace tsb {
namespace txn {

class CommitLedger {
 public:
  /// A ledger over a clock of its own, for several trees to share (each
  /// tree's TsbOptions::external_clock points at clock()).
  CommitLedger() : clock_(&own_clock_) {}
  /// A one-member ledger over `clock` (a lone tree's); must outlive the
  /// ledger.
  explicit CommitLedger(LogicalClock* clock);

  CommitLedger(const CommitLedger&) = delete;
  CommitLedger& operator=(const CommitLedger&) = delete;

  LogicalClock* clock() const { return clock_; }

  /// Allocates the next commit timestamp and registers it in-flight —
  /// atomically with respect to every publish computation, so no commit
  /// completing concurrently can move the watermark past it.
  Timestamp TickCommit();

  /// Retires `ts` as fully stamped everywhere; recomputes and publishes
  /// the watermark.
  void EndCommit(Timestamp ts);

  /// Retires `ts` as never-stamped (the commit aborted before touching
  /// any tree — e.g. its log append failed). The watermark may pass it.
  void AbortCommit(Timestamp ts);

  /// Retires `ts` as failed MID-stamp: some tree may carry a half-stamped
  /// record at `ts`, so the watermark is pinned below it until Unpoison
  /// (degraded-mode repair purges the records first). Returns the pin:
  /// the watermark cannot pass it while any timestamp stays poisoned.
  Timestamp PoisonCommit(Timestamp ts);

  /// Lifts the pin for a repaired timestamp and republishes.
  void Unpoison(Timestamp ts);

 private:
  /// Computes the watermark under mu_ and publishes it (monotone CAS-max
  /// inside the clock, so stale recomputations are harmless).
  void PublishLocked();

  /// Used only by the default constructor.
  LogicalClock own_clock_;
  LogicalClock* const clock_;
  std::mutex mu_;
  std::set<Timestamp> inflight_;
  std::set<Timestamp> poisoned_;
  Timestamp completed_max_ = 0;
};

}  // namespace txn
}  // namespace tsb

#endif  // TSBTREE_TXN_COMMIT_LEDGER_H_
