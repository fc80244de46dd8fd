#include "txn/commit_ledger.h"

namespace tsb {
namespace txn {

CommitLedger::CommitLedger(LogicalClock* clock)
    : clock_(clock), completed_max_(clock->Visible()) {}

Timestamp CommitLedger::TickCommit() {
  std::lock_guard<std::mutex> lock(mu_);
  const Timestamp ts = clock_->Tick();
  inflight_.insert(ts);
  return ts;
}

void CommitLedger::EndCommit(Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(ts);
  if (completed_max_ < ts) completed_max_ = ts;
  PublishLocked();
}

void CommitLedger::AbortCommit(Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(ts);
  // Not completed: nothing was stamped at ts, so the watermark passing it
  // exposes nothing. Later commits may already be blocked behind it in
  // the in-flight set — recompute so they publish.
  PublishLocked();
}

Timestamp CommitLedger::PoisonCommit(Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(ts);
  poisoned_.insert(ts);
  PublishLocked();
  return *poisoned_.begin() - 1;
}

void CommitLedger::Unpoison(Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  poisoned_.erase(ts);
  PublishLocked();
}

void CommitLedger::PublishLocked() {
  // Ordered prefix over the in-flight set, capped below the oldest
  // poisoned timestamp. Readers at the result see whole transactions, on
  // one tree or across shards, or nothing (the section 4.1 guarantee).
  Timestamp publish =
      inflight_.empty() ? completed_max_ : *inflight_.begin() - 1;
  if (!poisoned_.empty() && publish > *poisoned_.begin() - 1) {
    publish = *poisoned_.begin() - 1;
  }
  clock_->Publish(publish);
}

}  // namespace txn
}  // namespace tsb
