#include "txn/txn_manager.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logger.h"
#include "txn/commit_ledger.h"

namespace tsb {
namespace txn {

Transaction::~Transaction() {
  if (active_) {
    Abort();  // best effort; destruction must not lose locks
  }
}

size_t Transaction::LowerBound(const Slice& key) const {
  return std::lower_bound(
             writes_.begin(), writes_.end(), key,
             [](const KeyValue& kv, const Slice& k) { return kv.first < k; }) -
         writes_.begin();
}

Slice Transaction::Own(const Slice& s) {
  return Slice(bytes_.AllocateCopy(s.data(), s.size()), s.size());
}

Status Transaction::Put(const Slice& key, const Slice& value) {
  if (!active_) return Status::TxnNotActive("Put on finished transaction");
  if (abort_failed_) return Status::TxnNotActive("Put on aborting transaction");
  const size_t pos = LowerBound(key);
  if (pos < writes_.size() && writes_[pos].first == key) {
    // Already locked and owned: only the value changes.
    TSB_RETURN_IF_ERROR(mgr_->ReportInsertError(
        mgr_->tree_->PutUncommitted(key, value, id_)));
    Slice& old_value = writes_[pos].second;
    if (value.size() <= old_value.size()) {
      // Rewrite in place: a rewritten key costs the arena nothing.
      memmove(const_cast<char*>(old_value.data()), value.data(), value.size());
      old_value = Slice(old_value.data(), value.size());
    } else {
      old_value = Own(value);
    }
    return Status::OK();
  }
  // Lock through the caller's bytes; only a lock that was taken costs a
  // copy of the key.
  const KeyValue kv(key, value);
  TSB_RETURN_IF_ERROR(mgr_->locks_.Lock({&kv, 1}, id_));
  Status s = mgr_->tree_->PutUncommitted(key, value, id_);
  if (!s.ok()) {
    // The key never enters writes_, so Abort would not release the lock
    // this call took.
    mgr_->locks_.Unlock({&kv, 1}, id_);
    return mgr_->ReportInsertError(s);
  }
  // The lock table views the key until the transaction ends: move it onto
  // bytes that live as long as the transaction.
  const Slice owned_key = Own(key);
  mgr_->locks_.Rebind(key, owned_key.data(), id_);
  writes_.insert(writes_.begin() + pos, KeyValue(owned_key, Own(value)));
  return Status::OK();
}

Status Transaction::Get(const Slice& key, std::string* value) {
  if (!active_) return Status::TxnNotActive("Get on finished transaction");
  const size_t pos = LowerBound(key);
  if (pos < writes_.size() && writes_[pos].first == key) {
    value->assign(writes_[pos].second.data(), writes_[pos].second.size());
    return Status::OK();
  }
  // kMaxCommittedTs, not the watermark: a transaction must observe
  // versions stamped by a commit that has not published yet.
  tsb_tree::ReadOptions options;
  options.as_of = kMaxCommittedTs;
  return mgr_->tree_->Get(options, key, value);
}

Status Transaction::Commit(Timestamp* commit_ts) {
  if (!active_) return Status::TxnNotActive("Commit on finished transaction");
  if (abort_failed_) {
    return Status::TxnNotActive("Commit on aborting transaction");
  }
  return mgr_->CommitTxn(this, commit_ts);
}

Status Transaction::Abort() {
  if (!active_) return Status::TxnNotActive("Abort on finished transaction");
  return mgr_->AbortTxn(this);
}

Status TxnManager::Begin(std::unique_ptr<Transaction>* out) {
  out->reset(
      new Transaction(this, next_txn_.fetch_add(1, std::memory_order_acq_rel)));
  active_count_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status TxnManager::Write(const WriteBatch& batch, Timestamp* commit_ts) {
  if (batch.empty()) {
    // Nothing to stamp; report the current watermark as "when".
    if (commit_ts != nullptr) *commit_ts = tree_->VisibleNow();
    return Status::OK();
  }
  std::unique_ptr<Transaction> txn;
  TSB_RETURN_IF_ERROR(Begin(&txn));
  // The write set views the batch: sorted and distinct, as the batched
  // tree calls require.
  std::vector<Transaction::KeyValue>& writes = txn->writes_;
  batch.SortedOps(&writes);
  Status s = locks_.Lock(writes, txn->id_);
  if (!s.ok()) {
    // Nothing reached the tree and nothing was locked: end the
    // transaction without erase descents.
    writes.clear();
    txn->Abort();
    return s;
  }
  s = tree_->PutUncommittedBatch(writes, txn->id_);
  if (!s.ok()) {
    txn->Abort();  // erases whatever part of the batch was inserted
    return ReportInsertError(s);
  }
  return txn->Commit(commit_ts);
}

Status TxnManager::ReportInsertError(const Status& s) {
  // A device error under an insert (a split's historical append, a page
  // read) left the tree as it was, but the device is suspect: escalate as
  // a WAL append failure does.
  if (s.IsIOError() && reporter_) reporter_("insert", s);
  return s;
}

void TxnManager::UnlockKeys(const Transaction& txn) {
  locks_.Unlock(txn.writes_, txn.id_);
}

Status TxnManager::CommitTxn(Transaction* txn, Timestamp* commit_ts) {
  return CommitInternal(txn, commit_ts, /*external_ts=*/0);
}

Status TxnManager::CommitPrepared(Transaction* txn, Timestamp ts) {
  if (!txn->active_) {
    return Status::TxnNotActive("CommitPrepared on finished transaction");
  }
  return CommitInternal(txn, nullptr, ts);
}

Status TxnManager::CommitInternal(Transaction* txn, Timestamp* commit_ts,
                                  Timestamp external_ts) {
  // Index maintenance must apply in timestamp order, so with a commit hook
  // the WHOLE commit — tick through hooks — runs under index_order_mu_
  // (lock order: index_order_mu_ -> commit_mu_). Without one, only the
  // tick and the watermark bookkeeping below are serialized.
  std::unique_lock<std::mutex> index_lock;
  if (hook_) {
    index_lock = std::unique_lock<std::mutex>(index_order_mu_);
    serial_fallback_commits_.fetch_add(1, std::memory_order_relaxed);
  }
  // One commit timestamp for the whole transaction (rollback-database
  // semantics: records are stamped with transaction commit time). With a
  // ledger, allocation goes through it so registration in the GLOBAL
  // in-flight set is atomic with the tick; an externally allocated
  // timestamp is already registered by the caller.
  Timestamp ts;
  uint64_t wal_end_lsn = 0;
  {
    std::unique_lock<std::mutex> commit_lock(commit_mu_);
    commit_cv_.wait(commit_lock, [&] { return !frozen_; });
    if (gate_) TSB_RETURN_IF_ERROR(gate_());
    ts = external_ts != 0 ? external_ts
         : ledger_ != nullptr ? ledger_->TickCommit()
                              : tree_->clock().Tick();
    if (wal_ != nullptr) {
      // Log BEFORE entering inflight_: append order under commit_mu_ ==
      // timestamp order, so replay reproduces the one serialization the
      // watermark could have published. (Cross-shard slices may land out
      // of global ts order in a SHARD's log, but per key the lock table
      // serializes writers, so per-key order — all replay depends on —
      // still holds.) An append failure aborts the commit before any
      // stamp — the transaction stays active and abortable, nothing is
      // torn, nothing to poison — but the log itself is sick: escalate.
      Status append_status =
          wal_->AppendCommit(ts, txn->writes_, &wal_end_lsn);
      if (!append_status.ok()) {
        commit_lock.unlock();
        if (external_ts == 0 && ledger_ != nullptr) ledger_->AbortCommit(ts);
        if (reporter_) reporter_("wal append", append_status);
        return append_status;
      }
      wal_appended_lsn_.store(wal_end_lsn, std::memory_order_release);
    }
    inflight_.insert(ts);
  }
  // Everything from here to the bookkeeping runs while `ts` is in
  // inflight_: the watermark cannot publish past it, a time split (which
  // caps its boundary at the PUBLISHED watermark) cannot out-run its
  // stamps, and FreezeCommits waits for it.
  //
  // Capture the previous committed versions for the hook BEFORE any
  // stamping — and only when a hook is installed (no secondary indexes =
  // no pre-commit read descents at all).
  std::vector<std::pair<bool, std::string>> old_values;
  if (hook_) {
    old_values.reserve(txn->writes_.size());
    // Newest committed version, published or not: an earlier commit to
    // the same key may still be waiting for the watermark.
    tsb_tree::ReadOptions latest;
    latest.as_of = kMaxCommittedTs;
    for (const auto& [key, value] : txn->writes_) {
      std::string old_value;
      const bool had_old = tree_->Get(latest, key, &old_value).ok();
      old_values.emplace_back(had_old, std::move(old_value));
    }
  }
  // Batched stamping: the write set is sorted, so every key landing on
  // the same leaf is stamped in one descent (see
  // TsbTree::StampCommittedBatch). Stamping descents of different commits
  // run in parallel (optimistic latch coupling inside the tree).
  Status status = tree_->StampCommittedBatch(txn->writes_, txn->id_, ts);
  if (status.ok() && wal_ != nullptr) {
    // Group-commit rendezvous: an fdatasync failure poisons before any
    // reader observed the stamp.
    status = wal_->Sync(wal_end_lsn);
  }
  if (status.ok() && hook_) {
    for (size_t i = 0; i < txn->writes_.size() && status.ok(); ++i) {
      const Slice old_value(old_values[i].second);
      status = hook_(txn->writes_[i].first,
                     old_values[i].first ? &old_value : nullptr,
                     txn->writes_[i].second, ts);
    }
  }
  // Publication advances to the largest timestamp with no smaller commit
  // still in flight — an ordered prefix — so a reader at the watermark
  // sees whole transactions (every key stamped, every secondary index
  // maintained) or nothing (paper section 4.1).
  Timestamp publish;
  Timestamp cap;
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    inflight_.erase(ts);
    if (frozen_ && inflight_.empty()) commit_cv_.notify_all();
    if (!status.ok()) {
      // A storage/hook error mid-commit may leave partial stamps behind.
      // Those must never become reader-visible: poison the watermark so
      // no later commit can publish past this torn timestamp. The
      // database needs recovery (degraded-mode Resume purges the failed
      // timestamp); readers keep a consistent (older) view.
      if (publish_cap_ > ts - 1) publish_cap_ = ts - 1;
      failed_commits_.push_back(ts);
      if (external_ts != 0) failed_external_.insert(ts);
    } else if (completed_max_ < ts) {
      completed_max_ = ts;
    }
    publish = inflight_.empty() ? completed_max_ : *inflight_.begin() - 1;
    cap = publish_cap_;
    if (publish > cap) publish = cap;
  }
  if (!status.ok()) {
    if (external_ts == 0 && ledger_ != nullptr) ledger_->PoisonCommit(ts);
    TSB_LOG_ERROR("commit at t=%llu failed mid-stamp (%s); freezing the "
                  "read watermark at t=%llu",
                  (unsigned long long)ts, status.ToString().c_str(),
                  (unsigned long long)cap);
    if (reporter_) reporter_("commit", status);
    return status;
  }
  if (external_ts == 0) {
    if (ledger_ != nullptr) {
      ledger_->EndCommit(ts);  // global ordered prefix; publishes inside
    } else {
      tree_->clock().Publish(publish);  // monotone CAS-max inside
    }
  }
  UnlockKeys(*txn);
  txn->active_ = false;
  active_count_.fetch_sub(1, std::memory_order_acq_rel);
  if (commit_ts != nullptr) *commit_ts = ts;
  return Status::OK();
}

std::vector<Timestamp> TxnManager::failed_commits() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return failed_commits_;
}

void TxnManager::ResetAfterRepair() {
  Timestamp publish;
  std::vector<Timestamp> own_failed;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    own_failed.reserve(failed_commits_.size());
    for (const Timestamp ts : failed_commits_) {
      if (failed_external_.find(ts) == failed_external_.end()) {
        own_failed.push_back(ts);
      }
    }
    failed_commits_.clear();
    failed_external_.clear();
    publish_cap_ = kMaxCommittedTs;
    publish = completed_max_;
  }
  if (ledger_ != nullptr) {
    // The ledger owns the watermark. Lift only the pins THIS shard's own
    // commits set; externally-coordinated failures stay pinned until the
    // sharded facade has re-applied their decided slices (it unpoisons
    // them itself afterwards).
    for (const Timestamp ts : own_failed) ledger_->Unpoison(ts);
    return;
  }
  // Monotone CAS-max inside: commits that completed after the poisoning
  // (acked, durable, invisible under the cap) become readable here.
  tree_->clock().Publish(publish);
}

void TxnManager::FreezeCommits() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  // Block new commit starts first, then drain the in-flight set with
  // commit_mu_ RELEASED inside the wait: finishing committers need the
  // mutex for their bookkeeping, so holding it through the drain would
  // deadlock.
  frozen_ = true;
  commit_cv_.wait(lock, [&] { return inflight_.empty(); });
}

void TxnManager::UnfreezeCommits() {
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    frozen_ = false;
  }
  commit_cv_.notify_all();
}

Status TxnManager::AbortTxn(Transaction* txn) {
  if (txn->abort_failed_) {
    // A retry: the manager owns the rest of this abort.
    std::lock_guard<std::mutex> lock(abort_mu_);
    auto it = failed_aborts_.find(txn->id_);
    if (it != failed_aborts_.end()) {
      TSB_RETURN_IF_ERROR(FinishFailedAbort(it));
    }
    txn->active_ = false;  // finished now, or by FinishFailedAborts
    return Status::OK();
  }
  for (const auto& [key, value] : txn->writes_) {
    Status s = tree_->EraseUncommitted(key, txn->id_);
    if (!s.ok() && !s.IsNotFound()) {
      // The transaction stays active with its keys locked, but the bytes
      // the locks view (the caller's WriteBatch, or the Transaction's
      // arena) may be freed as soon as this returns: the manager keeps
      // copies of the keys, for the locks to view and for whoever
      // finishes the abort.
      std::vector<std::string> keys;
      keys.reserve(txn->writes_.size());
      for (const auto& [k, v] : txn->writes_) keys.push_back(k.ToString());
      {
        std::lock_guard<std::mutex> lock(abort_mu_);
        // Moving the vector keeps each string, and its bytes, in place.
        const auto& kept = failed_aborts_.emplace(txn->id_, std::move(keys))
                               .first->second;
        for (const std::string& k : kept) locks_.Rebind(k, k.data(), txn->id_);
      }
      txn->abort_failed_ = true;
      return ReportInsertError(s);
    }
  }
  UnlockKeys(*txn);
  txn->active_ = false;
  active_count_.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status TxnManager::FinishFailedAbort(
    std::map<TxnId, std::vector<std::string>>::iterator it) {
  const TxnId id = it->first;
  std::vector<LockTable::KeyValue> keys;
  keys.reserve(it->second.size());
  for (const std::string& key : it->second) {
    Status s = tree_->EraseUncommitted(key, id);
    if (!s.ok() && !s.IsNotFound()) return s;
    keys.emplace_back(Slice(key), Slice());
  }
  locks_.Unlock(keys, id);
  failed_aborts_.erase(it);
  active_count_.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status TxnManager::FinishFailedAborts() {
  std::lock_guard<std::mutex> lock(abort_mu_);
  while (!failed_aborts_.empty()) {
    TSB_RETURN_IF_ERROR(FinishFailedAbort(failed_aborts_.begin()));
  }
  return Status::OK();
}

}  // namespace txn
}  // namespace tsb
