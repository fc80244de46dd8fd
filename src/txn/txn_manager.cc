#include "txn/txn_manager.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logger.h"

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
  if (abort_only_) {
    return Status::TxnNotActive("Put on abort-only transaction");
  }
  const size_t pos = LowerBound(key);
  if (pos < writes_.size() && writes_[pos].first == key) {
    // Already locked and owned: only the value changes.
    const Status s = mgr_->tree_->PutUncommitted(key, value, id_);
    if (!s.ok()) {
      // The history flush that ends an insert can fail after the new
      // value replaced the old one in the tree, which writes_ (the WAL
      // frame, the hooks) would then contradict: only Abort is left. A
      // record that can never fit is rejected before any page changes.
      if (!s.IsInvalidArgument()) abort_only_ = true;
      return mgr_->ReportInsertError(s);
    }
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
    // A split whose history flush failed leaves the record inserted:
    // erase it (NotFound when the insert never landed). The key never
    // enters writes_, so Abort would not release the lock this call took.
    const Status erased = mgr_->tree_->EraseUncommitted(key, id_);
    if (!erased.ok() && !erased.IsNotFound()) {
      // The record may still be there: keep the key, locked and owned,
      // so Abort erases it before it unlocks. A Put that failed must not
      // commit, so only Abort is left.
      const Slice owned_key = Own(key);
      mgr_->locks_.Rebind(key, owned_key.data(), id_);
      writes_.insert(writes_.begin() + pos, KeyValue(owned_key, Own(value)));
      abort_only_ = true;
    } else {
      mgr_->locks_.Unlock({&kv, 1}, id_);
    }
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
  if (abort_only_) {
    return Status::TxnNotActive("Commit on abort-only transaction");
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
  // A device error under an insert (a page read, or the history flush
  // that ends a write whose splits staged nodes): the device is suspect,
  // so escalate as a WAL append failure does.
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
  if (txn->abort_only_) {
    return Status::TxnNotActive("CommitPrepared on abort-only transaction");
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
  // semantics: records are stamped with transaction commit time). The
  // ledger registers it in-flight atomically with the tick; an externally
  // allocated timestamp is already registered by the caller.
  Timestamp ts;
  uint64_t wal_end_lsn = 0;
  {
    std::unique_lock<std::mutex> commit_lock(commit_mu_);
    commit_cv_.wait(commit_lock, [&] { return !frozen_; });
    if (gate_) TSB_RETURN_IF_ERROR(gate_());
    ts = external_ts != 0 ? external_ts : ledger_->TickCommit();
    if (wal_ != nullptr) {
      // Log under the tick's commit_mu_: append order == timestamp order,
      // so replay reproduces the one serialization the watermark could
      // have published. (Cross-shard slices may land out of global ts
      // order in a SHARD's log, but per key the lock table serializes
      // writers, so per-key order — all replay depends on — still holds.)
      // An append failure aborts the commit before any stamp — the
      // transaction stays active and abortable, nothing is torn, nothing
      // to poison — but the log itself is sick: escalate.
      Status append_status =
          wal_->AppendCommit(ts, txn->writes_, &wal_end_lsn);
      if (!append_status.ok()) {
        commit_lock.unlock();
        if (external_ts == 0) ledger_->AbortCommit(ts);
        if (reporter_) reporter_("wal append", append_status);
        return append_status;
      }
      wal_appended_lsn_.store(wal_end_lsn, std::memory_order_release);
    }
    ++inflight_;
  }
  // Everything from here to the bookkeeping runs while `ts` is in the
  // ledger's in-flight set and counted in inflight_: the watermark cannot
  // publish past it, a time split (which caps its boundary at the
  // PUBLISHED watermark) cannot out-run its stamps, and FreezeCommits
  // waits for it.
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
  // The ledger publishes the largest timestamp with no smaller commit
  // still in flight — an ordered prefix — so a reader at the watermark
  // sees whole transactions (every key stamped, every secondary index
  // maintained) or nothing (paper section 4.1). A commit that failed
  // mid-stamp may leave partial stamps behind, which must never become
  // reader-visible: the ledger pins the watermark below its timestamp
  // until degraded-mode Resume purges it; readers keep a consistent
  // (older) view. The ledger retires `ts` under commit_mu_, so a
  // freezer finds every drained commit already published or pinned.
  Timestamp pin = 0;
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    if (status.ok()) {
      if (external_ts == 0) ledger_->EndCommit(ts);
    } else {
      if (external_ts == 0) pin = ledger_->PoisonCommit(ts);
      failed_commits_.push_back(ts);
      if (external_ts != 0) failed_external_.push_back(ts);
    }
    if (--inflight_ == 0 && frozen_) commit_cv_.notify_all();
  }
  if (!status.ok()) {
    if (external_ts == 0) {
      TSB_LOG_ERROR("commit at t=%llu failed mid-stamp (%s); the read "
                    "watermark is pinned at t=%llu until repair",
                    (unsigned long long)ts, status.ToString().c_str(),
                    (unsigned long long)pin);
    } else {
      TSB_LOG_ERROR("prepared commit at t=%llu failed mid-stamp (%s); its "
                    "coordinator pins the read watermark below it",
                    (unsigned long long)ts, status.ToString().c_str());
    }
    if (reporter_) reporter_("commit", status);
    return status;
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
  std::vector<Timestamp> own_failed;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    for (const Timestamp ts : failed_commits_) {
      if (std::find(failed_external_.begin(), failed_external_.end(), ts) ==
          failed_external_.end()) {
        own_failed.push_back(ts);
      }
    }
    failed_commits_.clear();
    failed_external_.clear();
  }
  // Lift only the pins this manager's own commits set: commits that
  // completed after the poisoning (acked, durable, invisible under the
  // pin) become readable here. Externally-coordinated failures stay
  // pinned until the sharded facade has re-applied their decided slices
  // (it unpoisons them itself afterwards).
  for (const Timestamp ts : own_failed) ledger_->Unpoison(ts);
}

void TxnManager::FreezeCommits() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  // Block new commit starts first, then drain the in-flight count with
  // commit_mu_ RELEASED inside the wait: finishing committers need the
  // mutex for their bookkeeping, so holding it through the drain would
  // deadlock.
  frozen_ = true;
  commit_cv_.wait(lock, [&] { return inflight_ == 0; });
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
