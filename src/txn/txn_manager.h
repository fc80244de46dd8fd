// Transaction support for the TSB-tree, paper section 4.
//
// Updaters write uncommitted records (no timestamp) through the tree; at
// commit every written key is stamped with one commit timestamp issued by
// the tree's logical clock; on abort the uncommitted records are erased —
// possible precisely because the current database is erasable.
//
// Read-only transactions (section 4.1) take a start timestamp and read
// versions as of that time WITHOUT any locks: they never see uncommitted
// data (it has no timestamp) and never wait for updaters, because no
// updater can commit at or before an already-issued timestamp.
//
// Write-write conflicts between concurrent transactions are rejected
// eagerly (first-writer-wins lock table; see txn/lock_table.h).
//
// A transaction's write set is one sorted, distinct vector of (key, value)
// views. TxnManager::Write views the caller's WriteBatch (so the batch
// must outlive the call, as it does); Transaction::Put copies into a
// transaction-owned arena whose bytes never move. Locking, the uncommitted
// inserts, the WAL frame, stamping, the commit hook, unlocking and abort
// all read that one span: a batch commit copies no key into any map. An
// abort that fails hands the transaction to the manager: its keys stay
// locked, on key copies the manager keeps (the write set's bytes may die
// with the call), until a retried Abort or the database's Resume finishes
// the abort (FinishFailedAborts).
#ifndef TSBTREE_TXN_TXN_MANAGER_H_
#define TSBTREE_TXN_TXN_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "tsb/cursor.h"
#include "tsb/pinnable_value.h"
#include "tsb/tsb_tree.h"
#include "txn/commit_ledger.h"
#include "txn/lock_table.h"
#include "txn/write_batch.h"
#include "wal/wal.h"

namespace tsb {
namespace txn {

class TxnManager;

/// An updater transaction. Obtain via TxnManager::Begin; finish with
/// Commit or Abort (destruction aborts a still-active transaction).
/// A Transaction object belongs to one thread; different transactions may
/// run on different threads concurrently (first-writer-wins key locks
/// resolve conflicts; the tree latches pages internally).
///
/// Put keeps the write set sorted by inserting in place, O(n) per new key
/// that arrives out of key order, and keeps each key's newest value in the
/// arena (a rewrite that fits reuses the old bytes). Large transactions,
/// or ones that rewrite values with ever larger ones, belong in a
/// WriteBatch (TxnManager::Write), which sorts once.
class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  bool active() const { return active_; }

  /// Buffers an uncommitted version of `key`. Fails with TxnConflict if
  /// another active transaction wrote the key first. A failed Put that may
  /// have left its value in the tree (a rewrite of a key this transaction
  /// already wrote, or a new key whose cleanup failed) makes the
  /// transaction abort-only: Put and Commit then fail, and Abort erases
  /// every key and unlocks it.
  Status Put(const Slice& key, const Slice& value);

  /// Reads through the transaction: own uncommitted write first, then the
  /// latest committed version.
  Status Get(const Slice& key, std::string* value);

  /// Stamps every written key with one new commit timestamp.
  Status Commit(Timestamp* commit_ts = nullptr);

  /// Erases every uncommitted record this transaction wrote.
  Status Abort();

  size_t write_count() const { return writes_.size(); }

 private:
  friend class TxnManager;
  using KeyValue = tsb_tree::TsbTree::KeyValue;

  Transaction(TxnManager* mgr, TxnId id) : mgr_(mgr), id_(id) {}

  /// Index of the first write whose key is >= `key`.
  size_t LowerBound(const Slice& key) const;
  /// Copies `s` into bytes_.
  Slice Own(const Slice& s);

  TxnManager* mgr_;
  TxnId id_;
  bool active_ = true;
  /// An abort failed: the manager owns finishing it (see AbortTxn).
  bool abort_failed_ = false;
  /// A failed Put may have left the tree ahead of writes_ (see Put).
  bool abort_only_ = false;
  /// The write set: sorted by key, distinct, each key's newest value. The
  /// lock table views these keys until the transaction ends.
  std::vector<KeyValue> writes_;
  /// Backs the views Put adds to writes_ (one key copy per locked key,
  /// values as they grow); arena bytes never move.
  Arena bytes_;
};

/// A lock-free read-only transaction: a captured timestamp (section 4.1).
class ReadTransaction {
 public:
  ReadTransaction(tsb_tree::TsbTree* tree, Timestamp ts)
      : tree_(tree), ts_(ts) {}

  Timestamp timestamp() const { return ts_; }

  /// Reads the version of `key` valid at the transaction's timestamp.
  Status Get(const Slice& key, std::string* value,
             Timestamp* version_ts = nullptr) {
    tsb_tree::ReadOptions options;
    options.as_of = ts_;
    return tree_->Get(options, key, value, version_ts);
  }

  /// Zero-copy read at the transaction's timestamp (see
  /// TsbTree::Get(ReadOptions, key, PinnableValue*)).
  Status Get(const Slice& key, tsb_tree::PinnableValue* value) {
    tsb_tree::ReadOptions options;
    options.as_of = ts_;
    return tree_->Get(options, key, value);
  }

  /// Cursor over the key x time rectangle pinned at the transaction's
  /// timestamp — key-ordered, it is the paper's lock-free backup/unload
  /// scan.
  std::unique_ptr<tsb_tree::VersionCursor> NewCursor() {
    tsb_tree::ReadOptions options;
    options.as_of = ts_;
    return tree_->NewCursor(options);
  }

 private:
  tsb_tree::TsbTree* tree_;
  Timestamp ts_;
};

/// Issues transactions over one TsbTree. Thread-safe: the lock table has
/// one mutex (a batch takes it once to lock, once to release),
/// transaction ids and the active count are atomic, and
/// BeginReadOnly is genuinely lock-free (one atomic clock load — paper
/// section 4.1: readers never wait for updaters). Commits of different
/// transactions stamp in parallel; only the timestamp tick, the WAL
/// append and the watermark bookkeeping serialize — plus, with a commit
/// hook, the whole commit (see SetCommitHook). Commit timestamps come
/// from, and the watermark is published by, the manager's CommitLedger
/// (txn/commit_ledger.h).
class TxnManager {
 public:
  /// Called once per committed key, after stamping, with the previous
  /// committed value (nullptr if the key is new). Used by the DB layer to
  /// maintain secondary indexes. The slices live only for the call.
  using CommitHook =
      std::function<Status(const Slice& key, const Slice* old_value,
                           const Slice& new_value, Timestamp commit_ts)>;

  /// A lone tree's manager: commits tick and publish through a
  /// one-member ledger over the tree's clock.
  explicit TxnManager(tsb_tree::TsbTree* tree)
      : tree_(tree),
        own_ledger_(std::make_unique<CommitLedger>(&tree->clock())),
        ledger_(own_ledger_.get()) {}
  /// A shard's manager: commits tick and publish through `ledger`, shared
  /// by every shard and owning the clock their trees point into, so one
  /// watermark spans them all. `ledger` must outlive the manager.
  TxnManager(tsb_tree::TsbTree* tree, CommitLedger* ledger)
      : tree_(tree), ledger_(ledger) {}

  /// Starts an updater transaction.
  Status Begin(std::unique_ptr<Transaction>* out);

  /// Applies `batch` atomically under one commit timestamp. A later Put
  /// of a key wins. The write set views the batch's bytes (stable-sorted
  /// by key, the last Put of a key kept), so nothing is copied per key
  /// and `batch` must not change during the call. Every key is locked in
  /// one lock-table pass
  /// (first-writer-wins; a conflict fails the WHOLE batch before anything
  /// reaches the tree), written uncommitted with one descent per leaf
  /// (TsbTree::PutUncommittedBatch), then stamped in place and published
  /// as one transaction — secondary indexes update with the same
  /// timestamp through the commit hook.
  Status Write(const WriteBatch& batch, Timestamp* commit_ts = nullptr);

  /// Starts a lock-free reader pinned at the committed watermark (one
  /// atomic load; never blocks, never takes a mutex). The watermark only
  /// covers fully-stamped commits, so the reader can never observe a torn
  /// multi-key transaction — the paper's 4.1 guarantee that no updater
  /// commits at or before an already-issued read timestamp.
  ReadTransaction BeginReadOnly() {
    return ReadTransaction(tree_, tree_->VisibleNow());
  }

  /// Not thread-safe relative to in-flight commits; install before
  /// concurrent use (the DB layer does this when the first secondary
  /// index is registered). With a hook every commit runs whole under one
  /// index-order mutex: index maintenance must apply in timestamp order.
  void SetCommitHook(CommitHook hook) { hook_ = std::move(hook); }

  /// Installs the write-ahead log every commit appends to before
  /// stamping. Not thread-safe relative to in-flight commits; the DB
  /// layer installs it during Open (before handing the manager out) and
  /// swaps it at log rotation with commits frozen.
  /// nullptr = no logging (raw-device databases).
  void SetWal(wal::Wal* wal) {
    wal_ = wal;
    wal_appended_lsn_.store(wal != nullptr ? wal->appended_lsn() : 0,
                            std::memory_order_release);
  }
  wal::Wal* wal() const { return wal_; }

  /// End offset of the last commit frame this manager appended to the
  /// CURRENT log (resets on SetWal at rotation). This — not
  /// Wal::appended_lsn() — is what the DB layer's size-triggered
  /// checkpoint must poll: it is updated under commit_mu_ while the Wal
  /// object is pinned by the in-flight commit, so reading it never
  /// touches a Wal that a concurrent rotation is destroying.
  uint64_t wal_appended_lsn() const {
    return wal_appended_lsn_.load(std::memory_order_acquire);
  }

  /// Degraded-mode gate, checked at every commit start (after any freeze
  /// wait, before the commit timestamp is issued). Returns the sticky
  /// background error when the DB is degraded so commits fail fast with
  /// the original cause instead of wedging further. Install before
  /// concurrent use (the DB layer does, during Open).
  using CommitGate = std::function<Status()>;
  void SetCommitGate(CommitGate gate) { gate_ = std::move(gate); }

  /// Called (outside internal locks) when a commit fails in a way that
  /// sickens the database: a WAL append failure, a device I/O error while
  /// inserting the uncommitted versions, or ANY failure after the
  /// commit timestamp entered the stamping pipeline (mid-stamp, sync,
  /// index hook) — those poison the read watermark until repaired. The DB
  /// layer escalates into its ErrorHandler. Install before concurrent use.
  using ErrorReporter =
      std::function<void(const std::string& context, const Status& s)>;
  void SetErrorReporter(ErrorReporter fn) { reporter_ = std::move(fn); }

  /// Commits `txn` at an EXTERNALLY allocated timestamp — the shard-side
  /// half of a cross-shard commit. The caller has already allocated `ts`
  /// on the shared clock, registered it in the ledger (pinning the
  /// watermark below it) and made the cross-shard decision durable in its
  /// coordinator log; this call appends the shard's slice to the shard
  /// WAL, stamps it, and rides the group-commit sync — but does NOT
  /// publish or retire the ledger entry: the caller does, once every
  /// touched shard has finished. On failure the half-stamped records are
  /// tracked for purge by this shard's Resume, while the ledger
  /// poison/unpoison lifecycle for `ts` stays with the caller (the slice
  /// is re-applied from the coordinator log before the pin lifts).
  Status CommitPrepared(Transaction* txn, Timestamp ts);

  /// Commits that ran whole under the index-order mutex (a commit hook —
  /// secondary-index maintenance — requires timestamp-ordered
  /// application). A growing counter on an indexed workload is the signal
  /// that indexed commits are the write-scaling bottleneck.
  uint64_t serial_fallback_commits() const {
    return serial_fallback_commits_.load(std::memory_order_relaxed);
  }

  /// Commit timestamps that ticked and then failed mid-commit: whatever
  /// records they half-stamped are invisible (the poisoned watermark caps
  /// below every one of them) and must be purged from every tree before
  /// degraded mode can lift. Snapshot, in tick order.
  std::vector<Timestamp> failed_commits();

  /// Post-repair reset, called by the DB's Resume with commits frozen and
  /// the failed timestamps already purged: clears the failed list and
  /// lifts the ledger pins of this manager's own failed commits, so acked
  /// commits that finished AFTER the poisoning (durable but invisible
  /// until now) become readable again. Pins of failed CommitPrepared
  /// timestamps stay until their caller unpoisons them.
  void ResetAfterRepair();

  /// Blocks NEW commits and waits until every in-flight commit finishes
  /// (stamped, synced, bookkept). While frozen, the WAL end is exactly
  /// the committed state of the tree — the checkpoint invariant. Commits
  /// resume on UnfreezeCommits. One freezer at a time; reentrant freezing
  /// deadlocks (the DB layer serializes checkpoints).
  void FreezeCommits();
  void UnfreezeCommits();

  /// Finishes every abort that failed (erases the transaction's
  /// uncommitted records, releases its locks, stops counting it active).
  /// The database's Resume calls this once the device is healed; an
  /// abort that fails again stays pending and its error is returned.
  Status FinishFailedAborts();

  size_t active_txns() const {
    return active_count_.load(std::memory_order_acquire);
  }
  tsb_tree::TsbTree* tree() { return tree_; }

 private:
  friend class Transaction;

  /// Releases every lock `txn` holds.
  void UnlockKeys(const Transaction& txn);
  Status CommitTxn(Transaction* txn, Timestamp* commit_ts);
  /// Shared body of CommitTxn and CommitPrepared. `external_ts` == 0
  /// means "tick one from the ledger here"; nonzero means the caller
  /// allocated, pins the watermark, and publishes.
  Status CommitInternal(Transaction* txn, Timestamp* commit_ts,
                        Timestamp external_ts);
  Status AbortTxn(Transaction* txn);
  /// Erases the uncommitted records of failed abort `it`, then releases
  /// its locks and drops it. Caller holds abort_mu_.
  Status FinishFailedAbort(
      std::map<TxnId, std::vector<std::string>>::iterator it);
  /// Hands an insert failure to the error reporter when it is a device
  /// I/O error; returns `s`.
  Status ReportInsertError(const Status& s);

  tsb_tree::TsbTree* tree_;
  CommitHook hook_;
  CommitGate gate_;        // may be empty (no degraded-mode plumbing)
  ErrorReporter reporter_; // may be empty
  /// Set only for a lone tree's manager; ledger_ points at it then.
  std::unique_ptr<CommitLedger> own_ledger_;
  CommitLedger* const ledger_;
  std::atomic<uint64_t> serial_fallback_commits_{0};
  wal::Wal* wal_ = nullptr;
  /// Mirror of the live log's append offset, written only under
  /// commit_mu_ (appends and SetWal both hold it, directly or via the
  /// rotation freeze); see wal_appended_lsn().
  std::atomic<uint64_t> wal_appended_lsn_{0};
  std::atomic<TxnId> next_txn_{1};
  std::atomic<size_t> active_count_{0};
  LockTable locks_;
  // Held for a whole commit (tick -> stamps -> hooks -> bookkeeping) when
  // a commit hook is installed, so index maintenance applies in timestamp
  // order. Acquired before commit_mu_.
  std::mutex index_order_mu_;
  // Serializes the tick + WAL append (so log order is timestamp order)
  // and the ledger retirement around the stamping phase, which runs
  // unlocked. Guards frozen_, inflight_, failed_commits_ and
  // failed_external_. Acquired before the ledger's mutex.
  std::mutex commit_mu_;
  /// Signals commit starts blocked by a freeze and the freezer's drain
  /// wait; guarded by commit_mu_.
  std::condition_variable commit_cv_;
  bool frozen_ = false;
  /// Commits between their tick and their ledger retirement;
  /// FreezeCommits waits for it to drain.
  size_t inflight_ = 0;
  /// Ticked-then-failed commit timestamps awaiting purge; see
  /// failed_commits(). Guarded by commit_mu_.
  std::vector<Timestamp> failed_commits_;
  /// Subset of failed_commits_ whose timestamps were EXTERNALLY allocated
  /// (CommitPrepared): this shard's Resume purges their records, but must
  /// NOT lift their ledger pins — the cross-shard coordinator re-applies
  /// the decided slices first and unpoisons afterwards. Guarded by
  /// commit_mu_.
  std::vector<Timestamp> failed_external_;
  /// Transactions whose abort failed, with copies of their keys: still
  /// counted active, keys still locked, until FinishFailedAbort. Guarded
  /// by abort_mu_, which also serializes finishing them.
  std::mutex abort_mu_;
  std::map<TxnId, std::vector<std::string>> failed_aborts_;
};

}  // namespace txn
}  // namespace tsb

#endif  // TSBTREE_TXN_TXN_MANAGER_H_
