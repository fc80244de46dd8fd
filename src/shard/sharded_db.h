// ShardedDB: N MultiVersionDB shards behind the single-database surface.
//
// Keys hash-partition (seeded Hash64, see common/hash.h) over N shards,
// each a full MultiVersionDB in its own subdirectory — own devices, own
// buffer pool, own WAL, own ErrorHandler — so writers on different
// shards never contend on a page, a latch, or a log. What makes the
// ensemble ONE database instead of N is one shared CommitLedger
// (DbOptions::shared_ledger): it owns the clock every shard's tree runs
// on, every shard's TxnManager commits through it, and it publishes the
// watermark over the GLOBAL in-flight set. A timestamp allocated on any
// shard is meaningful on all of them, and a reader at the watermark sees
// whole transactions or nothing — the paper's section 4.1 guarantee,
// lifted from one tree to N.
//
// Writes route by key. A batch whose keys all hash to one shard commits
// on that shard alone (the common, embarrassingly parallel case). A
// multi-shard batch runs a coordinator protocol whose commit point is a
// single self-contained decision record in the top-level coordinator log
// (`coord.tsb`, the same frame format as the shard WALs):
//
//   1. lock + write uncommitted slices on every touched shard
//   2. ts = ledger.TickCommit()       — pins the watermark below ts
//   3. append {ts, ALL ops} to coord.tsb + fdatasync   <- commit point
//   4. CommitPrepared(slice, ts) on every touched shard (shard WAL
//      append + stamp + group-commit sync)
//   5. ledger.EndCommit(ts)           — watermark may now pass ts
//
// Crash before 3: no shard logged anything at ts — the batch never
// happened (a failed append truncates back to the last whole frame, so
// no half-appended decision can replay). A FAILED SYNC in 3 is
// indeterminate — the frame may or may not be durable — so the writer
// gets the error but the timestamp stays poisoned (pinning the
// watermark, exactly like a single shard's failed group commit):
// Resume() resolves it to ABORT by rebuilding the coordinator log
// without the ghost frame, while a crash first resolves it to COMMIT at
// the next Open's replay. Either way no reader observed the other
// outcome — the pin kept the timestamp unreadable throughout.
// Crash after 3: Open replays coord.tsb, recomputes each op's
// home shard from the persisted hash seed, and idempotently re-applies
// every missing slice (a slice already in a shard — WAL-replayed or
// checkpointed — is detected by an exact as-of probe and skipped), so
// every acked batch surfaces fully visible or fully absent. The
// coordinator log only truncates after EVERY shard has checkpointed
// (folding re-applied slices into their durable bases), under the same
// exclusive lock that excludes in-flight decisions.
//
// A CommitPrepared failure AFTER the commit point leaves the batch
// decided but unfinished: the facade poisons the ledger (watermark pinned
// below ts — no reader ever sees the partial batch), remembers the
// decision, and degrades only the sick shard. Healthy shards keep
// accepting writes (durable, invisible above the pin until repair).
// Resume() heals the sick shards, then purges + re-applies each pending
// decision on every touched shard and lifts the pin — the batch becomes
// visible exactly once, whole.
#ifndef TSBTREE_SHARD_SHARDED_DB_H_
#define TSBTREE_SHARD_SHARDED_DB_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "db/multiversion_db.h"
#include "shard/sharded_cursor.h"
#include "txn/commit_ledger.h"

namespace tsb {
namespace shard {

using db::DbOptions;
using db::MultiVersionDB;
using db::PinnableValue;
using db::ReadOptions;
using db::WriteBatch;

struct ShardedOptions {
  /// Options every shard is opened with (per-shard paths, devices and
  /// WALs are derived internally; base.shared_ledger is overwritten with
  /// the ensemble ledger). base.wrap_device, if set, is called with roles
  /// prefixed "shard-NNN/" so fault tests can target one shard.
  DbOptions base;
  /// Shard count, FIXED at creation (the persisted SHARDS manifest is
  /// authoritative on reopen; a mismatching nonzero value fails the
  /// open). 0 on reopen = use the manifest's count.
  uint32_t num_shards = 4;
  /// Seed of the routing hash, fixed at creation and persisted — reopen
  /// always routes with the manifest's seed, never this field.
  uint64_t hash_seed = 0x74736273'31393839ull;
  bool create_if_missing = true;
  /// Checkpoint every shard (and truncate the coordinator log) once
  /// coord.tsb exceeds this many bytes — bounds Open-time decision
  /// replay the same way DbOptions::wal_checkpoint_bytes bounds shard
  /// replay.
  uint64_t coord_checkpoint_bytes = 8u << 20;
  /// Fault plan for the COORDINATOR log's appends/syncs (shard WALs take
  /// base.wal_fault_plan). nullptr = no injection.
  std::shared_ptr<FaultPlan> coord_fault_plan;
  /// Last-chance per-shard override (tests: inject a fault plan into one
  /// shard), called after the facade derived shard `i`'s options.
  std::function<void(uint32_t shard, DbOptions* options)> shard_options_hook;
};

class ShardedDB;

/// Lock-free read-only transaction spanning every shard: one timestamp
/// captured from the shared clock's watermark, point reads routed by
/// key, cursors merged — the same shapes as txn::ReadTransaction.
class ShardedReadTransaction {
 public:
  Timestamp timestamp() const { return ts_; }
  Status Get(const Slice& key, std::string* value,
             Timestamp* version_ts = nullptr);
  std::unique_ptr<ShardedCursor> NewCursor();

 private:
  friend class ShardedDB;
  ShardedReadTransaction(ShardedDB* db, Timestamp ts) : db_(db), ts_(ts) {}

  ShardedDB* db_;
  Timestamp ts_;
};

class ShardedDB {
 public:
  /// Opens (creating, per options) the sharded database at `path`:
  /// shard-NNN/ subdirectories each holding a full MultiVersionDB, a
  /// SHARDS manifest pinning {num_shards, hash_seed}, and the
  /// coordinator log. Recovery order: shards first (each replays its own
  /// WAL on the shared clock), then the coordinator log resolves
  /// in-doubt multi-shard decisions, then the watermark publishes — so a
  /// first read observes every acked batch whole.
  static Status Open(const std::string& path, const ShardedOptions& options,
                     std::unique_ptr<ShardedDB>* out);

  /// Deletes every shard directory (via MultiVersionDB::Destroy), the
  /// SHARDS manifest and coordinator log, then the directory itself.
  /// Refuses unrecognized files the same way the single-DB Destroy does.
  static Status Destroy(const std::string& path);

  ~ShardedDB();

  ShardedDB(const ShardedDB&) = delete;
  ShardedDB& operator=(const ShardedDB&) = delete;

  // ---- writes ----

  /// Applies `batch` atomically under ONE commit timestamp regardless of
  /// how many shards its keys span. Single-shard batches commit on that
  /// shard alone; multi-shard batches run the coordinator protocol (file
  /// comment). Once this returns OK the batch is durably decided: it is
  /// either already visible or (after a mid-commit shard failure)
  /// invisible-but-pinned until Resume()/reopen completes it — readers
  /// never observe a torn batch either way.
  Status Write(const WriteBatch& batch, Timestamp* commit_ts = nullptr);

  /// One record in its own commit (always single-shard).
  Status Put(const Slice& key, const Slice& value,
             Timestamp* commit_ts = nullptr);

  // ---- reads (routed by key; same shapes as MultiVersionDB) ----

  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value, Timestamp* ts = nullptr);
  Status Get(const ReadOptions& options, const Slice& key,
             PinnableValue* value);

  /// K-way merging cursor over all shards, pinned at one resolved as-of
  /// time (see shard/sharded_cursor.h).
  std::unique_ptr<ShardedCursor> NewCursor(
      const ReadOptions& options = ReadOptions());

  /// Lock-free cross-shard read-only transaction at the shared
  /// watermark: one atomic load, never blocks, never sees a torn batch.
  ShardedReadTransaction BeginReadOnly();

  // ---- maintenance ----

  /// Checkpoints every shard (concurrently), then — when every shard
  /// succeeded and no decision is pending repair — truncates the
  /// coordinator log. Exclusive with in-flight multi-shard
  /// commits, so no decision record can slip into the dead prefix.
  Status Checkpoint();

  /// Heals the ensemble: resumes every degraded shard (repairing its
  /// quarantined pages), then completes every pending multi-shard
  /// decision (purge + re-apply on each touched shard, commits frozen)
  /// and lifts its watermark pin.
  Status Resume();

  /// One scrub pass over every shard (pages, blobs, WAL, MANIFEST) plus
  /// the ensemble's SHARDS manifest. A corrupt page quarantines on ITS
  /// shard alone — the other shards keep full service. `per_shard`, when
  /// non-null, receives one ScrubStats per shard (indexed by shard id);
  /// `total` the sum (plus the SHARDS manifest file). Detected corruption
  /// is reported through stats and the shards' error handlers, not the
  /// return status (non-OK = the scrub itself hit an I/O error).
  Status Scrub(db::ScrubStats* total = nullptr,
               std::vector<db::ScrubStats>* per_shard = nullptr);

  // ---- per-shard health (one sick shard degrades alone) ----

  /// First degraded shard's sticky error; OK when every shard is
  /// healthy.
  Status BackgroundError() const;
  /// True when ANY shard is degraded. Healthy shards keep serving reads
  /// AND writes — check shard_degraded() to find the sick one.
  bool degraded() const;
  bool shard_degraded(uint32_t shard) const;
  Status shard_background_error(uint32_t shard) const;
  db::ErrorHandlerStats shard_error_stats(uint32_t shard) const;

  // ---- introspection ----

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint64_t hash_seed() const { return hash_seed_; }
  /// Routing: the shard `key` lives on.
  uint32_t ShardOf(const Slice& key) const;
  MultiVersionDB* shard(uint32_t i) { return shards_[i].get(); }
  /// Committed cross-shard watermark.
  Timestamp Now() const { return ledger_->clock()->Visible(); }
  const std::string& path() const { return path_; }
  /// Decision records the coordinator replay re-applied at Open (0 after
  /// a clean shutdown).
  uint64_t in_doubt_replayed() const { return in_doubt_replayed_; }
  /// Multi-shard decisions currently awaiting Resume().
  size_t pending_decisions() const;

 private:
  ShardedDB() = default;

  /// Coordinator-replay callback: routes `commit`'s ops by the persisted
  /// seed and idempotently re-applies each shard's slice.
  Status ApplyDecision(const wal::WalCommit& commit);

  /// The multi-shard commit protocol (file comment). `ops` is the
  /// batch's write set (WriteBatch::SortedOps) and `slices` the same
  /// views split by shard; the caller verified there are several.
  Status WriteMultiShard(
      const std::map<uint32_t, std::vector<std::pair<Slice, Slice>>>& slices,
      std::span<const std::pair<Slice, Slice>> ops, Timestamp* commit_ts);

  /// Purge + re-apply one decided batch on every touched shard (commits
  /// frozen per shard), then lift its pin. Caller holds coord_mu_
  /// exclusive.
  Status RepairDecision(Timestamp ts,
                        const std::map<std::string, std::string>& ops);

  /// Checkpoints every shard concurrently, on min(shards, hardware
  /// threads) threads including the caller (no coordinator-log action).
  /// The first failure stops shards not yet started and is returned.
  /// Caller holds coord_mu_ exclusive.
  Status CheckpointShards();

  /// Replaces the coordinator log with a fresh empty one — the only way
  /// to shed ghost frames once the log carries a sticky sync error.
  /// Caller holds coord_mu_ exclusive and has checkpointed every shard.
  Status RebuildCoordLog();

  std::string path_;
  uint64_t hash_seed_ = 0;
  uint64_t coord_checkpoint_bytes_ = 0;
  /// Every shard holds it too (DbOptions::shared_ledger).
  std::shared_ptr<txn::CommitLedger> ledger_;
  /// Open finished: only then does destruction fold the shards.
  bool open_ = false;
  std::vector<std::unique_ptr<MultiVersionDB>> shards_;
  std::unique_ptr<wal::Wal> coord_wal_;
  wal::WalSyncMode coord_sync_mode_ = wal::WalSyncMode::kGroup;
  uint32_t coord_background_sync_ms_ = 0;
  std::shared_ptr<FaultPlan> coord_fault_plan_;
  uint64_t in_doubt_replayed_ = 0;

  /// Multi-shard commits hold this SHARED for their whole append-to-
  /// stamped window; Checkpoint/Resume hold it EXCLUSIVE — the log-
  /// truncation and repair barrier.
  mutable std::shared_mutex coord_mu_;
  /// Decisions durably committed but not fully stamped (a shard failed
  /// mid-CommitPrepared); keyed by commit timestamp. Guarded by
  /// multi_mu_; drained by Resume().
  std::mutex multi_mu_;
  std::map<Timestamp, std::map<std::string, std::string>> failed_multi_;
  /// Timestamps whose decision record's SYNC failed: outcome
  /// indeterminate, writer saw the error, watermark pinned. Resume()
  /// resolves them to abort (rebuild the log, lift the pin); a crash
  /// resolves them to commit (the frame, if durable, replays). Guarded
  /// by multi_mu_.
  std::set<Timestamp> failed_coord_;
};

}  // namespace shard
}  // namespace tsb

#endif  // TSBTREE_SHARD_SHARDED_DB_H_
