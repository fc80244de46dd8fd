// The Time-Split B-tree (paper section 3): a single integrated index over
// a current database on an erasable device and a historical database on an
// append-only device, with key splits, time splits at a chooseable time,
// and incremental one-node-at-a-time migration.
#ifndef TSBTREE_TSB_TSB_TREE_H_
#define TSBTREE_TSB_TSB_TREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/append_store.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "tsb/data_page.h"
#include "tsb/index_page.h"
#include "tsb/pinnable_value.h"
#include "tsb/split_policy.h"
#include "tsb/tsb_stats.h"
#include "txn/commit_ledger.h"

namespace tsb {
namespace tsb_tree {

class VersionCursor;

/// Sentinel for ReadOptions::as_of: read at the committed watermark (the
/// newest time at which every finished transaction is visible and no
/// in-flight one is).
inline constexpr Timestamp kAsOfLatest = kInfiniteTs;

/// Per-read options, threaded through every read entry point. The read
/// timestamp is the explicit choice point every multiversion query has;
/// making it an option (instead of method variants) keeps one read
/// surface for "now", "as of t" and snapshot-handle reads.
struct ReadOptions {
  /// Timestamp the read observes (stepwise-constant semantics, Fig 1).
  /// kAsOfLatest = the committed watermark.
  Timestamp as_of = kAsOfLatest;
  /// Re-verify blob checksums even when a previous pin already did.
  bool verify_checksums = false;
  /// Publish cold historical blobs into the shared read cache.
  bool fill_cache = true;
};

struct TsbOptions {
  uint32_t page_size = kDefaultPageSize;
  size_t buffer_pool_frames = 256;
  /// Shared-blob read cache for the historical store (0 = none). Cache
  /// hits pin the cached blob — no copy, no decode — so sizing this to the
  /// historical working set makes as-of reads allocation-free.
  size_t hist_cache_blobs = 8;
  /// Ignored: every tree runs the one optimistic-latch-coupling writer
  /// path (see the TsbTree thread model). Still declared only because the
  /// end-to-end benchmark (bench/e2e/tsb_e2e.cc) assigns it.
  bool concurrent_writers = false;
  /// Commit clock shared with other trees (must outlive this one).
  /// nullptr = the tree owns a private clock, the historical default.
  /// One injected clock spanning N trees is what gives a sharded database
  /// a single timestamp axis: a commit ts allocated on any shard is
  /// meaningful on every shard, and one published watermark covers them
  /// all. The clock's Visible() watermark then moves only through
  /// whoever coordinates the sharing (see txn::CommitLedger).
  LogicalClock* external_clock = nullptr;
  SplitPolicyConfig policy;
};

/// Converts public read options into the blob-read hints the node layer
/// consumes. `sequential` marks range scans (mapped reads then advise
/// kernel readahead over the scanned range).
inline BlobReadHints MakeBlobReadHints(const ReadOptions& options,
                                       bool sequential = false) {
  BlobReadHints h;
  h.verify_checksums = options.verify_checksums;
  h.fill_cache = options.fill_cache;
  h.sequential = sequential;
  return h;
}

/// A fully decoded node, for iterators, the checker and tools. Either
/// `data` (level == 0) or `index` (level > 0) is populated.
struct DecodedNode {
  uint8_t level = 0;
  bool historical = false;
  std::vector<DataEntry> data;
  std::vector<IndexEntry> index;
  bool is_data() const { return level == 0; }
};

/// The Time-Split B-tree.
///
/// Writes:
///  - Put(key, value, ts)            committed version, ts non-decreasing
///  - PutUncommittedBatch(kvs, txn)  versions without timestamp (section 4)
///  - StampCommittedBatch(kvs, txn, ts)
///                                   commit them in place: the cell's ts
///                                   and txn are rewritten in the page
///  - EraseUncommitted(key, txn)     abort cleanup (erasable current DB)
/// Reads (every committed read is parameterised by ReadOptions::as_of):
///  - Get(options, key)              version valid at options.as_of
///  - GetUncommitted(key, txn)       a transaction's own pending version
///  - NewCursor(options)             key-ordered state as of options.as_of
///                                   plus each key's versions (NextVersion)
///
/// Thread model (paper section 4.1 extended with optimistic latch
/// coupling):
///  - Every point read, writer and index split reaches its leaf through
///    one descent (Descend): a brief shared latch per index page, the
///    parent's PageHandle::version revalidated after each child latch,
///    and only the leaf latched for the caller — shared for reads,
///    exclusive for writers. Every structural change marks the parent and
///    the child dirty under both exclusive latches, so a child checked
///    against its parent's unchanged version belongs to one structural
///    state: no reader or writer pairs a parent entry with a child page
///    from a different one. A descent that loses a race side-steps along
///    the leaf's B-link sibling pointer (concurrent key split) or
///    restarts from the root.
///  - Mutators hold the writer mutex SHARED, so N writer threads proceed
///    in parallel; with one writer this is the paper's single-updater
///    model. A data split (key or time) takes page latches only: it works
///    on the leaf its insert already latched (no second descent), copies it
///    once into a private page-sized buffer, plans over views into that
///    copy outside every latch, and installs under the parent and leaf
///    exclusive latches after the leaf's version proves the plan current.
///    Only index splits and root growth serialize on an internal
///    structure mutex. Quiescing maintenance
///    (Flush, checkpoints, purges, ComputeSpaceStats, bounded scan/cursor
///    fallbacks) takes the writer mutex exclusively and thus excludes
///    every mutator. Route committed writes through ONE discipline:
///    either direct Put calls or TxnManager commits, not both interleaved
///    (the commit watermark ordering assumes it allocates the timestamps
///    it publishes).
///  - Read entry points never take the writer mutex. A point read at a
///    past time leaves the descent at its first historical child:
///    historical nodes are immutable blobs and need no latches.
///  - Scans go through VersionCursor, the one scan protocol: it keeps
///    pinned frames and revalidates per-page mutation counters,
///    re-seeking past a page a split rewrote underneath it; as-of-T
///    results are stable because commit timestamps only grow (section
///    4.1). Range-history queries (every version of a key range written
///    in a time window) are a cursor at t_hi - 1 walking NextVersion.
class TsbTree {
 public:
  /// Opens a tree. `magnetic` (erasable) holds the current database,
  /// `historical` (append-only; may be a WormDevice) holds migrated nodes.
  /// Both must outlive the tree.
  static Status Open(Device* magnetic, Device* historical,
                     const TsbOptions& options, std::unique_ptr<TsbTree>* out);

  ~TsbTree();

  // ---- writes ----

  /// Inserts a committed version. `ts` must be >= every previously written
  /// timestamp (commit order; the tree advances its clock to ts) and the
  /// watermark publishes it. A Put that fails after its version may have
  /// landed (the history flush that ends an insert runs after it) pins
  /// the watermark below `ts` until PurgeCommittedAt(ts) removes the
  /// version, so no later Put publishes past it.
  Status Put(const Slice& key, const Slice& value, Timestamp ts);

  /// Put without the publish, for one write of a commit that writes
  /// several at `ts`: the caller publishes the commit whole through
  /// put_ledger().EndCommit once every write landed. A failure pins the
  /// watermark as a failed Put does.
  Status PutUnpublished(const Slice& key, const Slice& value, Timestamp ts);

  /// The ledger Put and PutUnpublished publish through, over clock().
  txn::CommitLedger& put_ledger() { return put_ledger_; }

  /// One key/value pair of a batched insert (views; the caller keeps the
  /// bytes alive for the call).
  using KeyValue = std::pair<Slice, Slice>;

  /// Inserts uncommitted versions for transaction `txn`, at most one per
  /// (key, txn): a second Put of the key replaces the first. `kvs` must be
  /// sorted ascending by key and distinct (a WriteBatch). Every key that
  /// lands on the same leaf is inserted in ONE descent while the leaf has
  /// room, so a batch costs O(leaves touched + splits) descents — see
  /// counters().put_descents. A full leaf is split in place (the split
  /// reuses the insert's descent) and the descent redone for the key that
  /// did not fit. On a mid-batch error the keys before
  /// it stay inserted; the caller erases them (transaction abort).
  Status PutUncommittedBatch(std::span<const KeyValue> kvs, TxnId txn);

  /// The one-key PutUncommittedBatch.
  Status PutUncommitted(const Slice& key, const Slice& value, TxnId txn);

  /// Stamps the (key, txn) version of every key in `kvs` (the values are
  /// not read: the same write set PutUncommittedBatch took) with the same
  /// commit time, in place (DataPageRef::StampAt: no re-encode, no
  /// re-insert). `kvs` must be sorted ascending by key and distinct (a
  /// WriteBatch commit); all keys
  /// landing on the same leaf are stamped in ONE descent, so a large batch
  /// costs O(leaves touched) descents instead of O(keys) — see
  /// counters().stamp_descents. On a mid-batch failure the keys before it
  /// stay stamped (the caller poisons the watermark on error, so partial
  /// stamps never become visible).
  Status StampCommittedBatch(std::span<const KeyValue> kvs, TxnId txn,
                             Timestamp ts);

  /// The one-key StampCommittedBatch.
  Status StampCommitted(const Slice& key, TxnId txn, Timestamp ts);

  /// Erases the uncommitted version of (key, txn) — abort path.
  Status EraseUncommitted(const Slice& key, TxnId txn);

  // ---- reads ----

  /// Point lookup at options.as_of, copying the value into `*value`.
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value, Timestamp* ts = nullptr);

  /// Zero-copy point lookup at options.as_of: when the version resolves
  /// in the historical store the PinnableValue pins the node blob and the
  /// value is a view into it — no value memcpy on blob-cache/mmap hits.
  /// Values in mutable current pages are copied under the page latch.
  Status Get(const ReadOptions& options, const Slice& key,
             PinnableValue* value);

  /// Reads a transaction's own uncommitted version.
  Status GetUncommitted(const Slice& key, TxnId txn, std::string* value);

  /// The unified traversal surface: key-ordered Seek/Next/Prev at
  /// options.as_of plus NextVersion/SeekTimestamp along the current key's
  /// time axis. Safe to use while an updater runs (per-page version
  /// revalidation re-seeks past a concurrent split; the as-of state is
  /// immutable).
  std::unique_ptr<VersionCursor> NewCursor(const ReadOptions& options);

  /// Resolves a ReadOptions::as_of value (kAsOfLatest = the committed
  /// watermark) into a concrete timestamp.
  Timestamp ResolveAsOf(Timestamp as_of) const {
    return as_of == kAsOfLatest ? VisibleNow() : as_of;
  }

  // ---- maintenance / stats ----

  /// Persists tree meta and flushes dirty pages.
  Status Flush();

  // ---- durability (WAL checkpoint + recovery; see src/wal/) ----

  /// This tree's share of one crash-atomic checkpoint (protocol in
  /// wal/checkpoint.h). Holds the exclusive writer lock and pins on the
  /// dirty frames from BeginCheckpoint until the scope is destroyed, so no
  /// mutator runs and no frame moves while the pages are written.
  struct CheckpointScope {
    std::unique_lock<std::shared_mutex> quiesce;
    std::vector<char> meta;  ///< page-0 image (unsealed)
    /// Dirty frames at or above the durable high-water mark: no durable
    /// page references them, so they go in place before the journal.
    std::vector<PageHandle> fresh;
    /// Every other dirty frame: journaled, then applied in place.
    std::vector<PageHandle> journaled;
  };

  /// Takes the exclusive writer lock, syncs the historical device (the
  /// pages may reference freshly appended blobs), encodes the meta image
  /// with the new high-water mark and pins every dirty frame into
  /// `scope`, split into fresh and journaled pages.
  Status BeginCheckpoint(CheckpointScope* scope);

  /// True when a frame is dirty, i.e. a checkpoint has pages to write.
  bool HasDirtyPages() const { return pool_->HasDirty(); }

  /// Writes the fresh pages in place, in ascending id order, and syncs
  /// the current device. Runs before the journal commits.
  Status WriteFreshPages(CheckpointScope* scope);

  /// Runs after the journal commits: writes the journaled pages (in
  /// ascending id order) and the meta image in place, syncs the current device and marks every pinned
  /// frame clean. The caller releases the scope.
  Status FinishCheckpoint(CheckpointScope* scope);

  /// Page slots dropped at open because they lay above the durable
  /// high-water mark (orphans of a checkpoint killed before its commit
  /// point).
  uint64_t orphan_slots_dropped() const { return orphan_slots_dropped_; }

  /// WAL recovery insert: like Put but exempt from the monotone-clock
  /// check (replay re-inserts timestamps the persisted clock already
  /// advanced past) and without publishing (the caller decides when the
  /// replayed state becomes visible).
  Status ReplayCommitted(const Slice& key, const Slice& value, Timestamp ts);

  /// Removes every uncommitted (ghost) version left behind by a crash
  /// mid-transaction. Recovery runs this before WAL replay; `*purged`
  /// counts removed versions.
  Status PurgeUncommitted(uint64_t* purged);

  /// Removes every version stamped exactly `ts` — the repair step for a
  /// commit that FAILED mid-stamp: its timestamp never published (the
  /// poisoned watermark caps below it), so the records were never reader-
  /// visible, and a time split can never have migrated them to historical
  /// nodes (split boundaries cap at the published watermark). Degraded-
  /// mode Resume runs this, with commits frozen, for each failed commit
  /// timestamp before lifting the watermark. `*purged` counts removals.
  /// Also lifts the pin a failed Put at `ts` set.
  Status PurgeCommittedAt(Timestamp ts, uint64_t* purged);

  /// Walks the whole DAG and computes the section-5 space metrics.
  Status ComputeSpaceStats(SpaceStats* out);

  const TsbCounters& counters() const { return counters_; }
  /// Historical read-path counters: blob reads/bytes, cache hit ratio,
  /// mapped vs copied miss bytes, view vs. owned node decodes and the
  /// written-node compression ratio. Safe to call concurrently with
  /// readers.
  HistReadStats HistStats() const;
  /// Buffer-pool counters for the magnetic (current-page) axis — the
  /// companion of HistStats so mixed workloads are diagnosable end to end.
  BufferPoolStats PoolStats() const { return pool_->stats(); }
  const TsbOptions& options() const { return options_; }
  /// The commit clock — the tree's own unless TsbOptions::external_clock
  /// injected a shared one.
  LogicalClock& clock() { return *clock_; }
  /// Latest issued timestamp (allocator; may lead the committed state
  /// while a transaction commit is in flight).
  Timestamp Now() const { return clock_->Now(); }
  /// Committed watermark: the correct start timestamp for lock-free
  /// readers — everything at or before it is fully stamped.
  Timestamp VisibleNow() const { return clock_->Visible(); }

  Pager* pager() { return pager_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  AppendStore* hist_store() { return hist_.get(); }

  // ---- introspection (iterators, checker, tests) ----

  NodeRef root() const {
    return NodeRef::Current(root_.load(std::memory_order_acquire));
  }
  uint32_t height() const { return height_.load(std::memory_order_acquire); }

  /// Decodes any node (current page or historical blob).
  Status ReadNode(const NodeRef& ref, DecodedNode* out);

 private:
  TsbTree(Device* magnetic, Device* historical, const TsbOptions& options);

  Status Load();

  /// Reads the meta page and re-encodes it with the live root, height,
  /// clock and free list into `*meta` (one page, unsealed). Caller holds
  /// writer_mu_ exclusively.
  /// `high_water` is the durable high-water mark the image vouches for (0
  /// writes none: a plain Flush under steal mode proves nothing about the
  /// slots above it).
  Status EncodeMeta(uint32_t high_water, std::vector<char>* meta);

  struct PathElem {
    uint32_t page_id;
    int entry_idx;  // entry followed in THIS page to reach the child (-1 leaf)
  };

  /// Optional outputs of Descend: each non-null member is filled.
  struct DescentOut {
    /// The leaf's parent entry (identity rectangle for a root leaf),
    /// copied from the level-1 page and current while the leaf is latched.
    IndexEntry* pe = nullptr;
    /// The page holding `pe` (kInvalidPageId for a root leaf).
    uint32_t* parent_id = nullptr;
    /// (page, entry followed) per level from the root, the leaf last.
    std::vector<PathElem>* path = nullptr;
    /// Where a read at a past `t` stops when the point's child is
    /// historical; `*leaf` is then left empty.
    HistAddr* hist = nullptr;
  };

  /// The one descent from root_ to the leaf holding (`key`, `t`) — point
  /// reads, writers and index splits alike; writers and index splits pass
  /// t = kUncommittedTs, for which a historical child is Corruption.
  /// Optimistic latch coupling: index pages are read under brief shared
  /// latches and each child is validated against its parent's version;
  /// `*leaf` comes back latched in `mode`. Lost races side-step along the
  /// B-link sibling or restart from the root, at most 64 times (then
  /// Busy). Only exclusive descents count in writer_descents, olc_restarts
  /// and olc_sidesteps.
  Status Descend(const Slice& key, Timestamp t, LatchMode mode,
                 PageHandle* leaf, const DescentOut& out);

  /// Where a point lookup delivers its result: exactly one of `value`
  /// (copying) or `pinned` (zero-copy blob view) is non-null.
  struct PointSink {
    std::string* value = nullptr;
    PinnableValue* pinned = nullptr;
    Timestamp* ts = nullptr;
  };

  /// Point lookup for (key, t); t <= kUncommittedTs. Fills the sink.
  /// Takes no tree lock: one Descend with a shared leaf latch.
  Status SearchPoint(const Slice& key, Timestamp t, TxnId txn,
                     const BlobReadHints& hints, const PointSink& sink);

  /// Phase 2 of SearchPoint: continues a point lookup inside the
  /// historical store from `addr`, zero-copy (pinned blobs + view refs,
  /// binary-search descent).
  Status SearchHistPoint(HistAddr addr, const Slice& key, Timestamp t,
                         const BlobReadHints& hints, const PointSink& sink);

  /// Sorts checkpoint-pinned `pages` by id and writes each run of
  /// consecutive ids with one Pager::WriteRun.
  Status WritePageRuns(std::vector<PageHandle>* pages);

  /// Appends one serialized historical node and maintains the compression
  /// counters.
  Status AppendHistNode(const std::string& blob, uint64_t raw_bytes,
                        HistAddr* addr);

  /// The one insert loop behind Put, ReplayCommitted and
  /// PutUncommittedBatch: writes every pair of the sorted, distinct `kvs`
  /// as version (ts, txn) — ts = kUncommittedTs for uncommitted versions —
  /// with one leaf descent per run of keys sharing a leaf, splitting as
  /// needed. On an erasable historical device time splits stage their
  /// nodes in the append store's tail; InsertRecords flushes the tail on
  /// every return path, so the call makes at most one history write and
  /// its nodes are on the device when it returns. A failed flush is
  /// returned with the record in place (the splits stay installed and the
  /// nodes staged; the next flush, e.g. Resume's checkpoint, writes
  /// them). On a WORM each node is written as its split appends it, and
  /// a failed append leaves the split undone. The caller holds the
  /// WriterGuard.
  Status InsertRecords(std::span<const KeyValue> kvs, Timestamp ts,
                       TxnId txn);
  /// InsertRecords without the closing flush.
  Status InsertStaged(std::span<const KeyValue> kvs, Timestamp ts,
                      TxnId txn);

  /// Removes every current-axis record matching `doomed` under the page
  /// `page_id` (historical nodes are immutable; see the public Purge*
  /// docs for why they never hold a purged record).
  Status PurgeRecordsRec(
      uint32_t page_id,
      const std::function<bool(const DataEntryView&)>& doomed,
      uint64_t* purged);

  /// A data split planned from one decode of the leaf (tsb_tree.cc).
  struct DataSplitPlan;

  /// The split slow path of InsertRecords. Takes over `leaf`, the leaf
  /// InsertRecords found full (exclusively latched), with the parent entry
  /// `pe` and parent page `parent_id` its Descend returned, so a split
  /// makes no descent of its own. Splits by time or by key and takes no
  /// tree-global lock when the parent has room for the new entry: copy the
  /// leaf once into a page-sized buffer and drop its latch (keeping the
  /// pin), plan over views into the copy outside every latch, then latch
  /// parent -> leaf exclusively, check that the parent still holds the
  /// leaf's entry and the leaf's version is unchanged, and only then
  /// append the historical node (time split) and install. A failed check
  /// returns OK with nothing written; the caller re-descends and retries.
  /// A full parent or a root leaf goes to GrowIndexFor(`key`) instead.
  /// `key` is the key that did not fit; `next` is the batch's following
  /// key when it lands in the same leaf, else null (see PlanDataSplit).
  Status SplitForInsert(PageHandle leaf, const IndexEntry& pe,
                        uint32_t parent_id, const Slice& key,
                        const Slice* next);

  /// Chooses and prepares the split of a leaf holding `entries` whose
  /// parent entry is `pe`: partitions, serializes the historical node,
  /// sizes the parent entry the install will add. The plan views
  /// `entries`' bytes, which must outlive it, and per-thread buffers that
  /// the thread's next call reuses. A key split cuts at the
  /// byte midpoint, except for a run split: when `key` is new to the leaf
  /// and `next` follows it below the leaf's next entry, the cut goes
  /// where the run is inserted, provided the left node keeps at least
  /// half the bytes.
  Status PlanDataSplit(std::span<const DataEntryView> entries,
                       const IndexEntry& pe, const Slice& key,
                       const Slice* next, DataSplitPlan* plan);

  /// The only structure_mu_ section: re-descends to the leaf for `key` and
  /// grows the root when it is a leaf, or makes `need` bytes of room in
  /// the leaf's parent (splitting index pages, possibly growing the root).
  /// The caller retries its split with a fresh descent.
  Status GrowIndexFor(const Slice& key, uint32_t need);

  /// Ensures the index page at path[idx] can absorb `need` more bytes,
  /// splitting it (and ancestors) if necessary. May grow the root. Sets
  /// *changed when the structure was altered (the caller must re-descend).
  Status EnsureIndexRoom(const std::vector<PathElem>& path, size_t idx,
                         uint32_t need, bool* changed);

  /// Splits the index page at path[idx] (key split or local time split).
  Status SplitIndexPage(const std::vector<PathElem>& path, size_t idx);

  /// Performs the local time split of an index page at `split_t` (Fig 8):
  /// migrates entries with t_hi <= split_t plus straddlers to the append
  /// store, keeps entries with t_hi > split_t, updates the parent.
  /// `entries` were decoded at page version `ver`; the node is appended
  /// and installed only if the version still holds.
  Status TimeSplitIndexPage(const std::vector<PathElem>& path, size_t idx,
                            const IndexEntry& pe, int pe_pos, uint8_t level,
                            const std::vector<IndexEntry>& entries,
                            uint64_t ver, Timestamp split_t);

  /// Creates a new root above the current one (entry covering everything).
  Status GrowRoot();

  /// Returns the parent entry bounds for the child at path position idx
  /// (identity rectangle for the root).
  Status ParentEntryFor(const std::vector<PathElem>& path, size_t idx,
                        IndexEntry* entry, int* pos_in_parent);

  /// Applies a time split to a leaf's (key, ts)-sorted entries:
  /// partitions them into historical and current sets per the TIME-SPLIT
  /// RULE, both in the same order.
  static void PartitionByTime(std::span<const DataEntryView> all,
                              Timestamp t,
                              std::vector<DataEntryView>* hist,
                              std::vector<DataEntryView>* current,
                              size_t* redundant);

  Status WalkStats(const NodeRef& ref, SpaceStats* stats,
                   std::vector<std::pair<std::string, Timestamp>>* versions,
                   std::vector<HistAddr>* seen_hist);

  TsbOptions options_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<AppendStore> hist_;
  SplitPolicy policy_;
  /// Private clock, used only when no external clock was injected.
  LogicalClock own_clock_;
  /// The clock every timestamp decision goes through: &own_clock_ or
  /// TsbOptions::external_clock.
  LogicalClock* clock_;
  /// Publishes direct Puts, and keeps the watermark below a failed one.
  txn::CommitLedger put_ledger_;

  /// Mutators hold it SHARED — parallelism comes from per-page latches —
  /// while quiescing maintenance (Flush, checkpoints, purges,
  /// ComputeSpaceStats, scan/cursor fallbacks) takes it exclusively to
  /// stop all mutation.
  std::shared_mutex writer_mu_;
  /// Serializes index splits and root growth (GrowIndexFor); data splits
  /// never take it. Lock order: writer_mu_ -> structure_mu_ -> page latches
  /// top-down (parent before child); never acquired while holding a page
  /// latch. Under it the root and the index pages at level 2 and above are
  /// stable, but level-1 pages still take data-split installs under their
  /// exclusive latches, so index-split code reads every index page under a
  /// latch and re-checks the version of each page it rewrites before
  /// appending or installing. Acquisitions count in
  /// counters().structure_locks.
  std::mutex structure_mu_;

  /// RAII mutator lock: writer_mu_ shared.
  struct WriterGuard {
    explicit WriterGuard(TsbTree* t) : shared(t->writer_mu_) {}
    std::shared_lock<std::shared_mutex> shared;
  };

  std::atomic<uint32_t> root_{kInvalidPageId};
  std::atomic<uint32_t> height_{1};
  /// Page slots (meta included) of the newest checkpoint that may be
  /// durable; no durable page references a slot at or above it. Guarded
  /// by writer_mu_ held exclusively.
  uint32_t durable_high_water_ = 1;
  uint64_t orphan_slots_dropped_ = 0;  // set once by Load
  TsbCounters counters_;  // atomic fields; see tsb_stats.h
  mutable HistDecodeCounters hist_decodes_;  // bumped by lock-free readers
  // Written-node compression accounting (writer-only stores, but read by
  // HistStats concurrently, hence atomic).
  std::atomic<uint64_t> hist_node_raw_bytes_{0};
  std::atomic<uint64_t> hist_node_stored_bytes_{0};

  friend class VersionCursor;
  friend class TreeChecker;
};

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_TSB_TREE_H_
