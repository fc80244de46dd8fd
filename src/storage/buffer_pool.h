// Buffer pool: shard-partitioned LRU page cache over a Pager with pin/unpin
// handles and per-frame reader/writer latches.
//
// Thread model (paper section 4.1: one updater, many lock-free timestamped
// readers):
//  - The hash table and LRU lists are partitioned into shards, each guarded
//    by its own mutex; lookups and pin-count changes hold only the shard
//    mutex.
//  - Every frame carries a reader/writer latch. FetchShared pins the frame
//    and acquires the latch shared (concurrent readers proceed in
//    parallel); FetchExclusive acquires it exclusively (an updater
//    mutating the page — several TSB writers hold exclusive latches on
//    DIFFERENT pages at once). Latches
//    are acquired AFTER pinning and outside the shard mutex, so a blocked
//    latch never stalls the shard.
//  - Resident index pages: in a pool large enough to run all 16 shards
//    (512 frames or more), a TSB index page becomes resident on the fetch
//    that loads or first finds it, until resident frames fill one shard's
//    worth (capacity/16). Upper levels come first: a level-L page takes a
//    slot only while fewer than budget - budget/2^L are taken, so level-1
//    pages fill at most half the budget and a root that grows late still
//    finds a slot. A resident frame keeps one pool-owned pin for
//    good and is published in a lock-free page table whose chunks never
//    move. Every fetch looks there first: a hit takes only the frame
//    latch (no shard mutex, hash lookup, LRU splice or pin), so above the
//    leaf a descent writes only each frame's latch and hit counter.
//    Smaller pools keep the exact LRU of every page.
//  - Fetch (no latch) remains for strictly single-threaded users (the B+
//    and WOBT comparison trees, quiesced maintenance walks).
//
// Dirty frames are written back on eviction and FlushAll. When every frame
// of a shard is pinned the pool temporarily over-allocates rather than
// fail.
#ifndef TSBTREE_STORAGE_BUFFER_POOL_H_
#define TSBTREE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/pager.h"

namespace tsb {

class BufferPool;

/// Latch held by a PageHandle on its frame.
enum class LatchMode : uint8_t { kNone = 0, kShared = 1, kExclusive = 2 };

/// RAII pin (and optional latch) on a cached page. While a handle is live
/// the frame cannot be evicted; a latched handle additionally excludes (or
/// shares with) other latch holders. Movable, not copyable.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  uint32_t id() const { return id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }
  LatchMode latch_mode() const { return mode_; }

  /// Marks the frame dirty so eviction/flush writes it back, and bumps the
  /// frame's mutation counter (see version()).
  void MarkDirty();

  /// The frame's mutation counter: bumped by every MarkDirty, i.e. by
  /// every content mutation (the writer marks inside its exclusive latch
  /// scope). A reader that sampled the counter under a shared latch can
  /// later revalidate a pinned-but-unlatched view: an unchanged counter
  /// proves nothing mutated the bytes since the sample. Cursors use this
  /// to keep zero-copy frames across user-paced iteration without holding
  /// any latch.
  uint64_t version() const;

  /// Re-acquires the frame latch shared on an already-pinned, unlatched
  /// handle (pins survive latch cycling; eviction stays blocked).
  void LatchShared();

  /// Re-acquires the frame latch exclusively on an already-pinned,
  /// unlatched handle (blocks until all shared holders release).
  void LatchExclusive();

  /// Upgrades a shared latch to exclusive WITHOUT blocking. Not atomic:
  /// the shared latch is dropped first, so on success a concurrent writer
  /// may have mutated the page in the gap — revalidate with version().
  /// On failure the handle is left UNLATCHED (still pinned); the caller
  /// must re-latch and re-position.
  bool TryUpgrade();

  /// Drops the latch but keeps the pin, so the handle can relatch later.
  void Unlatch();

  /// Drops the latch (if any) and the pin early.
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, void* frame, uint32_t id, char* data,
             LatchMode mode, bool owns_pin = true)
      : pool_(pool),
        frame_(frame),
        id_(id),
        data_(data),
        mode_(mode),
        owns_pin_(owns_pin) {}

  BufferPool* pool_ = nullptr;
  void* frame_ = nullptr;  // Frame*, opaque to keep Frame private
  uint32_t id_ = 0;
  char* data_ = nullptr;
  LatchMode mode_ = LatchMode::kNone;
  // False for a resident-page hit: the pool's own pin keeps the frame, so
  // releasing the handle only unlatches.
  bool owns_pin_ = true;
};

/// Statistics for cache behaviour (benchmarks report these; the tree and
/// DB surface them next to HistReadStats so the magnetic axis of a mixed
/// workload is diagnosable alongside the historical one).
struct BufferPoolStats {
  /// Pages fetched = hits + misses; resident index-page hits count here.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  /// Fetches that went through a shard (mutex, hash lookup, pin): every
  /// miss and every hit but the resident ones.
  uint64_t shard_lookups = 0;

  /// Frame-cache hits per lookup; 1.0 when the pool was never consulted.
  double hit_ratio() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 1.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }

  void Add(const BufferPoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    dirty_writebacks += o.dirty_writebacks;
    shard_lookups += o.shard_lookups;
  }
};

/// Sharded LRU buffer pool. `capacity` is the total number of resident
/// frames across all shards.
class BufferPool {
 public:
  BufferPool(Pager* pager, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches page `id` through the cache (reads on miss) and pins it
  /// without latching — single-threaded callers only.
  Status Fetch(uint32_t id, PageHandle* handle);

  /// Fetches and pins page `id`, then acquires its frame latch shared.
  /// Concurrent FetchShared calls on the same page proceed in parallel.
  Status FetchShared(uint32_t id, PageHandle* handle);

  /// Fetches and pins page `id`, then acquires its frame latch exclusively
  /// (blocks until all shared holders release).
  Status FetchExclusive(uint32_t id, PageHandle* handle);

  /// Allocates a fresh page, initializes its header to `type`, pins it and
  /// marks it dirty. The page is invisible to other threads until the
  /// caller links it into a shared structure, so no latch is taken.
  Status New(PageType type, PageHandle* handle);

  /// Writes back a dirty frame now (keeps it cached).
  Status Flush(uint32_t id);

  /// Writes back every dirty frame. Must not race with page mutators.
  Status FlushAll();

  /// Drops page `id` from the cache (must be unpinned) and frees it in the
  /// pager. Used when a current node is erased (e.g. abort cleanup). A
  /// resident page is unpublished first; no other thread may still reach
  /// it (a dropped page is unreachable by then).
  Status Drop(uint32_t id);

  Pager* pager() const { return pager_; }

  /// No-steal mode: eviction never writes a dirty frame back to the
  /// device (the pool over-allocates instead of stealing). WAL-protected
  /// databases run in this mode so the on-disk page graph only changes at
  /// checkpoints — the structurally consistent base logical WAL replay
  /// requires. Checkpoints write the dirty frames through PinDirty.
  void set_no_steal(bool on) {
    no_steal_.store(on, std::memory_order_release);
  }
  bool no_steal() const { return no_steal_.load(std::memory_order_acquire); }

  /// Pins every dirty frame and appends one unlatched handle per frame to
  /// `out`, so a checkpoint writes straight from the frames. Caller must
  /// have quiesced all mutators (checkpoint holds the tree's exclusive
  /// writer lock); the pins keep the frames resident until released.
  void PinDirty(std::vector<PageHandle>* out);

  /// Marks the frame of a PinDirty handle clean once the checkpoint has
  /// written it and synced the device (counted as a dirty write-back).
  void MarkClean(const PageHandle& handle);

  /// Ids of the currently dirty frames, no image copies (exact only when
  /// quiesced). Device-side verification uses this to skip pages whose
  /// on-disk copy is legitimately behind the pool (no-steal).
  void DirtyIds(std::vector<uint32_t>* out);
  /// True when some frame is dirty (exact only when quiesced).
  bool HasDirty() const;

  /// Aggregated snapshot across shards (exact only when quiesced).
  BufferPoolStats stats() const;
  void ResetStats();
  size_t resident_frames() const;
  size_t shard_count() const { return num_shards_; }
  /// Index pages published in the resident page table (at most
  /// resident_budget()).
  size_t resident_index_pages() const {
    return resident_count_.load(std::memory_order_acquire);
  }
  /// capacity/16 in a 16-shard pool, 0 (residency off) otherwise.
  size_t resident_budget() const { return resident_budget_; }

 private:
  friend class PageHandle;

  struct Frame {
    uint32_t id = 0;
    std::unique_ptr<char[]> data;
    int pins = 0;                    // guarded by the shard mutex
    std::atomic<bool> dirty{false};
    // Mutation counter (see PageHandle::version). Monotone over the
    // frame's residency; a frame cannot be evicted and reloaded while any
    // pin — hence any recorded baseline — exists, so comparisons never
    // cross a reload.
    std::atomic<uint64_t> version{0};
    std::atomic<bool> loading{false};  // device read in flight
    std::atomic<bool> load_failed{false};
    // The loader's failing Status, written before the `loading` false
    // release-store; waiters read it after their acquire on `loading`, so
    // Corruption (e.g. a checksum mismatch) propagates to every fetcher
    // instead of a generic IOError.
    Status load_error;
    std::shared_mutex latch;         // page-content reader/writer latch
    // Hits served by the resident page table; beside the latch, whose
    // cache line the hit writes anyway. Folded by stats().
    std::atomic<uint64_t> resident_hits{0};
    bool resident = false;           // guarded by the shard mutex
    // List node carrying this frame's id; lives in `lru` while unpinned
    // (in_lru) and is parked in `pinned_nodes` while pinned, so pin/unpin
    // splice the node instead of freeing and reallocating it.
    std::list<uint32_t>::iterator lru_pos;
    bool in_lru = false;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint32_t, Frame> frames;
    std::list<uint32_t> lru;  // front = most recent
    std::list<uint32_t> pinned_nodes;  // parked nodes of pinned frames
    BufferPoolStats stats;
  };

  Shard& ShardFor(uint32_t id) { return shards_[id % num_shards_]; }

  /// Looks up or loads `id` in its shard and pins it. Returns the frame.
  /// Miss-path device reads run outside the shard mutex (frames are
  /// published pinned + `loading`; concurrent fetchers block on the flag
  /// via atomic wait, never holding the shard — and the page latch is
  /// never touched while the shard mutex is held).
  Status PinFrame(uint32_t id, Frame** out);
  /// Pins a resident frame (shard mutex held), parking its LRU node.
  void PinResident(Shard* shard, Frame* f);
  void Unpin(Frame* frame);
  void UnpinDiscard(Frame* frame);
  Status EvictIfNeeded(Shard* shard);
  Status WriteBack(Frame* f);

  /// The body of Fetch, FetchShared and FetchExclusive: the resident
  /// table first, else the shard; then the latch in `mode`.
  Status FetchLatched(uint32_t id, LatchMode mode, PageHandle* handle);
  /// The resident frame of `id`, counting the hit; null when none.
  Frame* FindResident(uint32_t id);
  /// Publishes a pinned, latched (or single-threaded) frame in the
  /// resident table when it holds an index page and its level's share of
  /// the budget has room.
  void MaybeMakeResident(Frame* f);
  /// Resident pages below which a level-`level` index page may join.
  size_t ResidentLimit(uint8_t level) const;
  /// Slot of `id` in the resident table; null if its chunk is absent.
  std::atomic<Frame*>* ResidentSlot(uint32_t id, bool create);

  // Resident page table: page id -> frame, two levels so chunks never
  // move once published. Ids past the table simply stay in the shards.
  static constexpr uint32_t kChunkBits = 12;
  static constexpr uint32_t kChunkCount = 4096;  // ids below 2^24
  struct TableChunk {
    std::atomic<Frame*> slots[size_t{1} << kChunkBits];
  };

  Pager* pager_;
  size_t shard_capacity_;
  size_t num_shards_;
  std::atomic<bool> no_steal_{false};
  std::unique_ptr<Shard[]> shards_;

  size_t resident_budget_ = 0;
  std::unique_ptr<std::atomic<TableChunk*>[]> table_;  // null: residency off
  // Guards resident_ and chunks_; taken before a shard mutex.
  mutable std::mutex resident_mu_;
  std::vector<Frame*> resident_;
  std::vector<std::unique_ptr<TableChunk>> chunks_;  // owns table_'s chunks
  std::atomic<size_t> resident_count_{0};
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_BUFFER_POOL_H_
