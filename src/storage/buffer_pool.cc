#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <thread>

#include "common/logger.h"

namespace tsb {

namespace {

constexpr size_t kMaxShards = 16;

// Shards only kick in for pools large enough that per-shard LRU cannot
// distort eviction behaviour; small pools (unit tests, tools) keep the
// exact global-LRU semantics of a single shard. The same bound decides
// residency: only a pool with kMaxShards shards keeps index pages
// resident, so small pools keep an exact LRU over every page.
size_t PickShardCount(size_t capacity) {
  size_t shards = 1;
  while (shards < kMaxShards && capacity / (shards * 2) >= 32) shards *= 2;
  return shards;
}

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    id_ = o.id_;
    data_ = o.data_;
    mode_ = o.mode_;
    owns_pin_ = o.owns_pin_;
    o.pool_ = nullptr;
    o.frame_ = nullptr;
    o.data_ = nullptr;
    o.mode_ = LatchMode::kNone;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  if (frame_ != nullptr) {
    auto* frame = static_cast<BufferPool::Frame*>(frame_);
    frame->dirty.store(true, std::memory_order_release);
    // Every content mutation marks dirty (inside the writer's exclusive
    // latch scope on shared structures), so this one bump site versions
    // all of them.
    frame->version.fetch_add(1, std::memory_order_release);
  }
}

uint64_t PageHandle::version() const {
  return frame_ == nullptr
             ? 0
             : static_cast<BufferPool::Frame*>(frame_)->version.load(
                   std::memory_order_acquire);
}

void PageHandle::LatchShared() {
  assert(frame_ != nullptr && mode_ == LatchMode::kNone);
  static_cast<BufferPool::Frame*>(frame_)->latch.lock_shared();
  mode_ = LatchMode::kShared;
}

void PageHandle::LatchExclusive() {
  assert(frame_ != nullptr && mode_ == LatchMode::kNone);
  static_cast<BufferPool::Frame*>(frame_)->latch.lock();
  mode_ = LatchMode::kExclusive;
}

bool PageHandle::TryUpgrade() {
  assert(frame_ != nullptr && mode_ == LatchMode::kShared);
  auto* frame = static_cast<BufferPool::Frame*>(frame_);
  // std::shared_mutex has no atomic upgrade: drop shared, then try to take
  // the exclusive latch without blocking (blocking here could deadlock
  // against another upgrader). The gap means a writer may slip in, so
  // callers that positioned under the shared latch must revalidate via
  // version() after a successful upgrade.
  frame->latch.unlock_shared();
  if (frame->latch.try_lock()) {
    mode_ = LatchMode::kExclusive;
    return true;
  }
  mode_ = LatchMode::kNone;
  return false;
}

void PageHandle::Unlatch() {
  if (frame_ == nullptr) return;
  auto* frame = static_cast<BufferPool::Frame*>(frame_);
  switch (mode_) {
    case LatchMode::kShared:
      frame->latch.unlock_shared();
      break;
    case LatchMode::kExclusive:
      frame->latch.unlock();
      break;
    case LatchMode::kNone:
      break;
  }
  mode_ = LatchMode::kNone;
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    auto* frame = static_cast<BufferPool::Frame*>(frame_);
    switch (mode_) {
      case LatchMode::kShared:
        frame->latch.unlock_shared();
        break;
      case LatchMode::kExclusive:
        frame->latch.unlock();
        break;
      case LatchMode::kNone:
        break;
    }
    if (owns_pin_) pool_->Unpin(frame);
    pool_ = nullptr;
    frame_ = nullptr;
    data_ = nullptr;
    mode_ = LatchMode::kNone;
  }
}

BufferPool::BufferPool(Pager* pager, size_t capacity) : pager_(pager) {
  if (capacity == 0) capacity = 1;
  num_shards_ = PickShardCount(capacity);
  shard_capacity_ = capacity / num_shards_;
  if (shard_capacity_ == 0) shard_capacity_ = 1;
  shards_.reset(new Shard[num_shards_]);
  if (num_shards_ == kMaxShards) {
    resident_budget_ = capacity / kMaxShards;
    table_.reset(new std::atomic<TableChunk*>[kChunkCount]());
  }
}

BufferPool::~BufferPool() {
  if (no_steal()) {
    // WAL-protected pool: the on-disk base only advances through crash-
    // atomic checkpoints. A destructor-time flush here would write
    // whatever half-state the frames hold (e.g. a degraded close with
    // poisoned commits) straight over the checkpointed base — exactly
    // what no-steal exists to prevent. Recovery replays the log instead.
    return;
  }
  Status s = FlushAll();
  if (!s.ok()) {
    TSB_LOG_ERROR("buffer pool close flush failed: %s",
                  s.ToString().c_str());
  }
}

std::atomic<BufferPool::Frame*>* BufferPool::ResidentSlot(uint32_t id,
                                                         bool create) {
  const uint32_t c = id >> kChunkBits;
  if (table_ == nullptr || c >= kChunkCount) return nullptr;
  TableChunk* chunk = table_[c].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    if (!create) return nullptr;
    // resident_mu_ held. Value-initialized: every slot starts null.
    chunks_.push_back(std::make_unique<TableChunk>());
    chunk = chunks_.back().get();
    table_[c].store(chunk, std::memory_order_release);
  }
  return &chunk->slots[id & ((uint32_t{1} << kChunkBits) - 1)];
}

BufferPool::Frame* BufferPool::FindResident(uint32_t id) {
  std::atomic<Frame*>* slot = ResidentSlot(id, /*create=*/false);
  if (slot == nullptr) return nullptr;
  Frame* f = slot->load(std::memory_order_acquire);
  if (f != nullptr) f->resident_hits.fetch_add(1, std::memory_order_relaxed);
  return f;
}

size_t BufferPool::ResidentLimit(uint8_t level) const {
  // Upper levels first: a level-L page may take a slot only while fewer
  // than budget - budget/2^L are taken, so every level keeps a reserve
  // for the levels above it, and a root that grows after the budget
  // filled still finds a slot. Level counts shrink by the fanout, so the
  // halving reserves stay ample.
  return resident_budget_ - (resident_budget_ >> std::min<uint8_t>(level, 63));
}

void BufferPool::MaybeMakeResident(Frame* f) {
  if (table_ == nullptr ||
      GetPageType(f->data.get()) != PageType::kTsbIndex) {
    return;
  }
  const size_t limit = ResidentLimit(TsbPageLevel(f->data.get()));
  if (resident_count_.load(std::memory_order_relaxed) >= limit) return;
  std::lock_guard<std::mutex> rl(resident_mu_);
  if (resident_.size() >= limit) return;
  Shard& shard = ShardFor(f->id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (f->resident) return;
  std::atomic<Frame*>* slot = ResidentSlot(f->id, /*create=*/true);
  if (slot == nullptr) return;
  // The caller's pin keeps the frame parked in pinned_nodes; this pin is
  // the pool's own and keeps it there until Drop.
  f->pins++;
  f->resident = true;
  resident_.push_back(f);
  resident_count_.store(resident_.size(), std::memory_order_release);
  slot->store(f, std::memory_order_release);
}

Status BufferPool::PinFrame(uint32_t id, Frame** out) {
  Shard& shard = ShardFor(id);
  Frame* f = nullptr;
  bool load_here = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.frames.find(id);
    shard.stats.shard_lookups++;
    if (it != shard.frames.end()) {
      f = &it->second;
      PinResident(&shard, f);
      shard.stats.hits++;
    } else {
      shard.stats.misses++;
      TSB_RETURN_IF_ERROR(EvictIfNeeded(&shard));
      f = &shard.frames[id];  // constructed in place; map nodes are stable
      f->id = id;
      f->data.reset(new char[pager_->page_size()]);
      f->pins = 1;
      shard.pinned_nodes.push_front(id);  // the frame's one list node
      f->lru_pos = shard.pinned_nodes.begin();
      // The device read happens OUTSIDE the shard mutex so other pins in
      // this shard don't stall behind the I/O. The frame is published
      // pinned + marked loading; concurrent fetchers of the same page pin
      // it and wait on the flag. Deliberately NOT a latch handoff: taking
      // the page latch while holding the shard mutex would order mu ->
      // latch, the inverse of a tree descent, which unpins the leaf's
      // parent while it holds the leaf's latch.
      f->loading.store(true, std::memory_order_release);
      load_here = true;
    }
  }
  if (load_here) {
    Status s = pager_->Read(id, f->data.get());
    if (!s.ok()) {
      f->load_error = s;  // before the release-stores: waiters acquire
      f->load_failed.store(true, std::memory_order_release);
    }
    f->loading.store(false, std::memory_order_release);
    f->loading.notify_all();
    if (!s.ok()) {
      UnpinDiscard(f);
      return s;
    }
  } else {
    // Wait for the loader; bounded by one device read. Blocking (futex)
    // rather than a yield spin: a device read is milliseconds, and an
    // oversubscribed scheduler can starve the loader behind its spinners.
    while (f->loading.load(std::memory_order_acquire)) {
      f->loading.wait(true, std::memory_order_acquire);
    }
  }
  if (f->load_failed.load(std::memory_order_acquire)) {
    // Copy the loader's status before dropping the pin — the last unpin
    // destroys the frame.
    Status s = f->load_error;
    if (s.ok()) s = Status::IOError("page load failed", std::to_string(id));
    UnpinDiscard(f);
    return s;
  }
  *out = f;
  return Status::OK();
}

void BufferPool::PinResident(Shard* shard, Frame* f) {
  if (f->in_lru) {
    // Park the node instead of erasing it: the steady-state pin/unpin
    // cycle then performs no allocation at all.
    shard->pinned_nodes.splice(shard->pinned_nodes.begin(), shard->lru,
                               f->lru_pos);
    f->in_lru = false;
  }
  f->pins++;
}

// Drops a pin on a frame whose load failed; the last pinner removes the
// frame so the bad page never enters the LRU.
void BufferPool::UnpinDiscard(Frame* frame) {
  Shard& shard = ShardFor(frame->id);
  std::lock_guard<std::mutex> lock(shard.mu);
  assert(frame->pins > 0);
  if (--frame->pins == 0) {
    shard.pinned_nodes.erase(frame->lru_pos);
    shard.frames.erase(frame->id);
  }
}

Status BufferPool::FetchLatched(uint32_t id, LatchMode mode,
                                PageHandle* handle) {
  Frame* f = FindResident(id);
  const bool resident = f != nullptr;
  if (!resident) TSB_RETURN_IF_ERROR(PinFrame(id, &f));
  // Outside the shard mutex: may block on another latch holder.
  if (mode == LatchMode::kShared) {
    f->latch.lock_shared();
  } else if (mode == LatchMode::kExclusive) {
    f->latch.lock();
  }
  // The latch makes the type read safe (Fetch callers are single-threaded).
  if (!resident) MaybeMakeResident(f);
  *handle = PageHandle(this, f, id, f->data.get(), mode,
                       /*owns_pin=*/!resident);
  return Status::OK();
}

Status BufferPool::Fetch(uint32_t id, PageHandle* handle) {
  return FetchLatched(id, LatchMode::kNone, handle);
}

Status BufferPool::FetchShared(uint32_t id, PageHandle* handle) {
  return FetchLatched(id, LatchMode::kShared, handle);
}

Status BufferPool::FetchExclusive(uint32_t id, PageHandle* handle) {
  return FetchLatched(id, LatchMode::kExclusive, handle);
}

Status BufferPool::New(PageType type, PageHandle* handle) {
  uint32_t id = 0;
  TSB_RETURN_IF_ERROR(pager_->Alloc(&id));
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  TSB_RETURN_IF_ERROR(EvictIfNeeded(&shard));
  Frame& f = shard.frames[id];
  f.id = id;
  f.data.reset(new char[pager_->page_size()]);
  InitPage(f.data.get(), pager_->page_size(), id, type);
  f.pins = 1;
  shard.pinned_nodes.push_front(id);  // the frame's one list node
  f.lru_pos = shard.pinned_nodes.begin();
  f.dirty.store(true, std::memory_order_release);
  *handle = PageHandle(this, &f, id, f.data.get(), LatchMode::kNone);
  return Status::OK();
}

Status BufferPool::Flush(uint32_t id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) return Status::OK();
  return WriteBack(&it->second);
}

Status BufferPool::FlushAll() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [id, f] : shard.frames) {
      TSB_RETURN_IF_ERROR(WriteBack(&f));
    }
  }
  return Status::OK();
}

Status BufferPool::Drop(uint32_t id) {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> rl(resident_mu_);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame& f = it->second;
      if (f.pins > (f.resident ? 1 : 0)) {
        return Status::Busy("Drop of pinned page", std::to_string(id));
      }
      if (f.resident) {
        // Unpublish before the frame dies; its hits stay in the totals.
        ResidentSlot(id, /*create=*/false)
            ->store(nullptr, std::memory_order_release);
        shard.stats.hits += f.resident_hits.load(std::memory_order_relaxed);
        std::erase(resident_, &f);
        resident_count_.store(resident_.size(), std::memory_order_release);
        f.resident = false;
        f.pins--;
      }
      if (f.in_lru) {
        shard.lru.erase(f.lru_pos);
      } else {
        shard.pinned_nodes.erase(f.lru_pos);
      }
      shard.frames.erase(it);
    }
  }
  return pager_->Free(id);
}

void BufferPool::Unpin(Frame* frame) {
  Shard& shard = ShardFor(frame->id);
  std::lock_guard<std::mutex> lock(shard.mu);
  assert(frame->pins > 0);
  if (--frame->pins == 0) {
    shard.lru.splice(shard.lru.begin(), shard.pinned_nodes, frame->lru_pos);
    frame->in_lru = true;
  }
}

Status BufferPool::EvictIfNeeded(Shard* shard) {
  while (shard->frames.size() >= shard_capacity_ && !shard->lru.empty()) {
    // Prefer the coldest CLEAN frame: it evicts without device I/O, so
    // the shard mutex (held by our caller) is never stretched across a
    // write-back on the common read path. Only when every unpinned frame
    // is dirty do we pay a write under the mutex.
    auto victim_pos = shard->lru.end();
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      Frame& f = shard->frames.at(*it);
      if (!f.dirty.load(std::memory_order_acquire)) {
        victim_pos = std::next(it).base();
        break;
      }
    }
    if (victim_pos == shard->lru.end()) {
      // Every unpinned frame is dirty. Under no-steal (WAL mode) dirty
      // pages must NOT reach the device between checkpoints — keep them
      // resident and over-allocate instead.
      if (no_steal_.load(std::memory_order_acquire)) break;
      victim_pos = std::prev(shard->lru.end());  // all dirty: LRU tail
    }
    const uint32_t victim = *victim_pos;
    auto it = shard->frames.find(victim);
    assert(it != shard->frames.end() && it->second.pins == 0);
    // Write back BEFORE unlinking the LRU node: on failure the frame must
    // stay fully consistent (in_lru with a valid lru_pos), or later
    // pin/unpin splices would operate on a dangling iterator.
    TSB_RETURN_IF_ERROR(WriteBack(&it->second));
    shard->lru.erase(victim_pos);
    it->second.in_lru = false;
    shard->frames.erase(it);
    shard->stats.evictions++;
  }
  // If everything is pinned we silently over-allocate; correctness first.
  return Status::OK();
}

Status BufferPool::WriteBack(Frame* f) {
  if (!f->dirty.load(std::memory_order_acquire)) return Status::OK();
  TSB_RETURN_IF_ERROR(pager_->Write(f->id, f->data.get()));
  f->dirty.store(false, std::memory_order_release);
  ShardFor(f->id).stats.dirty_writebacks++;
  return Status::OK();
}

void BufferPool::PinDirty(std::vector<PageHandle>* out) {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [id, f] : shard.frames) {
      if (!f.dirty.load(std::memory_order_acquire)) continue;
      PinResident(&shard, &f);
      out->push_back(PageHandle(this, &f, id, f.data.get(), LatchMode::kNone));
    }
  }
}

void BufferPool::MarkClean(const PageHandle& handle) {
  auto* frame = static_cast<Frame*>(handle.frame_);
  frame->dirty.store(false, std::memory_order_release);
  Shard& shard = ShardFor(handle.id());
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stats.dirty_writebacks++;
}

void BufferPool::DirtyIds(std::vector<uint32_t>* out) {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [id, f] : shard.frames) {
      if (f.dirty.load(std::memory_order_acquire)) out->push_back(id);
    }
  }
}

bool BufferPool::HasDirty() const {
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, f] : shard.frames) {
      if (f.dirty.load(std::memory_order_acquire)) return true;
    }
  }
  return false;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
    total.dirty_writebacks += shard.stats.dirty_writebacks;
    total.shard_lookups += shard.stats.shard_lookups;
  }
  std::lock_guard<std::mutex> rl(resident_mu_);
  for (const Frame* f : resident_) {
    total.hits += f->resident_hits.load(std::memory_order_relaxed);
  }
  return total;
}

size_t BufferPool::resident_frames() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.frames.size();
  }
  return total;
}

void BufferPool::ResetStats() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats = BufferPoolStats{};
  }
  std::lock_guard<std::mutex> rl(resident_mu_);
  for (Frame* f : resident_) {
    f->resident_hits.store(0, std::memory_order_relaxed);
  }
}

}  // namespace tsb
