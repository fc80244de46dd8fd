// AppendStore: the historical database medium.
//
// Section 3.4 of the paper: "the historical data can be appended to a
// sequential file"; index pointers "record its address ... and its length".
// Nodes are consolidated variable-length blobs. On a WORM device each
// append is rounded up to the sector grid (the residue is the only waste,
// hence the paper's "nearly approximate the sector size" utilization); on
// erasable devices appends pack byte-contiguously.
//
// Blob framing: [u32 payload_len][u32 masked crc32c(payload)][payload].
#ifndef TSBTREE_STORAGE_APPEND_STORE_H_
#define TSBTREE_STORAGE_APPEND_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/device.h"
#include "storage/io_stats.h"

namespace tsb {

/// Address of a blob inside the historical store.
struct HistAddr {
  uint64_t offset = 0;
  uint32_t length = 0;  ///< payload length (excludes framing)

  bool operator==(const HistAddr& o) const {
    return offset == o.offset && length == o.length;
  }
};

/// A pinned, immutable historical blob. The pin either refcounts a heap
/// buffer (copying read path, cache hits) or a device mapping (mmap read
/// path) — either way data() stays valid for the handle's lifetime, even
/// if the cache evicts the entry or the device remaps after growth. Cheap
/// to copy (one refcount bump).
class BlobHandle {
 public:
  BlobHandle() = default;

  /// The blob's payload bytes; valid while this handle (or any copy) lives.
  Slice data() const { return data_; }
  bool valid() const { return pin_ != nullptr; }
  void Release() {
    pin_.reset();
    data_ = Slice();
  }

  /// True when two handles pin the same underlying bytes (shared cache
  /// entry or shared mapping rather than separate copies) — used by tests.
  bool SharesBufferWith(const BlobHandle& o) const {
    return pin_ != nullptr && pin_ == o.pin_;
  }

 private:
  friend class AppendStore;
  BlobHandle(std::shared_ptr<const void> pin, Slice data)
      : pin_(std::move(pin)), data_(data) {}
  static BlobHandle FromString(std::shared_ptr<const std::string> blob) {
    const Slice data(*blob);
    return BlobHandle(std::shared_ptr<const void>(std::move(blob)), data);
  }

  std::shared_ptr<const void> pin_;
  Slice data_;
};

/// Per-read behavior knobs threaded down from the public ReadOptions.
struct BlobReadHints {
  /// Re-verify the CRC against the device bytes even when this blob was
  /// verified before. Bypasses the shared cache (a cached handle was
  /// verified in the past — the point here is the bytes as stored NOW)
  /// and the first-pin memo on the mapped path.
  bool verify_checksums = false;
  /// Publish cache-miss blobs into the shared read cache. Scans that
  /// should not evict the point-lookup working set pass false (hits are
  /// still served from the cache either way).
  bool fill_cache = true;
  /// The caller is range-scanning: mapped reads advise MADV_SEQUENTIAL
  /// over the range instead of the point-pin MADV_RANDOM default.
  bool sequential = false;
};

/// Append-only store of checksummed variable-length blobs, with a small
/// LRU read cache of shared immutable blobs (historical data is
/// read-mostly and slow; the cache models a modest staging buffer, not the
/// magnetic-disk buffer pool).
///
/// Stage and flush (erasable devices): Append assigns the blob its final
/// address and copies the framed blob into an in-memory tail; Flush
/// writes the whole tail in one device write. Offsets and the counters
/// are the same as if every Append had written through. A write call that
/// may append (TsbTree::InsertRecords) flushes before it returns, so every
/// blob is on the device when the write that made it returns, and a batch
/// that time-splits many leaves makes one device write. A read of a blob
/// past the flushed end flushes first, then takes the one device read
/// path. A failed flush keeps the tail; the next Flush rewrites it at the
/// same offsets. On a WORM, Append writes each blob through at once, as
/// one write: a write spanning the sector residue between blobs would
/// burn it, so staging would save no write there, and Flush has nothing
/// to do.
///
/// Thread-safe: appends and flushes are serialized by a mutex; the flushed
/// end is an atomic that reads check without it. Concurrent reads share
/// the device (blobs are immutable once written) and the read cache is
/// latch-guarded. Cache hits never copy or verify the payload under the
/// latch — they pin the cached blob; misses read and CRC-check outside the
/// latch and publish the blob once.
class AppendStore {
 public:
  /// `device` outlives the store. If the device is a WORM, appends start at
  /// sector boundaries automatically (Device::Write enforcement); for
  /// erasable devices appends are byte-contiguous. `cache_blobs` = number
  /// of decoded blobs kept in the read cache (0 disables caching).
  AppendStore(Device* device, size_t cache_blobs = 0);

  /// Stages `payload` in the tail (erasable device) or writes it through
  /// (WORM) and returns its address. A staged blob reaches the device at
  /// the next Flush (or the first read of it).
  Status Append(const Slice& payload, HistAddr* addr);

  /// Writes every staged blob to the device. On failure the blobs stay
  /// staged at their addresses and the error is returned.
  Status Flush();

  /// One past the last byte known to be on the device; blobs ending at or
  /// below it are readable without a flush.
  uint64_t flushed_end() const {
    return flushed_end_.load(std::memory_order_acquire);
  }

  /// Pins the blob at `addr` without copying it. Cache hits pin the cached
  /// buffer (no memcpy, no CRC work under the cache latch). Misses on a
  /// mappable device (Device::SupportsMappedReads) pin the bytes straight
  /// out of the device mapping — no copy even on the cold path — with the
  /// CRC verified once, on the blob's first pin ever (blobs are immutable,
  /// so verification is sticky across cache eviction). Misses on other
  /// devices read + verify into a heap buffer outside the latch. Either
  /// way the blob is then published for sharing (unless
  /// `hints.fill_cache` is off).
  Status ReadView(const HistAddr& addr, BlobHandle* out,
                  const BlobReadHints& hints = BlobReadHints());

  /// Drops every cache entry (pinned readers keep their blobs alive).
  /// Benchmarks use this to measure the cold read path; CRC verification
  /// state is kept — it is a property of the immutable stored bytes.
  void ClearCache();

  /// Reads the blob at `addr` into `*payload`, verifying length and CRC.
  /// Thin wrapper over ReadView: the copy happens outside the cache latch.
  Status Read(const HistAddr& addr, std::string* payload);

  /// Total bytes of payload appended (excludes framing and sector residue).
  uint64_t payload_bytes() const {
    std::lock_guard<std::mutex> lock(append_mu_);
    return payload_bytes_;
  }
  /// Total bytes consumed on the device (framing + alignment included),
  /// staged blobs included.
  uint64_t device_bytes() const {
    return next_offset_.load(std::memory_order_acquire);
  }
  /// Number of blobs appended.
  uint64_t blob_count() const {
    std::lock_guard<std::mutex> lock(append_mu_);
    return blob_count_;
  }

  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  /// Read-path counters (blob reads/bytes served, cache hit/miss). The
  /// decode counters are zero here — the tree layers them on top.
  HistReadStats hist_stats() const;

  Device* device() const { return device_; }

  /// Number of blob offsets whose first-pin CRC verification is cached
  /// (mapped read path); bounded by set_verified_capacity.
  size_t verified_size() const {
    std::lock_guard<std::mutex> lock(verified_mu_);
    return verified_.size();
  }
  /// Caps the verified-offset set. Once full, additional blobs simply
  /// re-verify on every cold pin (correctness unaffected; the memory
  /// ceiling is ~8 B * capacity instead of unbounded growth).
  void set_verified_capacity(size_t cap) {
    std::lock_guard<std::mutex> lock(verified_mu_);
    verified_capacity_ = cap;
  }

  /// Outcome of one ScrubAll pass.
  struct BlobScrubResult {
    uint64_t blobs_scanned = 0;
    uint64_t bytes_scanned = 0;
    uint64_t corruptions = 0;
  };

  /// Walks every frame from offset 0 to the flushed end captured at entry,
  /// re-verifying each blob's CRC against the DEVICE bytes (the verified
  /// memo and the read cache are deliberately bypassed). A mismatch evicts
  /// the offset from the memo and the cache (sticky-detected), invokes
  /// `on_corrupt(offset, status)` and keeps walking; a frame whose length
  /// field no longer parses stops the walk (the append chain is broken —
  /// everything after it is unreachable anyway). `throttle`, when set, is
  /// called with each frame's byte count so callers can rate-limit.
  Status ScrubAll(const std::function<void(uint64_t, const Status&)>&
                      on_corrupt,
                  BlobScrubResult* result,
                  const std::function<void(uint64_t)>& throttle = {});

  static constexpr uint32_t kFrameHeaderSize = 8;
  /// Default bound on the verified-offset set (~8 MiB of offsets).
  static constexpr size_t kDefaultVerifiedCapacity = size_t{1} << 20;

 private:
  uint64_t AlignUp(uint64_t offset) const;

  /// Drops `offset` from the verified memo and the read cache (corruption
  /// was detected at the device level; nothing may keep trusting it).
  void Unverify(uint64_t offset);

  /// Reads and CRC-verifies the framed blob at `addr` from the device.
  Status ReadFromDevice(const HistAddr& addr, std::string* payload);

  /// Cache-miss path: pins the blob zero-copy from the device mapping when
  /// the device supports it (CRC checked on first pin only), else reads +
  /// verifies into a heap buffer.
  Status PinFromDevice(const HistAddr& addr, const BlobReadHints& hints,
                       BlobHandle* out);

  Device* device_;
  uint32_t sector_size_;  // 0 => no alignment (erasable device)

  // Guards the append cursor, the counters and the tail. The atomics are
  // written under it and read without it.
  mutable std::mutex append_mu_;
  std::atomic<uint64_t> next_offset_{0};
  std::atomic<uint64_t> flushed_end_{0};
  uint64_t payload_bytes_ = 0;
  uint64_t blob_count_ = 0;
  // Device image of [flushed_end_, next_offset_) on an erasable device
  // (empty on a WORM). Reused across flushes.
  std::string tail_;

  // Tiny LRU read cache keyed by offset, latch-guarded. Entries are
  // pinned handles so readers pin blobs instead of copying them; eviction
  // only drops the cache's reference.
  mutable std::mutex cache_mu_;
  size_t cache_capacity_;
  std::list<uint64_t> cache_lru_;
  struct CacheEntry {
    BlobHandle handle;
    std::list<uint64_t>::iterator lru_pos;
  };
  std::unordered_map<uint64_t, CacheEntry> cache_;

  // Blob offsets whose CRC has been verified on the mapped read path.
  // Sticky by design (immutable bytes) but bounded: once the set reaches
  // verified_capacity_, later blobs re-verify on every cold pin instead
  // of growing the set ~8 bytes per distinct blob forever.
  mutable std::mutex verified_mu_;
  std::unordered_set<uint64_t> verified_;
  size_t verified_capacity_ = kDefaultVerifiedCapacity;

  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> blob_reads_{0};
  std::atomic<uint64_t> blob_bytes_read_{0};
  std::atomic<uint64_t> mapped_bytes_{0};  // miss bytes pinned via mapping
  std::atomic<uint64_t> copied_bytes_{0};  // miss bytes copied to the heap
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_APPEND_STORE_H_
