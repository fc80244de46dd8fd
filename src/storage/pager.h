// Pager: page allocation and checksummed page I/O on one erasable device.
//
// Page 0 is a reserved meta page (trees persist their root pointer and
// counters there). Freed pages go on a free list and are reused — this is
// the "erasable medium" capability the current database depends on.
//
// Thread-safe: allocation, free-list mutation and the counters are guarded
// by an internal mutex; page I/O delegates to the (thread-safe) Device.
#ifndef TSBTREE_STORAGE_PAGER_H_
#define TSBTREE_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/device.h"
#include "storage/page.h"

namespace tsb {

inline constexpr uint32_t kInvalidPageId = 0;  // page 0 = meta, never a node

/// Allocates, frees, reads and writes fixed-size pages on a Device.
class Pager {
 public:
  Pager(Device* device, uint32_t page_size = kDefaultPageSize);

  uint32_t page_size() const { return page_size_; }
  Device* device() const { return device_; }

  /// LSN stamped into page trailers by subsequent Write calls. The DB
  /// advances this to the checkpoint LSN before flushing dirty pages, so a
  /// page whose write the disk dropped still carries the previous stamp.
  void set_flush_lsn(uint64_t lsn) {
    flush_lsn_.store(lsn, std::memory_order_relaxed);
  }
  uint64_t flush_lsn() const {
    return flush_lsn_.load(std::memory_order_relaxed);
  }

  /// When false, Read skips checksum verification (scrub-only deployments
  /// that prefer read latency over inline detection). Defaults to true.
  void set_verify_on_read(bool verify) { verify_on_read_ = verify; }
  bool verify_on_read() const { return verify_on_read_; }

  /// Invoked (outside pager locks) whenever Read detects corruption, with
  /// the page id and the Corruption status. Owners route this into the
  /// quarantine set; the failing Status still propagates to the caller.
  using CorruptionReporter = std::function<void(uint32_t, const Status&)>;
  void set_corruption_reporter(CorruptionReporter reporter) {
    std::lock_guard<std::mutex> lock(mu_);
    corruption_reporter_ = std::move(reporter);
  }

  /// Allocates a page id (reusing freed pages first).
  Status Alloc(uint32_t* page_id);

  /// Returns a page to the free list.
  Status Free(uint32_t page_id);

  /// Truncates the device to `slots` page slots (meta included) and
  /// rewinds the allocator, dropping free-list ids past the end. Owners
  /// call it at open with the durable high-water mark recorded in their
  /// meta page: slots above it are orphans of a checkpoint that died
  /// before its commit point. `*dropped` counts the slots removed (0 when
  /// the device ends at or below `slots`).
  Status TruncateSlots(uint32_t slots, uint64_t* dropped);

  /// Reads page `id` into `buf` (page_size bytes) and verifies its checksum.
  Status Read(uint32_t id, char* buf);

  /// Seals (checksums) and writes page `id` from `buf`.
  Status Write(uint32_t id, char* buf) { return WriteRun(id, {&buf, 1}); }

  /// Seals pages `first_id`, `first_id` + 1, ... from `bufs` and writes
  /// them in one device gather write (one IoStats write per page).
  Status WriteRun(uint32_t first_id, std::span<char* const> bufs);

  /// Raw access to the meta page (page 0): read with verification.
  Status ReadMeta(char* buf);
  Status WriteMeta(char* buf) { return Write(0, buf); }

  /// Number of page slots ever allocated (excluding meta).
  uint32_t high_water_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_page_ - 1;
  }
  /// Currently live pages (allocated minus freed, excluding meta).
  uint32_t live_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return (next_page_ - 1) - static_cast<uint32_t>(free_list_.size());
  }
  /// Bytes of magnetic storage occupied by live pages.
  uint64_t live_bytes() const {
    return static_cast<uint64_t>(live_pages()) * page_size_;
  }

  /// Serializes the free list (for owners to persist in their meta page).
  /// At most `max_bytes` are written; pages that do not fit LEAK until the
  /// next reopen-free cycle (bounded meta space). Leaks are logged and
  /// counted — see leaked_free_pages().
  void EncodeFreeList(std::string* out, size_t max_bytes) const;

  /// Free pages dropped by the most recent EncodeFreeList because they did
  /// not fit in the caller's meta budget (0 when everything fit). Surfaced
  /// in SpaceStats so space accounting shows the loss.
  uint64_t leaked_free_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_encode_leaked_;
  }

  /// Restores a free list written by EncodeFreeList. Ignores ids outside
  /// the allocated range (robust to stale meta).
  Status DecodeFreeList(Slice in);

  /// Scrub-side lost-write sweep: re-reads every page stamped during THIS
  /// process lifetime (including the meta page) and checks that the device
  /// still holds the stamped trailer LSN. The inline read-path check only
  /// fires on buffer-pool misses, and a device-level scrub cannot tell an
  /// old-but-valid page from a current one — this sweep is the only way a
  /// lost write to a page nobody re-reads (the meta page above all) gets
  /// caught before the next restart discards the stamps. `on_corrupt`
  /// fires per bad page and the sweep continues. Callers must serialize
  /// against page flushes (MultiVersionDB::Scrub holds the checkpoint
  /// lock). Returns non-OK only for device I/O errors.
  Status VerifyStampedPages(
      const std::function<void(uint32_t, const Status&)>& on_corrupt,
      uint64_t* pages_checked);

 private:
  Status VerifyRead(uint32_t id, const char* buf);
  void ReportCorruption(uint32_t id, const Status& s);

  Device* device_;
  uint32_t page_size_;
  mutable std::mutex mu_;   // guards next_page_, free_list_, leak counter
  uint32_t next_page_ = 1;  // 0 is meta
  std::vector<uint32_t> free_list_;
  mutable uint64_t last_encode_leaked_ = 0;
  std::atomic<uint64_t> flush_lsn_{0};
  bool verify_on_read_ = true;
  CorruptionReporter corruption_reporter_;
  // Trailer LSN each page was last stamped with THIS process lifetime; a
  // later read returning an older stamp means the device lost the write.
  // Reset at restart, so recovery-time rewrites can never false-positive.
  std::mutex lsn_mu_;
  std::unordered_map<uint32_t, uint64_t> stamped_lsn_;
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_PAGER_H_
