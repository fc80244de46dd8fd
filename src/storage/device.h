// Device: the simulated storage hardware interface.
//
// The paper requires only that both databases live on *random-access*
// devices, the current one erasable (section 1). We model three kinds:
//   - kMagnetic        : erasable, fast (the current database)
//   - kOpticalWorm     : write-once sectors, slow seeks (historical)
//   - kOpticalErasable : erasable but slow (alternative historical medium)
// All devices count I/O and simulate elapsed time via CostParams.
#ifndef TSBTREE_STORAGE_DEVICE_H_
#define TSBTREE_STORAGE_DEVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "storage/io_stats.h"

namespace tsb {

enum class DeviceKind : uint8_t {
  kMagnetic = 0,
  kOpticalWorm = 1,
  kOpticalErasable = 2,
};

const char* DeviceKindName(DeviceKind kind);

/// A pinned, zero-copy view of device bytes returned by ReadMapped. `pin`
/// refcounts the underlying mapping: `data` stays valid until every copy
/// of the pin is released, even if the device grows and remaps afterwards.
struct MappedRead {
  Slice data;
  std::shared_ptr<const void> pin;
};

/// How the caller is about to touch a mapped range — devices turn this
/// into paging advice (madvise). Point pins default to kRandom; range
/// scans that will walk the range forward pass kSequential so the kernel
/// reads ahead instead of faulting one page at a time.
enum class AccessPattern : uint8_t {
  kRandom = 0,
  kSequential = 1,
};

/// Abstract random-access device with I/O accounting.
class Device {
 public:
  Device(DeviceKind kind, CostParams params)
      : kind_(kind), params_(params) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Reads exactly `n` bytes at `offset` into `scratch`. Fails with IOError
  /// if the range extends past Size().
  virtual Status Read(uint64_t offset, size_t n, char* scratch) = 0;

  /// Writes `data` at `offset`. Erasable devices may overwrite; write-once
  /// devices fail with WriteOnceViolation when a burned sector is touched.
  virtual Status Write(uint64_t offset, const Slice& data) = 0;

  /// Gather write: `parts` land back to back from `offset`, and every
  /// `parts_per_write` consecutive parts form one write (a page run
  /// passes 1, a framed record its part count; parts.size() must be a
  /// multiple). IoStats count each write as if it came through Write.
  /// Stops at the first write that fails; the writes before it have
  /// landed. The default issues one Write per write (concatenating a
  /// multi-part one), so decorators and write-once checks keep their
  /// per-write semantics; devices override it to save syscalls.
  virtual Status WriteGather(uint64_t offset, std::span<const Slice> parts,
                             size_t parts_per_write = 1);

  /// True when ReadMapped is available (memory-mappable devices).
  virtual bool SupportsMappedReads() const { return false; }

  /// Pins a zero-copy view of [offset, offset+n). The bytes are served
  /// straight from a page-aligned mapping — no copy into caller memory.
  /// `pattern` is advisory (paging hints only). Devices that cannot map
  /// (or whose buffers may move) keep the default NotSupported and callers
  /// fall back to Read.
  virtual Status ReadMapped(uint64_t offset, size_t n, MappedRead* out,
                            AccessPattern pattern = AccessPattern::kRandom);

  /// Sector granularity of a write-once medium (0 = erasable device,
  /// byte-addressable overwrites allowed). Append stores align their
  /// frames to this grid.
  virtual uint32_t write_once_sector_size() const { return 0; }

  /// High-water mark: one past the last written byte.
  virtual uint64_t Size() const = 0;

  /// Forgets all contents (erasable devices only).
  virtual Status Truncate(uint64_t size) {
    (void)size;
    return Status::NotSupported("Truncate", DeviceKindName(kind_));
  }

  /// Flushes to durable backing, if any.
  virtual Status Sync() { return Status::OK(); }

  DeviceKind kind() const { return kind_; }
  const CostParams& cost_params() const { return params_; }

  /// Racy under concurrent I/O; read quiesced (or after joining workers)
  /// for exact numbers.
  const IoStats& stats() const { return stats_; }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(account_mu_);
    stats_.Reset();
  }

 protected:
  /// Subclasses call these from Read/Write to maintain counters and the
  /// simulated clock. An access is a "seek" when it does not begin where
  /// the previous access ended. Thread-safe (internal accounting mutex).
  void AccountRead(uint64_t offset, size_t n);
  void AccountWrite(uint64_t offset, size_t n);

 private:
  void AccountAccess(uint64_t offset, size_t n);

  DeviceKind kind_;
  CostParams params_;
  mutable std::mutex account_mu_;  // guards stats_, last_end_, mounted_
  IoStats stats_;
  uint64_t last_end_ = UINT64_MAX;  // offset following the previous access
  bool mounted_ = false;
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_DEVICE_H_
