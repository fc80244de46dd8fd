// Fault injection for the storage stack: a decorator over any Device
// (including the WORM file/mem devices — write_once_sector_size and the
// write-once enforcement of the wrapped device pass straight through)
// that fails operations according to a programmable FaultPlan.
//
// A plan arms faults of the form "fail the Nth read/write/sync/append
// with EIO or ENOSPC", optionally sticky (the Nth and every later
// matching op fail until the plan is cleared — a dead disk) vs one-shot
// (a transient glitch), plus two nastier shapes real disks exhibit:
//   - short write: the first `short_bytes` of the payload reach the
//     medium, then the op errors (torn frame / torn page on the device);
//   - torn sector on sync: the sync garbles the tail of the most recent
//     write before failing (volatile cache lost on a dying drive).
//
// The same FaultPlan object is shared between the test and the device
// (and the WAL — see Wal::Open's fault_plan parameter, which consults
// kAppend/kSync), so tests can re-arm, heal (Clear) and assert exactly
// which op tripped via the per-op counters.
#ifndef TSBTREE_STORAGE_FAULT_DEVICE_H_
#define TSBTREE_STORAGE_FAULT_DEVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/device.h"

namespace tsb {

/// Operation classes a fault can target. kAppend is consulted by log-
/// structured writers (the WAL's frame append); plain devices map their
/// entire write surface to kWrite.
enum class FaultOp : uint8_t {
  kRead = 0,
  kWrite = 1,
  kSync = 2,
  kTruncate = 3,
  kAppend = 4,
};
inline constexpr int kNumFaultOps = 5;

enum class FaultKind : uint8_t {
  kEIO = 0,        ///< Status::IOError
  kENOSPC = 1,     ///< Status::OutOfSpace
  kShortWrite = 2, ///< partial payload lands, then Status::IOError
  kTornSync = 3,   ///< sync garbles the last write's tail, then kEIO
  // Silent corruption kinds: the operation REPORTS SUCCESS (returns OK),
  // exactly like the real failure mode — only checksums can catch these.
  kBitFlip = 4,          ///< write lands with one bit flipped mid-payload
  kMisdirectedWrite = 5, ///< payload lands at the wrong offset
  kLostWrite = 6,        ///< write is dropped entirely, still acked
};

/// One armed fault: trip on the `nth` (1-based) operation of class `op`
/// counted from when the fault was armed; sticky faults keep tripping on
/// every later matching op until the plan is cleared.
struct Fault {
  FaultOp op = FaultOp::kWrite;
  FaultKind kind = FaultKind::kEIO;
  uint64_t nth = 1;
  bool sticky = false;
  uint64_t short_bytes = 0;  ///< kShortWrite: payload prefix that lands
  /// kMisdirectedWrite: absolute offset the payload lands at instead.
  /// UINT64_MAX (default) = the neighbouring slot (offset - size, or
  /// offset + size when the write starts at 0).
  uint64_t misdirect_offset = UINT64_MAX;
};

/// Thread-safe fault schedule + per-op counters. Shared (by shared_ptr)
/// between the consumer (FaultInjectingDevice / Wal) and the test that
/// arms and heals it.
class FaultPlan {
 public:
  /// Arms `fault`; its op counter baseline is the CURRENT count, so
  /// `nth` means "the nth matching op from now".
  void Arm(const Fault& fault);

  /// Convenience: fail the nth op of `op` with `kind`.
  void FailNth(FaultOp op, uint64_t nth, FaultKind kind = FaultKind::kEIO,
               bool sticky = false);

  /// Heals the disk: disarms every fault (counters keep counting).
  void Clear();

  /// Consumer side: counts one operation of class `op` and reports
  /// whether an armed fault trips on it (one-shot faults disarm here).
  bool Check(FaultOp op, Fault* fired);

  /// Builds the Status a fired fault maps to.
  static Status ToStatus(const Fault& fault, const std::string& what);

  /// Operations of class `op` observed since construction.
  uint64_t ops(FaultOp op) const;
  /// Faults fired on class `op` since construction.
  uint64_t fired(FaultOp op) const;
  /// True while any fault is armed.
  bool armed() const;

 private:
  struct ArmedFault {
    Fault fault;
    uint64_t baseline = 0;  ///< op count when armed
  };

  mutable std::mutex mu_;
  uint64_t ops_[kNumFaultOps] = {};
  uint64_t fired_[kNumFaultOps] = {};
  std::vector<ArmedFault> armed_;
};

/// Decorator that injects the plan's faults in front of `base`. Owns
/// nothing unless constructed with the owning overload; accounting stays
/// with the base device (the decorator never double-counts I/O).
class FaultInjectingDevice : public Device {
 public:
  FaultInjectingDevice(Device* base, std::shared_ptr<FaultPlan> plan);
  /// Owning overload (path-based DbOptions::wrap_device hands the DB's
  /// device through here).
  FaultInjectingDevice(std::unique_ptr<Device> base,
                       std::shared_ptr<FaultPlan> plan);

  Status Read(uint64_t offset, size_t n, char* scratch) override;
  Status Write(uint64_t offset, const Slice& data) override;
  bool SupportsMappedReads() const override {
    return base_->SupportsMappedReads();
  }
  Status ReadMapped(uint64_t offset, size_t n, MappedRead* out,
                    AccessPattern pattern) override;
  uint32_t write_once_sector_size() const override {
    return base_->write_once_sector_size();
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override;
  Status Sync() override;

  Device* base() { return base_; }
  const FaultPlan& plan() const { return *plan_; }

 private:
  Device* base_;
  std::unique_ptr<Device> owned_base_;
  std::shared_ptr<FaultPlan> plan_;

  // Most recent successful write, so kTornSync knows which range to
  // garble. Guarded by last_write_mu_.
  std::mutex last_write_mu_;
  uint64_t last_write_offset_ = 0;
  size_t last_write_size_ = 0;
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_FAULT_DEVICE_H_
