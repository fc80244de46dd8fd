// Outside-in tracing for the end-to-end benchmark: everything here sits
// in the benchmark's own files, around the calls it makes into the
// engine. Nothing inside the engine is instrumented, so latch waits,
// fsync waits and watermark-publish waits are invisible to it.
//
// Three hooks:
//   - OpScope / CallScope: spans around each public call tsb_e2e makes
//     (Get, Write, NewCursor, Seek, Next, NextVersion, ...).
//   - TracingDevice: a Device decorator installed through
//     DbOptions::wrap_device that times every device call.
//   - An unarmed FaultPlan on the WAL (see tsb_e2e.cc), used only as an
//     append/sync counter.
//
// Every thread owns a ThreadTrace: fixed-size accumulators (busy time and
// counts per op kind and per device call) that are bumped without locks or
// allocation. Full spans (name, start, end, parent, request id) are kept
// for one request in kSampleEvery, in a per-thread buffer reserved up
// front; once it is full further sampled requests are only counted.
// Tracing is switched at run time (SetEnabled), so one process can
// alternate traced and untraced slices and measure its own overhead. The
// switch is read once, when a client starts an op; device calls and child
// spans follow that op's decision, so an op that straddles a slice
// boundary is accounted for whole or not at all.
#ifndef TSB_BENCH_E2E_TRACE_H_
#define TSB_BENCH_E2E_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/device.h"

namespace e2e {

/// Top-level operations a client issues; each is one request.
enum class Op : uint8_t {
  kGet = 0,     ///< MultiVersionDB::Get
  kWrite,       ///< MultiVersionDB::Write
  kScan,        ///< cursor: SeekRange/SeekForPrev + 99 Next/Prev
  kWalk,        ///< cursor: Seek + NextVersion to the oldest version
  kShardGet,    ///< ShardedDB::Get
  kShardWrite,  ///< ShardedDB::Write
  kNumOps,
};
const char* OpName(Op op);

/// Device roles (sharded roles fold onto these by suffix).
enum class Role : uint8_t { kMagnetic = 0, kHistorical = 1, kNumRoles };

/// Device calls the decorator times.
enum class DevCall : uint8_t {
  kRead = 0,
  kReadMapped,
  kWrite,
  kSync,
  kTruncate,
  kNumCalls,
};

inline constexpr uint32_t kSampleEvery = 64;
/// Span capacity per thread (reserved before the window starts).
inline constexpr size_t kSpanCapacity = 16384;

/// One recorded span; its id is its index in the thread's span buffer.
/// `name` points at a string literal.
struct SpanRec {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t request;
  int32_t parent;  ///< id of the enclosing span, -1 = the request itself
};

struct OpAcc {
  uint64_t count = 0;
  uint64_t ns = 0;         ///< wall time inside the op
  uint64_t device_ns = 0;  ///< part of it spent in device calls
  uint64_t entries = 0;    ///< cursor entries emitted (scans, walks)
};

struct DevAcc {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t ns = 0;
};

/// Per-thread accumulators. Owned by the registry (outlives the thread);
/// read only after the threads that write it have been joined.
struct ThreadTrace {
  int tid = 0;
  OpAcc ops[static_cast<int>(Op::kNumOps)];
  DevAcc dev[static_cast<int>(Role::kNumRoles)]
            [static_cast<int>(DevCall::kNumCalls)];
  std::vector<SpanRec> spans;
  uint64_t requests = 0;          ///< traced requests issued by this thread
  uint64_t sampled_requests = 0;
  uint64_t dropped_requests = 0;  ///< sampled, but the span buffer was full

  // Current request state (set by OpScope).
  uint64_t request = 0;         ///< process-unique id: tid << 48 | sequence
  bool in_op = false;           ///< inside a traced op: device calls count
  bool recording = false;       ///< this request's spans are being kept
  uint64_t op_device_ns = 0;    ///< device time inside the current op
  int32_t open_span = -1;       ///< innermost open recorded span
};

/// Monotonic nanoseconds since process start.
uint64_t NowNs();

void SetEnabled(bool on);
inline std::atomic<bool> g_enabled{false};
inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// This thread's accumulators (registered on first use; the first call
/// allocates, so make it before timing starts).
ThreadTrace* Local();

/// Every registered thread's accumulators (call after joining them).
std::vector<const ThreadTrace*> AllThreads();

/// Times one top-level request when `traced`; a no-op object otherwise.
/// Samples one request in kSampleEvery for full spans.
class OpScope {
 public:
  OpScope(Op op, bool traced);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  void AddEntries(uint64_t n) { entries_ += n; }

 private:
  ThreadTrace* t_ = nullptr;  // null = untraced
  Op op_;
  uint64_t start_ = 0;
  uint64_t entries_ = 0;
  int32_t span_ = -1;
};

/// A child span around one public call inside a sampled request; free
/// when the request is not being recorded.
class CallScope {
 public:
  explicit CallScope(const char* name);
  ~CallScope();
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  ThreadTrace* t_ = nullptr;  // null = not recording
  int32_t span_ = -1;
};

/// Timing decorator over any Device. Forwards every virtual, including
/// the mapped-read and write-once surface, and leaves I/O accounting to
/// the wrapped device (it never re-accounts, like FaultInjectingDevice).
/// ReadMapped time covers establishing the pin only: page faults taken
/// later, when the engine touches the mapped bytes, land in the caller's
/// self time, not here.
class TracingDevice : public tsb::Device {
 public:
  TracingDevice(std::unique_ptr<tsb::Device> base, Role role);

  tsb::Status Read(uint64_t offset, size_t n, char* scratch) override;
  tsb::Status Write(uint64_t offset, const tsb::Slice& data) override;
  bool SupportsMappedReads() const override {
    return base_->SupportsMappedReads();
  }
  tsb::Status ReadMapped(uint64_t offset, size_t n, tsb::MappedRead* out,
                         tsb::AccessPattern pattern) override;
  uint32_t write_once_sector_size() const override {
    return base_->write_once_sector_size();
  }
  uint64_t Size() const override { return base_->Size(); }
  tsb::Status Truncate(uint64_t size) override;
  tsb::Status Sync() override;

 private:
  std::unique_ptr<tsb::Device> base_;
  Role role_;
};

/// Sync calls on magnetic-role TracingDevices since process start,
/// counted whether or not tracing is enabled. The engine syncs a tree's
/// magnetic device only at the end of a checkpoint, so this counts
/// checkpoints (per shard) without relying on Wal::stats(), which resets
/// at every log rotation.
uint64_t MagneticSyncs();

/// Maps a wrap_device role name ("magnetic", "shard-001/historical",
/// "index-x.magnetic", ...) onto a Role.
Role RoleOf(const std::string& name);

/// Writes every recorded span as Chrome trace-event JSON (load it in
/// chrome://tracing or ui.perfetto.dev). Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::string& workload);

}  // namespace e2e

#endif  // TSB_BENCH_E2E_TRACE_H_
