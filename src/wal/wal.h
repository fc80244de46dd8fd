// Write-ahead log: the durability backbone of a path-opened database.
//
// Every transaction commit appends ONE frame describing the whole batch
// (commit timestamp + every key/value it stamps) BEFORE the in-memory
// stamping publishes it to readers. Frames are CRC32C'd and the file is
// fdatasync'd according to WalSyncMode, so after a crash the tail of the
// log reconstructs exactly the committed suffix the last checkpoint did
// not capture. Replay is idempotent by commit timestamp — the ordered
// watermark publishes commits in timestamp order, and WAL append order ==
// timestamp order (appends happen under the commit mutex), so recovery
// replays the one serialization readers could have observed.
//
// Frame format (little-endian):
//   [u32 masked crc32c(payload)] [u32 payload_len] [payload]
// Commit payload:
//   [u8 kCommitFrame] [fixed64 commit_ts] [varint32 count]
//   count * ( [varint32 klen][key] [varint32 vlen][value] )
//
// A torn tail (short frame, bad CRC) is TRUNCATED, not fatal: a crash in
// the middle of an append loses only the commit that was never
// acknowledged. A valid-CRC frame with malformed contents is genuine
// corruption and fails recovery loudly.
//
// Group commit: concurrent committers rendezvous in Sync(). The first
// arrival becomes the sync leader and issues one fdatasync covering every
// byte appended so far; committers that arrive while the leader's sync is
// in flight wait on the condition variable and very often find their own
// bytes already durable when it completes — one fdatasync amortized
// across the whole group (see WalStats::sync_piggybacks).
#ifndef TSBTREE_WAL_WAL_H_
#define TSBTREE_WAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/fault_device.h"

namespace tsb {
namespace wal {

/// When (and whether) the log reaches stable storage.
enum class WalSyncMode : uint8_t {
  /// Never fsync. Survives process kill (the OS page cache holds the
  /// writes) but not power loss. Fastest; the fault-injection harness
  /// kills processes, so even this mode recovers every acknowledged
  /// commit there.
  kOff = 0,
  /// A background thread fdatasyncs every few milliseconds. Bounded
  /// data-loss window on power loss; commits never wait for the disk.
  kBackground = 1,
  /// Commits return only after their frame is fdatasync'd, with group
  /// commit amortizing one sync across concurrent committers. Full
  /// durability; the default for path-opened databases.
  kGroup = 2,
};

struct WalStats {
  uint64_t frames_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;            ///< fdatasync calls actually issued
  uint64_t sync_requests = 0;    ///< Sync() calls that needed durability
  /// Sync requests satisfied WITHOUT issuing their own fdatasync (they
  /// joined a group whose leader covered their bytes). The amortization
  /// ratio sync_requests / syncs is what the durability bench gates on.
  uint64_t sync_piggybacks = 0;
};

/// One replayed commit.
struct WalCommit {
  Timestamp ts = 0;
  std::vector<std::pair<std::string, std::string>> ops;  // key -> value
};

/// Outcome of a replay scan.
struct WalReplayResult {
  uint64_t end_lsn = 0;      ///< offset one past the last valid frame
  uint64_t frames = 0;       ///< valid commit frames delivered
  bool tail_truncated = false;  ///< a torn tail was cut off
};

/// Append side of the log. Thread-safe: appends serialize on an internal
/// mutex (callers already hold the commit mutex, preserving ts order);
/// Sync() is the group-commit rendezvous and may be called from many
/// threads at once.
class Wal {
 public:
  /// Opens (creating if absent) the log file for appending. New frames go
  /// after the existing contents — run Replay() first so a torn tail is
  /// truncated before appends resume. `fault_plan` (tests, fault harness)
  /// is consulted on every append (FaultOp::kAppend) and fdatasync
  /// (FaultOp::kSync); nullptr = no injection.
  static Status Open(const std::string& file, WalSyncMode mode,
                     uint32_t background_sync_ms, std::unique_ptr<Wal>* out,
                     std::shared_ptr<FaultPlan> fault_plan = nullptr);

  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one commit frame. `*end_lsn` receives the offset one past
  /// the frame — the LSN Sync() must cover for this commit to be durable.
  /// On failure (EIO, ENOSPC, short write) the append offset is not
  /// advanced AND the file is truncated back to the last good frame
  /// boundary: a partially-appended frame must never linger for a later
  /// append to build past, and the "file size == appended_lsn" invariant
  /// is what degraded-mode recovery relies on. Frame CRCs remain the
  /// second line of defense if even the truncate fails.
  /// The frame is encoded once, into one buffer sized exactly from `ops`
  /// (a commit's write set: (key, value) views, in frame order).
  Status AppendCommit(Timestamp ts,
                      std::span<const std::pair<Slice, Slice>> ops,
                      uint64_t* end_lsn);

  /// Makes every byte up to `upto_lsn` durable per the sync mode. kGroup:
  /// group-commit rendezvous (see file comment). kOff / kBackground:
  /// returns immediately.
  Status Sync(uint64_t upto_lsn);

  /// Declares every appended frame dead: a checkpoint folded them into
  /// the synced base (or the caller is about to unlink the file). The
  /// destructor then skips its best-effort final sync.
  void MarkSuperseded() {
    superseded_.store(true, std::memory_order_release);
  }

  /// Truncates the log to empty and rewinds the append/synced offsets —
  /// for logs whose whole prefix just became dead at once (the sharded
  /// coordinator log after every shard checkpointed past it). The caller
  /// must guarantee no concurrent appends or syncs, and must not Reset a
  /// log with a sticky sync error (the dead-prefix claim rests on syncs
  /// having succeeded). The truncate itself is fdatasync'd before the
  /// offsets rewind, so a crash never resurrects stale frames.
  Status Reset();

  uint64_t appended_lsn() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }
  uint64_t synced_lsn() const {
    return synced_lsn_.load(std::memory_order_acquire);
  }
  WalStats stats() const;
  const std::string& file() const { return file_; }

  /// True once any fdatasync failed: the log is poisoned (sticky) and no
  /// later commit will be acknowledged through it. Bytes past synced_lsn()
  /// must be treated as never-durable — a failed fsync may have dropped
  /// them from the page cache with the dirty bit cleared, so re-syncing
  /// and assuming success would be a silent lie. Recovery replaces the
  /// Wal object (degraded-mode Resume rotates to a fresh log).
  bool has_sync_error() const {
    std::lock_guard<std::mutex> lock(sync_mu_);
    return !last_sync_error_.ok();
  }
  Status sync_error() const {
    std::lock_guard<std::mutex> lock(sync_mu_);
    return last_sync_error_;
  }

  /// Called (outside any Wal lock) whenever a sync fails — including the
  /// background flusher's, which no commit path observes. The DB layer
  /// installs this to escalate into its background-error state machine.
  /// Install before concurrent use.
  using SyncErrorReporter = std::function<void(const Status&)>;
  void SetSyncErrorReporter(SyncErrorReporter fn) {
    sync_error_reporter_ = std::move(fn);
  }

  /// Scans `file` from `from_lsn`, validating each frame's CRC, and calls
  /// `fn` for every commit frame in order. A torn tail is truncated in
  /// place (the file shrinks to the last valid frame boundary). A missing
  /// file replays nothing. Static: recovery runs before any Wal is open
  /// for appending.
  using CommitFn = std::function<Status(const WalCommit& commit)>;
  static Status Replay(const std::string& file, uint64_t from_lsn,
                       const CommitFn& fn, WalReplayResult* result);

  static constexpr uint8_t kCommitFrame = 1;
  static constexpr uint32_t kFrameHeaderSize = 8;
  /// Sanity bound for a single frame (a batch bigger than this cannot be
  /// legitimate; treat as torn/corrupt tail).
  static constexpr uint32_t kMaxFrameBytes = 1u << 30;

 private:
  Wal(int fd, std::string file, WalSyncMode mode, uint64_t size,
      uint32_t background_sync_ms, std::shared_ptr<FaultPlan> fault_plan);

  Status SyncFile();
  /// Records a sync failure sticky and reports it; shared by the group
  /// leaders and the background flusher.
  void RecordSyncError(const Status& s);
  void BackgroundSyncLoop();

  const std::string file_;
  const WalSyncMode mode_;
  const uint32_t background_sync_ms_;
  const std::shared_ptr<FaultPlan> fault_plan_;  // may be null
  SyncErrorReporter sync_error_reporter_;        // may be empty
  int fd_ = -1;

  std::mutex append_mu_;  // serializes appends (offset + pwrite)
  std::atomic<uint64_t> appended_lsn_{0};
  std::atomic<bool> superseded_{false};  // see MarkSuperseded

  // Group-commit rendezvous state.
  mutable std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  bool sync_in_progress_ = false;
  std::atomic<uint64_t> synced_lsn_{0};
  Status last_sync_error_;  // sticky; guarded by sync_mu_

  // Stats (relaxed counters; read via stats()).
  std::atomic<uint64_t> frames_appended_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_requests_{0};
  std::atomic<uint64_t> sync_piggybacks_{0};

  // Background mode.
  std::thread background_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool stopping_ = false;
};

}  // namespace wal
}  // namespace tsb

#endif  // TSBTREE_WAL_WAL_H_
