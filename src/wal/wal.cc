#include "wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/fsync_dir.h"
#include "common/logger.h"

namespace tsb {
namespace wal {

namespace {

Status PWriteAll(int fd, const char* data, size_t n, uint64_t offset) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::pwrite(fd, data + done, n - done, offset + done);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        return Status::OutOfSpace("wal pwrite", strerror(errno));
      }
      return Status::IOError("wal pwrite", strerror(errno));
    }
    if (w == 0) {
      // pwrite returning 0 for a nonzero count is a full-device edge case;
      // retrying would spin forever.
      return Status::OutOfSpace("wal pwrite wrote 0 bytes");
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status PReadAll(int fd, char* buf, size_t n, uint64_t offset, size_t* got) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, buf + done, n - done, offset + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("wal pread", strerror(errno));
    }
    if (r == 0) break;  // EOF
    done += static_cast<size_t>(r);
  }
  *got = done;
  return Status::OK();
}

int DataSync(int fd) {
#if defined(__APPLE__)
  return ::fsync(fd);
#else
  return ::fdatasync(fd);
#endif
}

}  // namespace

Wal::Wal(int fd, std::string file, WalSyncMode mode, uint64_t size,
         uint32_t background_sync_ms, std::shared_ptr<FaultPlan> fault_plan)
    : file_(std::move(file)),
      mode_(mode),
      background_sync_ms_(background_sync_ms),
      fault_plan_(std::move(fault_plan)),
      fd_(fd) {
  appended_lsn_.store(size, std::memory_order_release);
  synced_lsn_.store(size, std::memory_order_release);
  if (mode_ == WalSyncMode::kBackground) {
    background_ = std::thread([this] { BackgroundSyncLoop(); });
  }
}

Status Wal::Open(const std::string& file, WalSyncMode mode,
                 uint32_t background_sync_ms, std::unique_ptr<Wal>* out,
                 std::shared_ptr<FaultPlan> fault_plan) {
  const int fd = ::open(file.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) {
    return Status::IOError("open wal " + file, strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError("lseek wal " + file, strerror(errno));
  }
  if (size == 0) {
    // Freshly created (or empty): make the directory entry durable before
    // any commit frame relies on this file existing after power loss. An
    // fdatasync covers the file's bytes, never its name.
    Status s = SyncParentDir(file);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  }
  out->reset(new Wal(fd, file, mode, static_cast<uint64_t>(size),
                     background_sync_ms, std::move(fault_plan)));
  return Status::OK();
}

Wal::~Wal() {
  if (mode_ == WalSyncMode::kBackground) {
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
      stopping_ = true;
    }
    bg_cv_.notify_all();
    if (background_.joinable()) background_.join();
  }
  // Best-effort final sync: a clean close should not leave acknowledged
  // commits hostage to the page cache. A superseded log holds none.
  if (fd_ >= 0) {
    if (!superseded_.load(std::memory_order_acquire) &&
        appended_lsn_.load(std::memory_order_acquire) >
            synced_lsn_.load(std::memory_order_acquire)) {
      (void)DataSync(fd_);
    }
    ::close(fd_);
  }
}

Status Wal::AppendCommit(Timestamp ts,
                         std::span<const std::pair<Slice, Slice>> ops,
                         uint64_t* end_lsn) {
  const uint32_t count = static_cast<uint32_t>(ops.size());
  size_t payload_size = 1 + 8 + VarintLength(count);
  for (const auto& [key, value] : ops) {
    payload_size += VarintLength(key.size()) + key.size() +
                    VarintLength(value.size()) + value.size();
  }
  // Header first, payload behind it; the CRC and length go into the
  // reserved header once the payload is in place.
  std::string frame(kFrameHeaderSize + payload_size, '\0');
  char* const payload = frame.data() + kFrameHeaderSize;
  char* p = payload;
  *p++ = static_cast<char>(kCommitFrame);
  EncodeFixed64(p, ts);
  p = EncodeVarint32(p + 8, count);
  for (const auto& [key, value] : ops) {
    p = EncodeVarint32(p, static_cast<uint32_t>(key.size()));
    memcpy(p, key.data(), key.size());
    p = EncodeVarint32(p + key.size(), static_cast<uint32_t>(value.size()));
    memcpy(p, value.data(), value.size());
    p += value.size();
  }
  assert(p == payload + payload_size);
  EncodeFixed32(frame.data(),
                crc32c::Mask(crc32c::Value(payload, payload_size)));
  EncodeFixed32(frame.data() + 4, static_cast<uint32_t>(payload_size));

  std::lock_guard<std::mutex> lock(append_mu_);
  const uint64_t offset = appended_lsn_.load(std::memory_order_relaxed);
  Status status;
  Fault fault;
  if (fault_plan_ != nullptr && fault_plan_->Check(FaultOp::kAppend, &fault)) {
    if (fault.kind == FaultKind::kShortWrite) {
      // The prefix genuinely lands — the torn-frame shape a real ENOSPC
      // mid-frame leaves behind, so the truncate-back below is exercised
      // against actual on-file bytes.
      const size_t prefix =
          fault.short_bytes > 0 && fault.short_bytes < frame.size()
              ? static_cast<size_t>(fault.short_bytes)
              : frame.size() / 2;
      (void)PWriteAll(fd_, frame.data(), prefix, offset);
    }
    status = FaultPlan::ToStatus(fault, "wal append " + file_);
  } else {
    status = PWriteAll(fd_, frame.data(), frame.size(), offset);
  }
  if (!status.ok()) {
    // ENOSPC (or any partial pwrite) can leave a truncated frame on file.
    // The next append would land at this same offset, but a SHORTER next
    // frame would leave stale suffix bytes beyond it, and degraded-mode
    // recovery depends on "file ends exactly at appended_lsn". Cut back
    // to the last good frame boundary before rejecting the commit; the
    // frame CRC stays as the second line of defense if even this fails.
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
      TSB_LOG_ERROR("wal %s: cannot truncate partial frame at %llu (%s); "
                    "replay will rely on the CRC to cut it",
                    file_.c_str(), (unsigned long long)offset,
                    strerror(errno));
    }
    return status;
  }
  const uint64_t end = offset + frame.size();
  appended_lsn_.store(end, std::memory_order_release);
  frames_appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(frame.size(), std::memory_order_relaxed);
  if (end_lsn != nullptr) *end_lsn = end;
  if (mode_ == WalSyncMode::kBackground) bg_cv_.notify_one();
  return Status::OK();
}

Status Wal::SyncFile() {
  // Capture the target BEFORE syncing: bytes appended during the sync may
  // or may not be covered, so only the pre-sync watermark is promised.
  const uint64_t target = appended_lsn_.load(std::memory_order_acquire);
  Fault fault;
  if (fault_plan_ != nullptr && fault_plan_->Check(FaultOp::kSync, &fault)) {
    return FaultPlan::ToStatus(fault, "wal fdatasync " + file_);
  }
  if (DataSync(fd_) != 0) {
    if (errno == ENOSPC) {
      return Status::OutOfSpace("wal fdatasync " + file_, strerror(errno));
    }
    return Status::IOError("wal fdatasync " + file_, strerror(errno));
  }
  uint64_t cur = synced_lsn_.load(std::memory_order_relaxed);
  while (target > cur && !synced_lsn_.compare_exchange_weak(
                             cur, target, std::memory_order_acq_rel)) {
  }
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::Sync(uint64_t upto_lsn) {
  if (mode_ != WalSyncMode::kGroup) return Status::OK();
  if (synced_lsn_.load(std::memory_order_acquire) >= upto_lsn) {
    return Status::OK();
  }
  sync_requests_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(sync_mu_);
  for (;;) {
    if (!last_sync_error_.ok()) return last_sync_error_;
    if (synced_lsn_.load(std::memory_order_acquire) >= upto_lsn) {
      // A leader's fdatasync covered our bytes while we waited (or before
      // we even got the lock): the amortized case.
      sync_piggybacks_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (!sync_in_progress_) break;
    sync_cv_.wait(lock);
  }
  // Become the group leader: one fdatasync for every byte appended so
  // far, covering all followers currently parked on the condvar.
  sync_in_progress_ = true;
  lock.unlock();
  Status s = SyncFile();
  lock.lock();
  sync_in_progress_ = false;
  if (!s.ok()) {
    // Sticky: a log that cannot reach stable storage must not silently
    // acknowledge later commits either.
    last_sync_error_ = s;
  }
  sync_cv_.notify_all();
  if (!s.ok()) {
    lock.unlock();
    if (sync_error_reporter_) sync_error_reporter_(s);
  }
  return s;
}

Status Wal::Reset() {
  std::scoped_lock lock(append_mu_, sync_mu_);
  if (!last_sync_error_.ok()) return last_sync_error_;
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("wal reset " + file_, strerror(errno));
  }
  if (DataSync(fd_) != 0) {
    return Status::IOError("wal reset fdatasync " + file_, strerror(errno));
  }
  appended_lsn_.store(0, std::memory_order_release);
  synced_lsn_.store(0, std::memory_order_release);
  return Status::OK();
}

void Wal::RecordSyncError(const Status& s) {
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (last_sync_error_.ok()) last_sync_error_ = s;
  }
  if (sync_error_reporter_) sync_error_reporter_(s);
}

void Wal::BackgroundSyncLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!stopping_) {
    bg_cv_.wait_for(lock, std::chrono::milliseconds(background_sync_ms_));
    if (stopping_) break;
    if (has_sync_error()) {
      // The log is poisoned. After a failed fdatasync the kernel may have
      // dropped the dirty pages with the error consumed, so retrying and
      // seeing success would declare never-written bytes durable. Park
      // until the DB replaces this Wal (degraded-mode Resume).
      continue;
    }
    if (appended_lsn_.load(std::memory_order_acquire) <=
        synced_lsn_.load(std::memory_order_acquire)) {
      continue;
    }
    lock.unlock();
    Status s = SyncFile();
    if (!s.ok()) {
      TSB_LOG_ERROR("wal background sync failed: %s", s.ToString().c_str());
      RecordSyncError(s);
    }
    lock.lock();
  }
}

WalStats Wal::stats() const {
  WalStats s;
  s.frames_appended = frames_appended_.load(std::memory_order_relaxed);
  s.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  s.syncs = syncs_.load(std::memory_order_relaxed);
  s.sync_requests = sync_requests_.load(std::memory_order_relaxed);
  s.sync_piggybacks = sync_piggybacks_.load(std::memory_order_relaxed);
  return s;
}

Status Wal::Replay(const std::string& file, uint64_t from_lsn,
                   const CommitFn& fn, WalReplayResult* result) {
  *result = WalReplayResult{};
  result->end_lsn = from_lsn;
  const int fd = ::open(file.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();  // no log, nothing to replay
    return Status::IOError("open wal " + file, strerror(errno));
  }
  const off_t end_off = ::lseek(fd, 0, SEEK_END);
  if (end_off < 0) {
    ::close(fd);
    return Status::IOError("lseek wal " + file, strerror(errno));
  }
  const uint64_t size = static_cast<uint64_t>(end_off);
  uint64_t pos = from_lsn > size ? size : from_lsn;
  Status status = Status::OK();
  std::string payload;
  bool torn = false;
  while (pos + kFrameHeaderSize <= size) {
    char head[kFrameHeaderSize];
    size_t got = 0;
    status = PReadAll(fd, head, sizeof(head), pos, &got);
    if (!status.ok()) break;
    if (got < sizeof(head)) {
      torn = true;
      break;
    }
    const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(head));
    const uint32_t len = DecodeFixed32(head + 4);
    if (len == 0 || len > kMaxFrameBytes || pos + kFrameHeaderSize + len > size) {
      torn = true;  // length runs past EOF: the append was cut mid-frame
      break;
    }
    payload.resize(len);
    status = PReadAll(fd, payload.data(), len, pos + kFrameHeaderSize, &got);
    if (!status.ok()) break;
    if (got < len || crc32c::Value(payload.data(), len) != stored_crc) {
      torn = true;  // bits of the frame never reached the file
      break;
    }
    // CRC-valid frame: malformed contents now mean real corruption (or a
    // software bug), never a torn write — fail loudly.
    WalCommit commit;
    const char* p = payload.data();
    const char* limit = p + len;
    if (static_cast<uint8_t>(*p) != kCommitFrame || len < 1 + 8 + 1) {
      status = Status::Corruption("wal frame has unknown type", file);
      break;
    }
    commit.ts = DecodeFixed64(p + 1);
    p += 9;
    uint32_t count = 0;
    p = GetVarint32Ptr(p, limit, &count);
    bool parsed = p != nullptr;
    if (parsed) {
      commit.ops.reserve(count);
      for (uint32_t i = 0; i < count && parsed; ++i) {
        uint32_t klen = 0, vlen = 0;
        p = GetVarint32Ptr(p, limit, &klen);
        parsed = p != nullptr && static_cast<size_t>(limit - p) >= klen;
        if (!parsed) break;
        std::string key(p, klen);
        p += klen;
        p = GetVarint32Ptr(p, limit, &vlen);
        parsed = p != nullptr && static_cast<size_t>(limit - p) >= vlen;
        if (!parsed) break;
        commit.ops.emplace_back(std::move(key), std::string(p, vlen));
        p += vlen;
      }
    }
    if (!parsed || p != limit) {
      status = Status::Corruption("wal commit frame malformed", file);
      break;
    }
    status = fn(commit);
    if (!status.ok()) break;
    pos += kFrameHeaderSize + len;
    result->frames++;
    result->end_lsn = pos;
  }
  if (status.ok() && (torn || pos < size)) {
    // Cut the torn tail so appends resume at a clean frame boundary; the
    // lost suffix was never acknowledged (its commit could not have
    // returned without the full frame on file).
    if (::ftruncate(fd, static_cast<off_t>(pos)) != 0) {
      status = Status::IOError("truncate wal tail " + file, strerror(errno));
    } else {
      result->tail_truncated = true;
      TSB_LOG_WARN("wal %s: truncated torn tail at %llu (%llu bytes cut)",
                   file.c_str(), (unsigned long long)pos,
                   (unsigned long long)(size - pos));
    }
  }
  ::close(fd);
  return status;
}

}  // namespace wal
}  // namespace tsb
