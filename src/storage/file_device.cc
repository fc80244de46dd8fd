#include "storage/file_device.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

namespace tsb {

FileDevice::Mapping::~Mapping() {
  if (base != nullptr) ::munmap(base, len);
}

FileDevice::~FileDevice() {
  if (fd_ >= 0) ::close(fd_);
  // map_ (and any pinned Mapping) outlives the fd; a file mapping stays
  // valid after close(2).
}

Status FileDevice::OpenFd(const std::string& path, int* fd, uint64_t* size) {
  *fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (*fd < 0) {
    return Status::IOError("open " + path, strerror(errno));
  }
  struct stat st;
  if (::fstat(*fd, &st) != 0) {
    ::close(*fd);
    *fd = -1;
    return Status::IOError("fstat " + path, strerror(errno));
  }
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status FileDevice::Open(const std::string& path, FileDevice** out,
                        DeviceKind kind, CostParams params,
                        bool enable_mmap) {
  int fd = -1;
  uint64_t size = 0;
  TSB_RETURN_IF_ERROR(OpenFd(path, &fd, &size));
  *out = new FileDevice(fd, size, kind, params, enable_mmap);
  return Status::OK();
}

Status FileDevice::Read(uint64_t offset, size_t n, char* scratch) {
  if (offset + n > size_.load(std::memory_order_acquire)) {
    return Status::IOError("FileDevice read past end");
  }
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd_, scratch + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread", strerror(errno));
    }
    if (r == 0) return Status::IOError("pread short read");
    done += static_cast<size_t>(r);
  }
  AccountRead(offset, n);
  return Status::OK();
}

Status FileDevice::Write(uint64_t offset, const Slice& data) {
  return WriteParts(offset, {&data, 1}, 1);
}

Status FileDevice::WriteGather(uint64_t offset, std::span<const Slice> parts,
                               size_t parts_per_write) {
  return WriteParts(offset, parts, parts_per_write);
}

namespace {

/// Writes every byte `iov[0, n)` covers at `offset`, resuming after short
/// writes. Advances the iovecs it consumes.
Status PwritevAll(int fd, struct iovec* iov, size_t n, uint64_t offset) {
  size_t i = 0;
  while (i < n && iov[i].iov_len == 0) ++i;
  while (i < n) {
    ssize_t w = ::pwritev(fd, iov + i, static_cast<int>(n - i),
                          static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        // Distinguished so the error handler classifies it transient:
        // freeing space + Resume() heals, unlike a generic EIO surface.
        return Status::OutOfSpace("pwritev", strerror(errno));
      }
      return Status::IOError("pwritev", strerror(errno));
    }
    if (w == 0) {
      // Zero bytes for a nonzero count: full device edge case; retrying
      // would spin forever.
      return Status::OutOfSpace("pwritev wrote 0 bytes");
    }
    offset += static_cast<uint64_t>(w);
    size_t left = static_cast<size_t>(w);
    while (i < n && left >= iov[i].iov_len) left -= iov[i++].iov_len;
    if (i < n) {
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + left;
      iov[i].iov_len -= left;
    }
  }
  return Status::OK();
}

}  // namespace

Status FileDevice::WriteParts(uint64_t offset, std::span<const Slice> parts,
                              size_t parts_per_write) {
  struct iovec iov[IOV_MAX];
  uint64_t end = offset;
  size_t landed = 0;  // parts on the file, [0, landed)
  size_t counted = 0;  // parts whose write IoStats has counted
  uint64_t counted_end = offset;
  uint64_t writeback_from = offset;  // landed, writeback not started
  while (landed < parts.size()) {
    const size_t n = std::min<size_t>(parts.size() - landed, IOV_MAX);
    const uint64_t start = end;
    for (size_t i = 0; i < n; ++i) {
      const Slice& p = parts[landed + i];
      iov[i].iov_base = const_cast<char*>(p.data());
      iov[i].iov_len = p.size();
      end += p.size();
    }
    TSB_RETURN_IF_ERROR(PwritevAll(fd_, iov, n, start));
    if (end - writeback_from >= kWritebackBytes) {
      StartWriteback(writeback_from, end);
      writeback_from = end;
    }
    landed += n;
    uint64_t cur = size_.load(std::memory_order_relaxed);
    while (end > cur &&
           !size_.compare_exchange_weak(cur, end, std::memory_order_release)) {
    }
    // Count each write whose parts have all landed, as Write would have.
    while (counted + parts_per_write <= landed) {
      uint64_t bytes = 0;
      for (size_t i = counted; i < counted + parts_per_write; ++i) {
        bytes += parts[i].size();
      }
      AccountWrite(counted_end, bytes);
      counted_end += bytes;
      counted += parts_per_write;
    }
  }
  return Status::OK();
}

void FileDevice::StartWriteback(uint64_t from, uint64_t end) {
#ifdef SYNC_FILE_RANGE_WRITE
  // Best effort: an error here shows up again at Sync.
  (void)::sync_file_range(fd_, static_cast<off_t>(from),
                          static_cast<off_t>(end - from),
                          SYNC_FILE_RANGE_WRITE);
#else
  (void)from;
  (void)end;
#endif
}

Status FileDevice::ReadMapped(uint64_t offset, size_t n, MappedRead* out,
                              AccessPattern pattern) {
  if (!enable_mmap_) {
    return Status::NotSupported("ReadMapped", "mmap disabled");
  }
  const uint64_t file_size = size_.load(std::memory_order_acquire);
  // Overflow-safe bounds check: a corrupt address with offset near
  // UINT64_MAX must fail cleanly here, not wrap past the check and fault
  // on a wild mapped pointer.
  if (n > file_size || offset > file_size - n) {
    return Status::IOError("FileDevice mapped read past end");
  }
  std::shared_ptr<const Mapping> map;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    if (map_ == nullptr || offset + n > map_->len) {
      // Remap the whole file, rounded up to the page grid. Pins on the old
      // mapping keep it alive through their shared_ptr; nothing existing
      // is invalidated. MAP_SHARED keeps the view coherent with pwrite
      // appends landing inside the mapped length.
      const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
      const size_t len = ((file_size + page - 1) / page) * page;
      void* base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd_, 0);
      if (base == MAP_FAILED) {
        return Status::IOError("mmap", strerror(errno));
      }
      // Default the whole mapping to random access: point pins touch
      // exactly the pages they need, and readahead for them is waste.
      // Sequential readers re-advise their own range below.
      ::madvise(base, len, MADV_RANDOM);
      auto m = std::make_shared<Mapping>();
      m->base = static_cast<char*>(base);
      m->len = len;
      map_ = std::move(m);
    }
    map = map_;
  }
  if (pattern == AccessPattern::kSequential) {
    // Prefetch the scanned range with MADV_WILLNEED rather than flipping
    // it to MADV_SEQUENTIAL: sequential advice is a sticky per-range
    // regime on this long-lived shared mapping and would keep penalizing
    // later point reads of the same pages (aggressive readahead + eager
    // reclaim behind the fault point) long after the scan ended.
    // WILLNEED triggers the readahead a scan wants, changes no steady
    // state, and needs no undo. Page-align; best-effort, errors ignored.
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const uint64_t lo = (offset / page) * page;
    const uint64_t hi = ((offset + n + page - 1) / page) * page;
    const uint64_t end = hi < map->len ? hi : map->len;
    if (end > lo) {
      ::madvise(map->base + lo, static_cast<size_t>(end - lo),
                MADV_WILLNEED);
    }
  }
  out->data = Slice(map->base + offset, n);
  const void* start = map->base + offset;
  out->pin = std::shared_ptr<const void>(std::move(map), start);
  AccountRead(offset, n);
  return Status::OK();
}

Status FileDevice::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("ftruncate", strerror(errno));
  }
  size_.store(size, std::memory_order_release);
  // Mapped bytes beyond the new end would fault on access; drop the
  // mapping so later ReadMapped calls rebuild it at the new length.
  std::lock_guard<std::mutex> lock(map_mu_);
  map_.reset();
  return Status::OK();
}

Status FileDevice::Sync() {
  if (::fsync(fd_) != 0) {
    if (errno == ENOSPC) {
      return Status::OutOfSpace("fsync", strerror(errno));
    }
    return Status::IOError("fsync", strerror(errno));
  }
  return Status::OK();
}

}  // namespace tsb
