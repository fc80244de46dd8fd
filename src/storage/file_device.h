// File-backed erasable device, for durability tests and on-disk runs.
#ifndef TSBTREE_STORAGE_FILE_DEVICE_H_
#define TSBTREE_STORAGE_FILE_DEVICE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "storage/device.h"

namespace tsb {

/// Erasable device backed by a POSIX file (pread/pwritev).
/// Thread-safe: pread/pwritev are atomic at the OS level; the size
/// high-water mark is maintained with atomics.
///
/// A large write starts its own writeback: once a write call (a
/// checkpoint's run of pages) has landed 1 MiB, those bytes go to
/// sync_file_range(SYNC_FILE_RANGE_WRITE), which waits for nothing, so
/// the Sync that follows waits only for the tail. Small writes are left
/// to the page cache: kicking the history appends of a commit window
/// would queue device writes ahead of group commit's fdatasync. Where
/// the call does not exist this does nothing.
///
/// When mmap is enabled (the default) ReadMapped serves pinned zero-copy
/// views out of a PROT_READ MAP_SHARED mapping of the file. The mapping is
/// refcounted: when the file grows past the mapped length a fresh mapping
/// of the whole file replaces it, and the old one stays alive until its
/// last pin releases — file growth never invalidates live pins. Truncate
/// drops the current mapping; bytes a pin covered that the truncate cut
/// away must not be accessed afterwards (the historical append path never
/// truncates).
class FileDevice : public Device {
 public:
  ~FileDevice() override;

  /// Opens (creating if absent) `path`. On success returns a new device via
  /// `*out`. `enable_mmap` = false forces every read through pread (the
  /// copying path) — used as a measurable baseline and for filesystems
  /// where mapping is undesirable.
  static Status Open(const std::string& path, FileDevice** out,
                     DeviceKind kind = DeviceKind::kMagnetic,
                     CostParams params = CostParams::Magnetic(),
                     bool enable_mmap = true);

  Status Read(uint64_t offset, size_t n, char* scratch) override;
  Status Write(uint64_t offset, const Slice& data) override;
  /// One pwritev per IOV_MAX parts; IoStats still count every write.
  Status WriteGather(uint64_t offset, std::span<const Slice> parts,
                     size_t parts_per_write = 1) override;
  uint64_t Size() const override { return size_.load(std::memory_order_acquire); }
  Status Truncate(uint64_t size) override;
  Status Sync() override;

  bool SupportsMappedReads() const override { return enable_mmap_; }
  /// Fresh mappings are advised MADV_RANDOM once (point pins fault exactly
  /// the pages they touch, no wasted readahead); a kSequential read
  /// prefetches its own range with MADV_WILLNEED — readahead for the scan
  /// without leaving sticky sequential advice behind on pages later point
  /// reads will hit. kRandom reads after mapping creation cost no syscall.
  Status ReadMapped(uint64_t offset, size_t n, MappedRead* out,
                    AccessPattern pattern = AccessPattern::kRandom) override;

 protected:
  FileDevice(int fd, uint64_t size, DeviceKind kind, CostParams params,
             bool enable_mmap)
      : Device(kind, params),
        fd_(fd),
        size_(size),
        enable_mmap_(enable_mmap) {}

  /// open(2) + fstat for Open and subclasses (WormFileDevice).
  static Status OpenFd(const std::string& path, int* fd, uint64_t* size);

 private:
  /// One mmap of a prefix of the file; unmapped when the last pin drops.
  struct Mapping {
    char* base = nullptr;
    size_t len = 0;
    ~Mapping();
  };

  /// Body of Write and WriteGather (subclasses check before either).
  Status WriteParts(uint64_t offset, std::span<const Slice> parts,
                    size_t parts_per_write);

  /// Starts writeback of [from, end), which just landed.
  void StartWriteback(uint64_t from, uint64_t end);
  static constexpr uint64_t kWritebackBytes = 1 << 20;

  int fd_;
  std::atomic<uint64_t> size_;
  bool enable_mmap_;

  std::mutex map_mu_;                   // guards map_ (re)creation
  std::shared_ptr<const Mapping> map_;  // covers [0, map_->len)
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_FILE_DEVICE_H_
