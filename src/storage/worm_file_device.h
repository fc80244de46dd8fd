// File-backed write-once device: the paper's optical archive with real
// durability and mmap-served zero-copy reads.
#ifndef TSBTREE_STORAGE_WORM_FILE_DEVICE_H_
#define TSBTREE_STORAGE_WORM_FILE_DEVICE_H_

#include <string>

#include "storage/file_device.h"

namespace tsb {

/// A FileDevice with WORM sector semantics: the smallest writable unit is
/// a sector and every sector can be burned exactly once. Unlike the
/// in-memory WormDevice simulation, contents persist across reopen and
/// reads can be served zero-copy from the file mapping.
///
/// The burned region needs no side metadata: this device is only ever
/// written append-style (the AppendStore), so every sector covered by
/// [0, Size()) — including a trailing partially-filled sector — is burned,
/// and that invariant reconstructs itself from the file size on reopen.
class WormFileDevice : public FileDevice {
 public:
  /// Opens (creating if absent) `path`. Sectors covered by the existing
  /// file contents count as burned.
  static Status Open(const std::string& path, WormFileDevice** out,
                     uint32_t sector_size = kDefaultSectorSize,
                     CostParams params = CostParams::OpticalWorm(),
                     bool enable_mmap = true);

  static constexpr uint32_t kDefaultSectorSize = 1024;

  /// Fails with WriteOnceViolation when any covered sector is burned.
  Status Write(uint64_t offset, const Slice& data) override;
  /// Same check, made once for the run: a legal run starts in a fresh
  /// sector, and everything past its start is then fresh too.
  Status WriteGather(uint64_t offset, std::span<const Slice> parts,
                     size_t parts_per_write = 1) override;

  /// A WORM never truncates (burned sectors cannot be un-burned).
  Status Truncate(uint64_t size) override;

  uint32_t write_once_sector_size() const override { return sector_size_; }
  uint32_t sector_size() const { return sector_size_; }

  /// Sectors burned so far (= sectors covered by the high-water mark).
  uint64_t sectors_burned() const {
    const uint64_t size = Size();
    return (size + sector_size_ - 1) / sector_size_;
  }

 private:
  WormFileDevice(int fd, uint64_t size, uint32_t sector_size,
                 CostParams params, bool enable_mmap)
      : FileDevice(fd, size, DeviceKind::kOpticalWorm, params, enable_mmap),
        sector_size_(sector_size) {}

  uint32_t sector_size_;
  /// Serializes the burn check against the size high-water advance.
  std::mutex burn_check_mu_;
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_WORM_FILE_DEVICE_H_
