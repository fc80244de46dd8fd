#include "storage/worm_file_device.h"

namespace tsb {

Status WormFileDevice::Open(const std::string& path, WormFileDevice** out,
                            uint32_t sector_size, CostParams params,
                            bool enable_mmap) {
  if (sector_size == 0) {
    return Status::InvalidArgument("WORM sector size must be non-zero");
  }
  int fd = -1;
  uint64_t size = 0;
  TSB_RETURN_IF_ERROR(OpenFd(path, &fd, &size));
  *out = new WormFileDevice(fd, size, sector_size, params, enable_mmap);
  return Status::OK();
}

Status WormFileDevice::Write(uint64_t offset, const Slice& data) {
  return WriteGather(offset, {&data, 1}, 1);
}

Status WormFileDevice::WriteGather(uint64_t offset,
                                   std::span<const Slice> parts,
                                   size_t parts_per_write) {
  // Burned region = sectors covered by the high-water mark (a trailing
  // partially-filled sector is burned; its residue is the WORM waste the
  // paper describes). A legal write therefore starts in a fresh sector.
  std::lock_guard<std::mutex> lock(burn_check_mu_);
  if (offset / sector_size_ < sectors_burned()) {
    return Status::WriteOnceViolation(
        "sector already burned",
        "offset " + std::to_string(offset));
  }
  return FileDevice::WriteGather(offset, parts, parts_per_write);
}

Status WormFileDevice::Truncate(uint64_t size) {
  (void)size;
  return Status::NotSupported("Truncate", "write-once device");
}

}  // namespace tsb
