#include "storage/device.h"

#include <string>

namespace tsb {

const char* DeviceKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kMagnetic:
      return "magnetic";
    case DeviceKind::kOpticalWorm:
      return "optical-worm";
    case DeviceKind::kOpticalErasable:
      return "optical-erasable";
  }
  return "?";
}

Status Device::ReadMapped(uint64_t offset, size_t n, MappedRead* out,
                          AccessPattern pattern) {
  (void)offset;
  (void)n;
  (void)out;
  (void)pattern;
  return Status::NotSupported("ReadMapped", DeviceKindName(kind_));
}

Status Device::WriteGather(uint64_t offset, std::span<const Slice> parts,
                           size_t parts_per_write) {
  std::string joined;
  for (size_t i = 0; i < parts.size(); i += parts_per_write) {
    Slice data = parts[i];
    if (parts_per_write > 1) {
      joined.clear();
      for (size_t j = i; j < i + parts_per_write; ++j) {
        joined.append(parts[j].data(), parts[j].size());
      }
      data = Slice(joined);
    }
    TSB_RETURN_IF_ERROR(Write(offset, data));
    offset += data.size();
  }
  return Status::OK();
}

void Device::AccountAccess(uint64_t offset, size_t n) {
  if (!mounted_) {
    mounted_ = true;
    stats_.mounts++;
    stats_.simulated_ms += params_.mount_ms;
  }
  if (offset != last_end_) {
    stats_.seeks++;
    stats_.simulated_ms += params_.avg_seek_ms;
  }
  last_end_ = offset + n;
  // transfer_mb_per_s MB/s  ==  params * 1048.576 bytes/ms
  stats_.simulated_ms +=
      static_cast<double>(n) / (params_.transfer_mb_per_s * 1048.576);
}

void Device::AccountRead(uint64_t offset, size_t n) {
  std::lock_guard<std::mutex> lock(account_mu_);
  AccountAccess(offset, n);
  stats_.reads++;
  stats_.bytes_read += n;
}

void Device::AccountWrite(uint64_t offset, size_t n) {
  std::lock_guard<std::mutex> lock(account_mu_);
  AccountAccess(offset, n);
  stats_.writes++;
  stats_.bytes_written += n;
}

}  // namespace tsb
