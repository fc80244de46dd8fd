#include "storage/append_store.h"

#include <memory>

#include "common/coding.h"
#include "common/crc32c.h"

namespace tsb {

AppendStore::AppendStore(Device* device, size_t cache_blobs)
    : device_(device), cache_capacity_(cache_blobs) {
  sector_size_ = device->write_once_sector_size();
  next_offset_.store(device->Size(), std::memory_order_relaxed);
  flushed_end_.store(device->Size(), std::memory_order_relaxed);
}

uint64_t AppendStore::AlignUp(uint64_t offset) const {
  if (sector_size_ == 0) return offset;
  const uint64_t rem = offset % sector_size_;
  return rem == 0 ? offset : offset + (sector_size_ - rem);
}

Status AppendStore::Append(const Slice& payload, HistAddr* addr) {
  char header[kFrameHeaderSize];
  EncodeFixed32(header, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(header + 4, crc32c::Mask(crc32c::Value(payload.data(),
                                                       payload.size())));

  std::lock_guard<std::mutex> lock(append_mu_);
  const uint64_t offset = AlignUp(next_offset_.load(std::memory_order_relaxed));
  const uint64_t end = offset + kFrameHeaderSize + payload.size();
  if (sector_size_ != 0) {
    // WORM: every blob is its own write either way (a write spanning the
    // sector residue would burn it), so staging saves nothing. Header and
    // payload go down as one gather write, without a frame copy.
    const Slice frame[2] = {Slice(header, kFrameHeaderSize), payload};
    TSB_RETURN_IF_ERROR(device_->WriteGather(offset, frame, 2));
    flushed_end_.store(end, std::memory_order_release);
  } else {
    // Erasable: blobs pack byte-contiguously, so the tail is the device
    // image of [flushed_end_, next_offset_).
    tail_.append(header, kFrameHeaderSize);
    tail_.append(payload.data(), payload.size());
  }
  addr->offset = offset;
  addr->length = static_cast<uint32_t>(payload.size());
  next_offset_.store(end, std::memory_order_release);
  payload_bytes_ += payload.size();
  blob_count_++;
  return Status::OK();
}

Status AppendStore::Flush() {
  // Lock-free when nothing is staged: every write call ends here.
  if (flushed_end_.load(std::memory_order_acquire) ==
      next_offset_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  if (tail_.empty()) return Status::OK();
  // One write for the whole tail. A failed write leaves it staged;
  // rewriting the same offsets is harmless on an erasable device.
  TSB_RETURN_IF_ERROR(device_->Write(
      flushed_end_.load(std::memory_order_relaxed), Slice(tail_)));
  tail_.clear();
  flushed_end_.store(next_offset_.load(std::memory_order_relaxed),
                     std::memory_order_release);
  return Status::OK();
}

Status AppendStore::ReadFromDevice(const HistAddr& addr,
                                   std::string* payload) {
  char header[kFrameHeaderSize];
  TSB_RETURN_IF_ERROR(device_->Read(addr.offset, kFrameHeaderSize, header));
  const uint32_t len = DecodeFixed32(header);
  const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(header + 4));
  if (len != addr.length) {
    Unverify(addr.offset);
    return Status::Corruption("historical blob length mismatch",
                              "at offset " + std::to_string(addr.offset));
  }
  payload->resize(len);
  TSB_RETURN_IF_ERROR(
      device_->Read(addr.offset + kFrameHeaderSize, len, payload->data()));
  if (crc32c::Value(payload->data(), len) != stored_crc) {
    // Sticky-DETECTED, not sticky-trusted: drop the first-pin memo so no
    // later mapped read serves these bytes as "already verified".
    Unverify(addr.offset);
    return Status::Corruption("historical blob checksum mismatch",
                              "at offset " + std::to_string(addr.offset));
  }
  return Status::OK();
}

void AppendStore::Unverify(uint64_t offset) {
  {
    std::lock_guard<std::mutex> lock(verified_mu_);
    verified_.erase(offset);
  }
  // Also drop any cached handle: a cache hit would keep serving the
  // (stale, once-good) copy and mask the device-level corruption from
  // every reader that does not pass verify_checksums.
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(offset);
  if (it != cache_.end()) {
    cache_lru_.erase(it->second.lru_pos);
    cache_.erase(it);
  }
}

Status AppendStore::PinFromDevice(const HistAddr& addr,
                                  const BlobReadHints& hints,
                                  BlobHandle* out) {
  if (device_->SupportsMappedReads()) {
    MappedRead m;
    Status s = device_->ReadMapped(
        addr.offset, kFrameHeaderSize + addr.length, &m,
        hints.sequential ? AccessPattern::kSequential
                         : AccessPattern::kRandom);
    if (s.ok()) {
      const char* frame = m.data.data();
      const uint32_t len = DecodeFixed32(frame);
      if (len != addr.length) {
        Unverify(addr.offset);
        return Status::Corruption("historical blob length mismatch",
                                  "at offset " + std::to_string(addr.offset));
      }
      const Slice payload(frame + kFrameHeaderSize, len);
      bool verified;
      {
        std::lock_guard<std::mutex> lock(verified_mu_);
        verified = verified_.count(addr.offset) != 0;
      }
      if (!verified || hints.verify_checksums) {
        const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(frame + 4));
        if (crc32c::Value(payload.data(), len) != stored_crc) {
          // Evict the memo (and any cached copy): the error must stay
          // detectable on every later read, not trusted away.
          Unverify(addr.offset);
          return Status::Corruption(
              "historical blob checksum mismatch",
              "at offset " + std::to_string(addr.offset));
        }
        std::lock_guard<std::mutex> lock(verified_mu_);
        if (verified_.size() < verified_capacity_) {
          verified_.insert(addr.offset);
        }
      }
      mapped_bytes_.fetch_add(len, std::memory_order_relaxed);
      // Re-alias the pin to the payload start so handles for the same blob
      // compare equal in SharesBufferWith regardless of the mapping they
      // came from being shared with other blobs.
      *out = BlobHandle(
          std::shared_ptr<const void>(std::move(m.pin), payload.data()),
          payload);
      return Status::OK();
    }
    // Mapped read unavailable (e.g. device grew no mapping yet failed);
    // fall through to the copying path.
  }
  auto payload = std::make_shared<std::string>();
  TSB_RETURN_IF_ERROR(ReadFromDevice(addr, payload.get()));
  copied_bytes_.fetch_add(payload->size(), std::memory_order_relaxed);
  *out = BlobHandle::FromString(std::move(payload));
  return Status::OK();
}

Status AppendStore::ReadView(const HistAddr& addr, BlobHandle* out,
                             const BlobReadHints& hints) {
  // A staged blob (its writer has not returned yet, or its flush failed)
  // goes to the device first, so there is one read path.
  if (addr.offset + kFrameHeaderSize + addr.length >
      flushed_end_.load(std::memory_order_acquire)) {
    TSB_RETURN_IF_ERROR(Flush());
  }
  blob_reads_.fetch_add(1, std::memory_order_relaxed);
  blob_bytes_read_.fetch_add(addr.length, std::memory_order_relaxed);
  // A verifying read must not be satisfied (or influenced) by the shared
  // cache: the point of the hint is to check the bytes the DEVICE holds
  // now, and a cached handle — or another reader's concurrently published
  // one — was verified in the past. Bypass the cache entirely.
  const bool verify = hints.verify_checksums;
  if (cache_capacity_ > 0 && !verify) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(addr.offset);
    if (it != cache_.end()) {
      // splice, not erase+push: the LRU bump must not allocate.
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_pos);
      *out = it->second.handle;  // pin, no copy
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  BlobHandle fresh;
  TSB_RETURN_IF_ERROR(PinFromDevice(addr, hints, &fresh));

  if (cache_capacity_ > 0 && hints.fill_cache && !verify) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(addr.offset);
    if (it != cache_.end()) {
      // A concurrent reader published the same blob while we read it from
      // the device; share theirs so all pins reference one buffer.
      fresh = it->second.handle;
    } else {
      while (cache_.size() >= cache_capacity_) {
        const uint64_t victim = cache_lru_.back();
        cache_lru_.pop_back();
        cache_.erase(victim);  // pinned readers keep the blob alive
      }
      cache_lru_.push_front(addr.offset);
      cache_.emplace(addr.offset, CacheEntry{fresh, cache_lru_.begin()});
    }
  }
  *out = std::move(fresh);
  return Status::OK();
}

void AppendStore::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  cache_lru_.clear();
}

Status AppendStore::Read(const HistAddr& addr, std::string* payload) {
  BlobHandle handle;
  TSB_RETURN_IF_ERROR(ReadView(addr, &handle));
  const Slice data = handle.data();
  payload->assign(data.data(), data.size());  // copy outside the cache latch
  return Status::OK();
}

Status AppendStore::ScrubAll(
    const std::function<void(uint64_t, const Status&)>& on_corrupt,
    BlobScrubResult* result,
    const std::function<void(uint64_t)>& throttle) {
  *result = BlobScrubResult();
  const uint64_t end = flushed_end_.load(std::memory_order_acquire);
  uint64_t offset = 0;
  std::string payload;
  while (true) {
    offset = AlignUp(offset);
    if (offset + kFrameHeaderSize > end) break;
    char header[kFrameHeaderSize];
    TSB_RETURN_IF_ERROR(device_->Read(offset, kFrameHeaderSize, header));
    const uint32_t len = DecodeFixed32(header);
    const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(header + 4));
    if (offset + kFrameHeaderSize + len > end) {
      // The length field itself no longer parses against the append chain;
      // every frame after this point is unreachable through it.
      result->corruptions++;
      Unverify(offset);
      if (on_corrupt) {
        on_corrupt(offset,
                   Status::Corruption("historical blob frame unparseable",
                                      "at offset " + std::to_string(offset)));
      }
      break;
    }
    payload.resize(len);
    TSB_RETURN_IF_ERROR(
        device_->Read(offset + kFrameHeaderSize, len, payload.data()));
    if (crc32c::Value(payload.data(), len) != stored_crc) {
      result->corruptions++;
      Unverify(offset);
      if (on_corrupt) {
        on_corrupt(offset,
                   Status::Corruption("historical blob checksum mismatch",
                                      "at offset " + std::to_string(offset)));
      }
    }
    result->blobs_scanned++;
    result->bytes_scanned += kFrameHeaderSize + len;
    if (throttle) throttle(kFrameHeaderSize + len);
    offset += kFrameHeaderSize + len;
  }
  return Status::OK();
}

HistReadStats AppendStore::hist_stats() const {
  HistReadStats s;
  s.blob_reads = blob_reads_.load(std::memory_order_relaxed);
  s.blob_bytes = blob_bytes_read_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.mapped_bytes = mapped_bytes_.load(std::memory_order_relaxed);
  s.copied_bytes = copied_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tsb
