#include "storage/pager.h"

#include <cstring>
#include <memory>

#include "common/coding.h"
#include "common/logger.h"

namespace tsb {

Pager::Pager(Device* device, uint32_t page_size)
    : device_(device), page_size_(page_size) {
  // Materialize the meta page on fresh devices so ReadMeta always works.
  if (device_->Size() < page_size_) {
    std::unique_ptr<char[]> buf(new char[page_size_]);
    InitPage(buf.get(), page_size_, 0, PageType::kMeta);
    SealPage(buf.get(), page_size_);
    Status s = device_->Write(0, Slice(buf.get(), page_size_));
    if (!s.ok()) {
      // Constructors cannot return Status; the first ReadMeta will fail
      // loudly on the missing page — but say why here, not there.
      TSB_LOG_ERROR("meta page init write failed: %s", s.ToString().c_str());
    }
  } else {
    next_page_ = static_cast<uint32_t>(device_->Size() / page_size_);
    if (next_page_ == 0) next_page_ = 1;
  }
}

Status Pager::Alloc(uint32_t* page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_list_.empty()) {
    *page_id = free_list_.back();
    free_list_.pop_back();
    return Status::OK();
  }
  *page_id = next_page_++;
  return Status::OK();
}

Status Pager::Free(uint32_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_id == kInvalidPageId || page_id >= next_page_) {
    return Status::InvalidArgument("Free of invalid page",
                                   std::to_string(page_id));
  }
  free_list_.push_back(page_id);
  return Status::OK();
}

Status Pager::TruncateSlots(uint32_t slots, uint64_t* dropped) {
  *dropped = 0;
  const uint64_t end = static_cast<uint64_t>(slots) * page_size_;
  const uint64_t size = device_->Size();
  if (slots == 0 || size <= end) return Status::OK();
  TSB_RETURN_IF_ERROR(device_->Truncate(end));
  *dropped = (size - end + page_size_ - 1) / page_size_;
  std::lock_guard<std::mutex> lock(mu_);
  next_page_ = slots;
  std::erase_if(free_list_, [slots](uint32_t id) { return id >= slots; });
  return Status::OK();
}

Status Pager::VerifyRead(uint32_t id, const char* buf) {
  if (!verify_on_read_) return Status::OK();
  Status s = VerifyPage(buf, page_size_, id);
  if (s.ok()) {
    // Lost-write check: if we stamped this page during this process
    // lifetime, the trailer must carry that exact LSN. An older (or
    // missing) stamp means the device acked a write it never applied.
    uint64_t expected = 0;
    bool have_expected = false;
    {
      std::lock_guard<std::mutex> lock(lsn_mu_);
      auto it = stamped_lsn_.find(id);
      if (it != stamped_lsn_.end()) {
        expected = it->second;
        have_expected = true;
      }
    }
    if (have_expected && PageFlushLsn(buf, page_size_) != expected) {
      s = Status::Corruption(
          "lost page write",
          "page " + std::to_string(id) + " expected flush lsn " +
              std::to_string(expected) + " got " +
              std::to_string(PageFlushLsn(buf, page_size_)));
    }
  }
  if (!s.ok()) ReportCorruption(id, s);
  return s;
}

void Pager::ReportCorruption(uint32_t id, const Status& s) {
  CorruptionReporter reporter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reporter = corruption_reporter_;
  }
  if (reporter) reporter(id, s);
}

Status Pager::Read(uint32_t id, char* buf) {
  TSB_RETURN_IF_ERROR(
      device_->Read(static_cast<uint64_t>(id) * page_size_, page_size_, buf));
  return VerifyRead(id, buf);
}

Status Pager::WriteRun(uint32_t first_id, std::span<char* const> bufs) {
  if (bufs.empty()) return Status::OK();
  const uint64_t lsn = flush_lsn_.load(std::memory_order_relaxed);
  for (char* buf : bufs) SealPageWithLsn(buf, page_size_, lsn);
  // A single page (every eviction write-back) needs no parts vector.
  const Slice one(bufs[0], page_size_);
  std::vector<Slice> many;
  if (bufs.size() > 1) {
    many.reserve(bufs.size());
    for (char* buf : bufs) many.emplace_back(buf, page_size_);
  }
  Status s = device_->WriteGather(
      static_cast<uint64_t>(first_id) * page_size_,
      many.empty() ? std::span<const Slice>(&one, 1) : many);
  std::lock_guard<std::mutex> lock(lsn_mu_);
  for (uint32_t i = 0; i < bufs.size(); ++i) {
    if (s.ok()) {
      stamped_lsn_[first_id + i] = lsn;
    } else {
      // Which pages of a failed run landed is unknown: expect no stamp
      // rather than flag a landed page as a lost write.
      stamped_lsn_.erase(first_id + i);
    }
  }
  return s;
}

void Pager::EncodeFreeList(std::string* out, size_t max_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t header = 4;
  size_t fit = max_bytes > header ? (max_bytes - header) / 4 : 0;
  if (fit > free_list_.size()) fit = free_list_.size();
  PutFixed32(out, static_cast<uint32_t>(fit));
  for (size_t i = 0; i < fit; ++i) {
    PutFixed32(out, free_list_[i]);
  }
  last_encode_leaked_ = free_list_.size() - fit;
  if (last_encode_leaked_ > 0) {
    TSB_LOG_WARN(
        "free list overflow: %llu of %llu free pages do not fit in %zu "
        "meta bytes and leak until the pages are freed again",
        static_cast<unsigned long long>(last_encode_leaked_),
        static_cast<unsigned long long>(free_list_.size()), max_bytes);
  }
}

Status Pager::DecodeFreeList(Slice in) {
  if (in.size() < 4) return Status::Corruption("free list truncated");
  const uint32_t count = DecodeFixed32(in.data());
  in.remove_prefix(4);
  if (in.size() < static_cast<size_t>(count) * 4) {
    return Status::Corruption("free list truncated");
  }
  std::lock_guard<std::mutex> lock(mu_);
  free_list_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t id = DecodeFixed32(in.data() + static_cast<size_t>(i) * 4);
    if (id != kInvalidPageId && id < next_page_) {
      free_list_.push_back(id);
    }
  }
  return Status::OK();
}

Status Pager::VerifyStampedPages(
    const std::function<void(uint32_t, const Status&)>& on_corrupt,
    uint64_t* pages_checked) {
  std::vector<std::pair<uint32_t, uint64_t>> stamped;
  {
    std::lock_guard<std::mutex> lock(lsn_mu_);
    stamped.assign(stamped_lsn_.begin(), stamped_lsn_.end());
  }
  std::unique_ptr<char[]> buf(new char[page_size_]);
  for (const auto& [id, lsn] : stamped) {
    const uint64_t offset = static_cast<uint64_t>(id) * page_size_;
    if (pages_checked != nullptr) ++*pages_checked;
    if (offset + page_size_ > device_->Size()) {
      // The stamped slot is not even on the device: a lost write to the
      // tail page (the device never grew to cover it).
      if (on_corrupt) {
        on_corrupt(id, Status::Corruption(
                           "lost page write",
                           "page " + std::to_string(id) +
                               " stamped but past device end"));
      }
      continue;
    }
    TSB_RETURN_IF_ERROR(device_->Read(offset, page_size_, buf.get()));
    Status s = VerifyPage(buf.get(), page_size_, id);
    if (s.ok() && PageFlushLsn(buf.get(), page_size_) != lsn) {
      s = Status::Corruption(
          "lost page write",
          "page " + std::to_string(id) + " expected flush lsn " +
              std::to_string(lsn) + " got " +
              std::to_string(PageFlushLsn(buf.get(), page_size_)));
    }
    if (!s.ok() && on_corrupt) on_corrupt(id, s);
  }
  return Status::OK();
}

Status Pager::ReadMeta(char* buf) {
  TSB_RETURN_IF_ERROR(device_->Read(0, page_size_, buf));
  return VerifyRead(0, buf);
}

}  // namespace tsb
