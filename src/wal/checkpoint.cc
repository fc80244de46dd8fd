#include "wal/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/fsync_dir.h"
#include "common/logger.h"
#include "storage/file_device.h"
#include "storage/pager.h"

namespace tsb {
namespace wal {

std::string CheckpointJournal::JournalPath(const std::string& dir) {
  return dir + "/checkpoint.tsb";
}

std::string CheckpointJournal::RetiredPath(const std::string& dir) {
  return dir + "/checkpoint.last.tsb";
}

CheckpointJournal::CheckpointJournal(std::string dir, uint32_t page_size)
    : dir_(std::move(dir)), page_size_(page_size) {}

CheckpointJournal::~CheckpointJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Status CheckpointJournal::Create() {
  const std::string path = JournalPath(dir_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::IOError("create " + path, strerror(errno));
  std::string header;
  PutFixed32(&header, kMagic);
  PutFixed32(&header, kVersion);
  PutFixed32(&header, page_size_);
  Stage(header.data(), header.size());
  return Status::OK();
}

void CheckpointJournal::Stage(const char* data, size_t len) {
  pieces_.push_back({nullptr, staged_.size(), len});
  staged_.append(data, len);
}

void CheckpointJournal::BeginTree(const std::string& device_file) {
  std::string record(1, static_cast<char>(kTreeRecord));
  PutVarint32(&record, static_cast<uint32_t>(device_file.size()));
  record.append(device_file);
  Stage(record.data(), record.size());
  records_++;
}

void CheckpointJournal::AddPage(uint32_t page_id, const char* image) {
  char header[9];
  header[0] = static_cast<char>(kPageRecord);
  EncodeFixed32(header + 1, page_id);
  EncodeFixed32(header + 5, page_size_);
  Stage(header, sizeof(header));
  pieces_.push_back({image, 0, page_size_});
  records_++;
}

Status CheckpointJournal::WritePieces() {
  std::vector<iovec> iov;
  iov.reserve(pieces_.size());
  for (const Piece& p : pieces_) {
    const char* data = p.image != nullptr ? p.image : staged_.data() + p.offset;
    crc_ = crc32c::Extend(crc_, data, p.len);
    iov.push_back({const_cast<char*>(data), p.len});
  }
  size_t next = 0;
  while (next < iov.size()) {
    const ssize_t n = ::pwritev(
        fd_, iov.data() + next,
        static_cast<int>(std::min<size_t>(iov.size() - next, IOV_MAX)),
        static_cast<off_t>(offset_));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError("write " + JournalPath(dir_),
                             n < 0 ? strerror(errno) : "no progress");
    }
    offset_ += static_cast<uint64_t>(n);
    // Skip the pieces written whole; trim a partially written one.
    size_t left = static_cast<size_t>(n);
    while (next < iov.size() && left >= iov[next].iov_len) {
      left -= iov[next].iov_len;
      next++;
    }
    if (left > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + left;
      iov[next].iov_len -= left;
    }
  }
  pieces_.clear();
  staged_.clear();
  return Status::OK();
}

Status CheckpointJournal::WriteTrailer() {
  TSB_RETURN_IF_ERROR(WritePieces());
  char trailer[13];
  trailer[0] = static_cast<char>(kEndRecord);
  EncodeFixed64(trailer + 1, records_);
  EncodeFixed32(trailer + 9, crc32c::Mask(crc32c::Extend(crc_, trailer, 9)));
  // Later sections overwrite this trailer: rewind to the end record.
  const uint64_t end_offset = offset_;
  const uint32_t end_crc = crc_;
  pieces_.push_back({trailer, 0, sizeof(trailer)});
  TSB_RETURN_IF_ERROR(WritePieces());
  offset_ = end_offset;
  crc_ = end_crc;
  return Status::OK();
}

Status CheckpointJournal::Commit() {
  TSB_RETURN_IF_ERROR(WriteTrailer());
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + JournalPath(dir_), strerror(errno));
  }
  // The fsync above pinned the journal's BYTES; its directory entry is
  // separate state. Without this, a power cut after the in-place page
  // overwrites begin could forget the journal existed — torn base files
  // with nothing to roll them forward. This return is the commit point.
  return SyncDir(dir_);
}

Status CheckpointJournal::Retire() {
  const std::string path = JournalPath(dir_);
  const std::string retired = RetiredPath(dir_);
  if (::rename(path.c_str(), retired.c_str()) != 0) {
    return Status::IOError("rename " + path + " -> " + retired,
                           strerror(errno));
  }
  // The live journal must be gone (a resurrected one would be re-applied
  // at open) before the manifest advances.
  TSB_RETURN_IF_ERROR(SyncDir(dir_));
  // Repair images go in after the rename and without fsync: the in-place
  // phase is synced, and renaming a file with unwritten data over another
  // makes ext4 (auto_da_alloc) start writing it back at once. Unsynced,
  // they usually die unwritten when the next checkpoint's rename unlinks
  // this file.
  if (!pieces_.empty()) TSB_RETURN_IF_ERROR(WriteTrailer());
  return Status::OK();
}

namespace {

/// Reads `path` and verifies the trailer CRC + header; on success `*body`
/// holds the full file and `*crc_pos` the trailer CRC offset. Corruption
/// here means torn or rotten: the bytes cannot be trusted at all.
Status LoadVerifiedJournal(const std::string& path, uint32_t page_size,
                           std::string* body, size_t* crc_pos) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("open " + path, strerror(errno));
  body->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) body->append(buf, n);
  const bool read_ok = ferror(f) == 0;
  fclose(f);
  if (!read_ok) return Status::IOError("read " + path, strerror(errno));
  if (body->size() < 12 + 1 + 8 + 4) {
    return Status::Corruption("checkpoint journal truncated", path);
  }
  *crc_pos = body->size() - 4;
  if (crc32c::Value(body->data(), *crc_pos) !=
      crc32c::Unmask(DecodeFixed32(body->data() + *crc_pos))) {
    return Status::Corruption("checkpoint journal crc mismatch", path);
  }
  const char* p = body->data();
  if (DecodeFixed32(p) != CheckpointJournal::kMagic ||
      DecodeFixed32(p + 4) != CheckpointJournal::kVersion) {
    return Status::Corruption("checkpoint journal bad magic/version", path);
  }
  if (DecodeFixed32(p + 8) != page_size) {
    // A journal for different geometry cannot belong to this database
    // state; the CRC passed so this is a caller error, not a torn write.
    return Status::InvalidArgument("checkpoint journal page_size mismatch",
                                   path);
  }
  return Status::OK();
}

/// Parses the records of a CRC-verified journal body, handing each page
/// image (a view into `body`) to `on_page` in file order. The CRC already
/// vouched for the bytes, so structural errors are Corruption, not "torn".
Status ParseJournal(
    const std::string& path, const std::string& body, size_t crc_pos,
    uint32_t page_size,
    const std::function<void(const std::string&, uint32_t, Slice)>& on_page) {
  const char* p = body.data() + 12;
  const char* limit = body.data() + crc_pos;
  std::string current_file;
  uint64_t records = 0;
  while (p < limit) {
    const uint8_t type = static_cast<uint8_t>(*p++);
    if (type == CheckpointJournal::kTreeRecord) {
      uint32_t len = 0;
      p = GetVarint32Ptr(p, limit, &len);
      if (p == nullptr || static_cast<size_t>(limit - p) < len) {
        return Status::Corruption("journal tree record malformed", path);
      }
      current_file.assign(p, len);
      p += len;
      records++;
    } else if (type == CheckpointJournal::kPageRecord) {
      if (static_cast<size_t>(limit - p) < 8) {
        return Status::Corruption("journal page record malformed", path);
      }
      const uint32_t id = DecodeFixed32(p);
      const uint32_t len = DecodeFixed32(p + 4);
      p += 8;
      if (len != page_size || static_cast<size_t>(limit - p) < len ||
          current_file.empty()) {
        return Status::Corruption("journal page image malformed", path);
      }
      on_page(current_file, id, Slice(p, len));
      p += len;
      records++;
    } else if (type == CheckpointJournal::kEndRecord) {
      if (static_cast<size_t>(limit - p) != 8 || DecodeFixed64(p) != records) {
        return Status::Corruption("journal record count mismatch", path);
      }
      return Status::OK();
    } else {
      return Status::Corruption("journal record type unknown", path);
    }
  }
  return Status::Corruption("journal missing end record", path);
}

}  // namespace

Status CheckpointJournal::Recover(const std::string& dir, uint32_t page_size,
                                  bool* applied) {
  *applied = false;
  const std::string path = JournalPath(dir);
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError("stat " + path, strerror(errno));
  }
  std::string body;
  size_t crc_pos = 0;
  Status s = LoadVerifiedJournal(path, page_size, &body, &crc_pos);
  if (s.IsCorruption()) {
    // Completeness gate: anything torn — short file, bad CRC, wrong magic
    // — means the in-place phase never started, so the devices still hold
    // the previous checkpoint: discard.
    TSB_LOG_WARN("discarding incomplete checkpoint journal %s (%s)",
                 path.c_str(), s.ToString().c_str());
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError("unlink " + path, strerror(errno));
    }
    return Status::OK();
  }
  TSB_RETURN_IF_ERROR(s);
  // Keyed, so a retired-style file naming a tree twice applies each page
  // once.
  std::map<std::pair<std::string, uint32_t>, Slice> pages;
  TSB_RETURN_IF_ERROR(ParseJournal(
      path, body, crc_pos, page_size,
      [&pages](const std::string& file, uint32_t id, Slice image) {
        pages[{file, id}] = image;
      }));
  // Apply each device's images through a Pager, which seals (checksums)
  // each page exactly like the live write path.
  std::vector<char> buf(page_size);
  auto it = pages.begin();
  while (it != pages.end()) {
    const std::string file = it->first.first;
    FileDevice* raw = nullptr;
    TSB_RETURN_IF_ERROR(FileDevice::Open(dir + "/" + file, &raw,
                                         DeviceKind::kMagnetic,
                                         CostParams::Magnetic(),
                                         /*enable_mmap=*/false));
    std::unique_ptr<FileDevice> dev(raw);
    Pager pager(dev.get(), page_size);
    for (; it != pages.end() && it->first.first == file; ++it) {
      memcpy(buf.data(), it->second.data(), page_size);
      TSB_RETURN_IF_ERROR(it->first.second == 0
                              ? pager.WriteMeta(buf.data())
                              : pager.Write(it->first.second, buf.data()));
    }
    TSB_RETURN_IF_ERROR(dev->Sync());
  }
  TSB_LOG_INFO("re-applied checkpoint journal %s", path.c_str());
  *applied = true;
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink " + path, strerror(errno));
  }
  return Status::OK();
}

Status CheckpointJournal::LoadImages(
    const std::string& path, uint32_t page_size,
    std::map<std::pair<std::string, uint32_t>, std::string>* pages) {
  pages->clear();
  std::string body;
  size_t crc_pos = 0;
  TSB_RETURN_IF_ERROR(LoadVerifiedJournal(path, page_size, &body, &crc_pos));
  return ParseJournal(
      path, body, crc_pos, page_size,
      [pages](const std::string& file, uint32_t id, Slice image) {
        (*pages)[{file, id}] = image.ToString();
      });
}

Status CheckpointJournal::VerifyFile(const std::string& path,
                                     uint32_t page_size, uint64_t* bytes) {
  std::map<std::pair<std::string, uint32_t>, std::string> pages;
  TSB_RETURN_IF_ERROR(LoadImages(path, page_size, &pages));
  uint64_t total = 0;
  for (const auto& [key, image] : pages) total += image.size();
  if (bytes != nullptr) *bytes = total;
  return Status::OK();
}

}  // namespace wal
}  // namespace tsb
