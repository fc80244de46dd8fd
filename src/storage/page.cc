#include "storage/page.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace tsb {

namespace {

/// The trailer CRC covers [0, ps-4): the first 8 bytes (magic and the
/// masked header CRC), then exactly the header CRC's range [8, ps-4). So
/// it follows from the header CRC without a second pass over the page.
uint32_t TrailerCrc(const char* buf, uint32_t hcrc, uint32_t page_size) {
  return crc32c::Combine(crc32c::Value(buf, 8), hcrc, page_size - 8 - 4);
}

}  // namespace

void InitPage(char* buf, uint32_t page_size, uint32_t page_id, PageType type) {
  memset(buf, 0, page_size);
  EncodeFixed32(buf, kPageMagic);
  EncodeFixed32(buf + 8, page_id);
  EncodeFixed16(buf + 12, static_cast<uint16_t>(type));
  EncodeFixed16(buf + 14, kPageFlagHasTrailer);
  char* trailer = buf + page_size - kPageTrailerSize;
  EncodeFixed32(trailer, kPageTrailerMagic);
  EncodeFixed32(trailer + 4, page_id);
}

void SealPage(char* buf, uint32_t page_size) {
  // Keep the trailer magic/id faithful to the header even when callers
  // reseal an image they mutated in place.
  char* trailer = buf + page_size - kPageTrailerSize;
  EncodeFixed32(trailer, kPageTrailerMagic);
  EncodeFixed32(trailer + 4, PageId(buf));
  const uint32_t hcrc = crc32c::Value(buf + 8, page_size - 8 - 4);
  EncodeFixed32(buf + 4, crc32c::Mask(hcrc));
  EncodeFixed32(buf + page_size - 4,
                crc32c::Mask(TrailerCrc(buf, hcrc, page_size)));
}

void SealPageWithLsn(char* buf, uint32_t page_size, uint64_t flush_lsn) {
  EncodeFixed64(buf + page_size - kPageTrailerSize + 8, flush_lsn);
  SealPage(buf, page_size);
}

Status VerifyPage(const char* buf, uint32_t page_size, uint32_t expected_id) {
  if (DecodeFixed32(buf) != kPageMagic) {
    return Status::Corruption("bad page magic");
  }
  if ((PageFlags(buf) & kPageFlagHasTrailer) == 0) {
    return Status::Corruption("unknown page format",
                              "page " + std::to_string(PageId(buf)));
  }
  const char* trailer = buf + page_size - kPageTrailerSize;
  if (DecodeFixed32(trailer) != kPageTrailerMagic) {
    return Status::Corruption("bad page trailer magic",
                              "page " + std::to_string(PageId(buf)));
  }
  const uint32_t stored = crc32c::Unmask(DecodeFixed32(buf + 4));
  const uint32_t actual = crc32c::Value(buf + 8, page_size - 8 - 4);
  if (stored != actual) {
    return Status::Corruption("page checksum mismatch",
                              "page " + std::to_string(PageId(buf)));
  }
  const uint32_t tstored = crc32c::Unmask(DecodeFixed32(buf + page_size - 4));
  const uint32_t tactual = TrailerCrc(buf, actual, page_size);
  if (tstored != tactual) {
    return Status::Corruption("page trailer checksum mismatch",
                              "page " + std::to_string(PageId(buf)));
  }
  if (DecodeFixed32(trailer + 4) != PageId(buf)) {
    return Status::Corruption(
        "page trailer id mismatch",
        "header " + std::to_string(PageId(buf)) + " trailer " +
            std::to_string(DecodeFixed32(trailer + 4)));
  }
  if (expected_id != UINT32_MAX && PageId(buf) != expected_id) {
    return Status::Corruption("page id mismatch",
                              "expected " + std::to_string(expected_id) +
                                  " got " + std::to_string(PageId(buf)));
  }
  return Status::OK();
}

uint64_t PageFlushLsn(const char* buf, uint32_t page_size) {
  return DecodeFixed64(buf + page_size - kPageTrailerSize + 8);
}

uint32_t PageId(const char* buf) { return DecodeFixed32(buf + 8); }

PageType GetPageType(const char* buf) {
  return static_cast<PageType>(DecodeFixed16(buf + 12));
}

void SetPageType(char* buf, PageType type) {
  EncodeFixed16(buf + 12, static_cast<uint16_t>(type));
}

uint16_t PageFlags(const char* buf) { return DecodeFixed16(buf + 14); }

void SetPageFlags(char* buf, uint16_t flags) { EncodeFixed16(buf + 14, flags); }

uint32_t PageSibling(const char* buf) { return DecodeFixed32(buf + 16); }

void SetPageSibling(char* buf, uint32_t sibling_id) {
  EncodeFixed32(buf + 16, sibling_id);
}

}  // namespace tsb
