// Fixed-size page layout for the current (erasable) database.
//
// Byte layout of every page:
//   [0..4)   magic        (0x54534254 "TSBT")
//   [4..8)   masked CRC32C of bytes [8, page_size)
//   [8..12)  page id
//   [12..14) page type
//   [14..16) flags
//   [16..20) right-sibling page id (B-link; 0 = none)
//   [20..24) reserved (0)
//   [24.. )  type-specific payload
//
// Every page (flag kPageFlagHasTrailer, set by InitPage) also reserves the
// LAST 20 bytes for an end-of-page trailer:
//   [ps-20..ps-16) trailer magic (0x32565354 "TSV2")
//   [ps-16..ps-12) page id (redundant copy — catches misdirected writes
//                  even when the header bytes were overwritten wholesale)
//   [ps-12..ps-4)  flush LSN stamped by the pager at write time (a lost
//                  write leaves a stale LSN behind)
//   [ps-4..ps)     masked CRC32C of bytes [0, ps-4) — covers the header
//                  INCLUDING its CRC field, so header and trailer vouch
//                  for each other.
// The header CRC covers [8, ps-4): excluding the trailer CRC field breaks
// the circular dependency. The flags word is inside both CRC ranges, and a
// page without the trailer flag (the retired trailer-less v1 format) is
// rejected as an unknown format.
#ifndef TSBTREE_STORAGE_PAGE_H_
#define TSBTREE_STORAGE_PAGE_H_

#include <cstdint>

#include "common/status.h"

namespace tsb {

inline constexpr uint32_t kPageMagic = 0x54534254;  // "TSBT"
inline constexpr uint32_t kPageHeaderSize = 24;
inline constexpr uint32_t kDefaultPageSize = 4096;
inline constexpr uint32_t kPageTrailerMagic = 0x32565354;  // "TSV2"
inline constexpr uint32_t kPageTrailerSize = 20;
inline constexpr uint16_t kPageFlagHasTrailer = 0x1;

enum class PageType : uint16_t {
  kFree = 0,
  kMeta = 1,
  kBptLeaf = 2,
  kBptInternal = 3,
  kTsbData = 4,
  kTsbIndex = 5,
  kWobtNode = 6,
};

/// Zeroes `buf` and writes a fresh v2 header + trailer skeleton (CRCs left
/// for SealPage). Every freshly formatted page carries the trailer.
void InitPage(char* buf, uint32_t page_size, uint32_t page_id, PageType type);

/// Computes and stores the header and trailer CRCs (the trailer's flush LSN
/// bytes are preserved as-is — use SealPageWithLsn to stamp a new one).
/// Reads the page once: the trailer CRC is derived from the header CRC.
void SealPage(char* buf, uint32_t page_size);

/// SealPage plus stamping `flush_lsn` into the trailer. The pager uses this
/// on every page write so a lost write is detectable as a stale trailer LSN.
void SealPageWithLsn(char* buf, uint32_t page_size, uint64_t flush_lsn);

/// Verifies magic, format flag, both CRCs, the trailer magic and the
/// redundant trailer page id. `expected_id` checks the stored page id (pass
/// UINT32_MAX to skip). Like SealPage, reads the page once.
Status VerifyPage(const char* buf, uint32_t page_size, uint32_t expected_id);

/// The flush LSN stamped in the trailer.
uint64_t PageFlushLsn(const char* buf, uint32_t page_size);

/// Bytes usable by type-specific payload: page_size minus the trailer.
/// Payload views must size their regions with this so cells never overlap
/// the trailer.
inline constexpr uint32_t PageUsableSize(uint32_t page_size) {
  return page_size - kPageTrailerSize;
}

uint32_t PageId(const char* buf);
PageType GetPageType(const char* buf);
void SetPageType(char* buf, PageType type);
uint16_t PageFlags(const char* buf);
void SetPageFlags(char* buf, uint16_t flags);

/// Level of a TSB page (0 = data, an index page one above its children):
/// the first byte of the TSB sub-header after the page header. The buffer
/// pool ranks index pages by it for residency.
inline uint8_t TsbPageLevel(const char* buf) {
  return static_cast<uint8_t>(buf[kPageHeaderSize]);
}
inline void SetTsbPageLevel(char* buf, uint8_t level) {
  buf[kPageHeaderSize] = static_cast<char>(level);
}

/// Right-sibling page id set when a key split creates a sibling to this
/// page's right (B-link link; covered by the page CRC, so it persists).
/// kInvalidPageId (0, the meta page — never a node) means "none": fresh
/// pages read as link-less because InitPage zeroes the header.
uint32_t PageSibling(const char* buf);
void SetPageSibling(char* buf, uint32_t sibling_id);

}  // namespace tsb

#endif  // TSBTREE_STORAGE_PAGE_H_
