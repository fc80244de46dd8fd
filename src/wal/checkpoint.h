// Checkpoint journal: crash-atomic flush of dirty pages across every tree
// of a database directory.
//
// Why it exists: WAL replay is LOGICAL (key/value at commit ts), so the
// on-disk base it replays into must be a structurally consistent snapshot
// of the whole page graph. With the buffer pool in no-steal mode nothing
// writes current-device pages between checkpoints, so the only danger is
// the checkpoint itself: a kill in the middle of the page writes leaves a
// mix of old and new pages — a parent can point at a child image that
// never made it to disk. A page can only do harm, though, if the durable
// base references it. Each tree's meta page records its durable high-water
// mark (the slot count of the last committed checkpoint); no durable page
// points at a slot at or above it. The protocol (commit-frozen, writers
// quiesced, every page written once):
//
//   1. freeze commits (every logged frame goes into this checkpoint, so
//      the log itself is not synced), write any staged historical blobs
//      (a write whose history flush failed leaves them staged) and sync
//      the historical devices (pages may reference freshly appended
//      blobs);
//   2. pin every tree's dirty frames and split them by page id: FRESH
//      pages sit at or above the durable high-water mark, JOURNALED pages
//      are everything else (pages reused from the free list included);
//   3. write the fresh pages in place and sync each device — a kill here
//      leaves only orphan slots above the durable mark, which Open
//      truncates;
//   4. stream the meta pages plus the journaled pages from the frames into
//      this journal, fsync it and its directory entry (the commit point: a
//      CRC'd trailer marks it complete), apply the same images in place,
//      sync the devices, then retire the journal.
//
// Recovery: a COMPLETE journal is re-applied (idempotent — the images are
// absolute page states); an incomplete one is discarded (the in-place
// phase never started, so the devices still hold the previous consistent
// checkpoint, plus orphan fresh slots the tree truncates at open).
//
// Repair images: retiring renames the journal to checkpoint.last.tsb, then
// appends the fresh pages' images (unsynced, after the commit point), so
// quarantine repair can restore any page the last checkpoint wrote. A torn
// or missing image only leaves a page quarantined; any crash is followed
// by a recovery checkpoint that retires a new file.
//
// File format (checkpoint.tsb, little-endian):
//   [u32 magic "TSCK"][u32 version][u32 page_size]
//   per tree:  [u8 kTreeRecord][varint32 file_name_len][file_name]
//   per page:  [u8 kPageRecord][u32 page_id (0 = meta)][u32 len][image]
//   trailer:   [u8 kEndRecord][u64 record_count]
//              [u32 masked crc32c of all preceding bytes]
// A retired file may name a tree twice: its journaled section, then the
// appended section of its fresh pages.
#ifndef TSBTREE_WAL_CHECKPOINT_H_
#define TSBTREE_WAL_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tsb {
namespace wal {

/// Writes the journal file, streaming page images straight from caller
/// memory (the pinned buffer-pool frames). Page images are UNSEALED
/// (checksums are applied by the Pager when the images are written in
/// place or re-applied during recovery).
class CheckpointJournal {
 public:
  CheckpointJournal(std::string dir, uint32_t page_size);
  ~CheckpointJournal();  ///< closes the file; never deletes it

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Creates (truncating) the journal file and writes its header.
  Status Create();

  /// Starts the section for one tree; `device_file` is the current-device
  /// file name inside the directory (e.g. "current.tsb").
  void BeginTree(const std::string& device_file);

  /// Adds one page image (page_id 0 = the meta page) to the current tree
  /// section. `image` is page_size bytes and must stay valid and unchanged
  /// until the next Commit() or Retire() has written it.
  void AddPage(uint32_t page_id, const char* image);

  /// Writes the queued records and the trailer, then fsyncs the file and
  /// its directory entry. After Commit returns OK the checkpoint is
  /// guaranteed to complete (either by the in-place phase or by recovery
  /// re-applying the journal). Sections added afterwards are repair
  /// images for Retire().
  Status Commit();

  /// Call after the in-place phase and the device syncs succeed: renames
  /// the journal to the retired name (checkpoint.last.tsb), replacing any
  /// previous one, then writes the sections added since Commit() and a new
  /// trailer (no fsync). Under no-steal a page that goes corrupt ON DISK
  /// with no in-memory copy is exactly the image recorded there, so
  /// quarantine repair restores from it.
  Status Retire();

  /// Recovery entry point: if `dir` holds a checkpoint journal, re-apply
  /// it when complete (then delete it) or discard it when torn. Must run
  /// BEFORE the database opens its devices. `*applied` reports whether a
  /// complete journal was re-applied.
  static Status Recover(const std::string& dir, uint32_t page_size,
                        bool* applied);

  static std::string JournalPath(const std::string& dir);
  static std::string RetiredPath(const std::string& dir);

  /// Loads a COMPLETE journal file's page images, keyed by
  /// (device_file, page_id). Fails on torn or corrupt journals (trailer
  /// CRC gate) — repair must never apply half-trusted images.
  static Status LoadImages(
      const std::string& path, uint32_t page_size,
      std::map<std::pair<std::string, uint32_t>, std::string>* pages);

  /// Re-verifies a journal file end to end (trailer CRC + structure).
  /// Used by the scrubber on the retired journal.
  static Status VerifyFile(const std::string& path, uint32_t page_size,
                           uint64_t* bytes);

  static constexpr uint32_t kMagic = 0x4b435354;  // "TSCK"
  static constexpr uint32_t kVersion = 1;
  static constexpr uint8_t kTreeRecord = 1;
  static constexpr uint8_t kPageRecord = 2;
  static constexpr uint8_t kEndRecord = 3;

 private:
  /// One slice of the file: caller memory (`image`) or bytes of `staged_`.
  struct Piece {
    const char* image;
    size_t offset;
    size_t len;
  };

  void Stage(const char* data, size_t len);
  /// Writes every queued piece at `offset_` (IOV_MAX per pwritev) and
  /// folds it into `crc_`.
  Status WritePieces();
  /// Writes the queued pieces, then the end record and the CRC.
  Status WriteTrailer();

  const std::string dir_;
  const uint32_t page_size_;
  int fd_ = -1;
  std::string staged_;        // record headers and tree names
  std::vector<Piece> pieces_;  // queued in file order
  uint64_t offset_ = 0;       // file offset of the first queued piece
  uint32_t crc_ = 0;          // crc32c of the bytes before offset_
  uint64_t records_ = 0;
};

}  // namespace wal
}  // namespace tsb

#endif  // TSBTREE_WAL_CHECKPOINT_H_
