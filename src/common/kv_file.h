// Crash-safe key=value text files: the per-database MANIFEST and the
// sharded database's SHARDS file. Layout:
//   <header>\n
//   key=value\n            (any number, in the writer's order)
//   crc=%08x\n             (masked CRC32C of every preceding byte)
// The terminator is what tells "the writer finished" from "the file
// happens to parse": a file flushed halfway still yields valid lines.
#ifndef TSBTREE_COMMON_KV_FILE_H_
#define TSBTREE_COMMON_KV_FILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tsb {

/// (key, value) lines in file order.
using KvFields = std::vector<std::pair<std::string, std::string>>;

/// Writes `dir`/`name` with write-temp (`name`.tmp), fsync, rename and a
/// directory fsync, so a crash never leaves a torn file under `name` and
/// the rename itself is durable when this returns.
Status WriteKvFile(const std::string& dir, const std::string& name,
                   const std::string& header, const KvFields& fields);

/// Reads `file` whole, one line at a time, into `*fields` (lines without
/// '=' are skipped; a trailing '\r' is dropped). A missing file is OK
/// with `*exists` false. Corruption when the first line is not `header`
/// or the crc terminator does not match the bytes before it; lines after
/// a matching terminator are ignored. `*complete` reports whether the
/// terminator was found — each caller decides whether a file without it
/// is acceptable.
Status ReadKvFile(const std::string& file, const std::string& header,
                  bool* exists, KvFields* fields, bool* complete);

/// Parses a whole unsigned field value in `base`; false (leaving `*out`
/// alone) when it is empty, malformed or carries trailing bytes.
bool ParseKvUint(const std::string& value, int base, uint64_t* out);

}  // namespace tsb

#endif  // TSBTREE_COMMON_KV_FILE_H_
