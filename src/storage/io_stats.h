// I/O accounting and the device cost model.
//
// The paper's storage argument (section 1) is quantitative: optical seeks
// are ~3x slower than magnetic, robot mounts cost ~20 seconds, and the
// smallest writable WORM unit is a ~1 KiB sector. Every Device tracks the
// operations issued against it and converts them to simulated elapsed time
// through CostParams, so benchmarks can report access-time shapes without
// the 1989 hardware.
#ifndef TSBTREE_STORAGE_IO_STATS_H_
#define TSBTREE_STORAGE_IO_STATS_H_

#include <cstdint>
#include <string>

namespace tsb {

/// Per-device latency/bandwidth parameters used to simulate elapsed time.
struct CostParams {
  double avg_seek_ms = 16.0;          ///< average seek+rotate latency
  double transfer_mb_per_s = 2.0;     ///< sustained sequential bandwidth
  double mount_ms = 0.0;              ///< robot library mount cost (once)

  /// 1989-class magnetic disk.
  static CostParams Magnetic() { return CostParams{16.0, 2.0, 0.0}; }
  /// Write-once optical: seeks ~3x slower (paper section 1).
  static CostParams OpticalWorm() { return CostParams{48.0, 1.0, 0.0}; }
  /// Optical platter served by a robot jukebox (~20 s mount).
  static CostParams OpticalJukebox() { return CostParams{48.0, 1.0, 20000.0}; }
};

/// Operation counters plus simulated elapsed time for one device.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t seeks = 0;   ///< accesses that were not sequential with the last
  uint64_t mounts = 0;  ///< robot mounts (at most 1 in this model)
  double simulated_ms = 0.0;

  void Reset() { *this = IoStats{}; }

  /// Adds another stats block (for whole-system totals).
  void Add(const IoStats& o) {
    reads += o.reads;
    writes += o.writes;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    seeks += o.seeks;
    mounts += o.mounts;
    simulated_ms += o.simulated_ms;
  }

  std::string ToString() const;
};

/// Counters for the historical (append-store) read path: how many blob
/// reads were served, how many bytes, how often the shared-blob cache hit,
/// and whether nodes were parsed zero-copy (view) or materialized (owned).
/// Blob/cache numbers come from the AppendStore; decode numbers from the
/// tree's read paths.
struct HistReadStats {
  uint64_t blob_reads = 0;     ///< ReadView/Read calls served
  uint64_t blob_bytes = 0;     ///< payload bytes served (incl. cache hits)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t mapped_bytes = 0;   ///< miss bytes pinned from a device mapping
  uint64_t copied_bytes = 0;   ///< miss bytes copied into heap buffers
  uint64_t view_decodes = 0;   ///< nodes parsed zero-copy over pinned blobs
  uint64_t owned_decodes = 0;  ///< nodes materialized into owning vectors
  uint64_t node_raw_bytes = 0;     ///< uncompressed bytes of written nodes
  uint64_t node_stored_bytes = 0;  ///< bytes actually written (compressed)

  /// Cache hits per lookup; 1.0 when the cache was never consulted.
  double hit_ratio() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 1.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }

  /// Stored bytes per raw (uncompressed) byte of written historical
  /// nodes; 1.0 when nothing was written.
  double compression_ratio() const {
    return node_raw_bytes == 0
               ? 1.0
               : static_cast<double>(node_stored_bytes) /
                     static_cast<double>(node_raw_bytes);
  }

  void Add(const HistReadStats& o) {
    blob_reads += o.blob_reads;
    blob_bytes += o.blob_bytes;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    mapped_bytes += o.mapped_bytes;
    copied_bytes += o.copied_bytes;
    view_decodes += o.view_decodes;
    owned_decodes += o.owned_decodes;
    node_raw_bytes += o.node_raw_bytes;
    node_stored_bytes += o.node_stored_bytes;
  }

  std::string ToString() const;
};

}  // namespace tsb

#endif  // TSBTREE_STORAGE_IO_STATS_H_
