#include "db/multiversion_db.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/fsync_dir.h"
#include "common/kv_file.h"
#include "common/logger.h"
#include "storage/append_store.h"
#include "storage/file_device.h"
#include "storage/worm_file_device.h"
#include "wal/checkpoint.h"

namespace tsb {
namespace db {

Status MultiVersionDB::Open(Device* magnetic, Device* historical,
                            const DbOptions& options,
                            std::unique_ptr<MultiVersionDB>* out) {
  std::unique_ptr<MultiVersionDB> mvdb(new MultiVersionDB(options));
  txn::CommitLedger* const ledger = options.shared_ledger.get();
  if (ledger != nullptr) {
    // The DB's options_ copy holds the shared_ptr, so the raw pointers the
    // tree and the manager keep stay valid for their whole lives.
    mvdb->options_.tree.external_clock = ledger->clock();
  }
  TSB_RETURN_IF_ERROR(tsb_tree::TsbTree::Open(magnetic, historical,
                                              mvdb->options_.tree,
                                              &mvdb->tree_));
  mvdb->txns_ =
      ledger != nullptr
          ? std::make_unique<txn::TxnManager>(mvdb->tree_.get(), ledger)
          : std::make_unique<txn::TxnManager>(mvdb->tree_.get());
  // No commit hook yet: it is installed lazily with the first secondary
  // index (InstallCommitHook). A hook serializes whole commits on the
  // manager's index-order mutex, so an index-less DB never pays for it.
  mvdb->SetupErrorHandler();
  mvdb->InstallCorruptionReporter("primary", mvdb->tree_.get());
  *out = std::move(mvdb);
  return Status::OK();
}

void MultiVersionDB::SetupErrorHandler() {
  ErrorHandler::Options eh;
  eh.auto_resume = options_.auto_resume;
  eh.backoff_initial_ms = options_.auto_resume_backoff_initial_ms;
  eh.backoff_max_ms = options_.auto_resume_backoff_max_ms;
  eh.max_retries = options_.auto_resume_max_retries;
  MultiVersionDB* raw = this;
  errors_ = std::make_unique<ErrorHandler>(
      eh, [raw] { return raw->ResumeImpl(); });
  // Commits fail fast with the sticky cause while degraded, and commit
  // failures that sicken the database (append failures, anything after
  // the timestamp ticked) escalate here.
  txns_->SetCommitGate([raw] { return raw->errors_->BackgroundError(); });
  txns_->SetErrorReporter([raw](const std::string& context, const Status& s) {
    raw->errors_->Report(context, s);
  });
}

void MultiVersionDB::InstallCorruptionReporter(const std::string& tree_name,
                                               tsb_tree::TsbTree* tree) {
  tree->pager()->set_verify_on_read(options_.paranoid_checks);
  MultiVersionDB* raw = this;
  // Fires on every corrupt buffer-pool miss read (outside pager locks):
  // the page goes into quarantine, the read that tripped it fails with
  // the corruption, everything else keeps serving.
  tree->pager()->set_corruption_reporter(
      [raw, tree_name](uint32_t page_id, const Status& s) {
        raw->AddQuarantine(tree_name, page_id, s);
      });
}

void MultiVersionDB::InstallWalReporter(wal::Wal* wal) {
  MultiVersionDB* raw = this;
  wal->SetSyncErrorReporter([raw](const Status& s) {
    // Covers the background flusher too — a sync failure no commit path
    // ever observes must still degrade the DB.
    raw->errors_->Report("wal sync", s);
  });
}

void MultiVersionDB::InstallCommitHook() {
  if (hook_installed_) return;
  hook_installed_ = true;
  MultiVersionDB* raw = this;
  txns_->SetCommitHook(
      [raw](const Slice& key, const Slice* old_value, const Slice& new_value,
            Timestamp ts) {
        return raw->OnCommit(key, old_value, new_value, ts);
      });
}

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "tsb-manifest v1";

/// The manifest records the device geometry a path-backed database was
/// created with, so reopen verifies it instead of relying on caller
/// discipline: a mismatched page size or WORM sector grid would silently
/// corrupt (or refuse) the stored files. Hard geometry (page_size,
/// worm_historical, worm_sector_size) is ENFORCED; enable_mmap is a pure
/// read-path choice with no on-disk footprint, so it is recorded for
/// diagnostics and refreshed when it changes.
struct Manifest {
  uint32_t page_size = 0;
  bool worm_historical = false;
  uint32_t worm_sector_size = 0;
  bool enable_mmap = false;
  /// WAL position: the live log file is wal-<wal_seq>.tsb and recovery
  /// replays it from checkpoint_lsn (everything before is already in the
  /// checkpointed device files). clean_shutdown distinguishes "the tree
  /// files are exactly the committed state" (no purge needed) from a
  /// crash. Old manifests carry none of these lines; the defaults (seq 0,
  /// lsn 0, clean) make a pre-WAL database open as a cleanly-closed one.
  uint64_t wal_seq = 0;
  uint64_t checkpoint_lsn = 0;
  bool clean_shutdown = true;
  /// Names of the secondary indexes whose device files live in the
  /// directory. Open re-attaches each one so index data never becomes an
  /// orphaned pair of .tsb files after a reopen.
  std::vector<std::string> indexes;
  /// True when the file carried a valid `crc=` terminator line. The
  /// writer always emits one; a parse without it is a legacy (pre-crc)
  /// manifest or a torn file. MANIFEST.tmp promotion REQUIRES it — a
  /// partially flushed tmp can parse cleanly yet be missing trailing
  /// index= lines, and promoting it would silently drop catalog entries.
  bool complete = false;
};

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestName;
}

Manifest ManifestFromOptions(const DbOptions& options) {
  Manifest m;
  m.page_size = options.tree.page_size;
  m.worm_historical = options.worm_historical;
  m.worm_sector_size = options.worm_sector_size;
  m.enable_mmap = options.enable_mmap;
  return m;
}

Status WriteManifest(const std::string& dir, const Manifest& m) {
  KvFields fields = {
      {"page_size", std::to_string(m.page_size)},
      {"worm_historical", m.worm_historical ? "1" : "0"},
      {"worm_sector_size", std::to_string(m.worm_sector_size)},
      {"enable_mmap", m.enable_mmap ? "1" : "0"},
      {"wal_seq", std::to_string(m.wal_seq)},
      {"checkpoint_lsn", std::to_string(m.checkpoint_lsn)},
      {"clean_shutdown", m.clean_shutdown ? "1" : "0"},
  };
  for (const std::string& name : m.indexes) fields.emplace_back("index", name);
  return WriteKvFile(dir, kManifestName, kManifestHeader, fields);
}

Status ReadManifestFile(const std::string& file, bool* exists, Manifest* out) {
  KvFields fields;
  TSB_RETURN_IF_ERROR(
      ReadKvFile(file, kManifestHeader, exists, &fields, &out->complete));
  for (const auto& [key, value] : fields) {
    if (key == "index") {
      if (!value.empty()) out->indexes.push_back(value);
      continue;
    }
    uint64_t v = 0;
    if (!ParseKvUint(value, 10, &v)) continue;
    if (key == "page_size") {
      out->page_size = static_cast<uint32_t>(v);
    } else if (key == "worm_historical") {
      out->worm_historical = v != 0;
    } else if (key == "worm_sector_size") {
      out->worm_sector_size = static_cast<uint32_t>(v);
    } else if (key == "enable_mmap") {
      out->enable_mmap = v != 0;
    } else if (key == "wal_seq") {
      out->wal_seq = v;
    } else if (key == "checkpoint_lsn") {
      out->checkpoint_lsn = v;
    } else if (key == "clean_shutdown") {
      out->clean_shutdown = v != 0;
    }
  }
  return Status::OK();
}

Status ReadManifest(const std::string& dir, bool* exists, Manifest* out) {
  return ReadManifestFile(ManifestPath(dir), exists, out);
}

/// Resolves a leftover MANIFEST.tmp from a crash inside WriteManifest.
/// Two shapes exist:
///  - MANIFEST and MANIFEST.tmp both present: the crash hit before the
///    rename, so the tmp was never made durable-and-current — MANIFEST
///    stays authoritative, the tmp is discarded.
///  - Only MANIFEST.tmp present: the very first manifest write crashed
///    between creating the tmp and renaming it. If the tmp parses AND its
///    crc terminator validates, it carries exactly what the rename would
///    have installed — promote it; otherwise (torn, or flushed halfway so
///    it parses but is incomplete) discard it and let Open recreate a
///    manifest.
Status RecoverManifestTmp(const std::string& dir) {
  const std::string tmp = ManifestPath(dir) + ".tmp";
  struct stat st;
  if (::stat(tmp.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::OK();  // common case: no leftover
    return Status::IOError("stat " + tmp, strerror(errno));
  }
  if (::stat(ManifestPath(dir).c_str(), &st) == 0) {
    TSB_LOG_WARN("discarding leftover %s (MANIFEST is authoritative)",
                 tmp.c_str());
    if (::unlink(tmp.c_str()) != 0) {
      return Status::IOError("unlink " + tmp, strerror(errno));
    }
    return Status::OK();
  }
  bool parses = false;
  Manifest scratch;
  parses = ReadManifestFile(tmp, &parses, &scratch).ok() && parses &&
           scratch.complete;
  if (!parses) {
    TSB_LOG_WARN("discarding torn %s", tmp.c_str());
    if (::unlink(tmp.c_str()) != 0) {
      return Status::IOError("unlink " + tmp, strerror(errno));
    }
    return Status::OK();
  }
  TSB_LOG_WARN("promoting complete %s to MANIFEST", tmp.c_str());
  if (::rename(tmp.c_str(), ManifestPath(dir).c_str()) != 0) {
    return Status::IOError("rename " + tmp, strerror(errno));
  }
  return SyncDir(dir);
}

/// Creates the manifest on first open; on reopen verifies the recorded
/// geometry against `options` and fails fast BEFORE any device file is
/// touched with the wrong parameters.
Status CheckOrWriteManifest(const std::string& dir, const DbOptions& options,
                            Manifest* out) {
  TSB_RETURN_IF_ERROR(RecoverManifestTmp(dir));
  bool exists = false;
  Manifest& m = *out;
  TSB_RETURN_IF_ERROR(ReadManifest(dir, &exists, &m));
  if (exists) {
    // The manifest is only authoritative once a device file exists: if a
    // first Open wrote the manifest and then failed to create its
    // devices (disk full, permissions), the recorded geometry guards
    // nothing and must not lock out a retry with corrected options.
    struct stat st;
    if (::stat((dir + "/current.tsb").c_str(), &st) != 0) exists = false;
  }
  if (!exists) {
    m = ManifestFromOptions(options);
    return WriteManifest(dir, m);
  }
  if (m.page_size != options.tree.page_size) {
    return Status::InvalidArgument(
        "page_size mismatch with manifest",
        "manifest " + std::to_string(m.page_size) + " vs options " +
            std::to_string(options.tree.page_size));
  }
  if (m.worm_historical != options.worm_historical) {
    return Status::InvalidArgument(
        "worm_historical mismatch with manifest",
        m.worm_historical ? "database was created write-once"
                          : "database was created erasable");
  }
  if (options.worm_historical &&
      m.worm_sector_size != options.worm_sector_size) {
    return Status::InvalidArgument(
        "worm_sector_size mismatch with manifest",
        "manifest " + std::to_string(m.worm_sector_size) + " vs options " +
            std::to_string(options.worm_sector_size));
  }
  if (m.enable_mmap != options.enable_mmap) {
    // Read-path choice, not geometry: allowed, but keep the record fresh
    // (preserving the index catalog AND the WAL position — clobbering
    // checkpoint_lsn here would silently re-replay or skip log).
    m.enable_mmap = options.enable_mmap;
    return WriteManifest(dir, m);
  }
  return Status::OK();
}

// ---- write-ahead log files -------------------------------------------

std::string WalFileName(uint64_t seq) {
  char name[32];
  snprintf(name, sizeof(name), "wal-%06" PRIu64 ".tsb", seq);
  return name;
}

std::string WalFilePath(const std::string& dir, uint64_t seq) {
  return dir + "/" + WalFileName(seq);
}

/// Unlinks wal-*.tsb files other than the live one. A crash between a
/// rotation's manifest write and its unlink leaves the previous (fully
/// checkpointed) log behind; it is dead weight, never replayed.
void SweepStaleWalFiles(const std::string& dir, uint64_t live_seq) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  const std::string live = WalFileName(live_seq);
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() == live.size() && name.compare(0, 4, "wal-") == 0 &&
        name.compare(name.size() - 4, 4, ".tsb") == 0 && name != live) {
      TSB_LOG_WARN("removing stale log %s (live is %s)", name.c_str(),
                   live.c_str());
      ::unlink((dir + "/" + name).c_str());
    }
  }
  ::closedir(d);
}

/// Opens the file-backed historical device per options: WORM sector
/// semantics when requested, else a plain erasable file that still pays
/// optical cost parameters (the simulated 1989 archive medium).
Status OpenHistoricalFile(const std::string& file, const DbOptions& options,
                          std::unique_ptr<Device>* out) {
  if (options.worm_historical) {
    WormFileDevice* dev = nullptr;
    TSB_RETURN_IF_ERROR(WormFileDevice::Open(file, &dev,
                                             options.worm_sector_size,
                                             CostParams::OpticalWorm(),
                                             options.enable_mmap));
    out->reset(dev);
    return Status::OK();
  }
  FileDevice* dev = nullptr;
  TSB_RETURN_IF_ERROR(FileDevice::Open(file, &dev,
                                       DeviceKind::kOpticalErasable,
                                       CostParams::OpticalWorm(),
                                       options.enable_mmap));
  out->reset(dev);
  return Status::OK();
}

}  // namespace

Status MultiVersionDB::Open(const std::string& path, const DbOptions& options,
                            std::unique_ptr<MultiVersionDB>* out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    // Only a genuinely absent path is a create candidate; EACCES/ENOTDIR
    // and friends are real errors, not "missing database".
    if (errno != ENOENT) {
      return Status::IOError("stat " + path, strerror(errno));
    }
    if (!options.create_if_missing) {
      return Status::IOError("no such database", path);
    }
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir " + path, strerror(errno));
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("database path is not a directory", path);
  }

  // Geometry gate: verify (or create) the manifest before any device file
  // is opened with possibly-wrong parameters.
  Manifest manifest;
  TSB_RETURN_IF_ERROR(CheckOrWriteManifest(path, options, &manifest));

  // A checkpoint that crashed mid-apply left a complete double-write
  // journal behind; re-apply it BEFORE any device is opened so the trees
  // load the checkpointed page images, not a torn half-write.
  bool journal_applied = false;
  if (options.enable_wal) {
    TSB_RETURN_IF_ERROR(wal::CheckpointJournal::Recover(
        path, options.tree.page_size, &journal_applied));
  }

  FileDevice* mag = nullptr;
  TSB_RETURN_IF_ERROR(FileDevice::Open(path + "/current.tsb", &mag,
                                       DeviceKind::kMagnetic,
                                       CostParams::Magnetic(),
                                       options.enable_mmap));
  std::unique_ptr<Device> magnetic(mag);
  std::unique_ptr<Device> historical;
  TSB_RETURN_IF_ERROR(
      OpenHistoricalFile(path + "/history.tsb", options, &historical));
  if (options.wrap_device) {
    // Decorate before the trees ever see the devices (fault injection).
    magnetic = options.wrap_device("magnetic", std::move(magnetic));
    historical = options.wrap_device("historical", std::move(historical));
    if (magnetic == nullptr || historical == nullptr) {
      return Status::InvalidArgument("wrap_device returned null");
    }
  }

  std::unique_ptr<MultiVersionDB> mvdb;
  TSB_RETURN_IF_ERROR(Open(magnetic.get(), historical.get(), options, &mvdb));
  mvdb->path_ = path;
  mvdb->owned_magnetic_ = std::move(magnetic);
  mvdb->owned_historical_ = std::move(historical);

  // Re-attach every cataloged secondary index: with the registry extractor
  // when options provide one, extractor-less otherwise (readable via
  // FindBySecondary, unwritable until CreateSecondaryIndex binds code).
  for (const std::string& name : manifest.indexes) {
    KeyExtractor extract;
    auto reg = options.index_extractors.find(name);
    if (reg != options.index_extractors.end()) extract = reg->second;
    TSB_RETURN_IF_ERROR(mvdb->RegisterIndex(name, std::move(extract),
                                            /*from_catalog=*/true,
                                            /*magnetic=*/nullptr,
                                            /*historical=*/nullptr));
  }

  if (options.enable_wal) {
    mvdb->wal_seq_ = manifest.wal_seq;
    mvdb->wal_checkpoint_lsn_ = manifest.checkpoint_lsn;
    TSB_RETURN_IF_ERROR(
        mvdb->RecoverWal(manifest.clean_shutdown, journal_applied));
    SweepStaleWalFiles(path, mvdb->wal_seq_);
  }

  if (options.scrub_background) mvdb->StartScrubThread();

  *out = std::move(mvdb);
  return Status::OK();
}

MultiVersionDB::~MultiVersionDB() {
  // The background scrubber walks live devices and takes checkpoint_mu_;
  // it must be gone before the shutdown checkpoint below, let alone the
  // tree teardown.
  StopScrubThread();
  // Quiesce the auto-resume thread BEFORE anything it repairs is torn
  // down; destructor-path failures below are still recorded (stats/log)
  // through the shut-down handler.
  if (errors_ != nullptr) errors_->Shutdown();
  if (wal_ != nullptr) {
    if (errors_ != nullptr && errors_->degraded()) {
      // Degraded close: the device files cannot be trusted to accept a
      // checkpoint, and the manifest already says clean_shutdown=0 (set
      // at Open). Leave it that way — the next Open runs full recovery.
      TSB_LOG_WARN("closing degraded (%s); next open will recover",
                   errors_->BackgroundError().ToString().c_str());
    } else {
      // Clean shutdown: one final checkpoint folds the log into the
      // device files, and its MANIFEST write records clean_shutdown=1 so
      // the next Open skips the ghost purge. A failure here must NOT mark
      // the shutdown clean: the on-disk manifest keeps clean_shutdown=0
      // and the next Open runs crash recovery, which is always correct.
      Status s = RunCheckpoint(CheckpointKind::kClose);
      if (s.ok()) {
        // Every frame is in the synced base: the log needs no final sync.
        wal_->MarkSuperseded();
      } else {
        TSB_LOG_WARN("clean shutdown incomplete (%s); next open will recover",
                     s.ToString().c_str());
        if (errors_ != nullptr) errors_->Report("shutdown checkpoint", s);
      }
    }
    wal_.reset();  // joins any background flusher before the trees go
  }
}

Status MultiVersionDB::Destroy(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return Status::OK();  // nothing to destroy
    return Status::IOError("opendir " + path, strerror(errno));
  }
  Status status = Status::OK();
  const std::string suffix = ".tsb";
  while (struct dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    const bool manifest = name == kManifestName ||
                          name == std::string(kManifestName) + ".tmp";
    const bool device_file =
        name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
    if (!manifest && !device_file) {
      continue;  // not ours; the rmdir below will surface it
    }
    const std::string file = path + "/" + name;
    if (::unlink(file.c_str()) != 0) {
      status = Status::IOError("unlink " + file, strerror(errno));
    }
  }
  ::closedir(dir);
  TSB_RETURN_IF_ERROR(status);
  if (::rmdir(path.c_str()) != 0) {
    return Status::IOError("rmdir " + path, strerror(errno));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- writes

Status MultiVersionDB::Write(const WriteBatch& batch, Timestamp* commit_ts) {
  TSB_RETURN_IF_ERROR(txns_->Write(batch, commit_ts));
  // Size trigger: read the append offset through TxnManager's mirror, not
  // wal_ — a concurrent writer's rotation may be destroying the old Wal
  // object right now, and this thread holds nothing that pins it.
  if (wal_enabled_ &&
      txns_->wal_appended_lsn() >= options_.wal_checkpoint_bytes &&
      !checkpoint_pending_.exchange(true, std::memory_order_acq_rel)) {
    // One writer claims the size-triggered checkpoint; the rest sail on
    // (FreezeCommits inside will briefly stall them at the commit point).
    Status s = Checkpoint();
    checkpoint_pending_.store(false, std::memory_order_release);
    if (!s.ok()) {
      // The commit above already landed (durable in the log, *commit_ts
      // set); surfacing the checkpoint failure here would read as "not
      // committed" and invite a double-apply retry. Log it, keep it
      // observable via LastCheckpointError(), and report the write OK —
      // recovery replays the un-checkpointed log regardless.
      TSB_LOG_ERROR("size-triggered checkpoint failed (%s); write at "
                    "t=%llu is committed and durable in the log",
                    s.ToString().c_str(),
                    (unsigned long long)(commit_ts != nullptr ? *commit_ts
                                                              : 0));
    }
  }
  return Status::OK();
}

Status MultiVersionDB::Put(const Slice& key, const Slice& value,
                           Timestamp* commit_ts) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch, commit_ts);
}

// ---------------------------------------------------------------- reads

Status MultiVersionDB::Get(const ReadOptions& options, const Slice& key,
                           std::string* value, Timestamp* ts) {
  return tree_->Get(options, key, value, ts);
}

Status MultiVersionDB::Get(const ReadOptions& options, const Slice& key,
                           PinnableValue* value) {
  return tree_->Get(options, key, value);
}

std::unique_ptr<VersionCursor> MultiVersionDB::NewCursor(
    const ReadOptions& options) {
  return tree_->NewCursor(options);
}

// ---------------------------------------------------------------- indexes

Status MultiVersionDB::CreateSecondaryIndex(const std::string& name,
                                            KeyExtractor extract,
                                            Device* magnetic,
                                            Device* historical) {
  return RegisterIndex(name, std::move(extract), /*from_catalog=*/false,
                       magnetic, historical);
}

Status MultiVersionDB::PersistManifest() {
  if (path_.empty()) return Status::OK();
  Manifest m = ManifestFromOptions(options_);
  m.wal_seq = wal_seq_;
  m.checkpoint_lsn = wal_checkpoint_lsn_;
  m.clean_shutdown = clean_shutdown_;
  m.indexes.reserve(indexes_.size());
  for (const auto& [name, def] : indexes_) m.indexes.push_back(name);
  return WriteManifest(path_, m);
}

Status MultiVersionDB::RegisterIndex(const std::string& name,
                                     KeyExtractor extract, bool from_catalog,
                                     Device* magnetic, Device* historical) {
  // Index names become file names and MANIFEST lines.
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find('\n') != std::string::npos) {
    return Status::InvalidArgument("invalid index name", name);
  }
  auto existing = indexes_.find(name);
  if (existing != indexes_.end()) {
    if (!existing->second.from_catalog) {
      return Status::InvalidArgument("index already exists", name);
    }
    // Cataloged index re-attached at Open: this call binds its extractor
    // (extractors are code and cannot persist in the MANIFEST).
    existing->second.extract = std::move(extract);
    existing->second.from_catalog = false;
    return Status::OK();
  }
  if (errors_ != nullptr) {
    // Schema changes are writes: degraded mode rejects them fail-fast.
    TSB_RETURN_IF_ERROR(errors_->BackgroundError());
  }
  IndexEntryDef def;
  def.extract = std::move(extract);
  def.from_catalog = from_catalog;
  if (magnetic == nullptr) {
    if (!path_.empty()) {
      // Path-backed DB: the index persists alongside the primary.
      FileDevice* dev = nullptr;
      TSB_RETURN_IF_ERROR(FileDevice::Open(
          path_ + "/index-" + name + ".current.tsb", &dev,
          DeviceKind::kMagnetic, CostParams::Magnetic(),
          options_.enable_mmap));
      def.owned_magnetic.reset(dev);
    } else {
      def.owned_magnetic = std::make_unique<MemDevice>();
    }
    if (options_.wrap_device) {
      def.owned_magnetic = options_.wrap_device(
          "index-" + name + ".magnetic", std::move(def.owned_magnetic));
      if (def.owned_magnetic == nullptr) {
        return Status::InvalidArgument("wrap_device returned null");
      }
    }
    magnetic = def.owned_magnetic.get();
  }
  if (historical == nullptr) {
    if (!path_.empty()) {
      FileDevice* dev = nullptr;
      TSB_RETURN_IF_ERROR(FileDevice::Open(
          path_ + "/index-" + name + ".hist.tsb", &dev,
          DeviceKind::kOpticalErasable, CostParams::OpticalWorm(),
          options_.enable_mmap));
      def.owned_historical.reset(dev);
    } else {
      def.owned_historical = std::make_unique<MemDevice>(
          DeviceKind::kOpticalErasable, CostParams::OpticalWorm());
    }
    if (options_.wrap_device) {
      def.owned_historical = options_.wrap_device(
          "index-" + name + ".historical", std::move(def.owned_historical));
      if (def.owned_historical == nullptr) {
        return Status::InvalidArgument("wrap_device returned null");
      }
    }
    historical = def.owned_historical.get();
  }
  std::unique_ptr<tsb_tree::TsbTree> tree;
  // Index trees always run a PRIVATE clock, even when the primary shares
  // one across shards: index recovery/repair publishes the index clock's
  // Now(), which on a shared clock would move the global watermark past
  // in-flight cross-shard commits. Index reads are driven at primary
  // timestamps anyway, so the index clock only sequences maintenance.
  tsb_tree::TsbOptions index_tree_options = options_.tree;
  index_tree_options.external_clock = nullptr;
  TSB_RETURN_IF_ERROR(
      tsb_tree::TsbTree::Open(magnetic, historical, index_tree_options, &tree));
  def.index = std::make_unique<SecondaryIndex>(std::move(tree));
  InstallCorruptionReporter(name, def.index->tree());
  indexes_.emplace(name, std::move(def));
  // The hook goes in with the FIRST index (even an extractor-less one:
  // OnCommit must be able to reject writes it cannot maintain).
  InstallCommitHook();
  if (!from_catalog) {
    // A newly created index enters the catalog so reopen re-attaches it.
    TSB_RETURN_IF_ERROR(PersistManifest());
  }
  return Status::OK();
}

SecondaryIndex* MultiVersionDB::index(const std::string& name) {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second.index.get();
}

Status MultiVersionDB::OnCommit(const Slice& key, const Slice* old_value,
                                const Slice& new_value, Timestamp ts) {
  // Index trees publish one commit behind (see SecondaryIndex), so `ts`
  // is not visible in any of them yet. If any part of this commit's
  // maintenance failed, pin every index below `ts`, not only the one that
  // failed: Resume purges `ts` from all of them.
  Status s = MaintainIndexes(key, old_value, new_value, ts);
  if (!s.ok()) {
    for (auto& [name, def] : indexes_) {
      def.index->tree()->put_ledger().PoisonCommit(ts);
    }
  }
  return s;
}

Status MultiVersionDB::MaintainIndexes(const Slice& key,
                                       const Slice* old_value,
                                       const Slice& new_value, Timestamp ts) {
  for (auto& [name, def] : indexes_) {
    if (!def.extract) {
      // Letting the write through would silently leave this index stale
      // (= corrupt). Rejecting makes it a loud schema-setup error: bind
      // the extractor (DbOptions::index_extractors or
      // CreateSecondaryIndex) before writing.
      return Status::InvalidArgument("secondary index has no extractor",
                                     name);
    }
    std::optional<std::string> old_sk;
    if (old_value != nullptr) old_sk = def.extract(*old_value);
    std::optional<std::string> new_sk = def.extract(new_value);
    if (old_sk == new_sk) continue;  // secondary field unchanged
    if (old_sk.has_value()) {
      TSB_RETURN_IF_ERROR(def.index->Remove(*old_sk, key, ts));
    }
    if (new_sk.has_value()) {
      TSB_RETURN_IF_ERROR(def.index->Add(*new_sk, key, ts));
    }
  }
  return Status::OK();
}

Status MultiVersionDB::FindBySecondary(
    const ReadOptions& options, const std::string& index_name,
    const Slice& secondary,
    std::vector<std::pair<std::string, std::string>>* key_values) {
  key_values->clear();
  SecondaryIndex* idx = index(index_name);
  if (idx == nullptr) {
    return Status::InvalidArgument("no such index", index_name);
  }
  // Resolve the sentinel ONCE against the primary's watermark so the
  // index lookup and the primary fetches observe the same time.
  const Timestamp t = tree_->ResolveAsOf(options.as_of);
  std::vector<std::string> pks;
  TSB_RETURN_IF_ERROR(idx->LookupAsOf(secondary, t, &pks));
  ReadOptions fetch = options;
  fetch.as_of = t;
  for (const std::string& pk : pks) {
    std::string value;
    // The timestamps in the secondary index locate the primary version
    // (section 3.6): read the primary record as of the same time.
    Status s = tree_->Get(fetch, pk, &value);
    if (s.IsNotFound()) continue;  // index entry newer than primary? skip
    TSB_RETURN_IF_ERROR(s);
    key_values->emplace_back(pk, std::move(value));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- stats

HistReadStats MultiVersionDB::HistStats() const {
  HistReadStats s = tree_->HistStats();
  for (const auto& [name, def] : indexes_) {
    s.Add(def.index->tree()->HistStats());
  }
  return s;
}

BufferPoolStats MultiVersionDB::PoolStats() const {
  BufferPoolStats s = tree_->PoolStats();
  for (const auto& [name, def] : indexes_) {
    s.Add(def.index->tree()->PoolStats());
  }
  return s;
}

Status MultiVersionDB::Flush() {
  if (errors_ != nullptr) {
    // Degraded: flushing dirty pages over a sick device could tear the
    // base the next recovery replays against. Fail fast, sticky cause.
    TSB_RETURN_IF_ERROR(errors_->BackgroundError());
  }
  if (wal_enabled_) {
    // With a WAL the device files may only advance through crash-atomic
    // checkpoints: a plain flush could be half-written when the process
    // dies, tearing the base the next recovery replays against.
    TSB_RETURN_IF_ERROR(Checkpoint());
  } else {
    TSB_RETURN_IF_ERROR(tree_->Flush());
    for (auto& [name, def] : indexes_) {
      TSB_RETURN_IF_ERROR(def.index->tree()->Flush());
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ durability

Status MultiVersionDB::RecoverWal(bool manifest_clean, bool journal_applied) {
  // No-steal from the first moment: outside a checkpoint the buffer pool
  // must never write a dirty page back, or the next crash would recover
  // against a base containing an unjournaled half-state.
  tree_->buffer_pool()->set_no_steal(true);
  for (auto& [name, def] : indexes_) {
    def.index->tree()->buffer_pool()->set_no_steal(true);
  }
  recovery_stats_ = RecoveryStats{};
  recovery_stats_.journal_applied = journal_applied;
  recovery_stats_.orphan_slots_dropped = tree_->orphan_slots_dropped();
  for (auto& [name, def] : indexes_) {
    recovery_stats_.orphan_slots_dropped +=
        def.index->tree()->orphan_slots_dropped();
  }
  const bool unclean = !manifest_clean || journal_applied;
  if (unclean) {
    // Transactions cut down mid-build left uncommitted records with no
    // timestamp and no owner: erase the ghosts before replay. Index trees
    // never hold uncommitted records (maintenance runs post-stamp).
    TSB_RETURN_IF_ERROR(
        tree_->PurgeUncommitted(&recovery_stats_.purged_uncommitted));
  }
  const std::string wal_file = WalFilePath(path_, wal_seq_);
  wal::WalReplayResult rr;
  TSB_RETURN_IF_ERROR(wal::Wal::Replay(
      wal_file, wal_checkpoint_lsn_,
      [this](const wal::WalCommit& c) {
        TSB_RETURN_IF_ERROR(ApplyWalCommit(c));
        // ReplayCommitted advances the clocks without publishing. Nothing
        // reads before Open returns, so publish each frame as it lands:
        // time splits cap their boundary at the published watermark, and
        // a watermark held at the checkpoint would leave a key updated
        // past one page's worth of versions since then unsplittable.
        tree_->clock().Publish(tree_->clock().Now());
        for (auto& [name, def] : indexes_) {
          auto& clock = def.index->tree()->clock();
          clock.Publish(clock.Now());
        }
        return Status::OK();
      },
      &rr));
  recovery_stats_.tail_truncated = rr.tail_truncated;
  recovery_stats_.wal_bytes_scanned =
      rr.end_lsn > wal_checkpoint_lsn_ ? rr.end_lsn - wal_checkpoint_lsn_ : 0;
  TSB_RETURN_IF_ERROR(wal::Wal::Open(wal_file, options_.wal_sync,
                                     options_.wal_background_sync_ms, &wal_,
                                     options_.wal_fault_plan));
  // Checkpoints do not sync the log they supersede, so a power cut can
  // leave it shorter than checkpoint_lsn, possibly ending mid-frame.
  // Every frame in it is then in the base: empty the log and rewind
  // checkpoint_lsn. Left above the log's end, checkpoint_lsn would make
  // the next recovery skip commits acknowledged from here on; appends
  // after the torn frame would break the frame chain that scrub and
  // salvage walk from byte 0. The MANIFEST write below persists the
  // rewind before the first append.
  if (wal_->appended_lsn() < wal_checkpoint_lsn_) {
    TSB_RETURN_IF_ERROR(wal_->Reset());
    wal_checkpoint_lsn_ = 0;
  }
  InstallWalReporter(wal_.get());
  wal_enabled_ = true;  // immutable from here: hot paths gate on this
  txns_->SetWal(wal_.get());
  // From here until the destructor's final checkpoint the database is
  // live: the manifest must say so BEFORE the first commit can append.
  clean_shutdown_ = false;
  TSB_RETURN_IF_ERROR(PersistManifest());
  if (recovery_stats_.frames_replayed > 0 || unclean) {
    TSB_LOG_INFO(
        "recovered %s: %llu frames / %llu ops replayed (%llu KiB of log), "
        "%llu ghosts purged%s%s",
        path_.c_str(), (unsigned long long)recovery_stats_.frames_replayed,
        (unsigned long long)recovery_stats_.ops_replayed,
        (unsigned long long)(recovery_stats_.wal_bytes_scanned >> 10),
        (unsigned long long)recovery_stats_.purged_uncommitted,
        journal_applied ? ", checkpoint journal re-applied" : "",
        rr.tail_truncated ? ", torn tail truncated" : "");
    // Fold the replayed state into the device files now: recovery work
    // stays bounded even under repeated crashes, and the log truncates.
    TSB_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status MultiVersionDB::ApplyWalCommit(const wal::WalCommit& commit) {
  if (commit.ops.empty()) return Status::OK();
  // Idempotence probe: a checkpoint that crashed after committing its
  // journal but before recording its LSN leaves the base AHEAD of the
  // manifest, so the first replayed frames may already be applied.
  // Checkpoints collect images with commits frozen — a frame is in the
  // base wholly or not at all — so one key at the exact commit timestamp
  // decides the whole frame.
  {
    std::string unused;
    Timestamp version_ts = 0;
    ReadOptions at_commit;
    at_commit.as_of = commit.ts;
    Status probe = tree_->Get(at_commit, commit.ops.front().first, &unused,
                              &version_ts);
    if (probe.ok() && version_ts == commit.ts) return Status::OK();
    if (!probe.ok() && !probe.IsNotFound()) return probe;
  }
  const bool maintain = !indexes_.empty();
  if (maintain) {
    for (auto& [name, def] : indexes_) {
      if (!def.extract) {
        // Same contract as OnCommit: applying the frame without
        // maintaining this index would silently corrupt it.
        return Status::InvalidArgument(
            "WAL replay needs this index's extractor (bind it via "
            "DbOptions::index_extractors)",
            name);
      }
    }
  }
  for (const auto& [key, value] : commit.ops) {
    // The pre-image must be read BEFORE the replay insert supersedes it —
    // the same old-value the original commit hook saw.
    std::optional<std::string> old_value;
    if (maintain && commit.ts > 0) {
      ReadOptions before_commit;
      before_commit.as_of = commit.ts - 1;
      std::string prev;
      Status s = tree_->Get(before_commit, key, &prev);
      if (s.ok()) {
        old_value = std::move(prev);
      } else if (!s.IsNotFound()) {
        return s;
      }
    }
    TSB_RETURN_IF_ERROR(tree_->ReplayCommitted(key, value, commit.ts));
    for (auto& [name, def] : indexes_) {
      std::optional<std::string> old_sk;
      if (old_value.has_value()) old_sk = def.extract(Slice(*old_value));
      std::optional<std::string> new_sk = def.extract(Slice(value));
      if (old_sk == new_sk) continue;  // secondary field unchanged
      if (old_sk.has_value()) {
        TSB_RETURN_IF_ERROR(def.index->ReplayRemove(*old_sk, key, commit.ts));
      }
      if (new_sk.has_value()) {
        TSB_RETURN_IF_ERROR(def.index->ReplayAdd(*new_sk, key, commit.ts));
      }
    }
  }
  recovery_stats_.frames_replayed++;
  recovery_stats_.ops_replayed += commit.ops.size();
  return Status::OK();
}

Status MultiVersionDB::ReplayExternalCommit(const wal::WalCommit& commit) {
  return ApplyWalCommit(commit);
}

Status MultiVersionDB::PurgeCommittedAt(Timestamp ts, uint64_t* purged) {
  uint64_t total = 0;
  Status status = tree_->PurgeCommittedAt(ts, &total);
  if (status.ok()) {
    for (auto& [name, def] : indexes_) {
      uint64_t index_purged = 0;
      status = def.index->tree()->PurgeCommittedAt(ts, &index_purged);
      if (!status.ok()) break;
      total += index_purged;
    }
  }
  if (purged != nullptr) *purged = total;
  return status;
}

Status MultiVersionDB::Checkpoint() {
  return RunCheckpoint(CheckpointKind::kLive);
}

Status MultiVersionDB::RunCheckpoint(CheckpointKind kind) {
  if (!wal_enabled_) return Status::OK();  // raw-device / WAL-disabled
  if (errors_ != nullptr) {
    // Degraded: a checkpoint would advance the base over state whose
    // durability is already in question. Resume() is the only checkpoint-
    // like operation allowed in this state (it uses the recovery-grade
    // variant). Fail fast with the sticky cause.
    TSB_RETURN_IF_ERROR(errors_->BackgroundError());
  }
  Status status;
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    txns_->FreezeCommits();
    status = CheckpointFrozen(kind);
    txns_->UnfreezeCommits();
  }
  {
    // Sticky health record: Write() swallows automatic-checkpoint
    // failures (the commit already landed), so this is where they stay
    // visible. A later success clears it.
    std::lock_guard<std::mutex> lock(ckpt_err_mu_);
    last_checkpoint_error_ = status;
  }
  if (!status.ok() && errors_ != nullptr) {
    // A failed checkpoint leaves journal/base/manifest mid-protocol;
    // escalate so writes stop digging and Resume() can repair.
    errors_->Report("checkpoint", status);
  }
  return status;
}

Status MultiVersionDB::LastCheckpointError() const {
  std::lock_guard<std::mutex> lock(ckpt_err_mu_);
  return last_checkpoint_error_;
}

Status MultiVersionDB::CheckpointFrozen(CheckpointKind kind) {
  const bool for_resume = kind == CheckpointKind::kResume;
  // Frozen, the WAL end is exactly the committed state of every tree. A
  // log that grew nothing since the last checkpoint and no dirty frame
  // mean the device files already hold this state: the history sync, the
  // journal and the meta rewrite would write what is there. for_resume
  // always folds: its job is to rewrite the trusted in-memory pages.
  uint64_t ckpt_lsn = wal_->appended_lsn();
  if (for_resume || ckpt_lsn != wal_checkpoint_lsn_ || AnyTreeDirty()) {
    TSB_RETURN_IF_ERROR(FoldTrees(for_resume, &ckpt_lsn));
  }
  if (for_resume || ckpt_lsn >= options_.wal_checkpoint_bytes) {
    // The whole log is dead: rotate to a fresh file. Manifest first —
    // recovery must never be pointed at an unlinked log. for_resume
    // ALWAYS rotates: a fresh fd on a fresh file is the only way to
    // shed a sticky sync error and the never-durable tail behind it.
    const uint64_t old_seq = wal_seq_;
    std::unique_ptr<wal::Wal> fresh;
    TSB_RETURN_IF_ERROR(wal::Wal::Open(
        WalFilePath(path_, old_seq + 1), options_.wal_sync,
        options_.wal_background_sync_ms, &fresh,
        options_.wal_fault_plan));
    InstallWalReporter(fresh.get());
    wal_seq_ = old_seq + 1;
    wal_checkpoint_lsn_ = 0;
    Status persisted = PersistCheckpointManifest(kind);
    if (!persisted.ok()) {
      // Keep appending to the old log; the checkpoint still counts
      // (the stale on-disk LSN only means extra, skippable replay).
      wal_seq_ = old_seq;
      wal_checkpoint_lsn_ = ckpt_lsn;
      return persisted;
    }
    txns_->SetWal(fresh.get());  // commits frozen: no racing appender
    wal_->MarkSuperseded();      // unlinked below: no final sync
    wal_ = std::move(fresh);     // the old log closes here
    ::unlink(WalFilePath(path_, old_seq).c_str());
    // Best effort: a resurrected dead log is swept at the next Open.
    (void)SyncDir(path_);
  } else {
    wal_checkpoint_lsn_ = ckpt_lsn;
    TSB_RETURN_IF_ERROR(PersistCheckpointManifest(kind));
  }
  return Status::OK();
}

Status MultiVersionDB::PersistCheckpointManifest(CheckpointKind kind) {
  // A clean close marks the shutdown clean in this same write. If the
  // write fails, the file on disk still says clean_shutdown=0 (set at
  // Open), and so does memory.
  if (kind == CheckpointKind::kClose) clean_shutdown_ = true;
  Status s = PersistManifest();
  if (!s.ok()) clean_shutdown_ = false;
  return s;
}

bool MultiVersionDB::AnyTreeDirty() {
  if (tree_->HasDirtyPages()) return true;
  for (auto& [name, def] : indexes_) {
    if (def.index->tree()->HasDirtyPages()) return true;
  }
  return false;
}

Status MultiVersionDB::FoldTrees(bool for_resume, uint64_t* ckpt_lsn) {
  // No sync of the log: commits are frozen, so every frame it holds goes
  // into the base below, and the base is synced before the MANIFEST moves
  // checkpoint_lsn past them. kGroup already synced every acknowledged
  // frame; kOff and kBackground promise nothing before this returns. A
  // power cut can then leave the log shorter than checkpoint_lsn, which
  // RecoverWal answers by emptying the log.
  if (!for_resume && wal_->has_sync_error()) {
    // A failed fdatasync may have dropped acknowledged bytes: only the
    // degraded-mode repair may fold over this log. for_resume does so on
    // purpose — after a failed fsync the kernel may have dropped the
    // dirty tail with the error consumed, so the in-memory pages being
    // checkpointed ARE the trusted copy, and the poisoned log is
    // abandoned by the forced rotation.
    return wal_->sync_error();
  }
  *ckpt_lsn = wal_->appended_lsn();

  struct TreeCkpt {
    tsb_tree::TsbTree* tree;
    std::string file;
    tsb_tree::TsbTree::CheckpointScope scope;
  };
  std::vector<TreeCkpt> trees;
  trees.push_back({tree_.get(), "current.tsb", {}});
  for (auto& [name, def] : indexes_) {
    trees.push_back(
        {def.index->tree(), "index-" + name + ".current.tsb", {}});
  }
  for (auto& t : trees) {
    // Stamp every page this checkpoint flushes with the checkpoint's WAL
    // position. The stamp is what gives the lost-write check teeth: a
    // later read (inline or scrub) finding an OLDER stamp under a valid
    // CRC proves the device acked this flush and then dropped it.
    t.tree->pager()->set_flush_lsn(*ckpt_lsn);
    TSB_RETURN_IF_ERROR(t.tree->BeginCheckpoint(&t.scope));
  }
  // Fresh pages first, synced: no durable page references them, so a
  // crash from here to the commit point leaves only orphan slots above
  // each tree's durable high-water mark (truncated at open).
  for (auto& t : trees) {
    TSB_RETURN_IF_ERROR(t.tree->WriteFreshPages(&t.scope));
  }
  wal::CheckpointJournal journal(path_, options_.tree.page_size);
  TSB_RETURN_IF_ERROR(journal.Create());
  for (auto& t : trees) {
    journal.BeginTree(t.file);
    journal.AddPage(0, t.scope.meta.data());
    for (const PageHandle& h : t.scope.journaled) {
      journal.AddPage(h.id(), h.data());
    }
  }
  // Durability point. After this fsync the checkpoint applies fully —
  // now, or re-applied by the next Open if we die below. Before it, a
  // crash discards the journal whole and the old base still matches
  // the manifest's checkpoint_lsn. Either side is consistent.
  TSB_RETURN_IF_ERROR(journal.Commit());
  for (auto& t : trees) {
    TSB_RETURN_IF_ERROR(t.tree->FinishCheckpoint(&t.scope));
  }
  // Retire (not delete) the journal, with the fresh pages' images
  // appended: they are the repair source for pages that later rot ON
  // DISK — under no-steal the image recorded here IS the page's base
  // content until the next checkpoint rewrites it. Recovery ignores the
  // retired file (only checkpoint.tsb is re-applied).
  for (auto& t : trees) {
    if (t.scope.fresh.empty()) continue;
    journal.BeginTree(t.file);
    for (const PageHandle& h : t.scope.fresh) {
      journal.AddPage(h.id(), h.data());
    }
  }
  // Returning destroys the scopes: unpins the frames and releases the
  // writer locks.
  return journal.Retire();
}

// ---------------------------------------------------- degraded-mode repair

Status MultiVersionDB::BackgroundError() const {
  return errors_->BackgroundError();
}

bool MultiVersionDB::degraded() const { return errors_->degraded(); }

ErrorHandlerStats MultiVersionDB::error_stats() const {
  return errors_->stats();
}

Status MultiVersionDB::Resume() {
  // Quarantine repair runs first, and even when the DB is not degraded —
  // a scrub hit quarantines single pages without sickening the whole
  // database, and Resume() is the operator's one repair verb.
  uint64_t repaired = 0;
  TSB_RETURN_IF_ERROR(RepairQuarantined(&repaired));
  return errors_->Resume();
}

Status MultiVersionDB::ResumeImpl() {
  // Serialized against checkpoints AND other resumes (the ErrorHandler
  // only runs one resume_fn at a time, but a checkpoint claimed before
  // degradation may still be in flight).
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  txns_->FreezeCommits();
  Status status = [&]() -> Status {
    // 1. Purge the half-stamped records of every failed commit from every
    // tree. Those timestamps never published (the poisoned watermark caps
    // below each one), so no reader ever saw them and no time split can
    // have moved them to historical nodes — the purge is exact, not a
    // heuristic. Commits that SUCCEEDED after the poisoning are acked and
    // stay: they become visible when the watermark lifts below.
    for (const Timestamp ts : txns_->failed_commits()) {
      uint64_t purged = 0;
      TSB_RETURN_IF_ERROR(tree_->PurgeCommittedAt(ts, &purged));
      for (auto& [name, def] : indexes_) {
        uint64_t index_purged = 0;
        TSB_RETURN_IF_ERROR(
            def.index->tree()->PurgeCommittedAt(ts, &index_purged));
        purged += index_purged;
      }
      TSB_LOG_INFO("resume: purged %llu records of failed commit t=%llu",
                   (unsigned long long)purged, (unsigned long long)ts);
    }
    // Finish the aborts that failed on the sick device: their
    // uncommitted records go and their keys unlock.
    TSB_RETURN_IF_ERROR(txns_->FinishFailedAborts());
    // 2. Re-establish durability from the trusted in-memory pages with a
    // recovery-grade checkpoint: never re-syncs the poisoned log, always
    // rotates to a fresh log file. After this the acked prefix lives in
    // the checkpointed base and the fsync question is moot.
    if (wal_enabled_) {
      TSB_RETURN_IF_ERROR(CheckpointFrozen(CheckpointKind::kResume));
    }
    return Status::OK();
  }();
  if (status.ok()) {
    // 3. Lift the poisoned watermark and publish the completed maximum:
    // durable-but-invisible commits become readable, the failed
    // timestamps are gone, and new commits are accepted again.
    txns_->ResetAfterRepair();
    for (auto& [name, def] : indexes_) {
      auto& clock = def.index->tree()->clock();
      clock.Publish(clock.Now());
    }
  }
  txns_->UnfreezeCommits();
  return status;
}

// ------------------------------------------------------ scrub & quarantine

void MultiVersionDB::AddQuarantine(const std::string& tree_name,
                                   uint32_t page_id, const Status& cause) {
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    auto inserted =
        quarantined_.emplace(std::make_pair(tree_name, page_id), cause);
    if (!inserted.second) return;  // already quarantined: count once
  }
  if (errors_ != nullptr) {
    errors_->NoteQuarantine(tree_name + " page " + std::to_string(page_id),
                            cause);
  }
}

std::vector<MultiVersionDB::QuarantinedPage> MultiVersionDB::quarantined_pages()
    const {
  std::vector<QuarantinedPage> out;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  out.reserve(quarantined_.size());
  for (const auto& [key, cause] : quarantined_) {
    out.push_back({key.first, key.second, cause.ToString()});
  }
  return out;
}

uint64_t MultiVersionDB::quarantined_count() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.size();
}

Status MultiVersionDB::Scrub(ScrubStats* stats) {
  ScrubStats pass;
  Status status;
  {
    // Serialized with checkpoints: an in-place page apply or a WAL
    // rotation mid-scan would read as torn. Commits keep flowing — the
    // scrub reads devices directly, never through the buffer pool, and
    // under no-steal nothing else writes base pages between checkpoints.
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    status = ScrubLocked(&pass);
  }
  if (status.ok()) {
    pass.passes = 1;
    std::lock_guard<std::mutex> lock(scrub_stats_mu_);
    scrub_totals_.Add(pass);
  }
  if (stats != nullptr) *stats = pass;
  return status;
}

ScrubStats MultiVersionDB::scrub_stats() const {
  std::lock_guard<std::mutex> lock(scrub_stats_mu_);
  return scrub_totals_;
}

Status MultiVersionDB::ScrubLocked(ScrubStats* stats) {
  ScrubRateLimiter limiter(options_.scrub_rate_mb_per_sec);
  MultiVersionDB* raw = this;

  struct TreeRef {
    std::string name;
    tsb_tree::TsbTree* tree;
  };
  std::vector<TreeRef> trees;
  trees.push_back({"primary", tree_.get()});
  for (auto& [name, def] : indexes_) {
    trees.push_back({name, def.index->tree()});
  }
  for (auto& t : trees) {
    // Base pages: header + trailer checksums and the page-id identity
    // against the device bytes. A hit quarantines exactly that page.
    std::set<uint32_t> hit;
    TSB_RETURN_IF_ERROR(ScrubPages(
        t.tree->pager()->device(), options_.tree.page_size, &limiter,
        [raw, &t, stats, &hit](uint32_t id, const Status& s) {
          hit.insert(id);
          raw->AddQuarantine(t.name, id, s);
          stats->pages_quarantined++;
        },
        stats));
    // Lost-write sweep: the device walk above cannot tell an old-but-valid
    // page from a current one, so re-check every page this process stamped
    // against its expected trailer LSN (catches dropped flushes — the meta
    // page included, which no ordinary read ever revisits). Pages the walk
    // already flagged are skipped so one bad page counts once.
    uint64_t stamped_checked = 0;
    TSB_RETURN_IF_ERROR(t.tree->pager()->VerifyStampedPages(
        [raw, &t, stats, &hit](uint32_t id, const Status& s) {
          if (!hit.insert(id).second) return;
          raw->AddQuarantine(t.name, id, s);
          stats->corruptions_detected++;
          stats->pages_quarantined++;
        },
        &stamped_checked));
    const uint64_t stamped_bytes = stamped_checked * options_.tree.page_size;
    stats->bytes_scanned += stamped_bytes;
    limiter.Consume(stamped_bytes);
    // Historical blobs: bypass the verified memo and the cache, and on a
    // mismatch evict both (sticky-detected). No quarantine map needed —
    // the blob read path re-verifies the device bytes and fails per read.
    AppendStore::BlobScrubResult blobs;
    const std::string tree_name = t.name;
    TSB_RETURN_IF_ERROR(t.tree->hist_store()->ScrubAll(
        [&tree_name](uint64_t offset, const Status& s) {
          TSB_LOG_WARN("scrub: %s historical blob @%llu corrupt: %s",
                       tree_name.c_str(), (unsigned long long)offset,
                       s.ToString().c_str());
        },
        &blobs, [&limiter](uint64_t bytes) { limiter.Consume(bytes); }));
    stats->blobs_scanned += blobs.blobs_scanned;
    stats->bytes_scanned += blobs.bytes_scanned;
    stats->corruptions_detected += blobs.corruptions;
  }

  // Live WAL, durable prefix only. checkpoint_mu_ pins wal_ (rotation
  // swaps it under this mutex); bytes below synced_lsn are immutable.
  if (wal_enabled_ && wal_ != nullptr) {
    Status wal_corruption;
    TSB_RETURN_IF_ERROR(ScrubWalFile(wal_->file(), wal_->synced_lsn(),
                                     &limiter, &wal_corruption, stats));
    if (!wal_corruption.ok()) {
      stats->corruptions_detected++;
      // A corrupt durable frame would replay garbage after a crash.
      // TRANSIENT by decree: Resume()'s recovery-grade checkpoint folds
      // the trusted in-memory state into the base and abandons this log
      // file entirely, which IS the repair.
      if (errors_ != nullptr) {
        errors_->Report("scrub wal", wal_corruption, ErrorClass::kTransient);
      }
    }
  }

  if (!path_.empty()) {
    // MANIFEST: its crc terminator re-validates the whole file. Hard on
    // mismatch — the manifest anchors recovery (live log name, checkpoint
    // LSN, index catalog); with it rotted there is nothing to resume onto.
    bool exists = false;
    Manifest m;
    Status ms = ReadManifest(path_, &exists, &m);
    stats->files_scanned++;
    if (ms.IsCorruption() || (ms.ok() && exists && !m.complete)) {
      Status c = ms.IsCorruption()
                     ? ms
                     : Status::Corruption("manifest incomplete",
                                          ManifestPath(path_));
      stats->corruptions_detected++;
      if (errors_ != nullptr) errors_->Report("scrub manifest", c);
    } else if (!ms.ok()) {
      return ms;
    }
    // Retired checkpoint journal — the quarantine repair source. Damage
    // here is not damage to the database (repair just loses its donor),
    // so it logs and counts but neither quarantines nor degrades.
    const std::string retired = wal::CheckpointJournal::RetiredPath(path_);
    struct stat st;
    if (::stat(retired.c_str(), &st) == 0) {
      uint64_t journal_bytes = 0;
      Status js = wal::CheckpointJournal::VerifyFile(
          retired, options_.tree.page_size, &journal_bytes);
      stats->files_scanned++;
      stats->bytes_scanned += journal_bytes;
      limiter.Consume(journal_bytes);
      if (js.IsCorruption()) {
        stats->corruptions_detected++;
        TSB_LOG_WARN("scrub: retired checkpoint journal corrupt (%s); "
                     "quarantine repair has no donor until the next "
                     "checkpoint retires a fresh one",
                     js.ToString().c_str());
      } else if (!js.ok()) {
        return js;
      }
    }
  }
  return Status::OK();
}

Status MultiVersionDB::RepairQuarantined(uint64_t* repaired) {
  if (repaired != nullptr) *repaired = 0;
  std::vector<std::pair<std::string, uint32_t>> pages;
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    for (const auto& [key, cause] : quarantined_) pages.push_back(key);
  }
  if (pages.empty() || path_.empty()) return Status::OK();
  const std::string retired = wal::CheckpointJournal::RetiredPath(path_);
  struct stat st;
  if (::stat(retired.c_str(), &st) != 0) {
    // No retained images yet (no checkpoint has retired a journal): the
    // pages stay quarantined until one does or the operator reopens.
    return Status::OK();
  }
  std::map<std::pair<std::string, uint32_t>, std::string> images;
  TSB_RETURN_IF_ERROR(wal::CheckpointJournal::LoadImages(
      retired, options_.tree.page_size, &images));
  // Page writes must not race a checkpoint's in-place apply phase.
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  uint64_t fixed = 0;
  for (const auto& key : pages) {
    const std::string file = key.first == "primary"
                                 ? "current.tsb"
                                 : "index-" + key.first + ".current.tsb";
    auto it = images.find({file, key.second});
    if (it == images.end()) continue;  // no retained image: stays put
    tsb_tree::TsbTree* tree = nullptr;
    if (key.first == "primary") {
      tree = tree_.get();
    } else {
      auto idx = indexes_.find(key.first);
      if (idx == indexes_.end()) continue;
      tree = idx->second.index->tree();
    }
    // Sound because corruption is only ever detected on a buffer-pool
    // MISS: there is no (newer) in-memory copy, and under no-steal base
    // pages change only at checkpoints — so the image the last checkpoint
    // retired IS this page's correct current content. Write re-seals it
    // and stamps the live flush LSN, resetting the lost-write expectation.
    std::string image = it->second;
    TSB_RETURN_IF_ERROR(tree->pager()->Write(key.second, image.data()));
    {
      std::lock_guard<std::mutex> qlock(quarantine_mu_);
      quarantined_.erase(key);
    }
    fixed++;
    TSB_LOG_INFO("repaired quarantined page %u of %s from retired journal",
                 key.second, key.first.c_str());
  }
  if (fixed > 0 && errors_ != nullptr) errors_->NoteRepairs(fixed);
  if (repaired != nullptr) *repaired = fixed;
  return Status::OK();
}

void MultiVersionDB::StartScrubThread() {
  scrub_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(scrub_thread_mu_);
    while (!scrub_stop_) {
      if (scrub_cv_.wait_for(
              lock, std::chrono::milliseconds(options_.scrub_interval_ms),
              [this] { return scrub_stop_; })) {
        break;
      }
      lock.unlock();
      ScrubStats pass;
      Status s = Scrub(&pass);
      if (!s.ok()) {
        TSB_LOG_WARN("background scrub pass failed: %s",
                     s.ToString().c_str());
      } else if (pass.corruptions_detected > 0) {
        TSB_LOG_WARN("background scrub detected %llu corruptions",
                     (unsigned long long)pass.corruptions_detected);
      }
      lock.lock();
    }
  });
}

void MultiVersionDB::StopScrubThread() {
  if (!scrub_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(scrub_thread_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  scrub_thread_.join();
}

}  // namespace db
}  // namespace tsb
