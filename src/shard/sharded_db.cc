#include "shard/sharded_db.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <thread>

#include "common/fsync_dir.h"
#include "common/hash.h"
#include "common/kv_file.h"
#include "common/logger.h"

namespace tsb {
namespace shard {

namespace {

constexpr char kShardsManifestName[] = "SHARDS";
constexpr char kShardsHeader[] = "tsb-shards v1";
constexpr char kCoordLogName[] = "coord.tsb";

/// Runs `fn(i)` for every i in [0, n) on min(n, hardware threads)
/// threads, the caller included. After the first failure no further
/// index is started; that failure is returned.
template <typename Fn>
Status ParallelForEach(size_t n, Fn fn) {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  Status first_error;
  auto work = [&] {
    while (!failed.load(std::memory_order_acquire)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      Status s = fn(i);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (!failed.exchange(true, std::memory_order_acq_rel)) {
          first_error = s;
        }
      }
    }
  };
  const size_t threads =
      std::min<size_t>(n, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the ones running finish the work
    }
  }
  work();
  for (std::thread& t : helpers) t.join();
  return first_error;
}

std::string ShardDirName(uint32_t shard) {
  char buf[32];
  snprintf(buf, sizeof(buf), "shard-%03u", shard);
  return buf;
}

std::string ShardsManifestPath(const std::string& dir) {
  return dir + "/" + kShardsManifestName;
}

std::string CoordLogPath(const std::string& dir) {
  return dir + "/" + kCoordLogName;
}

/// {num_shards, hash_seed} are the sharded database's identity: both fix
/// key placement, so both are written exactly once at creation and every
/// reopen routes with the persisted values. Same write-temp-fsync-rename
/// + crc-terminator discipline as the per-shard MANIFEST.
struct ShardsManifest {
  uint32_t num_shards = 0;
  uint64_t hash_seed = 0;
};

Status WriteShardsManifest(const std::string& dir, const ShardsManifest& m) {
  char seed[24];
  snprintf(seed, sizeof(seed), "%016" PRIx64, m.hash_seed);
  return WriteKvFile(dir, kShardsManifestName, kShardsHeader,
                     {{"num_shards", std::to_string(m.num_shards)},
                      {"hash_seed", seed}});
}

Status ReadShardsManifest(const std::string& dir, bool* exists,
                          ShardsManifest* out) {
  const std::string file = ShardsManifestPath(dir);
  KvFields fields;
  bool complete = false;
  TSB_RETURN_IF_ERROR(
      ReadKvFile(file, kShardsHeader, exists, &fields, &complete));
  if (!*exists) return Status::OK();
  for (const auto& [key, value] : fields) {
    uint64_t v = 0;
    if (key == "num_shards" && ParseKvUint(value, 10, &v)) {
      out->num_shards = static_cast<uint32_t>(v);
    } else if (key == "hash_seed" && ParseKvUint(value, 16, &v)) {
      out->hash_seed = v;
    }
  }
  // A torn manifest must never silently misroute: without the crc
  // terminator the seed line may be missing, and opening with a default
  // seed would scatter every existing key to the wrong shard.
  if (!complete || out->num_shards == 0) {
    *exists = false;
    return Status::Corruption("incomplete shards manifest", file);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- open

Status ShardedDB::Open(const std::string& path, const ShardedOptions& options,
                       std::unique_ptr<ShardedDB>* out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
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

  ShardsManifest manifest;
  bool exists = false;
  TSB_RETURN_IF_ERROR(ReadShardsManifest(path, &exists, &manifest));
  if (!exists) {
    if (options.num_shards == 0) {
      return Status::InvalidArgument("num_shards must be >= 1 at creation");
    }
    manifest.num_shards = options.num_shards;
    manifest.hash_seed = options.hash_seed;
    TSB_RETURN_IF_ERROR(WriteShardsManifest(path, manifest));
  } else if (options.num_shards != 0 &&
             options.num_shards != manifest.num_shards) {
    // Resharding would need every record re-routed; refuse rather than
    // silently read from the wrong shard.
    return Status::InvalidArgument(
        "shard count is fixed at creation (manifest has " +
        std::to_string(manifest.num_shards) + ")");
  }

  std::unique_ptr<ShardedDB> sdb(new ShardedDB());
  sdb->path_ = path;
  sdb->hash_seed_ = manifest.hash_seed;
  sdb->coord_checkpoint_bytes_ = options.coord_checkpoint_bytes;
  sdb->ledger_ = std::make_shared<txn::CommitLedger>();
  sdb->shards_.resize(manifest.num_shards);
  for (uint32_t i = 0; i < manifest.num_shards; ++i) {
    DbOptions shard_options = options.base;
    shard_options.shared_ledger = sdb->ledger_;
    shard_options.create_if_missing = true;  // dirs are facade-managed
    if (options.base.wrap_device) {
      auto base_wrap = options.base.wrap_device;
      const std::string prefix = ShardDirName(i) + "/";
      shard_options.wrap_device =
          [base_wrap, prefix](const std::string& role,
                              std::unique_ptr<Device> device) {
            return base_wrap(prefix + role, std::move(device));
          };
    }
    if (options.shard_options_hook) {
      options.shard_options_hook(i, &shard_options);
    }
    // Each shard replays its own WAL onto the SHARED clock; the opens are
    // sequential and no reader exists yet, so the interleaved per-shard
    // publishes are harmless and the clock ends at the global maximum.
    TSB_RETURN_IF_ERROR(MultiVersionDB::Open(path + "/" + ShardDirName(i),
                                             shard_options, &sdb->shards_[i]));
  }

  // Resolve in-doubt multi-shard decisions: every decision whose record
  // reached the coordinator log is COMMITTED, so any slice a shard lost
  // (crash between the decision and that shard's WAL append) is re-applied
  // here; slices that did land are detected and skipped. Routing uses the
  // persisted seed, so the slices recompute exactly.
  wal::WalReplayResult rr;
  ShardedDB* raw = sdb.get();
  TSB_RETURN_IF_ERROR(wal::Wal::Replay(
      CoordLogPath(path), 0,
      [raw](const wal::WalCommit& c) { return raw->ApplyDecision(c); }, &rr));
  if (rr.frames > 0) {
    TSB_LOG_INFO("sharded open: resolved %llu in-doubt decision(s)%s",
                 (unsigned long long)rr.frames,
                 rr.tail_truncated ? ", torn tail truncated" : "");
  }
  // Everything recovered is fully applied: publish the watermark.
  LogicalClock* const clock = sdb->ledger_->clock();
  clock->Publish(clock->Now());

  // The coordinator log is the multi-shard commit point, so it syncs per
  // decision (group commit) — unless the shards themselves run unsynced
  // (kOff benchmarks), where pretending the coordinator adds durability
  // would be a lie.
  sdb->coord_sync_mode_ = options.base.wal_sync == wal::WalSyncMode::kOff
                              ? wal::WalSyncMode::kOff
                              : wal::WalSyncMode::kGroup;
  sdb->coord_background_sync_ms_ = options.base.wal_background_sync_ms;
  sdb->coord_fault_plan_ = options.coord_fault_plan;
  TSB_RETURN_IF_ERROR(wal::Wal::Open(CoordLogPath(path), sdb->coord_sync_mode_,
                                     sdb->coord_background_sync_ms_,
                                     &sdb->coord_wal_,
                                     sdb->coord_fault_plan_));

  sdb->open_ = true;
  *out = std::move(sdb);
  return Status::OK();
}

ShardedDB::~ShardedDB() {
  // A failed Open destroys a facade whose shards did not all open: there
  // is nothing to fold.
  if (open_ && !degraded()) {
    // Clean shutdown: fold every shard and truncate the coordinator log,
    // so the next Open replays nothing. A failure leaves the logs in
    // place — recovery replays them, which is always correct.
    Status s = Checkpoint();
    if (!s.ok()) {
      TSB_LOG_WARN("sharded clean shutdown incomplete (%s); next open "
                   "will recover",
                   s.ToString().c_str());
    }
  }
  // The coordinator log closes first; then every shard runs its own clean
  // shutdown (an empty checkpoint plus its MANIFEST), concurrently; each
  // shard holds the ledger (its trees point into the ledger's clock), so
  // the ledger goes with the last of them.
  coord_wal_.reset();
  (void)ParallelForEach(shards_.size(), [this](size_t i) {
    shards_[i].reset();
    return Status::OK();
  });
}

Status ShardedDB::Destroy(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError("opendir " + path, strerror(errno));
  }
  Status status = Status::OK();
  std::vector<std::string> shard_dirs;
  while (struct dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    if (name.rfind("shard-", 0) == 0) {
      shard_dirs.push_back(name);
      continue;
    }
    const bool owned = name == kShardsManifestName ||
                       name == std::string(kShardsManifestName) + ".tmp" ||
                       name == kCoordLogName;
    if (!owned) continue;  // unrecognized: left behind, rmdir surfaces it
    const std::string full = path + "/" + name;
    if (::unlink(full.c_str()) != 0 && status.ok()) {
      status = Status::IOError("unlink " + full, strerror(errno));
    }
  }
  ::closedir(dir);
  TSB_RETURN_IF_ERROR(status);
  for (const std::string& d : shard_dirs) {
    TSB_RETURN_IF_ERROR(MultiVersionDB::Destroy(path + "/" + d));
  }
  if (::rmdir(path.c_str()) != 0) {
    return Status::IOError("rmdir " + path, strerror(errno));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- routing

uint32_t ShardedDB::ShardOf(const Slice& key) const {
  return ShardOfKey(key, static_cast<uint32_t>(shards_.size()), hash_seed_);
}

Status ShardedDB::ApplyDecision(const wal::WalCommit& commit) {
  std::map<uint32_t, wal::WalCommit> slices;
  for (const auto& [key, value] : commit.ops) {
    wal::WalCommit& slice = slices[ShardOf(key)];
    slice.ts = commit.ts;
    slice.ops.emplace_back(key, value);
  }
  for (auto& [s, slice] : slices) {
    TSB_RETURN_IF_ERROR(shards_[s]->ReplayExternalCommit(slice));
  }
  in_doubt_replayed_++;
  return Status::OK();
}

// ---------------------------------------------------------------- writes

Status ShardedDB::Put(const Slice& key, const Slice& value,
                      Timestamp* commit_ts) {
  return shards_[ShardOf(key)]->Put(key, value, commit_ts);
}

Status ShardedDB::Write(const WriteBatch& batch, Timestamp* commit_ts) {
  if (batch.empty()) {
    if (commit_ts != nullptr) *commit_ts = Now();
    return Status::OK();
  }
  const uint32_t first_shard = ShardOf(batch.ops().front().first);
  if (std::all_of(batch.ops().begin(), batch.ops().end(),
                  [&](const auto& op) {
                    return ShardOf(op.first) == first_shard;
                  })) {
    // The embarrassingly parallel case: the shard's own TxnManager
    // commits through the shared ledger, so even this path publishes the
    // global ordered prefix.
    return shards_[first_shard]->Write(batch, commit_ts);
  }
  // One write set of views, split by shard; the coordinator logs the
  // whole set and each shard's transaction writes its slice.
  std::vector<std::pair<Slice, Slice>> ops;
  batch.SortedOps(&ops);
  std::map<uint32_t, std::vector<std::pair<Slice, Slice>>> slices;
  for (const auto& op : ops) slices[ShardOf(op.first)].push_back(op);
  return WriteMultiShard(slices, ops, commit_ts);
}

Status ShardedDB::WriteMultiShard(
    const std::map<uint32_t, std::vector<std::pair<Slice, Slice>>>& slices,
    std::span<const std::pair<Slice, Slice>> ops, Timestamp* commit_ts) {
  // Shared for the whole append-to-stamped window: Checkpoint's exclusive
  // hold can then never truncate a decision that is not yet fully
  // stamped and checkpointed into its shards.
  std::shared_lock<std::shared_mutex> coord(coord_mu_);
  if (coord_wal_ == nullptr) {
    // A failed RebuildCoordLog left no log; Resume() must re-establish
    // it before any new decision can be made durable.
    return Status::IOError("coordinator log unavailable; Resume required");
  }
  for (const auto& [s, slice] : slices) {
    // Fail fast: a degraded shard would reject its CommitPrepared AFTER
    // the decision became durable, turning a routine sick-shard error
    // into a repair cycle for this batch too.
    TSB_RETURN_IF_ERROR(shards_[s]->BackgroundError());
  }

  // 1. Lock and write the uncommitted slices (first-writer-wins; any
  // conflict aborts the whole batch with nothing decided).
  std::vector<std::pair<uint32_t, std::unique_ptr<txn::Transaction>>> txns;
  txns.reserve(slices.size());
  auto abort_active = [&txns]() {
    for (auto& [s, txn] : txns) {
      if (txn->active()) txn->Abort();
    }
  };
  for (const auto& [s, slice] : slices) {
    std::unique_ptr<txn::Transaction> txn;
    Status st = shards_[s]->Begin(&txn);
    if (st.ok()) {
      for (const auto& [key, value] : slice) {
        st = txn->Put(key, value);
        if (!st.ok()) break;
      }
    }
    if (txn != nullptr) txns.emplace_back(s, std::move(txn));
    if (!st.ok()) {
      abort_active();
      return st;
    }
  }

  // 2. Allocate the commit timestamp — registered in the ledger's global
  // in-flight set in the same critical section, so no commit completing
  // on any shard can publish the watermark past it from here on.
  const Timestamp ts = ledger_->TickCommit();

  // 3. The commit point: one self-contained decision record of the
  // sorted write set (duplicate keys already collapsed last-wins).
  uint64_t end_lsn = 0;
  Status st = coord_wal_->AppendCommit(ts, ops, &end_lsn);
  if (!st.ok()) {
    // Append failure: the Wal truncated back to the last whole frame, so
    // nothing at ts can ever replay — the batch cleanly never happened.
    abort_active();
    ledger_->AbortCommit(ts);
    return st;
  }
  st = coord_wal_->Sync(end_lsn);
  if (!st.ok()) {
    // Sync failure AFTER a complete append: indeterminate — the frame
    // may be durable. The writer gets the error, but ts must stay
    // poisoned (never readable) until the outcome is resolved: Resume()
    // rebuilds the log without the ghost frame (abort), a crash lets the
    // frame replay if it survived (commit). Mirrors a single shard's
    // frozen watermark after a failed group commit.
    abort_active();
    {
      std::lock_guard<std::mutex> lock(multi_mu_);
      failed_coord_.insert(ts);
    }
    ledger_->PoisonCommit(ts);
    TSB_LOG_WARN("coordinator sync failed for t=%llu (%s): outcome "
                 "indeterminate, watermark pinned until Resume",
                 (unsigned long long)ts, st.ToString().c_str());
    return st;
  }

  // 4. Stamp every slice. Failures past this point cannot un-commit the
  // batch — they only delay its visibility.
  Status failure = Status::OK();
  for (auto& [s, txn] : txns) {
    Status cs = shards_[s]->txn_manager()->CommitPrepared(txn.get(), ts);
    if (!cs.ok() && failure.ok()) failure = cs;
  }
  if (!failure.ok()) {
    // Decided but unfinished. Release what the unstamped slices still
    // hold (locks, uncommitted records — stamped records stay for the
    // repair purge), pin the watermark below ts so no reader ever sees
    // the partial batch, and park the decision for Resume(). The sick
    // shard degraded through its own reporter; the OTHERS keep running.
    abort_active();
    {
      std::lock_guard<std::mutex> lock(multi_mu_);
      std::map<std::string, std::string>& parked = failed_multi_[ts];
      for (const auto& [key, value] : ops) {
        parked.emplace(key.ToString(), value.ToString());
      }
    }
    ledger_->PoisonCommit(ts);
    TSB_LOG_WARN("multi-shard commit t=%llu decided but unfinished (%s); "
                 "watermark pinned until Resume",
                 (unsigned long long)ts, failure.ToString().c_str());
    // The decision record is durable: by the facade's contract the batch
    // IS committed (it survives any crash), so the writer is acked. Its
    // visibility waits for repair.
    if (commit_ts != nullptr) *commit_ts = ts;
    return Status::OK();
  }

  // 5. Fully stamped everywhere: retire the in-flight entry; the
  // watermark may now pass ts.
  ledger_->EndCommit(ts);
  if (commit_ts != nullptr) *commit_ts = ts;
  coord.unlock();

  if (coord_wal_->appended_lsn() > coord_checkpoint_bytes_) {
    // Bound Open-time decision replay. The commit above is already
    // durable and acked; a checkpoint failure is sticky in the shard it
    // hit and must not be read as "not committed".
    Status cp = Checkpoint();
    if (!cp.ok()) {
      TSB_LOG_ERROR("coordinator-triggered checkpoint failed (%s); "
                    "decision t=%llu is committed and durable",
                    cp.ToString().c_str(), (unsigned long long)ts);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- reads

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value, Timestamp* ts) {
  return shards_[ShardOf(key)]->Get(options, key, value, ts);
}

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      PinnableValue* value) {
  return shards_[ShardOf(key)]->Get(options, key, value);
}

std::unique_ptr<ShardedCursor> ShardedDB::NewCursor(
    const ReadOptions& options) {
  // Resolve the as-of time ONCE against the shared clock: handing
  // kAsOfLatest to each child would let them snapshot different
  // watermarks and merge two different database states.
  ReadOptions resolved = options;
  if (resolved.as_of == tsb_tree::kAsOfLatest) {
    resolved.as_of = Now();
  }
  std::vector<std::unique_ptr<tsb_tree::VersionCursor>> children;
  children.reserve(shards_.size());
  for (auto& s : shards_) children.push_back(s->NewCursor(resolved));
  return std::make_unique<ShardedCursor>(std::move(children),
                                         resolved.as_of);
}

ShardedReadTransaction ShardedDB::BeginReadOnly() {
  // One atomic load of the shared watermark — the ledger publishes only
  // ordered prefixes of fully-stamped commits, so this timestamp can
  // never observe a torn multi-shard batch (section 4.1, lifted to N
  // trees).
  return ShardedReadTransaction(this, Now());
}

Status ShardedReadTransaction::Get(const Slice& key, std::string* value,
                                   Timestamp* version_ts) {
  ReadOptions options;
  options.as_of = ts_;
  return db_->Get(options, key, value, version_ts);
}

std::unique_ptr<ShardedCursor> ShardedReadTransaction::NewCursor() {
  ReadOptions options;
  options.as_of = ts_;
  return db_->NewCursor(options);
}

// ---------------------------------------------------------------- health

Status ShardedDB::BackgroundError() const {
  for (const auto& s : shards_) {
    Status st = s->BackgroundError();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

bool ShardedDB::degraded() const {
  for (const auto& s : shards_) {
    if (s->degraded()) return true;
  }
  return false;
}

bool ShardedDB::shard_degraded(uint32_t shard) const {
  return shards_[shard]->degraded();
}

Status ShardedDB::shard_background_error(uint32_t shard) const {
  return shards_[shard]->BackgroundError();
}

db::ErrorHandlerStats ShardedDB::shard_error_stats(uint32_t shard) const {
  return shards_[shard]->error_stats();
}

size_t ShardedDB::pending_decisions() const {
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(multi_mu_));
  return failed_multi_.size();
}

// ---------------------------------------------------------------- repair

Status ShardedDB::CheckpointShards() {
  // Shards share no checkpoint state (each has its own locks, devices,
  // journal and log), so they fold concurrently.
  return ParallelForEach(shards_.size(),
                         [this](size_t i) { return shards_[i]->Checkpoint(); });
}

Status ShardedDB::Checkpoint() {
  // Exclusive: no decision record can be appended mid-checkpoint, so the
  // truncated prefix holds only decisions whose slices every shard just
  // folded into its durable base.
  std::unique_lock<std::shared_mutex> coord(coord_mu_);
  TSB_RETURN_IF_ERROR(CheckpointShards());
  {
    std::lock_guard<std::mutex> lock(multi_mu_);
    if (!failed_multi_.empty() || !failed_coord_.empty()) {
      // Pending repairs re-apply from failed_multi_ while live, but a
      // crash before Resume must still find the decisions on disk; and
      // indeterminate frames stay until Resume resolves them.
      return Status::OK();
    }
  }
  if (coord_wal_ == nullptr) return RebuildCoordLog();
  return coord_wal_->Reset();
}

Status ShardedDB::Resume() {
  // Heal the sick shards first: each shard's Resume purges ITS failed
  // timestamps (including slices of cross-shard decisions that died
  // mid-stamp there) and re-establishes its durability on a fresh log.
  // The external pins stay down — ResetAfterRepair skips them — until
  // the decisions are re-applied below.
  for (auto& s : shards_) {
    // Quarantined-but-healthy shards need the repair half of Resume too
    // (a scrub hit quarantines pages without degrading the shard).
    if (s->degraded() || s->quarantined_count() > 0) {
      TSB_RETURN_IF_ERROR(s->Resume());
    }
  }
  std::unique_lock<std::shared_mutex> coord(coord_mu_);
  std::map<Timestamp, std::map<std::string, std::string>> pending;
  std::set<Timestamp> indeterminate;
  {
    std::lock_guard<std::mutex> lock(multi_mu_);
    pending = failed_multi_;
    indeterminate = failed_coord_;
  }
  for (const auto& [ts, ops] : pending) {
    TSB_RETURN_IF_ERROR(RepairDecision(ts, ops));
    std::lock_guard<std::mutex> lock(multi_mu_);
    failed_multi_.erase(ts);
  }
  if (!indeterminate.empty() || coord_wal_ == nullptr) {
    // Resolve indeterminate decisions to ABORT: once every shard's state
    // is durably checkpointed, no coordinator frame is needed anymore,
    // so the log is rebuilt empty — the ghost frames (if they landed)
    // can never replay — and the pins lift. The writers already saw the
    // error; the batches now definitively never happened.
    TSB_RETURN_IF_ERROR(CheckpointShards());
    TSB_RETURN_IF_ERROR(RebuildCoordLog());
    std::lock_guard<std::mutex> lock(multi_mu_);
    for (const Timestamp ts : indeterminate) {
      ledger_->Unpoison(ts);
      failed_coord_.erase(ts);
    }
  }
  return Status::OK();
}

Status ShardedDB::Scrub(db::ScrubStats* total,
                        std::vector<db::ScrubStats>* per_shard) {
  if (per_shard != nullptr) {
    per_shard->clear();
    per_shard->resize(shards_.size());
  }
  db::ScrubStats sum;
  for (size_t i = 0; i < shards_.size(); ++i) {
    db::ScrubStats stats;
    TSB_RETURN_IF_ERROR(shards_[i]->Scrub(&stats));
    if (per_shard != nullptr) (*per_shard)[i] = stats;
    sum.Add(stats);
  }
  // SHARDS manifest: the crc terminator re-validates {num_shards,
  // hash_seed} — rot here would misroute every key at the next Open. It
  // is ensemble state, not one shard's, so it logs + counts rather than
  // degrading a shard that did nothing wrong.
  bool exists = false;
  ShardsManifest m;
  Status ms = ReadShardsManifest(path_, &exists, &m);
  sum.files_scanned++;
  if (ms.IsCorruption()) {
    sum.corruptions_detected++;
    TSB_LOG_ERROR("scrub: SHARDS manifest corrupt (%s); repair it from a "
                  "replica before the next reopen",
                  ms.ToString().c_str());
  } else if (!ms.ok()) {
    return ms;
  }
  if (total != nullptr) *total = sum;
  return Status::OK();
}

Status ShardedDB::RebuildCoordLog() {
  coord_wal_.reset();
  const std::string file = CoordLogPath(path_);
  if (::unlink(file.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink " + file, strerror(errno));
  }
  TSB_RETURN_IF_ERROR(SyncDir(path_));
  return wal::Wal::Open(file, coord_sync_mode_, coord_background_sync_ms_,
                        &coord_wal_, coord_fault_plan_);
}

Status ShardedDB::RepairDecision(
    Timestamp ts, const std::map<std::string, std::string>& ops) {
  std::map<uint32_t, wal::WalCommit> slices;
  for (const auto& [key, value] : ops) {
    wal::WalCommit& slice = slices[ShardOf(key)];
    slice.ts = ts;
    slice.ops.emplace_back(key, value);
  }
  for (auto& [s, slice] : slices) {
    // Purge-then-reapply is idempotent and shard-state-agnostic: a shard
    // that stamped its slice fully, partially, or not at all all converge
    // to exactly the decided slice. Commits freeze so no concurrent
    // same-key writer interleaves with the replay descents.
    txn::TxnManager* tm = shards_[s]->txn_manager();
    tm->FreezeCommits();
    Status st = shards_[s]->PurgeCommittedAt(ts);
    if (st.ok()) st = shards_[s]->ReplayExternalCommit(slice);
    tm->UnfreezeCommits();
    TSB_RETURN_IF_ERROR(st);
  }
  // Every slice is whole again: lift the pin. The watermark recomputes
  // and the batch becomes visible exactly once, atomically.
  ledger_->Unpoison(ts);
  TSB_LOG_INFO("repaired multi-shard decision t=%llu across %zu shard(s)",
               (unsigned long long)ts, slices.size());
  return Status::OK();
}

}  // namespace shard
}  // namespace tsb
