// tsb_e2e: the end-to-end benchmark program for the TSB engine.
//
// One process runs one workload against the public surface, the way an
// application would: MultiVersionDB / ShardedDB Get(ReadOptions, key,
// PinnableValue*), Write(WriteBatch), and NewCursor with Seek, SeekRange,
// SeekForPrev, Next, Prev and NextVersion.
//
//   tsb_e2e --workload W --seed N --seconds S [--trace 0|1]
//           --dir DBDIR --out OUTDIR
//
// Shape of a run:
//   1. setup: open a fresh database under DBDIR, preload it, close it and
//      reopen it with the workload's options.
//   2. closed loop: 3 client threads, no think time, while the main thread
//      only sleeps and flips phases: an untimed 2 s warm-up, then the
//      measured window of S seconds.
//   3. correctness: every timed Get, version walk and scan entry is checked
//      against a model after its timer stops; after the window a sample of
//      acknowledged writes is read back at its commit timestamp, before and
//      after a clean close/reopen. The database is then destroyed.
//   4. kSetups - 1 more setups, timed only; setup_s is the median of all
//      kSetups. They run last so the measured database is built on a fresh
//      heap.
//
// With --trace 1 the window alternates untraced and traced slices and the
// run reports per-layer metrics (see trace.h) instead of end-to-end ones,
// plus trace_overhead, and writes layers-W.json and trace-W.json to OUTDIR.
//
// Output: one "workload metric value unit" line per metric, then, as the
// last line, {"correct", "attempted", "failed", "metrics"} as JSON. Exit
// code 1 when any result was wrong, 2 on a setup or usage error.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "db/multiversion_db.h"
#include "shard/sharded_db.h"
#include "trace.h"
#include "tsb/cursor.h"

namespace e2e {
namespace {

using tsb::FaultOp;
using tsb::FaultPlan;
using tsb::Slice;
using tsb::Status;
using tsb::Timestamp;
using tsb::db::DbOptions;
using tsb::db::MultiVersionDB;
using tsb::db::PinnableValue;
using tsb::db::ReadOptions;
using tsb::db::VersionCursor;
using tsb::db::WriteBatch;
using tsb::shard::ShardedDB;
using tsb::shard::ShardedOptions;
using tsb::wal::WalSyncMode;

constexpr int kClients = 3;
constexpr size_t kKeyBytes = 9;  // "k" + 8 decimal digits
constexpr size_t kValueBytes = 100;
constexpr uint32_t kPageSize = 4096;
constexpr size_t kHistCacheBlobs = 256;
constexpr int kScanKeys = 100;
constexpr int kWriteKeys = 8;       // durable_ingest and scan_churn batches
constexpr int kShardWriteKeys = 4;  // cross_shard batches
constexpr size_t kLoadBatch = 500;  // preload commit size
constexpr uint64_t kWriteSampleEvery = 16;  // acked writes kept for readback
constexpr size_t kMaxReadback = 20000;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kScramble = 1000003;  // prime: a permutation of [0, n)
constexpr uint64_t kSliceNs = 100'000'000;  // traced/untraced alternation
constexpr uint64_t kBulkCheckpointBytes = 1ull << 30;
constexpr double kWarmupSeconds = 2;
constexpr int kSetups = 3;  // setup_s is their median

enum class Workload {
  kCurrentHot,
  kTimeTravel,
  kDurableIngest,
  kScanChurn,
  kCrossShard,
};

struct Spec {
  const char* name;
  Workload id;
  uint64_t keys;       ///< preloaded keys
  int versions;        ///< load epochs: every key gets one version per epoch
  size_t pool_frames;  ///< buffer-pool frames (per shard when sharded)
  WalSyncMode sync;
  uint32_t shards;     ///< 0 = one MultiVersionDB
  Op primary;          ///< the op whose latency is op_p50_us / op_p99_us
};

const Spec kSpecs[] = {
    {"current_hot", Workload::kCurrentHot, 100000, 4, 65536,
     WalSyncMode::kGroup, 0, Op::kGet},
    {"time_travel", Workload::kTimeTravel, 50000, 10, 65536,
     WalSyncMode::kGroup, 0, Op::kGet},
    {"durable_ingest", Workload::kDurableIngest, 200000, 1, 65536,
     WalSyncMode::kGroup, 0, Op::kWrite},
    {"scan_churn", Workload::kScanChurn, 100000, 4, 1024, WalSyncMode::kOff,
     0, Op::kScan},
    {"cross_shard", Workload::kCrossShard, 100000, 1, 16384,
     WalSyncMode::kGroup, 4, Op::kShardWrite},
};

const char* SyncName(WalSyncMode m) {
  switch (m) {
    case WalSyncMode::kOff:
      return "off";
    case WalSyncMode::kBackground:
      return "background";
    case WalSyncMode::kGroup:
      return "group";
  }
  return "?";
}

// ------------------------------------------------------------ inputs

/// Key `id` as "k" + 8 zero-padded digits (ids stay below 10^8).
void FormatKey(uint64_t id, char* out) {
  out[0] = 'k';
  for (int i = 8; i >= 1; --i) {
    out[i] = static_cast<char>('0' + id % 10);
    id /= 10;
  }
}

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void PutHex(uint64_t v, int digits, char* out) {
  static const char kHex[] = "0123456789abcdef";
  for (int i = digits - 1; i >= 0; --i) {
    out[i] = kHex[v & 0xf];
    v >>= 4;
  }
}

bool GetHex(const char* in, int digits, uint64_t* v) {
  uint64_t r = 0;
  for (int i = 0; i < digits; ++i) {
    const char c = in[i];
    uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    r = (r << 4) | d;
  }
  *v = r;
  return true;
}

/// The value of (key, tag): 8 hex digits of the key id, 16 of the tag,
/// then filler derived from both, so any byte out of place is detected.
/// Preload epoch e writes tag e; a client write carries WriteTag().
void FormatValue(uint64_t key_id, uint64_t tag, char* out) {
  PutHex(key_id, 8, out);
  PutHex(tag, 16, out + 8);
  uint64_t state = Mix(key_id * 0x100000001b3ull ^ tag);
  for (size_t i = 24; i < kValueBytes; ++i) {
    if (i % 8 == 0) state = Mix(state + i);
    out[i] = static_cast<char>('a' + (state >> ((i % 8) * 8) & 0xff) % 26);
  }
}

uint64_t WriteTag(int client, uint64_t seq) {
  return (1ull << 60) | (static_cast<uint64_t>(client) << 40) | seq;
}
bool IsWriteTag(uint64_t tag) { return (tag >> 60) == 1; }

/// True when `v` is exactly FormatValue(key_id, tag) for the tag it
/// carries; the tag is returned.
bool ValueOk(const char* v, size_t n, uint64_t key_id, uint64_t* tag) {
  uint64_t id = 0;
  if (n != kValueBytes || !GetHex(v, 8, &id) || !GetHex(v + 8, 16, tag) ||
      id != (key_id & 0xffffffffull)) {
    return false;
  }
  char expect[kValueBytes];
  FormatValue(key_id, *tag, expect);
  return memcmp(v, expect, kValueBytes) == 0;
}

bool ParseKey(const char* k, size_t n, uint64_t* id) {
  if (n != kKeyBytes || k[0] != 'k') return false;
  uint64_t r = 0;
  for (size_t i = 1; i < n; ++i) {
    if (k[i] < '0' || k[i] > '9') return false;
    r = r * 10 + static_cast<uint64_t>(k[i] - '0');
  }
  *id = r;
  return true;
}

/// Zipfian ranks over [0, n) (Gray et al., as in YCSB), scrambled by a
/// prime multiplier so the hot keys spread over the whole key space.
class Zipf {
 public:
  explicit Zipf(uint64_t n) : n_(n) {
    double zeta2 = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      const double term = 1.0 / std::pow(static_cast<double>(i), kZipfTheta);
      zetan_ += term;
      if (i <= 2) zeta2 += term;
    }
    alpha_ = 1.0 / (1.0 - kZipfTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - kZipfTheta)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(tsb::Random* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, kZipfTheta)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return rank * kScramble % n_;
  }

 private:
  uint64_t n_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// ------------------------------------------------------------ model

/// One acknowledged write, kept for the post-window readback.
struct Acked {
  uint64_t key;
  uint64_t tag;
  Timestamp ts;
};

/// What the database must contain: preloaded values are a function of
/// (key, epoch) and epoch e committed inside [lo[e], hi[e]].
struct Model {
  int versions = 0;
  std::vector<Timestamp> lo, hi;
  std::vector<Acked> acked;  ///< one key per preload batch
  uint64_t user_bytes = 0;   ///< key+value bytes the preload committed
  /// Newest acknowledged window write per preloaded key (scan_churn and
  /// cross_shard; each key has one writer, so it only grows).
  std::unique_ptr<std::atomic<Timestamp>[]> last_acked;

  bool InEpoch(int e, Timestamp ts) const {
    return ts >= lo[e] && ts <= hi[e];
  }
};

// ------------------------------------------------------------ engine

/// Trace-mode hooks: unarmed fault plans that only count WAL work.
struct Hooks {
  std::shared_ptr<FaultPlan> wal;
  std::shared_ptr<FaultPlan> coord;
};

/// One database under test: a MultiVersionDB or a ShardedDB.
struct Engine {
  std::unique_ptr<MultiVersionDB> db;
  std::unique_ptr<ShardedDB> sdb;

  std::vector<MultiVersionDB*> Parts() {
    std::vector<MultiVersionDB*> out;
    if (sdb != nullptr) {
      for (uint32_t i = 0; i < sdb->num_shards(); ++i) {
        out.push_back(sdb->shard(i));
      }
    } else {
      out.push_back(db.get());
    }
    return out;
  }
  Status Write(const WriteBatch& b, Timestamp* ts) {
    return sdb != nullptr ? sdb->Write(b, ts) : db->Write(b, ts);
  }
  Status Get(const ReadOptions& ro, const Slice& key, PinnableValue* v) {
    return sdb != nullptr ? sdb->Get(ro, key, v) : db->Get(ro, key, v);
  }
  Timestamp Now() const { return sdb != nullptr ? sdb->Now() : db->Now(); }
  void Close() {
    db.reset();
    sdb.reset();
  }
};

/// Opens the workload's database. `bulk` is the preload's configuration:
/// no WAL fdatasync and a checkpoint interval so large that the load
/// checkpoints once, at close (which makes it durable). The window always
/// runs with the workload's sync mode and the default interval.
Status OpenEngine(const Spec& spec, const std::string& path, const Hooks* hooks,
                  bool bulk, Engine* e) {
  DbOptions o;
  o.tree.page_size = kPageSize;
  o.tree.buffer_pool_frames = spec.pool_frames;
  o.tree.hist_cache_blobs = kHistCacheBlobs;
  o.tree.concurrent_writers = true;
  o.wal_sync = bulk ? WalSyncMode::kOff : spec.sync;
  if (bulk) o.wal_checkpoint_bytes = kBulkCheckpointBytes;
  if (hooks != nullptr) {
    o.wrap_device = [](const std::string& role,
                       std::unique_ptr<tsb::Device> device)
        -> std::unique_ptr<tsb::Device> {
      return std::make_unique<TracingDevice>(std::move(device), RoleOf(role));
    };
    o.wal_fault_plan = hooks->wal;
  }
  if (spec.shards == 0) return MultiVersionDB::Open(path, o, &e->db);
  ShardedOptions so;
  so.base = o;
  so.num_shards = spec.shards;
  if (hooks != nullptr) so.coord_fault_plan = hooks->coord;
  return ShardedDB::Open(path, so, &e->sdb);
}

Status DestroyEngine(const Spec& spec, const std::string& path) {
  return spec.shards == 0 ? MultiVersionDB::Destroy(path)
                          : ShardedDB::Destroy(path);
}

/// One loader thread's share of one epoch: keys [begin, end) in
/// kLoadBatch-key commits, grouped per shard when sharded so the preload
/// never takes the coordinator path.
struct LoadPart {
  uint64_t begin = 0;
  uint64_t end = 0;
  Timestamp lo = tsb::kMaxCommittedTs;
  Timestamp hi = 0;
  std::vector<Acked> acked;  // one key per commit
  Status status;
};

void LoadRange(Engine* e, int epoch, LoadPart* part) {
  const size_t lanes = e->sdb != nullptr ? e->sdb->num_shards() : 1;
  std::vector<WriteBatch> batch(lanes);
  std::vector<uint64_t> last_id(lanes);
  char key[kKeyBytes];
  char value[kValueBytes];
  auto commit = [&](size_t lane) {
    Timestamp ts = 0;
    part->status = e->Write(batch[lane], &ts);
    part->lo = std::min(part->lo, ts);
    part->hi = std::max(part->hi, ts);
    part->acked.push_back({last_id[lane], static_cast<uint64_t>(epoch), ts});
    batch[lane].Clear();
  };
  for (uint64_t id = part->begin; id < part->end && part->status.ok(); ++id) {
    FormatKey(id, key);
    FormatValue(id, static_cast<uint64_t>(epoch), value);
    const Slice k(key, kKeyBytes);
    const size_t lane = e->sdb != nullptr ? e->sdb->ShardOf(k) : 0;
    batch[lane].Put(k, Slice(value, kValueBytes));
    last_id[lane] = id;
    if (batch[lane].Count() == kLoadBatch) commit(lane);
  }
  for (size_t lane = 0; lane < lanes && part->status.ok(); ++lane) {
    if (!batch[lane].empty()) commit(lane);
  }
}

/// Writes every epoch of every key, one epoch after the other, each from
/// kClients loader threads over disjoint key ranges.
Status Preload(const Spec& spec, Engine* e, Model* m) {
  m->versions = spec.versions;
  m->lo.assign(spec.versions, tsb::kMaxCommittedTs);
  m->hi.assign(spec.versions, 0);
  m->acked.clear();
  m->user_bytes = spec.keys * spec.versions * (kKeyBytes + kValueBytes);
  for (int epoch = 0; epoch < spec.versions; ++epoch) {
    std::vector<LoadPart> parts(kClients);
    std::vector<std::thread> loaders;
    for (int c = 0; c < kClients; ++c) {
      parts[c].begin = spec.keys * c / kClients;
      parts[c].end = spec.keys * (c + 1) / kClients;
      loaders.emplace_back(LoadRange, e, epoch, &parts[c]);
    }
    for (std::thread& t : loaders) t.join();
    for (const LoadPart& p : parts) {
      TSB_RETURN_IF_ERROR(p.status);
      m->lo[epoch] = std::min(m->lo[epoch], p.lo);
      m->hi[epoch] = std::max(m->hi[epoch], p.hi);
      m->acked.insert(m->acked.end(), p.acked.begin(), p.acked.end());
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ clients

enum Phase : int { kWarmup = 0, kWindow = 1, kStop = 2 };

struct ClientStats {
  std::vector<uint32_t> lat[static_cast<int>(Op::kNumOps)];  // ns, window
  uint64_t window_ops = 0;
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  uint64_t attempted = 0;  // warm-up + window
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t window_writes = 0;     // write ops attempted in the window
  uint64_t window_commits = 0;    // of which acknowledged
  uint64_t conflicts = 0;         // TxnConflict among them
  uint64_t multi_shard = 0;       // multi-shard cross_shard batches
  uint64_t shard_batches = 0;     // all cross_shard batches
  uint64_t user_bytes = 0;        // committed key+value bytes, all phases
  uint64_t traced_user_bytes = 0;
  std::vector<Acked> acked;
  std::string problems;  // first few failures / wrong results
};

struct Shared {
  const Spec* spec = nullptr;
  Engine* engine = nullptr;
  Model* model = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  std::atomic<int> phase{kWarmup};
};

/// One copied cursor entry (the cursor's slices die at its next move).
struct Entry {
  char key[16];
  size_t klen;
  char value[kValueBytes];
  size_t vlen;
  Timestamp ts;
};

class Client {
 public:
  Client(Shared* sh, int id, ClientStats* st)
      : sh_(sh),
        spec_(*sh->spec),
        m_(*sh->model),
        id_(id),
        st_(st),
        rng_(Mix(sh->seed) ^ Mix(static_cast<uint64_t>(id) + 1)) {}

  void Run() {
    Local();  // allocate trace accumulators before any timing
    Reserve();
    std::unique_ptr<Zipf> zipf;
    if (spec_.id == Workload::kCurrentHot) {
      zipf = std::make_unique<Zipf>(spec_.keys);
    } else if (spec_.id == Workload::kDurableIngest) {
      zipf = std::make_unique<Zipf>(Owned(spec_.keys));
    }
    zipf_ = zipf.get();
    entries_.resize(kScanKeys + 2);
    while (true) {
      const int phase = sh_->phase.load(std::memory_order_acquire);
      if (phase == kStop) break;
      window_ = phase == kWindow;
      traced_ = window_ && Enabled();
      switch (spec_.id) {
        case Workload::kCurrentHot:
          CurrentHot();
          break;
        case Workload::kTimeTravel:
          if (rng_.Uniform(10) < 8) {
            PastGet();
          } else {
            VersionWalk();
          }
          break;
        case Workload::kDurableIngest:
          IngestWrite();
          break;
        case Workload::kScanChurn:
          if (id_ == kClients - 1) {
            ChurnWrite();
          } else {
            Scan();
          }
          break;
        case Workload::kCrossShard:
          if (rng_.Uniform(2) == 0) {
            ShardWrite();
          } else {
            ShardGet();
          }
          break;
      }
    }
  }

 private:
  /// Preloaded keys this client owns for writing (ids == id_ mod 3).
  uint64_t Owned(uint64_t keys) const {
    return (keys + kClients - 1 - static_cast<uint64_t>(id_)) / kClients;
  }
  uint64_t OwnedId(uint64_t local) const {
    return local * kClients + static_cast<uint64_t>(id_);
  }

  void Reserve() {
    const double s = sh_->seconds;
    auto reserve = [&](Op op, double per_sec) {
      st_->lat[static_cast<int>(op)].reserve(static_cast<size_t>(s * per_sec));
    };
    switch (spec_.id) {
      case Workload::kCurrentHot:
        reserve(Op::kGet, 400000);
        break;
      case Workload::kTimeTravel:
        reserve(Op::kGet, 250000);
        reserve(Op::kWalk, 60000);
        break;
      case Workload::kDurableIngest:
        reserve(Op::kWrite, 40000);
        break;
      case Workload::kScanChurn:
        reserve(Op::kScan, 40000);
        reserve(Op::kWrite, 200000);
        break;
      case Workload::kCrossShard:
        reserve(Op::kShardGet, 100000);
        reserve(Op::kShardWrite, 20000);
        break;
    }
  }

  /// Books one finished op: latency (window only), outcome, throughput.
  void Record(Op op, uint64_t t0, uint64_t t1, const Status& s, bool write,
              uint64_t user_bytes) {
    st_->attempted++;
    if (!s.ok()) {
      st_->failed++;
      Problem("%s failed: %s", OpName(op), s.ToString().c_str());
    }
    if (write && s.ok()) st_->user_bytes += user_bytes;
    if (!window_) return;
    st_->window_ops++;
    (traced_ ? st_->traced_ops : st_->untraced_ops)++;
    if (write) {
      st_->window_writes++;
      if (s.IsTxnConflict()) st_->conflicts++;
      if (s.ok()) {
        st_->window_commits++;
        if (traced_) st_->traced_user_bytes += user_bytes;
      }
    }
    if (s.ok()) {
      const uint64_t ns = t1 - t0;
      st_->lat[static_cast<int>(op)].push_back(
          static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
    }
  }

  void Problem(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    if (st_->problems.size() > 2000) return;
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    st_->problems += "client " + std::to_string(id_) + ": " + buf + "\n";
  }

  void Wrong(const char* what, uint64_t key_id, Timestamp ts) {
    st_->wrong++;
    Problem("wrong result: %s (key %llu, ts %llu)", what,
            static_cast<unsigned long long>(key_id),
            static_cast<unsigned long long>(ts));
  }

  /// Checks a point-read result: the value matches its key, and its
  /// version is epoch `epoch` of the preload.
  void CheckPreloaded(const PinnableValue& pv, uint64_t key_id, int epoch) {
    uint64_t tag = 0;
    if (!ValueOk(pv.data().data(), pv.data().size(), key_id, &tag)) {
      Wrong("value does not match its key", key_id, pv.timestamp());
    } else if (tag != static_cast<uint64_t>(epoch) ||
               !m_.InEpoch(epoch, pv.timestamp())) {
      Wrong("version is not the expected load epoch", key_id, pv.timestamp());
    }
  }

  /// Checks a version seen at read time `as_of` under concurrent writes:
  /// the value matches its key; a preloaded version is the last epoch's;
  /// a written one is newer than the preload; and no acknowledged write
  /// at or below as_of (`acked`, read after the op) is missing.
  void CheckLatest(const char* value, size_t vlen, uint64_t key_id,
                   Timestamp ts, Timestamp as_of, Timestamp acked) {
    uint64_t tag = 0;
    const int last = m_.versions - 1;
    if (!ValueOk(value, vlen, key_id, &tag)) {
      Wrong("value does not match its key", key_id, ts);
    } else if (ts > as_of) {
      Wrong("version newer than the read time", key_id, ts);
    } else if (IsWriteTag(tag) ? ts <= m_.hi[last]
                               : (tag != static_cast<uint64_t>(last) ||
                                  !m_.InEpoch(last, ts))) {
      Wrong("version inconsistent with its tag", key_id, ts);
    } else if (acked != 0 && acked <= as_of && ts < acked) {
      Wrong("acknowledged write missing", key_id, ts);
    }
  }

  void CurrentHot() {
    const uint64_t id = zipf_->Next(&rng_);
    FormatKey(id, key_);
    Status s;
    const uint64_t t0 = NowNs();
    {
      OpScope scope(Op::kGet, traced_);
      s = sh_->engine->db->Get(ReadOptions(), Slice(key_, kKeyBytes), &pv_);
    }
    const uint64_t t1 = NowNs();
    if (s.ok()) CheckPreloaded(pv_, id, m_.versions - 1);
    Record(Op::kGet, t0, t1, s, false, 0);
  }

  void PastGet() {
    const uint64_t id = rng_.Uniform(spec_.keys);
    const int epoch = static_cast<int>(rng_.Uniform(m_.versions - 1));
    FormatKey(id, key_);
    ReadOptions ro;
    ro.as_of = m_.hi[epoch];
    Status s;
    const uint64_t t0 = NowNs();
    {
      OpScope scope(Op::kGet, traced_);
      s = sh_->engine->db->Get(ro, Slice(key_, kKeyBytes), &pv_);
    }
    const uint64_t t1 = NowNs();
    if (s.ok()) CheckPreloaded(pv_, id, epoch);
    Record(Op::kGet, t0, t1, s, false, 0);
  }

  void Copy(const VersionCursor& c, Entry* e) {
    e->klen = std::min(c.key().size(), sizeof(e->key));
    memcpy(e->key, c.key().data(), e->klen);
    // A value of the wrong size is kept as empty; ValueOk rejects it.
    e->vlen = c.value().size() == kValueBytes ? kValueBytes : 0;
    memcpy(e->value, c.value().data(), e->vlen);
    e->ts = c.ts();
  }

  /// Seek + NextVersion down to the oldest version of one key.
  void VersionWalk() {
    const uint64_t id = rng_.Uniform(spec_.keys);
    FormatKey(id, key_);
    Status s;
    size_t n = 0;
    const size_t cap = static_cast<size_t>(m_.versions) + 1;
    entries_.resize(std::max(entries_.size(), cap));
    const uint64_t t0 = NowNs();
    {
      OpScope scope(Op::kWalk, traced_);
      std::unique_ptr<VersionCursor> c;
      {
        CallScope call("NewCursor");
        c = sh_->engine->db->NewCursor(ReadOptions());
      }
      {
        CallScope call("Seek");
        s = c->Seek(Slice(key_, kKeyBytes));
      }
      while (s.ok() && c->Valid() && n < cap) {
        Copy(*c, &entries_[n++]);
        CallScope call("NextVersion");
        s = c->NextVersion();
      }
      scope.AddEntries(n);
      CallScope call("~VersionCursor");
      c.reset();
    }
    const uint64_t t1 = NowNs();
    if (s.ok()) {
      if (n != static_cast<size_t>(m_.versions)) {
        Wrong("version walk length", id, 0);
      }
      for (size_t i = 0; i < n && i < static_cast<size_t>(m_.versions); ++i) {
        const Entry& e = entries_[i];
        const int epoch = m_.versions - 1 - static_cast<int>(i);
        uint64_t kid = 0;
        uint64_t tag = 0;
        if (!ParseKey(e.key, e.klen, &kid) || kid != id) {
          Wrong("version walk left its key", id, e.ts);
        } else if (!ValueOk(e.value, e.vlen, id, &tag) ||
                   tag != static_cast<uint64_t>(epoch) ||
                   !m_.InEpoch(epoch, e.ts)) {
          Wrong("version walk out of order", id, e.ts);
        }
      }
    }
    Record(Op::kWalk, t0, t1, s, false, 0);
  }

  /// A 100-key scan: latest forward (50%), latest reverse (25%), or
  /// forward at the oldest load epoch (25%).
  void Scan() {
    const uint64_t start = rng_.Uniform(spec_.keys - kScanKeys + 1);
    const uint64_t kind = rng_.Uniform(4);
    const bool reverse = kind == 2;
    const bool oldest = kind == 3;
    char lo[kKeyBytes];
    char hi[kKeyBytes];
    FormatKey(start, lo);
    FormatKey(start + kScanKeys, hi);
    ReadOptions ro;
    if (oldest) ro.as_of = m_.hi[0];
    Status s;
    size_t n = 0;
    Timestamp as_of = 0;
    const uint64_t t0 = NowNs();
    {
      OpScope scope(Op::kScan, traced_);
      std::unique_ptr<VersionCursor> c;
      {
        CallScope call("NewCursor");
        c = sh_->engine->db->NewCursor(ro);
      }
      if (reverse) {
        {
          CallScope call("SeekForPrev");
          s = c->SeekForPrev(Slice(hi, kKeyBytes));
        }
        while (s.ok() && c->Valid() && n < kScanKeys) {
          Copy(*c, &entries_[n++]);
          if (n == kScanKeys) break;
          CallScope call("Prev");
          s = c->Prev();
        }
      } else {
        {
          CallScope call("SeekRange");
          s = c->SeekRange(Slice(lo, kKeyBytes), Slice(hi, kKeyBytes));
        }
        while (s.ok() && c->Valid() && n <= kScanKeys) {
          Copy(*c, &entries_[n++]);
          CallScope call("Next");
          s = c->Next();
        }
      }
      as_of = c->as_of();
      scope.AddEntries(n);
      CallScope call("~VersionCursor");
      c.reset();
    }
    const uint64_t t1 = NowNs();
    if (s.ok()) CheckScan(start, reverse, oldest, n, as_of);
    Record(Op::kScan, t0, t1, s, false, 0);
  }

  void CheckScan(uint64_t start, bool reverse, bool oldest, size_t n,
                 Timestamp as_of) {
    if (n != static_cast<size_t>(kScanKeys)) {
      Wrong("scan returned the wrong number of keys", start, as_of);
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      const Entry& e = entries_[i];
      const uint64_t want = reverse ? start + kScanKeys - 1 - i : start + i;
      uint64_t kid = 0;
      if (!ParseKey(e.key, e.klen, &kid) || kid != want) {
        Wrong("scan key out of order", want, e.ts);
        return;
      }
      if (oldest) {
        uint64_t tag = 0;
        if (!ValueOk(e.value, e.vlen, kid, &tag) || tag != 0 ||
            !m_.InEpoch(0, e.ts)) {
          Wrong("oldest-epoch scan value", kid, e.ts);
        }
      } else {
        CheckLatest(e.value, e.vlen, kid, e.ts, as_of,
                    m_.last_acked[kid].load(std::memory_order_acquire));
      }
    }
  }

  /// Fills `ids` with `count` distinct keys drawn by `draw`.
  template <typename Draw>
  void DrawDistinct(int count, uint64_t* ids, Draw&& draw) {
    for (int i = 0; i < count; ++i) {
      bool dup;
      do {
        ids[i] = draw();
        dup = std::find(ids, ids + i, ids[i]) != ids + i;
      } while (dup);
    }
  }

  void FillBatch(const uint64_t* ids, int count, uint64_t tag) {
    batch_.Clear();
    char value[kValueBytes];
    for (int i = 0; i < count; ++i) {
      FormatKey(ids[i], key_);
      FormatValue(ids[i], tag, value);
      batch_.Put(Slice(key_, kKeyBytes), Slice(value, kValueBytes));
    }
  }

  /// Timed Write of batch_; returns its status and commit timestamp.
  Status TimedWrite(Op op, int count, uint64_t tag, const uint64_t* ids,
                    Timestamp* ts) {
    Status s;
    const uint64_t t0 = NowNs();
    {
      OpScope scope(op, traced_);
      s = sh_->engine->Write(batch_, ts);
    }
    const uint64_t t1 = NowNs();
    Record(op, t0, t1, s, true,
           static_cast<uint64_t>(count) * (kKeyBytes + kValueBytes));
    if (s.ok() && seq_ % kWriteSampleEvery == 0) {
      for (int i = 0; i < count; ++i) st_->acked.push_back({ids[i], tag, *ts});
    }
    seq_++;
    return s;
  }

  /// 8 keys: 90% Zipf-hot updates of this client's preloaded keys, 10%
  /// new keys (this client's ids above the preload).
  void IngestWrite() {
    uint64_t ids[kWriteKeys];
    DrawDistinct(kWriteKeys, ids, [&] {
      if (rng_.Uniform(10) == 0) {
        return spec_.keys + OwnedId(new_keys_++);
      }
      return OwnedId(zipf_->Next(&rng_));
    });
    const uint64_t tag = WriteTag(id_, seq_);
    FillBatch(ids, kWriteKeys, tag);
    Timestamp ts = 0;
    TimedWrite(Op::kWrite, kWriteKeys, tag, ids, &ts);
  }

  /// The scan_churn writer: 8 uniform updates of preloaded keys.
  void ChurnWrite() {
    uint64_t ids[kWriteKeys];
    DrawDistinct(kWriteKeys, ids, [&] { return rng_.Uniform(spec_.keys); });
    const uint64_t tag = WriteTag(id_, seq_);
    FillBatch(ids, kWriteKeys, tag);
    Timestamp ts = 0;
    if (TimedWrite(Op::kWrite, kWriteKeys, tag, ids, &ts).ok()) {
      for (uint64_t id : ids) {
        m_.last_acked[id].store(ts, std::memory_order_release);
      }
    }
  }

  /// 4 uniform keys from this client's share of the key space; with 4
  /// shards almost every batch spans several of them.
  void ShardWrite() {
    uint64_t ids[kShardWriteKeys];
    const uint64_t owned = Owned(spec_.keys);
    DrawDistinct(kShardWriteKeys, ids,
                 [&] { return OwnedId(rng_.Uniform(owned)); });
    const uint64_t tag = WriteTag(id_, seq_);
    FillBatch(ids, kShardWriteKeys, tag);
    bool multi = false;
    char k[kKeyBytes];
    FormatKey(ids[0], k);
    const uint32_t home = sh_->engine->sdb->ShardOf(Slice(k, kKeyBytes));
    for (int i = 1; i < kShardWriteKeys; ++i) {
      FormatKey(ids[i], k);
      multi |= sh_->engine->sdb->ShardOf(Slice(k, kKeyBytes)) != home;
    }
    Timestamp ts = 0;
    const Status s =
        TimedWrite(Op::kShardWrite, kShardWriteKeys, tag, ids, &ts);
    if (window_) {
      st_->shard_batches++;
      if (multi) st_->multi_shard++;
    }
    if (s.ok()) {
      for (uint64_t id : ids) {
        m_.last_acked[id].store(ts, std::memory_order_release);
      }
    }
  }

  void ShardGet() {
    const uint64_t id = rng_.Uniform(spec_.keys);
    FormatKey(id, key_);
    // Bounds for the check, read outside the timer: the watermark before
    // the read lower-bounds its read time, the one after upper-bounds it.
    const Timestamp acked = m_.last_acked[id].load(std::memory_order_acquire);
    const Timestamp before = sh_->engine->Now();
    Status s;
    const uint64_t t0 = NowNs();
    {
      OpScope scope(Op::kShardGet, traced_);
      s = sh_->engine->sdb->Get(ReadOptions(), Slice(key_, kKeyBytes), &pv_);
    }
    const uint64_t t1 = NowNs();
    if (s.ok()) {
      const Timestamp after = sh_->engine->Now();
      CheckLatest(pv_.data().data(), pv_.data().size(), id, pv_.timestamp(),
                  after, acked <= before ? acked : 0);
    }
    Record(Op::kShardGet, t0, t1, s, false, 0);
  }

  Shared* sh_;
  const Spec& spec_;
  Model& m_;
  const int id_;
  ClientStats* st_;
  tsb::Random rng_;
  const Zipf* zipf_ = nullptr;
  bool window_ = false;
  bool traced_ = false;
  uint64_t seq_ = 0;
  uint64_t new_keys_ = 0;
  char key_[kKeyBytes];
  PinnableValue pv_;
  WriteBatch batch_;
  std::vector<Entry> entries_;
};

// ------------------------------------------------------------ snapshots

struct Snap {
  tsb::BufferPoolStats pool;
  tsb::HistReadStats hist;
  uint64_t key_splits = 0;
  uint64_t time_splits = 0;
  uint64_t index_splits = 0;
  uint64_t migrated = 0;
  uint64_t olc_restarts = 0;
  uint64_t olc_sidesteps = 0;
  uint64_t stamp_descents = 0;
  uint64_t serial_fallback = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
  uint64_t coord_syncs = 0;
  uint64_t checkpoints = 0;
  double cpu_s = 0;
};

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Snap TakeSnap(Engine* e, const Hooks* hooks) {
  Snap s;
  for (MultiVersionDB* db : e->Parts()) {
    s.pool.Add(db->PoolStats());
    s.hist.Add(db->HistStats());
    const tsb::tsb_tree::TsbCounters& c = db->primary()->counters();
    s.key_splits += c.data_key_splits;
    s.time_splits += c.data_time_splits;
    s.index_splits += c.index_key_splits + c.index_time_splits;
    s.migrated += c.records_migrated;
    s.olc_restarts += c.olc_restarts;
    s.olc_sidesteps += c.olc_sidesteps;
    s.stamp_descents += c.stamp_descents;
    s.serial_fallback += db->txn_manager()->serial_fallback_commits();
  }
  if (hooks != nullptr) {
    s.wal_appends = hooks->wal->ops(FaultOp::kAppend);
    s.wal_syncs = hooks->wal->ops(FaultOp::kSync);
    s.coord_syncs = hooks->coord->ops(FaultOp::kSync);
  }
  s.checkpoints = MagneticSyncs();
  s.cpu_s = CpuSeconds();
  return s;
}

// ------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< what a ratio is taken over (layers file only)
};

double Percentile(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0;
  // Linear interpolation between the two closest ranks.
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  std::nth_element(v->begin(), v->begin() + lo, v->end());
  const double a = (*v)[lo];
  if (lo + 1 >= v->size()) return a;
  const double b = *std::min_element(v->begin() + lo + 1, v->end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void PrintMetrics(const std::string& workload,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    printf("%s %s %.10g %s\n", workload.c_str(), m.name.c_str(), m.value,
           m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_base) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    snprintf(buf, sizeof(buf), "%.10g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"";
    if (with_base) out += ", \"base\": \"" + m.base + "\"";
    out += "}";
  }
  return out + "}";
}

// ------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string out;
};

int Usage(const char* msg) {
  fprintf(stderr,
          "tsb_e2e: %s\nusage: tsb_e2e --workload W --seed N --seconds S "
          "[--trace 0|1] --dir DBDIR --out OUTDIR\n"
          "workloads: current_hot time_travel durable_ingest scan_churn "
          "cross_shard\n",
          msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = strtol(v, &end, 10) != 0;
    } else if (flag == "--dir") {
      a->dir = v;
    } else if (flag == "--out") {
      a->out = v;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return !a->workload.empty() && !a->dir.empty() && !a->out.empty() &&
         a->seconds > 0;
}

/// Reports a setup or teardown failure; returns the exit code for it.
int Fail(const char* what, const Status& s) {
  fprintf(stderr, "tsb_e2e: %s: %s\n", what, s.ToString().c_str());
  return 2;
}

/// Reads every sampled acknowledged write back at its commit timestamp.
uint64_t Readback(Engine* e, const std::vector<Acked>& acked,
                  const char* when, std::string* problems) {
  uint64_t wrong = 0;
  PinnableValue pv;
  char key[kKeyBytes];
  for (const Acked& a : acked) {
    FormatKey(a.key, key);
    ReadOptions ro;
    ro.as_of = a.ts;
    const Status s = e->Get(ro, Slice(key, kKeyBytes), &pv);
    uint64_t tag = 0;
    if (!s.ok() || !ValueOk(pv.data().data(), pv.data().size(), a.key, &tag) ||
        tag != a.tag || pv.timestamp() != a.ts) {
      if (++wrong <= 5) {
        *problems += std::string("readback ") + when + ": key " +
                     std::to_string(a.key) + " at ts " + std::to_string(a.ts) +
                     " -> " + s.ToString() + "\n";
      }
    }
  }
  return wrong;
}

/// One setup: a bulk open + preload, a clean close, and the reopen with
/// the workload's own options that the window runs on. `*seconds` gets
/// its wall time.
Status Setup(const Spec& spec, const std::string& path, const Hooks* hooks,
             Engine* e, Model* m, double* seconds) {
  TSB_RETURN_IF_ERROR(DestroyEngine(spec, path));
  const uint64_t t0 = NowNs();
  Status s = OpenEngine(spec, path, hooks, /*bulk=*/true, e);
  if (s.ok()) s = Preload(spec, e, m);
  e->Close();
  if (s.ok()) s = OpenEngine(spec, path, hooks, /*bulk=*/false, e);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) return Usage("unknown workload");

  const std::string path =
      args.dir + "/tsb_e2e-" + std::to_string(::getpid());
  Hooks hooks_storage{std::make_shared<FaultPlan>(),
                      std::make_shared<FaultPlan>()};
  const Hooks* hooks = args.trace ? &hooks_storage : nullptr;

  // ---- the measured database; setup_s also times kSetups - 1 more setups,
  // run after the window so this one starts from a fresh heap.
  Engine engine;
  Model model;
  std::vector<double> setup_s(1);
  Status s = Setup(*spec, path, hooks, &engine, &model, &setup_s[0]);
  if (!s.ok()) {
    engine.Close();
    DestroyEngine(*spec, path);
    return Fail("setup", s);
  }
  model.last_acked = std::make_unique<std::atomic<Timestamp>[]>(spec->keys);
  for (uint64_t i = 0; i < spec->keys; ++i) model.last_acked[i].store(0);

  // ---- closed loop
  Shared sh;
  sh.spec = spec;
  sh.engine = &engine;
  sh.model = &model;
  sh.seed = args.seed;
  sh.seconds = args.seconds;
  std::vector<ClientStats> stats(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&sh, &stats, c] { Client(&sh, c, &stats[c]).Run(); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const Snap before = TakeSnap(&engine, hooks);
  const uint64_t w0 = NowNs();
  sh.phase.store(kWindow, std::memory_order_release);
  const uint64_t window_ns = static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t traced_ns = 0;
  uint64_t untraced_ns = 0;
  if (args.trace) {
    // Alternate untraced and traced slices so both see the same database
    // state; trace_overhead compares their throughputs.
    bool on = false;
    for (uint64_t now = w0; now - w0 < window_ns; now = NowNs()) {
      SetEnabled(on);
      const uint64_t slice = std::min(kSliceNs, window_ns - (now - w0));
      std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
      (on ? traced_ns : untraced_ns) += NowNs() - now;
      on = !on;
    }
    SetEnabled(false);
  } else {
    std::this_thread::sleep_for(std::chrono::nanoseconds(window_ns));
  }
  sh.phase.store(kStop, std::memory_order_release);
  const uint64_t w1 = NowNs();
  const Snap after = TakeSnap(&engine, hooks);
  for (std::thread& t : threads) t.join();
  const double window_s = static_cast<double>(w1 - w0) / 1e9;
  const double peak_rss = PeakRssMb();

  // ---- fold client stats
  ClientStats all;
  std::vector<uint32_t> lat[static_cast<int>(Op::kNumOps)];
  std::vector<Acked> acked = model.acked;
  for (ClientStats& st : stats) {
    for (int op = 0; op < static_cast<int>(Op::kNumOps); ++op) {
      lat[op].insert(lat[op].end(), st.lat[op].begin(), st.lat[op].end());
    }
    all.window_ops += st.window_ops;
    all.traced_ops += st.traced_ops;
    all.untraced_ops += st.untraced_ops;
    all.attempted += st.attempted;
    all.failed += st.failed;
    all.wrong += st.wrong;
    all.window_writes += st.window_writes;
    all.window_commits += st.window_commits;
    all.conflicts += st.conflicts;
    all.multi_shard += st.multi_shard;
    all.shard_batches += st.shard_batches;
    all.user_bytes += st.user_bytes;
    all.traced_user_bytes += st.traced_user_bytes;
    acked.insert(acked.end(), st.acked.begin(), st.acked.end());
    all.problems += st.problems;
  }
  if (acked.size() > kMaxReadback) {
    // Keep an evenly strided sample, always including the last writes.
    std::vector<Acked> sample;
    const double stride =
        static_cast<double>(acked.size()) / static_cast<double>(kMaxReadback);
    for (size_t i = 0; i < kMaxReadback; ++i) {
      sample.push_back(acked[acked.size() - 1 -
                             static_cast<size_t>(static_cast<double>(i) *
                                                 stride)]);
    }
    acked.swap(sample);
  }

  // ---- space, then readback before and after a clean reopen
  tsb::tsb_tree::SpaceStats space;
  for (MultiVersionDB* db : engine.Parts()) {
    tsb::tsb_tree::SpaceStats part;
    const Status s = db->ComputeSpaceStats(&part);
    if (!s.ok()) return Fail("space stats", s);
    space.magnetic_bytes += part.magnetic_bytes;
    space.magnetic_used_bytes += part.magnetic_used_bytes;
    space.optical_device_bytes += part.optical_device_bytes;
    space.logical_versions += part.logical_versions;
    space.physical_record_copies += part.physical_record_copies;
  }
  uint64_t wrong_readback = Readback(&engine, acked, "before reopen",
                                     &all.problems);
  engine.Close();
  s = OpenEngine(*spec, path, nullptr, /*bulk=*/false, &engine);
  if (!s.ok()) return Fail("reopen", s);
  wrong_readback += Readback(&engine, acked, "after reopen", &all.problems);
  engine.Close();
  s = DestroyEngine(*spec, path);
  if (!s.ok()) return Fail("destroy", s);
  while (setup_s.size() < static_cast<size_t>(kSetups)) {
    Engine extra;
    Model unused;
    setup_s.push_back(0);
    s = Setup(*spec, path, hooks, &extra, &unused, &setup_s.back());
    extra.Close();
    if (s.ok()) s = DestroyEngine(*spec, path);
    if (!s.ok()) return Fail("setup", s);
  }

  const uint64_t wrong = all.wrong + wrong_readback;
  if (!all.problems.empty()) fputs(all.problems.c_str(), stderr);

  // ---- metrics
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit,
                 const std::string& base = "") {
    metrics.push_back({name, value, unit, base});
  };
  const double ops = static_cast<double>(all.window_ops);
  const double user_bytes =
      static_cast<double>(model.user_bytes + all.user_bytes);
  if (!args.trace) {
    std::vector<double> sorted = setup_s;
    std::sort(sorted.begin(), sorted.end());
    add("setup_s", sorted[sorted.size() / 2], "s");
    add("ops_per_s", ops / window_s, "1/s");
    std::vector<uint32_t>& primary = lat[static_cast<int>(spec->primary)];
    add("op_p50_us", Percentile(&primary, 0.50) / 1e3, "us");
    add("op_p99_us", Percentile(&primary, 0.99) / 1e3, "us");
    add("cpu_us_per_op", Ratio((after.cpu_s - before.cpu_s) * 1e6, ops), "us");
    add("peak_rss_mb", peak_rss, "MB");
    add("space_amp",
        Ratio(static_cast<double>(space.magnetic_bytes +
                                  space.optical_device_bytes),
              user_bytes),
        "ratio");
    // Per operation kind, for information and for compare.py.
    struct Named {
      const char* prefix;
      Op a, b;
    };
    const Named named[] = {{"get", Op::kGet, Op::kShardGet},
                           {"history", Op::kWalk, Op::kWalk},
                           {"scan", Op::kScan, Op::kScan},
                           {"write", Op::kWrite, Op::kShardWrite}};
    for (const Named& n : named) {
      std::vector<uint32_t> v = lat[static_cast<int>(n.a)];
      if (n.b != n.a) {
        const auto& w = lat[static_cast<int>(n.b)];
        v.insert(v.end(), w.begin(), w.end());
      }
      if (v.empty()) continue;
      const std::string p = n.prefix;
      add(p + "_p50_us", Percentile(&v, 0.50) / 1e3, "us");
      add(p + "_p99_us", Percentile(&v, 0.99) / 1e3, "us");
      add(p + "_p999_us", Percentile(&v, 0.999) / 1e3, "us");
      add(p + "_samples", static_cast<double>(v.size()), "count");
    }
    add("failed_ratio",
        Ratio(static_cast<double>(all.failed),
              static_cast<double>(all.attempted)),
        "ratio");
    // Database size after the window, to compare with the caches.
    add("current_mb", static_cast<double>(space.magnetic_bytes) / (1 << 20),
        "MB");
    add("history_mb",
        static_cast<double>(space.optical_device_bytes) / (1 << 20), "MB");
  } else {
    // ---- per-layer metrics from the traced slices and counter deltas
    const std::vector<const ThreadTrace*> threads_tr = AllThreads();
    OpAcc opacc[static_cast<int>(Op::kNumOps)];
    DevAcc dev[static_cast<int>(Role::kNumRoles)]
              [static_cast<int>(DevCall::kNumCalls)];
    for (const ThreadTrace* t : threads_tr) {
      for (int o = 0; o < static_cast<int>(Op::kNumOps); ++o) {
        opacc[o].count += t->ops[o].count;
        opacc[o].ns += t->ops[o].ns;
        opacc[o].device_ns += t->ops[o].device_ns;
        opacc[o].entries += t->ops[o].entries;
      }
      for (int r = 0; r < static_cast<int>(Role::kNumRoles); ++r) {
        for (int c = 0; c < static_cast<int>(DevCall::kNumCalls); ++c) {
          dev[r][c].calls += t->dev[r][c].calls;
          dev[r][c].bytes += t->dev[r][c].bytes;
          dev[r][c].ns += t->dev[r][c].ns;
        }
      }
    }
    auto self_us = [&](Op op) {
      const OpAcc& a = opacc[static_cast<int>(op)];
      return Ratio(static_cast<double>(a.ns - std::min(a.device_ns, a.ns)),
                   static_cast<double>(a.count)) /
             1e3;
    };
    auto d = [&](Role r, DevCall c) -> const DevAcc& {
      return dev[static_cast<int>(r)][static_cast<int>(c)];
    };
    const double traced_ops = static_cast<double>(all.traced_ops);
    const double traced_ub = static_cast<double>(all.traced_user_bytes);
    const double commits = static_cast<double>(all.window_commits);
    const double writes = static_cast<double>(all.window_writes);
    const auto& scan = opacc[static_cast<int>(Op::kScan)];
    const auto& walk = opacc[static_cast<int>(Op::kWalk)];
    const double cursor_ns = static_cast<double>(
        scan.ns + walk.ns - std::min(scan.device_ns + walk.device_ns,
                                     scan.ns + walk.ns));

    add("db.get.self_us", self_us(Op::kGet), "us",
        "(Get span - device spans) / traced Gets");
    add("db.write.self_us", self_us(Op::kWrite), "us",
        "(Write span - device spans) / traced Writes");
    add("db.cursor.self_us_per_entry",
        Ratio(cursor_ns, static_cast<double>(scan.entries + walk.entries)) /
            1e3,
        "us", "(cursor op spans - device spans) / entries emitted");

    const double hits = static_cast<double>(after.pool.hits - before.pool.hits);
    const double misses =
        static_cast<double>(after.pool.misses - before.pool.misses);
    add("storage.buffer_pool.hit_ratio",
        hits + misses == 0 ? 1.0 : hits / (hits + misses), "ratio",
        "hits / lookups (1 when none)");
    add("storage.buffer_pool.misses_per_op", Ratio(misses, ops), "count/op",
        "misses / window ops");
    add("storage.buffer_pool.evictions_per_op",
        Ratio(static_cast<double>(after.pool.evictions -
                                  before.pool.evictions),
              ops),
        "count/op", "evictions / window ops");
    add("storage.buffer_pool.dirty_writebacks",
        static_cast<double>(after.pool.dirty_writebacks -
                            before.pool.dirty_writebacks),
        "count", "dirty frames written back during the window");

    const DevAcc& mr = d(Role::kMagnetic, DevCall::kRead);
    const DevAcc& mm = d(Role::kMagnetic, DevCall::kReadMapped);
    const DevAcc& mw = d(Role::kMagnetic, DevCall::kWrite);
    const DevAcc& hr = d(Role::kHistorical, DevCall::kRead);
    const DevAcc& hm = d(Role::kHistorical, DevCall::kReadMapped);
    const DevAcc& hw = d(Role::kHistorical, DevCall::kWrite);
    add("storage.magnetic.reads_per_op",
        Ratio(static_cast<double>(mr.calls + mm.calls), traced_ops),
        "count/op", "magnetic Read+ReadMapped calls / traced ops");
    add("storage.magnetic.read_us_per_op",
        Ratio(static_cast<double>(mr.ns + mm.ns) / 1e3, traced_ops), "us",
        "magnetic read time / traced ops");
    add("storage.magnetic.write_bytes_per_user_byte",
        Ratio(static_cast<double>(mw.bytes), traced_ub), "B/B",
        "magnetic bytes written / user bytes committed (traced)");
    add("storage.historical.pins_per_op",
        Ratio(static_cast<double>(hm.calls), traced_ops), "count/op",
        "historical ReadMapped pins / traced ops");
    add("storage.historical.read_us_per_op",
        Ratio(static_cast<double>(hr.ns + hm.ns) / 1e3, traced_ops), "us",
        "historical Read+ReadMapped time / traced ops (excludes later "
        "page faults on mapped bytes)");
    add("storage.historical.append_bytes_per_user_byte",
        Ratio(static_cast<double>(hw.bytes), traced_ub), "B/B",
        "historical bytes appended / user bytes committed (traced)");
    const DevAcc& ms = d(Role::kMagnetic, DevCall::kSync);
    const DevAcc& hs = d(Role::kHistorical, DevCall::kSync);
    add("storage.sync.count", static_cast<double>(ms.calls + hs.calls),
        "count", "device Sync calls in traced slices");
    add("storage.sync.us_total", static_cast<double>(ms.ns + hs.ns) / 1e3,
        "us", "device Sync time in traced slices");

    const double bh =
        static_cast<double>(after.hist.cache_hits - before.hist.cache_hits);
    const double bm =
        static_cast<double>(after.hist.cache_misses - before.hist.cache_misses);
    add("storage.blob_cache.hit_ratio", bh + bm == 0 ? 1.0 : bh / (bh + bm),
        "ratio", "blob cache hits / lookups (1 when none)");
    add("storage.blob.mapped_bytes_per_op",
        Ratio(static_cast<double>(after.hist.mapped_bytes -
                                  before.hist.mapped_bytes),
              ops),
        "B/op", "cache-miss bytes pinned from the mapping / window ops");
    add("storage.blob.copied_bytes_per_op",
        Ratio(static_cast<double>(after.hist.copied_bytes -
                                  before.hist.copied_bytes),
              ops),
        "B/op", "cache-miss bytes copied to the heap / window ops");
    add("storage.hist.compression_ratio", after.hist.compression_ratio(),
        "ratio",
        "stored / raw bytes of historical nodes written since the reopen "
        "(1 when none)");

    add("tsb.data_key_splits",
        static_cast<double>(after.key_splits - before.key_splits), "count",
        "window delta");
    add("tsb.data_time_splits",
        static_cast<double>(after.time_splits - before.time_splits), "count",
        "window delta");
    add("tsb.index_splits",
        static_cast<double>(after.index_splits - before.index_splits),
        "count", "index key + time splits, window delta");
    add("tsb.records_migrated_per_commit",
        Ratio(static_cast<double>(after.migrated - before.migrated), commits),
        "count/op", "record versions migrated / window commits");
    add("tsb.redundancy", space.redundancy(), "ratio",
        "physical record copies / logical versions, after the window");
    add("tsb.magnetic_fill",
        Ratio(static_cast<double>(space.magnetic_used_bytes),
              static_cast<double>(space.magnetic_bytes)),
        "ratio", "used / allocated magnetic bytes, after the window");
    add("tsb.olc_restarts_per_write",
        Ratio(static_cast<double>(after.olc_restarts - before.olc_restarts),
              writes),
        "count/op", "OLC descent restarts / window writes");
    add("tsb.olc_sidesteps_per_write",
        Ratio(static_cast<double>(after.olc_sidesteps - before.olc_sidesteps),
              writes),
        "count/op", "OLC B-link side-steps / window writes");
    add("tsb.stamp_descents_per_commit",
        Ratio(static_cast<double>(after.stamp_descents -
                                  before.stamp_descents),
              commits),
        "count/op", "stamping leaf descents / window commits");
    add("tsb.view_decodes_per_op",
        Ratio(static_cast<double>(after.hist.view_decodes -
                                  before.hist.view_decodes),
              ops),
        "count/op", "zero-copy historical node parses / window ops");
    add("tsb.owned_decodes",
        static_cast<double>(after.hist.owned_decodes -
                            before.hist.owned_decodes),
        "count", "owning historical node decodes, window delta (must be 0)");

    add("txn.conflict_ratio",
        Ratio(static_cast<double>(all.conflicts), writes), "ratio",
        "TxnConflict / window writes");
    add("txn.serial_fallback_commits",
        static_cast<double>(after.serial_fallback - before.serial_fallback),
        "count", "window delta");

    add("wal.appends_per_commit",
        Ratio(static_cast<double>(after.wal_appends - before.wal_appends),
              commits),
        "count/op", "WAL frame appends / window commits");
    add("wal.syncs_per_commit",
        Ratio(static_cast<double>(after.wal_syncs - before.wal_syncs),
              commits),
        "count/op", "WAL fdatasyncs / window commits");
    add("wal.checkpoints",
        static_cast<double>(after.checkpoints - before.checkpoints), "count",
        "checkpoints in the window (magnetic device syncs)");

    add("shard.multi_shard_ratio",
        Ratio(static_cast<double>(all.multi_shard),
              static_cast<double>(all.shard_batches)),
        "ratio", "batches spanning >1 shard (ShardOf) / sharded batches");
    add("shard.coord_syncs_per_multi_commit",
        Ratio(static_cast<double>(after.coord_syncs - before.coord_syncs),
              static_cast<double>(all.multi_shard)),
        "count/op", "coordinator-log fdatasyncs / multi-shard batches");
    add("shard.write.self_us", self_us(Op::kShardWrite), "us",
        "(ShardedDB Write span - device spans) / traced Writes");

    const double traced_rate =
        Ratio(traced_ops, static_cast<double>(traced_ns) / 1e9);
    const double untraced_rate =
        Ratio(static_cast<double>(all.untraced_ops),
              static_cast<double>(untraced_ns) / 1e9);
    add("trace_overhead",
        untraced_rate == 0 ? 0 : 1 - traced_rate / untraced_rate, "ratio",
        "1 - traced / untraced ops_per_s, alternating slices");
    add("ops_per_s.traced", traced_rate, "1/s", "");
    add("ops_per_s.untraced", untraced_rate, "1/s", "");

    uint64_t spans = 0;
    uint64_t sampled = 0;
    uint64_t dropped = 0;
    for (const ThreadTrace* t : threads_tr) {
      spans += t->spans.size();
      sampled += t->sampled_requests;
      dropped += t->dropped_requests;
    }
    add("trace.spans", static_cast<double>(spans), "count", "");
    add("trace.sampled_requests", static_cast<double>(sampled), "count", "");
    add("trace.dropped_requests", static_cast<double>(dropped), "count", "");

    ::mkdir(args.out.c_str(), 0755);
    const std::string layers = args.out + "/layers-" + spec->name + ".json";
    FILE* f = fopen(layers.c_str(), "w");
    if (f != nullptr) {
      fprintf(f,
              "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
              "\"wal_sync\": \"%s\", \"metrics\": %s}\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              window_s, SyncName(spec->sync),
              MetricsJson(metrics, true).c_str());
      fclose(f);
    }
    const std::string trace = args.out + "/trace-" + spec->name + ".json";
    if (f == nullptr || !WriteChromeTrace(trace, spec->name)) {
      fprintf(stderr, "tsb_e2e: cannot write %s or %s\n", layers.c_str(),
              trace.c_str());
      return 2;
    }
  }
  add("wrong_results", static_cast<double>(wrong), "count");

  PrintMetrics(spec->name, metrics);
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         wrong == 0 ? "true" : "false",
         static_cast<unsigned long long>(all.attempted),
         static_cast<unsigned long long>(all.failed),
         MetricsJson(metrics, false).c_str());
  fflush(stdout);
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
