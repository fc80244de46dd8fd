// Chaos harness: one oracle, three ways to break the storage stack.
//   chaos_harness --fault=kill|io|silent [--shards N] [--cycles N]
//                 [--batch N] [--checkpoint-bytes N] [--seed N] [--path DIR]
// The oracle holds every acked version as key -> {ts -> value}, the
// batches whose Write() failed and each writer's acked frontier; Verify()
// checks it against a MultiVersionDB or, with --shards, a ShardedDB.
//   kill    SIGKILL a child committing from 4 writers, each appending a
//           line to an O_APPEND ack file only after Write() returned, then
//           reopen and Verify(). --checkpoint-bytes sets
//           DbOptions::wal_checkpoint_bytes and aims each kill at a
//           checkpoint (shard-000's with --shards): wait for current.tsb to
//           change (under no-steal only a checkpoint writes it) or for
//           checkpoint.tsb, then kill within 0-5 ms. The run fails unless
//           some reopen found a journal or orphan slots.
//   io      A FaultPlan breaks WAL syncs/appends or checkpoint page writes
//           under 4 writers; heal, Resume(), write, Verify(), reopen,
//           Verify().
//   silent  A fault the device acks (bit flip, misdirected or lost write)
//           hits a checkpoint; Scrub() must detect every cycle whose
//           fault fired and stay silent on the others, no read may return
//           wrong bytes, and salvage must recover every acked record.
// Each mode's default seed replays its historical schedule (kill 0x5eed,
// io 0xd15c, silent 0x5cab). Exit 0 = contract upheld, 1 = a violation,
// 64 = bad command line.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/multiversion_db.h"
#include "db/salvage.h"
#include "shard/sharded_db.h"
#include "storage/fault_device.h"
#include "tsb/tree_check.h"

namespace {

using tsb::Fault;
using tsb::FaultInjectingDevice;
using tsb::FaultKind;
using tsb::FaultOp;
using tsb::FaultPlan;
using tsb::Status;
using tsb::Timestamp;
using tsb::db::DbOptions;
using tsb::db::MultiVersionDB;
using tsb::db::ScrubStats;
using tsb::db::WriteBatch;
using tsb::shard::ShardedDB;
using tsb::shard::ShardedOptions;

constexpr int kWriters = 4;
constexpr int kMinRunMs = 20;    // kill: child runtime before the SIGKILL
constexpr int kMaxRunMs = 250;
constexpr int kAttempts = 24;    // io: commit attempts per writer per cycle
constexpr int kRecords = 200;    // silent: records loaded per cycle

enum class Mode { kKill, kIo, kSilent };

struct Config {
  Mode mode = Mode::kKill;
  int shards = 0;  // 0 = one MultiVersionDB
  int cycles = 50;
  int batch = 0;  // 0 = the mode's default
  int checkpoint_bytes = 0;  // 0 = the DbOptions default
  uint32_t seed = 0;
  bool seed_set = false;
  std::string path;
};

// ---------------------------------------------------------------- oracle

/// One client batch: writer `writer`'s `seq`-th Write() of cycle `cycle`.
struct BatchId {
  int cycle;
  int writer;
  int seq;
};

std::string Key(const BatchId& b, int i) {
  char buf[48];
  snprintf(buf, sizeof(buf), "c%03d-w%02d-s%06d-k%d", b.cycle, b.writer,
           b.seq, i);
  return buf;
}

std::string Value(const std::string& key, int gen = 0) {
  std::string v = "value-" + key + "-g" + std::to_string(gen) + "-";
  v.append(32, 'x');
  return v;
}

WriteBatch MakeBatch(const BatchId& b, int keys) {
  WriteBatch batch;
  for (int i = 0; i < keys; ++i) batch.Put(Key(b, i), Value(Key(b, i)));
  return batch;
}

struct Oracle {
  int batch = 0;  // keys per batch
  std::map<std::string, std::map<Timestamp, std::string>> acked;
  std::vector<BatchId> rejected;
  std::map<std::pair<int, int>, int> frontier;  // (cycle, writer) -> seq
  size_t acked_batches = 0;

  void Ack(const BatchId& b, Timestamp ts) {
    ++acked_batches;
    for (int i = 0; i < batch; ++i) acked[Key(b, i)][ts] = Value(Key(b, i));
    auto [it, inserted] = frontier.emplace(std::pair(b.cycle, b.writer), b.seq);
    if (!inserted && it->second < b.seq) it->second = b.seq;
  }
};

void Report(int* failures, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  fprintf(stderr, "FAIL ");
  vfprintf(stderr, fmt, args);
  fputc('\n', stderr);
  va_end(args);
  ++*failures;
}

/// Reports a non-OK `s` as a violation; returns s.ok().
bool Ok(int* failures, const Status& s, const std::string& what) {
  if (!s.ok()) Report(failures, "%s: %s", what.c_str(), s.ToString().c_str());
  return s.ok();
}

/// The MultiVersionDBs a database is made of: itself, or every shard.
std::vector<MultiVersionDB*> Parts(MultiVersionDB* db) { return {db}; }
std::vector<MultiVersionDB*> Parts(ShardedDB* db) {
  std::vector<MultiVersionDB*> parts;
  for (uint32_t s = 0; s < db->num_shards(); ++s) parts.push_back(db->shard(s));
  return parts;
}

/// Every acked version reads back at its ts, with that ts; every rejected
/// batch is absent; each of the two batches past a writer's frontier,
/// whose outcome the client never learned, recovered all of its keys or
/// none; every tree (each shard's) passes TreeChecker with checksums; and
/// Scrub() is clean, since nothing was corrupted, only interrupted.
/// Returns the violations.
template <typename DB>
int Verify(DB* db, const Oracle& oracle, const std::string& ctx) {
  const char* when = ctx.c_str();
  int failures = 0;
  for (const auto& [key, versions] : oracle.acked) {
    for (const auto& [ts, value] : versions) {
      std::string got;
      Timestamp version_ts = 0;
      Status s = db->Get({.as_of = ts}, key, &got, &version_ts);
      if (!s.ok() || got != value || version_ts != ts) {
        Report(&failures, "%s: acked %s @%llu lost or mangled (%s, @%llu)",
               when, key.c_str(), (unsigned long long)ts, s.ToString().c_str(),
               (unsigned long long)version_ts);
      }
    }
  }
  for (const BatchId& b : oracle.rejected) {
    for (int i = 0; i < oracle.batch; ++i) {
      std::string got;
      Status s = db->Get({}, Key(b, i), &got);
      if (!s.IsNotFound()) {
        Report(&failures, "%s: rejected batch leaked: %s (%s)", when,
               Key(b, i).c_str(), s.ToString().c_str());
      }
    }
  }
  for (const auto& [cw, seq] : oracle.frontier) {
    for (int probe = seq + 1; probe <= seq + 2; ++probe) {
      const BatchId b{cw.first, cw.second, probe};
      int present = 0;
      for (int i = 0; i < oracle.batch; ++i) {
        std::string got;
        if (db->Get({}, Key(b, i), &got).ok()) ++present;
      }
      if (present != 0 && present != oracle.batch) {
        Report(&failures, "%s: torn batch c%d w%d s%d (%d/%d keys)", when,
               b.cycle, b.writer, b.seq, present, oracle.batch);
      }
    }
  }
  const std::vector<MultiVersionDB*> parts = Parts(db);
  for (size_t p = 0; p < parts.size(); ++p) {
    tsb::tsb_tree::TreeChecker checker(parts[p]->primary());
    checker.set_verify_checksums(true);
    Ok(&failures, checker.Check(), ctx + ": tree check " + std::to_string(p));
  }
  ScrubStats scrub;
  Status s = db->Scrub(&scrub);
  if (!s.ok() || scrub.corruptions_detected != 0) {
    Report(&failures, "%s: scrub: %s, %llu corruptions", when,
           s.ToString().c_str(),
           (unsigned long long)scrub.corruptions_detected);
  }
  return failures;
}

/// `checkpoint_bytes` 0 keeps the DbOptions default log interval.
DbOptions BaseOptions(int checkpoint_bytes = 0) {
  DbOptions opts;
  opts.tree.page_size = 1024;
  opts.tree.buffer_pool_frames = 1 << 14;
  if (checkpoint_bytes > 0) opts.wal_checkpoint_bytes = checkpoint_bytes;
  return opts;
}

// ---------------------------------------------------------------- kill

Status OpenDb(const Config& cfg, std::unique_ptr<MultiVersionDB>* db) {
  return MultiVersionDB::Open(cfg.path, BaseOptions(cfg.checkpoint_bytes), db);
}
Status OpenDb(const Config& cfg, std::unique_ptr<ShardedDB>* db) {
  ShardedOptions opts;
  opts.num_shards = static_cast<uint32_t>(cfg.shards);
  opts.base = BaseOptions(cfg.checkpoint_bytes);
  return ShardedDB::Open(cfg.path, opts, db);
}
Status DestroyDb(const Config& cfg) {
  return cfg.shards > 0 ? ShardedDB::Destroy(cfg.path)
                        : MultiVersionDB::Destroy(cfg.path);
}

/// The directories holding a MultiVersionDB: the path, or each shard's.
std::vector<std::string> PartDirs(const Config& cfg) {
  std::vector<std::string> dirs;
  for (int s = 0; s < std::max(cfg.shards, 1); ++s) {
    char buf[24];
    snprintf(buf, sizeof(buf), "/shard-%03d", s);
    dirs.push_back(cfg.shards == 0 ? cfg.path : cfg.path + buf);
  }
  return dirs;
}

/// Child body: commit until killed, acking each commit to the ack file.
template <typename DB>
[[noreturn]] void ChildWorkload(const Config& cfg, int cycle) {
  std::unique_ptr<DB> db;
  if (!OpenDb(cfg, &db).ok()) ::_exit(2);
  const int fd = ::open((cfg.path + ".acks").c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) ::_exit(3);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int seq = 0;; ++seq) {
        Timestamp cts = 0;
        if (!db->Write(MakeBatch({cycle, w, seq}, cfg.batch), &cts).ok()) {
          ::_exit(4);
        }
        char line[80];
        const int len = snprintf(line, sizeof(line), "%d %d %d %llu\n",
                                 cycle, w, seq, (unsigned long long)cts);
        if (::write(fd, line, len) != len) ::_exit(5);
      }
    });
  }
  for (auto& t : threads) t.join();
  ::_exit(0);
}

/// Rebuilds the oracle from the ack file. A line torn by the kill is a
/// commit that was never acknowledged.
Oracle ReadAcks(const Config& cfg) {
  Oracle oracle;
  oracle.batch = cfg.batch;
  FILE* f = fopen((cfg.path + ".acks").c_str(), "r");
  if (f == nullptr) return oracle;  // no acks yet
  char line[96];
  while (fgets(line, sizeof(line), f) != nullptr) {
    BatchId b;
    unsigned long long ts = 0;
    if (sscanf(line, "%d %d %d %llu", &b.cycle, &b.writer, &b.seq, &ts) == 4) {
      oracle.Ack(b, ts);
    }
  }
  fclose(f);
  return oracle;
}

/// (size, mtime) of `file`, zeros when absent.
std::pair<off_t, int64_t> FileStamp(const std::string& file) {
  struct stat st;
  if (::stat(file.c_str(), &st) != 0) return {0, 0};
  return {st.st_size, static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                          st.st_mtim.tv_nsec};
}

bool Exists(const std::string& file) {
  return ::access(file.c_str(), F_OK) == 0;
}

/// Polls until a checkpoint starts writing pages in `dir` (current.tsb
/// changes or a live journal appears), for at most one second.
void AwaitCheckpointWrites(const std::string& dir) {
  const std::string current = dir + "/current.tsb";
  const auto start = FileStamp(current);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < deadline) {
    if (FileStamp(current) != start || Exists(dir + "/checkpoint.tsb")) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

uint64_t InDoubtReplayed(MultiVersionDB*) { return 0; }
uint64_t InDoubtReplayed(ShardedDB* db) { return db->in_doubt_replayed(); }

template <typename DB>
int RunKill(const Config& cfg, std::mt19937* rng) {
  DestroyDb(cfg);
  ::unlink((cfg.path + ".acks").c_str());
  std::uniform_int_distribution<int> run_ms(kMinRunMs, kMaxRunMs);
  std::uniform_int_distribution<int> in_checkpoint_us(0, 5000);
  const std::vector<std::string> dirs = PartDirs(cfg);

  int failures = 0;
  size_t acked_batches = 0;
  double total_recovery_ms = 0;
  int mid_checkpoint = 0;  // reopens that found a journal or orphan slots
  for (int cycle = 0; cycle < cfg.cycles; ++cycle) {
    const pid_t pid = ::fork();
    if (pid == 0) ChildWorkload<DB>(cfg, cycle);
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms(*rng)));
    if (cfg.checkpoint_bytes > 0) {
      AwaitCheckpointWrites(dirs[0]);
      std::this_thread::sleep_for(
          std::chrono::microseconds(in_checkpoint_us(*rng)));
    }
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGKILL) {
      Report(&failures, "child exited on its own (status %d)", wstatus);
      return 1;
    }
    const Oracle oracle = ReadAcks(cfg);
    std::vector<bool> journal_found;
    for (const std::string& dir : dirs) {
      journal_found.push_back(Exists(dir + "/checkpoint.tsb"));
    }
    const std::string ctx = "cycle " + std::to_string(cycle);
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<DB> db;
    if (!Ok(&failures, OpenDb(cfg, &db), ctx + ": reopen after kill")) {
      return 1;
    }
    const double open_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const int violations = Verify(db.get(), oracle, ctx + " after kill");
    failures += violations;

    uint64_t frames = 0, orphans = 0;
    int journals = 0, applied = 0;  // found before the reopen / re-applied
    const std::vector<MultiVersionDB*> parts = Parts(db.get());
    for (size_t p = 0; p < parts.size(); ++p) {
      const auto& rs = parts[p]->recovery_stats();
      frames += rs.frames_replayed;
      orphans += rs.orphan_slots_dropped;
      journals += journal_found[p];
      applied += journal_found[p] && rs.journal_applied;
    }
    if (journals > 0 || orphans > 0) mid_checkpoint++;
    printf("cycle %3d: %5zu acked batches, recovery %6.1f ms (%llu frames, "
           "%llu in-doubt, %d/%d journals re-applied, %llu orphan slots) "
           "%s\n",
           cycle, oracle.acked_batches, open_ms, (unsigned long long)frames,
           (unsigned long long)InDoubtReplayed(db.get()), applied, journals,
           (unsigned long long)orphans, violations == 0 ? "OK" : "FAILED");
    fflush(stdout);
    acked_batches = oracle.acked_batches;
    total_recovery_ms += open_ms;
    db.reset();  // clean close: the next cycle crashes on fresh state
  }

  printf("\n%d cycles on %d shard(s), %zu acked batches verified each cycle "
         "end, mean recovery %.1f ms, %d reopens found a checkpoint journal "
         "or orphan slots\n",
         cfg.cycles, std::max(cfg.shards, 1), acked_batches,
         total_recovery_ms / cfg.cycles, mid_checkpoint);
  DestroyDb(cfg);
  ::unlink((cfg.path + ".acks").c_str());
  if (failures != 0) {
    fprintf(stderr, "%d contract violations\n", failures);
    return 1;
  }
  if (cfg.checkpoint_bytes > 0 && mid_checkpoint == 0) {
    Report(&failures, "no kill landed inside a checkpoint");
    return 1;
  }
  printf("durability contract upheld in all %d kill cycles\n", cfg.cycles);
  return 0;
}

// ---------------------------------------------------------------- io, silent

/// One fault schedule: arm `kind` on the nth op of class `op` (`armed`
/// false = a control cycle). kWrite faults hit a checkpoint's page writes.
struct Scenario {
  const char* name;
  FaultOp op;
  FaultKind kind;
  bool armed = true;
};

/// Sick-disk schedules. Each maps to a transient status class (IOError /
/// OutOfSpace), so Resume() after the disk heals must succeed.
constexpr Scenario kIoScenarios[] = {
    {"wal-sync-eio", FaultOp::kSync, FaultKind::kEIO},
    {"wal-sync-enospc", FaultOp::kSync, FaultKind::kENOSPC},
    {"wal-append-enospc", FaultOp::kAppend, FaultKind::kENOSPC},
    {"wal-append-short-write", FaultOp::kAppend, FaultKind::kShortWrite},
    {"ckpt-write-eio", FaultOp::kWrite, FaultKind::kEIO},
    {"ckpt-write-enospc", FaultOp::kWrite, FaultKind::kENOSPC},
    {"no-fault", FaultOp::kWrite, FaultKind::kEIO, false},
};

/// Faults the device acks as success; only checksums can catch them.
constexpr Scenario kSilentScenarios[] = {
    {"no-fault", FaultOp::kWrite, FaultKind::kBitFlip, false},
    {"bit-flip", FaultOp::kWrite, FaultKind::kBitFlip},
    {"misdirected-write", FaultOp::kWrite, FaultKind::kMisdirectedWrite},
    {"lost-write", FaultOp::kWrite, FaultKind::kLostWrite},
};

/// Options for a cycle's fresh database whose `role` devices (every
/// device when `role` is empty) fail as `plan` says.
DbOptions FaultyOptions(std::shared_ptr<FaultPlan> plan, std::string role) {
  DbOptions opts = BaseOptions();
  opts.wrap_device = [plan, role](const std::string& r,
                                  std::unique_ptr<tsb::Device> dev)
      -> std::unique_ptr<tsb::Device> {
    if (!role.empty() && r != role) return dev;
    return std::make_unique<FaultInjectingDevice>(std::move(dev), plan);
  };
  return opts;
}

/// One sick-disk cycle on a fresh database; returns the violations.
int RunIoCycle(const Config& cfg, int cycle, std::mt19937* rng,
               int* degradations) {
  const std::string dir = cfg.path + "." + std::to_string(cycle);
  MultiVersionDB::Destroy(dir);
  auto dev_plan = std::make_shared<FaultPlan>();
  auto wal_plan = std::make_shared<FaultPlan>();
  DbOptions opts = FaultyOptions(dev_plan, "");
  opts.wal_fault_plan = wal_plan;
  int failures = 0;
  std::string ctx = "cycle " + std::to_string(cycle);
  std::unique_ptr<MultiVersionDB> db;
  if (!Ok(&failures, MultiVersionDB::Open(dir, opts, &db), ctx + ": open")) {
    return failures;
  }

  const Scenario& sc = kIoScenarios[(*rng)() % std::size(kIoScenarios)];
  ctx += std::string(" (") + sc.name + ")";
  Fault fault{.op = sc.op, .kind = sc.kind};
  fault.sticky = ((*rng)() & 1) != 0;
  fault.nth = 1 + (*rng)() % 8;

  Oracle oracle;
  oracle.batch = cfg.batch;
  std::mutex mu;  // guards oracle while the writers run
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const BatchId b{cycle, w, attempt};
        Timestamp cts = 0;
        Status ws = db->Write(MakeBatch(b, cfg.batch), &cts);
        std::lock_guard<std::mutex> lock(mu);
        if (ws.ok()) {
          oracle.Ack(b, cts);
        } else {
          oracle.rejected.push_back(b);
        }
      }
    });
  }
  // WAL faults arm while the workload is in flight, so the nth-op
  // countdown lands the trip at a random point in the commit stream.
  if (sc.kind == FaultKind::kShortWrite) fault.short_bytes = 1 + (*rng)() % 24;
  if (sc.armed && sc.op != FaultOp::kWrite) wal_plan->Arm(fault);
  for (auto& t : writers) t.join();
  // Page-write faults break the devices under a forced checkpoint.
  if (sc.armed && sc.op == FaultOp::kWrite) {
    dev_plan->Arm(fault);
    if (db->Checkpoint().ok() && dev_plan->fired(FaultOp::kWrite) > 0) {
      Report(&failures, "%s: checkpoint swallowed a device fault",
             ctx.c_str());
      return failures;
    }
  }

  // Heal the disk. Every scheduled fault is transient, so Resume() must
  // bring the DB back and purge exactly the rejected commits.
  const bool degraded = db->degraded();
  if (degraded) ++*degradations;
  dev_plan->Clear();
  wal_plan->Clear();
  if (degraded && !Ok(&failures, db->Resume(), ctx + ": resume")) {
    return failures;  // cannot meaningfully verify a degraded DB
  }
  if (db->degraded()) {
    Report(&failures, "%s: still degraded after Resume()", ctx.c_str());
    return failures;
  }
  // The healed DB accepts writes again.
  for (int i = 0; i < 4; ++i) {
    const BatchId b{cycle, 90 + i, 0};
    Timestamp cts = 0;
    if (!Ok(&failures, db->Write(MakeBatch(b, cfg.batch), &cts),
            ctx + ": post-resume write")) {
      break;
    }
    oracle.Ack(b, cts);
  }
  failures += Verify(db.get(), oracle, ctx + " after resume");
  // Reopen must always succeed, and the oracle must hold there too.
  db.reset();
  if (!Ok(&failures, MultiVersionDB::Open(dir, opts, &db), ctx + ": reopen")) {
    return failures;
  }
  failures += Verify(db.get(), oracle, ctx + " after reopen");
  db.reset();
  MultiVersionDB::Destroy(dir);
  printf("cycle %3d %-22s nth=%llu sticky=%d acked=%zu rejected=%zu "
         "degraded=%d%s\n",
         cycle, sc.name, (unsigned long long)fault.nth, fault.sticky ? 1 : 0,
         oracle.acked_batches, oracle.rejected.size(), degraded ? 1 : 0,
         failures == 0 ? "" : "  ** FAILURES **");
  return failures;
}

/// One silent-fault cycle on the magnetic device's page writes during a
/// forced Checkpoint(). No checkpoint runs between injection and
/// detection: a later flush rewriting the page would heal it.
int RunSilentCycle(const Config& cfg, int cycle, std::mt19937* rng,
                   int* faulty, int* detected) {
  int failures = 0;
  const std::string dir = cfg.path + "." + std::to_string(cycle);
  const std::string salvage_dir = dir + ".salvaged";
  MultiVersionDB::Destroy(dir);
  MultiVersionDB::Destroy(salvage_dir);
  auto plan = std::make_shared<FaultPlan>();
  DbOptions opts = FaultyOptions(plan, "magnetic");
  // A tiny pool forces the read sweep through device misses, so the
  // inline verify-on-read path (not just the scrubber) gets exercised.
  opts.tree.buffer_pool_frames = 16;
  opts.paranoid_checks = true;
  std::string ctx = "cycle " + std::to_string(cycle);
  std::unique_ptr<MultiVersionDB> db;
  if (!Ok(&failures, MultiVersionDB::Open(dir, opts, &db), ctx + ": open")) {
    return failures;
  }

  // Load with faults not armed yet, then checkpoint through the healthy
  // device so later faults hit page rewrites too, not only first writes.
  Oracle oracle;
  oracle.batch = cfg.batch;
  for (int seq = 0; seq * cfg.batch < kRecords; ++seq) {
    const BatchId b{cycle, 0, seq};
    Timestamp ts = 0;
    if (!Ok(&failures, db->Write(MakeBatch(b, cfg.batch), &ts),
            ctx + ": load write")) {
      return failures;
    }
    oracle.Ack(b, ts);
  }
  if (!Ok(&failures, db->Checkpoint(), ctx + ": pre-fault checkpoint")) {
    return failures;
  }
  // Overwrite every third key so the next checkpoint has dirty pages to
  // flush through the armed fault.
  int n = 0;
  for (auto& [key, versions] : oracle.acked) {
    if (n++ % 3 != 0) continue;
    Timestamp ts = 0;
    if (!Ok(&failures, db->Put(key, Value(key, 1), &ts), ctx + ": overwrite")) {
      return failures;
    }
    versions[ts] = Value(key, 1);
  }

  const Scenario& sc =
      kSilentScenarios[(*rng)() % std::size(kSilentScenarios)];
  ctx += std::string(" (") + sc.name + ")";
  const uint64_t nth = 1 + (*rng)() % 12;
  if (sc.armed) plan->FailNth(sc.op, nth, sc.kind);
  // The checkpoint must report success: the storage stack cannot see a
  // silent fault at write time.
  if (!Ok(&failures, db->Checkpoint(), ctx + ": checkpoint")) return failures;
  const uint64_t fired = plan->fired(FaultOp::kWrite);
  *faulty += fired > 0;
  plan->Clear();  // stop injecting; from here on only detect

  // Scrub() verifies every device slot, so it alone must catch a fault
  // that fired, and must find nothing on a pristine device.
  ScrubStats pass;
  if (!Ok(&failures, db->Scrub(&pass), ctx + ": scrub")) return failures;
  *detected += fired > 0 && pass.corruptions_detected > 0;
  if ((fired > 0) != (pass.corruptions_detected > 0) ||
      (fired == 0 && db->quarantined_count() != 0)) {
    Report(&failures, "%s: %llu fault(s) fired, %llu corrupt, %llu quarantined",
           ctx.c_str(), (unsigned long long)fired,
           (unsigned long long)pass.corruptions_detected,
           (unsigned long long)db->quarantined_count());
  }
  // Read sweep of the latest versions. A failed read of a damaged page is
  // detection, but an OK read must return the acked bytes, and a pristine
  // device fails no read.
  uint64_t read_errors = 0;
  for (const auto& [key, versions] : oracle.acked) {
    std::string got;
    Status gs = db->Get({}, key, &got);
    if (gs.ok() && got != versions.rbegin()->second) {
      Report(&failures, "%s: undetected corruption: %s read wrong bytes",
             ctx.c_str(), key.c_str());
    } else if (!gs.ok()) {
      read_errors++;
      if (fired == 0) Ok(&failures, gs, ctx + ": read " + key);
    }
  }
  const uint64_t quarantined = db->quarantined_count();

  // Salvage: every acked record also lives in a checksummed WAL commit
  // frame the page faults never touched, so all of them must come back.
  db.reset();
  tsb::db::SalvageReport report;
  if (!Ok(&failures, tsb::db::SalvageDatabase(dir, salvage_dir, {}, &report),
          ctx + ": salvage") ||
      !Ok(&failures, MultiVersionDB::Open(salvage_dir, BaseOptions(), &db),
          ctx + ": open salvaged")) {
    return failures;
  }
  for (const auto& [key, versions] : oracle.acked) {
    std::string got;
    Status gs = db->Get({}, key, &got);
    if (!gs.ok() || got != versions.rbegin()->second) {
      Report(&failures, "%s: salvage lost record %s (%s)", ctx.c_str(),
             key.c_str(), gs.ToString().c_str());
    }
  }
  db.reset();
  printf("cycle %3d %-18s nth=%-2llu fired=%llu scanned=%llu corrupt=%llu "
         "quarantined=%llu read_errors=%llu salvaged=%llu%s\n",
         cycle, sc.name, (unsigned long long)nth, (unsigned long long)fired,
         (unsigned long long)pass.pages_scanned,
         (unsigned long long)pass.corruptions_detected,
         (unsigned long long)quarantined, (unsigned long long)read_errors,
         (unsigned long long)report.records_recovered,
         failures == 0 ? "" : "  ** FAILURES **");
  MultiVersionDB::Destroy(dir);
  MultiVersionDB::Destroy(salvage_dir);
  return failures;
}

// ---------------------------------------------------------------- main

/// Per mode, in Mode order: its --fault name, default seed and batch.
struct ModeDefaults {
  const char* name;
  uint32_t seed;
  int batch;
};
constexpr ModeDefaults kModes[] = {
    {"kill", 0x5eed, 3}, {"io", 0xd15c, 3}, {"silent", 0x5cab, 4}};

[[noreturn]] void Usage(const char* argv0, const std::string& problem) {
  fprintf(stderr,
          "%s: %s\nusage: %s --fault=kill|io|silent [--shards N] "
          "[--cycles N] [--batch N] [--checkpoint-bytes N] [--seed N] "
          "[--path DIR]\n  --shards and --checkpoint-bytes need "
          "--fault=kill; counts are positive\n",
          argv0, problem.c_str(), argv0);
  exit(64);
}

/// `text` as a whole number in [min, max]; anything else is a usage error.
uint64_t ParseNumber(const char* argv0, const std::string& flag,
                     const std::string& text, uint64_t min, uint64_t max,
                     int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = strtoull(text.c_str(), &end, base);
  if (errno != 0 || end == text.c_str() || *end != '\0' ||
      text.find('-') != std::string::npos || v < min || v > max) {
    Usage(argv0, flag + " is not a number in range: " + text);
  }
  return v;
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  bool fault_set = false;
  for (int i = 1; i < argc; ++i) {
    // Both "--flag value" and "--flag=value".
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(argv[0], "missing value for " + flag);
    }
    auto count = [&] {
      return static_cast<int>(ParseNumber(argv[0], flag, value, 1, INT_MAX));
    };
    if (flag == "--fault") {
      const auto* m = std::find_if(
          std::begin(kModes), std::end(kModes),
          [&](const ModeDefaults& d) { return value == d.name; });
      if (m == std::end(kModes)) Usage(argv[0], "unknown --fault " + value);
      cfg.mode = static_cast<Mode>(m - std::begin(kModes));
      fault_set = true;
    } else if (flag == "--shards") {
      cfg.shards = count();
    } else if (flag == "--cycles") {
      cfg.cycles = count();
    } else if (flag == "--batch") {
      cfg.batch = count();
    } else if (flag == "--checkpoint-bytes") {
      cfg.checkpoint_bytes = count();
    } else if (flag == "--seed") {
      cfg.seed = static_cast<uint32_t>(
          ParseNumber(argv[0], flag, value, 0, UINT32_MAX, /*base=*/0));
      cfg.seed_set = true;
    } else if (flag == "--path" && !value.empty()) {
      cfg.path = value;
    } else {
      Usage(argv[0], "unknown flag or empty value: " + flag);
    }
  }
  if (!fault_set) Usage(argv[0], "--fault is required");
  if (cfg.mode != Mode::kKill && (cfg.shards > 0 || cfg.checkpoint_bytes > 0)) {
    Usage(argv[0], "--shards and --checkpoint-bytes need --fault=kill");
  }
  const ModeDefaults& defaults = kModes[static_cast<int>(cfg.mode)];
  if (!cfg.seed_set) cfg.seed = defaults.seed;
  if (cfg.batch == 0) cfg.batch = defaults.batch;
  if (cfg.path.empty()) {
    cfg.path = "/tmp/tsb_chaos_harness." + std::to_string(::getpid());
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);
  std::mt19937 rng(cfg.seed);
  if (cfg.mode == Mode::kKill) {
    return cfg.shards > 0 ? RunKill<ShardedDB>(cfg, &rng)
                          : RunKill<MultiVersionDB>(cfg, &rng);
  }
  int failures = 0, degradations = 0, faulty = 0, detected = 0;
  for (int cycle = 0; cycle < cfg.cycles; ++cycle) {
    failures += cfg.mode == Mode::kIo
                    ? RunIoCycle(cfg, cycle, &rng, &degradations)
                    : RunSilentCycle(cfg, cycle, &rng, &faulty, &detected);
  }
  if (cfg.mode == Mode::kIo) {
    printf("chaos_harness --fault=io: %d cycles, %d degradations, "
           "%d failures\n",
           cfg.cycles, degradations, failures);
  } else {
    printf("chaos_harness --fault=silent: %d cycles, %d faulty, "
           "%d detected, %d failures\n",
           cfg.cycles, faulty, detected, failures);
  }
  return failures == 0 ? 0 : 1;
}
