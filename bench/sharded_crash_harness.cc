// Sharded kill -9 harness: repeatedly SIGKILL a child running racing
// MULTI-SHARD WriteBatches against a ShardedDB, reopen in the parent,
// and check the cross-shard durability contract against an ack oracle:
//   1. no acknowledged batch is lost — every key of it, on every shard
//      it scattered to, is present with the right value at the right ts,
//   2. no batch is torn — past the acked frontier each batch recovered
//      on ALL its shards or on none (the coordinator-log all-or-nothing
//      guarantee, which spans shard boundaries),
//   3. every shard's tree passes structural verification after recovery.
//
// The oracle is an O_APPEND file the child writes one line to per
// commit, strictly after Write() returned — a client's exact view of
// what was acknowledged. SIGKILL means no destructor and no flush: the
// survivors are what the per-shard WALs + the coordinator decision log
// made durable.
//
// Plain executable, no benchmark-library dependency:
//   sharded_crash_harness [--cycles N] [--writers N] [--batch N]
//                         [--shards N] [--min-ms N] [--max-ms N]
//                         [--path DIR] [--seed N]
// Exit code 0 = every cycle upheld the contract.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_db.h"
#include "tsb/tree_check.h"

namespace {

using tsb::Status;
using tsb::Timestamp;
using tsb::db::ReadOptions;
using tsb::db::WriteBatch;
using tsb::shard::ShardedDB;
using tsb::shard::ShardedOptions;

struct Config {
  int cycles = 50;
  int writers = 4;
  int batch = 4;
  int shards = 4;
  int min_ms = 20;
  int max_ms = 250;
  int checksums = 1;  // post-cycle TreeChecker also audits device CRCs
  uint32_t seed = 0x5eed;
  std::string path;
};

std::string Key(int writer, int cycle, int n) {
  char buf[40];
  snprintf(buf, sizeof(buf), "c%03d-w%02d-key-%06d", cycle, writer, n);
  return buf;
}

std::string Value(int writer, int cycle, int n) {
  char buf[64];
  snprintf(buf, sizeof(buf), "value-%03d-%02d-%06d-", cycle, writer, n);
  std::string v = buf;
  v.append(48, 'x');
  return v;
}

ShardedOptions Options(const Config& cfg) {
  ShardedOptions opts;
  opts.num_shards = static_cast<uint32_t>(cfg.shards);
  opts.base.tree.page_size = 1024;
  opts.base.tree.buffer_pool_frames = 1 << 14;
  return opts;
}

/// Child body: commit multi-shard batches until killed, acking each to
/// the oracle.
[[noreturn]] void ChildWorkload(const Config& cfg, int cycle) {
  std::unique_ptr<ShardedDB> db;
  if (!ShardedDB::Open(cfg.path, Options(cfg), &db).ok()) ::_exit(2);
  const int fd = ::open((cfg.path + ".oracle").c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) ::_exit(3);
  std::vector<std::thread> threads;
  for (int w = 0; w < cfg.writers; ++w) {
    threads.emplace_back([&, w] {
      for (int seq = 0;; ++seq) {
        WriteBatch batch;
        for (int i = 0; i < cfg.batch; ++i) {
          const int n = seq * cfg.batch + i;
          batch.Put(Key(w, cycle, n), Value(w, cycle, n));
        }
        Timestamp cts = 0;
        if (!db->Write(batch, &cts).ok()) ::_exit(4);
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

struct Ack {
  int cycle;
  int writer;
  int seq;
  Timestamp ts;
};

void ReadOracle(const std::string& file, std::vector<Ack>* acks) {
  acks->clear();
  FILE* f = fopen(file.c_str(), "r");
  if (f == nullptr) return;  // no acks yet
  char line[96];
  while (fgets(line, sizeof(line), f) != nullptr) {
    Ack a;
    unsigned long long ts = 0;
    if (sscanf(line, "%d %d %d %llu", &a.cycle, &a.writer, &a.seq, &ts) ==
        4) {
      a.ts = ts;
      acks->push_back(a);
    }
    // else: line torn by the kill — that commit was never acknowledged.
  }
  fclose(f);
}

bool Verify(ShardedDB* db, const std::vector<Ack>& acks, const Config& cfg,
            int* failures) {
  for (const Ack& a : acks) {
    ReadOptions at_commit;
    at_commit.as_of = a.ts;
    for (int i = 0; i < cfg.batch; ++i) {
      const int n = a.seq * cfg.batch + i;
      std::string value;
      Timestamp version_ts = 0;
      Status s = db->Get(at_commit, Key(a.writer, a.cycle, n), &value,
                         &version_ts);
      if (!s.ok()) {
        fprintf(stderr,
                "FAIL: acked batch lost a slice: cycle %d writer %d seq %d "
                "key %d on shard %u (%s)\n",
                a.cycle, a.writer, a.seq, n,
                db->ShardOf(Key(a.writer, a.cycle, n)),
                s.ToString().c_str());
        ++*failures;
        continue;
      }
      if (value != Value(a.writer, a.cycle, n) || version_ts != a.ts) {
        fprintf(stderr,
                "FAIL: acked batch mangled: cycle %d writer %d seq %d key "
                "%d (ts %llu vs %llu)\n",
                a.cycle, a.writer, a.seq, n, (unsigned long long)version_ts,
                (unsigned long long)a.ts);
        ++*failures;
      }
    }
  }
  // Atomicity probes just past each writer's acked frontier: unacked
  // batches may or may not have been decided, but each must surface on
  // ALL of its shards or on NONE — a half-recovered batch means the
  // coordinator protocol leaked a partial commit across shards.
  std::map<std::pair<int, int>, int> frontier;  // (cycle, writer) -> seq
  for (const Ack& a : acks) {
    auto [it, inserted] = frontier.emplace(std::make_pair(a.cycle, a.writer),
                                           a.seq);
    if (!inserted && it->second < a.seq) it->second = a.seq;
  }
  for (const auto& [cw, seq] : frontier) {
    for (int probe = seq + 1; probe < seq + 3; ++probe) {
      int present = 0;
      for (int i = 0; i < cfg.batch; ++i) {
        std::string value;
        if (db->Get({}, Key(cw.second, cw.first, probe * cfg.batch + i), &value)
                .ok()) {
          ++present;
        }
      }
      if (present != 0 && present != cfg.batch) {
        fprintf(stderr, "FAIL: torn cross-shard batch: cycle %d writer %d "
                        "seq %d (%d/%d keys)\n",
                cw.first, cw.second, probe, present, cfg.batch);
        ++*failures;
      }
    }
  }
  for (uint32_t s = 0; s < db->num_shards(); ++s) {
    tsb::tsb_tree::TreeChecker checker(db->shard(s)->primary());
    checker.set_verify_checksums(cfg.checksums != 0);
    Status st = checker.Check();
    if (!st.ok()) {
      fprintf(stderr, "FAIL: tree check shard %u: %s\n", s,
              st.ToString().c_str());
      ++*failures;
    }
  }
  return *failures == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.path = "/tmp/tsb_sharded_crash." + std::to_string(::getpid());
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name, int* out) {
      if (strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (arg("--cycles", &cfg.cycles) || arg("--writers", &cfg.writers) ||
        arg("--batch", &cfg.batch) || arg("--shards", &cfg.shards) ||
        arg("--min-ms", &cfg.min_ms) || arg("--max-ms", &cfg.max_ms) ||
        arg("--checksums", &cfg.checksums)) {
      continue;
    }
    if (strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = static_cast<uint32_t>(atoi(argv[++i]));
    } else if (strcmp(argv[i], "--path") == 0 && i + 1 < argc) {
      cfg.path = argv[++i];
    } else {
      fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 64;
    }
  }

  ShardedDB::Destroy(cfg.path);
  ::unlink((cfg.path + ".oracle").c_str());
  std::mt19937 rng(cfg.seed);
  std::uniform_int_distribution<int> run_ms(cfg.min_ms, cfg.max_ms);

  int failures = 0;
  uint64_t total_acks = 0;
  double total_recovery_ms = 0;
  uint64_t total_in_doubt = 0;
  for (int cycle = 0; cycle < cfg.cycles; ++cycle) {
    const pid_t pid = ::fork();
    if (pid == 0) ChildWorkload(cfg, cycle);
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms(rng)));
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGKILL) {
      fprintf(stderr, "FAIL: child exited on its own (status %d)\n",
              wstatus);
      return 1;
    }
    std::vector<Ack> acks;
    ReadOracle(cfg.path + ".oracle", &acks);
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<ShardedDB> db;
    Status s = ShardedDB::Open(cfg.path, Options(cfg), &db);
    const double open_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!s.ok()) {
      fprintf(stderr, "FAIL: reopen after kill: %s\n", s.ToString().c_str());
      return 1;
    }
    const int before = failures;
    Verify(db.get(), acks, cfg, &failures);
    printf("cycle %3d: %5zu acks across %d shards, recovery %6.1f ms "
           "(%llu in-doubt decisions resolved) %s\n",
           cycle, acks.size(), cfg.shards, open_ms,
           (unsigned long long)db->in_doubt_replayed(),
           failures == before ? "OK" : "FAILED");
    fflush(stdout);
    total_acks = acks.size();
    total_recovery_ms += open_ms;
    total_in_doubt += db->in_doubt_replayed();
    db.reset();  // clean close: the next cycle crashes on fresh state
  }

  printf("\n%d cycles, %llu acked batches verified each cycle end, "
         "%llu in-doubt decisions resolved total, mean recovery %.1f ms\n",
         cfg.cycles, (unsigned long long)total_acks,
         (unsigned long long)total_in_doubt,
         total_recovery_ms / cfg.cycles);
  ShardedDB::Destroy(cfg.path);
  ::unlink((cfg.path + ".oracle").c_str());
  if (failures != 0) {
    fprintf(stderr, "%d contract violations\n", failures);
    return 1;
  }
  printf("cross-shard durability contract upheld in all %d kill cycles\n",
         cfg.cycles);
  return 0;
}
