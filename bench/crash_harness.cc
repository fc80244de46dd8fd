// Fault-injection harness: repeatedly SIGKILL a child process running a
// concurrent commit workload, reopen the database in the parent, and
// check the durability contract against a commit-log oracle:
//   1. no acknowledged commit is lost (present, right value, right ts),
//   2. no transaction is torn (batches recover all-or-nothing),
//   3. the tree passes full structural verification after every crash,
//   4. Scrub() finds no corruption (no false positives after a kill).
//
// The oracle is an O_APPEND file the child writes ONE line to per commit,
// strictly after Write() returned — exactly a client's view of what was
// acknowledged. Killing with SIGKILL (not SIGTERM) means no destructor,
// no flush, no atexit: the only survivors are what the WAL + checkpoint
// discipline made durable.
//
// Plain executable, no benchmark-library dependency:
//   crash_harness [--cycles N] [--writers N] [--batch N]
//                 [--min-ms N] [--max-ms N] [--path DIR] [--seed N]
//                 [--checkpoint-bytes N]
// --checkpoint-bytes sets DbOptions::wal_checkpoint_bytes so the children
// checkpoint often, and aims the kills at checkpoints: after the random
// delay the parent waits for the child's next checkpoint to touch
// current.tsb (under no-steal nothing else writes it) or create
// checkpoint.tsb, then kills within 0-5 ms. The harness counts the reopens
// that found a checkpoint journal or orphan page slots and fails if there
// were none.
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
#include <utility>
#include <vector>

#include "db/multiversion_db.h"
#include "tsb/tree_check.h"

namespace {

using tsb::Status;
using tsb::Timestamp;
using tsb::db::DbOptions;
using tsb::db::MultiVersionDB;
using tsb::db::WriteBatch;

struct Config {
  int cycles = 50;
  int writers = 4;
  int batch = 3;
  int min_ms = 20;
  int max_ms = 250;
  int checksums = 1;  // post-cycle TreeChecker also audits device CRCs
  int checkpoint_bytes = 0;  // 0 = the DbOptions default
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

DbOptions Options(const Config& cfg) {
  DbOptions opts;
  opts.tree.page_size = 1024;
  opts.tree.buffer_pool_frames = 1 << 14;
  if (cfg.checkpoint_bytes > 0) {
    opts.wal_checkpoint_bytes = static_cast<uint64_t>(cfg.checkpoint_bytes);
  }
  return opts;
}

/// Child body: commit until killed, acking each commit to the oracle.
[[noreturn]] void ChildWorkload(const Config& cfg, int cycle) {
  std::unique_ptr<MultiVersionDB> db;
  if (!MultiVersionDB::Open(cfg.path, Options(cfg), &db).ok()) ::_exit(2);
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

/// (size, mtime) of `file`, zeros when absent.
std::pair<off_t, int64_t> FileStamp(const std::string& file) {
  struct stat st;
  if (::stat(file.c_str(), &st) != 0) return {0, 0};
  return {st.st_size,
          static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec};
}

/// Polls until a checkpoint starts writing pages in `dir` (current.tsb
/// changes or a live journal appears), for at most one second.
void AwaitCheckpointWrites(const std::string& dir) {
  const std::string current = dir + "/current.tsb";
  const std::string journal = dir + "/checkpoint.tsb";
  const auto start = FileStamp(current);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < deadline) {
    struct stat st;
    if (FileStamp(current) != start || ::stat(journal.c_str(), &st) == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

struct Ack {
  int cycle;
  int writer;
  int seq;
  Timestamp ts;
};

bool ReadOracle(const std::string& file, std::vector<Ack>* acks) {
  acks->clear();
  FILE* f = fopen(file.c_str(), "r");
  if (f == nullptr) return true;  // no acks yet
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
  return true;
}

bool Verify(MultiVersionDB* db, const std::vector<Ack>& acks,
            const Config& cfg, int* failures) {
  for (const Ack& a : acks) {
    for (int i = 0; i < cfg.batch; ++i) {
      const int n = a.seq * cfg.batch + i;
      std::string value;
      Timestamp version_ts = 0;
      Status s =
          db->Get({.as_of = a.ts}, Key(a.writer, a.cycle, n), &value,
                  &version_ts);
      if (!s.ok()) {
        fprintf(stderr,
                "FAIL: acked commit lost: cycle %d writer %d seq %d key %d "
                "(%s)\n",
                a.cycle, a.writer, a.seq, n, s.ToString().c_str());
        ++*failures;
        continue;
      }
      if (value != Value(a.writer, a.cycle, n) || version_ts != a.ts) {
        fprintf(stderr,
                "FAIL: acked commit mangled: cycle %d writer %d seq %d key "
                "%d (ts %llu vs %llu)\n",
                a.cycle, a.writer, a.seq, n, (unsigned long long)version_ts,
                (unsigned long long)a.ts);
        ++*failures;
      }
    }
  }
  // Atomicity probes just past each writer's acked frontier: a batch is
  // recovered whole or not at all.
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
        fprintf(stderr, "FAIL: torn batch: cycle %d writer %d seq %d "
                        "(%d/%d keys)\n",
                cw.first, cw.second, probe, present, cfg.batch);
        ++*failures;
      }
    }
  }
  tsb::tsb_tree::TreeChecker checker(db->primary());
  checker.set_verify_checksums(cfg.checksums != 0);
  Status s = checker.Check();
  if (!s.ok()) {
    fprintf(stderr, "FAIL: tree check: %s\n", s.ToString().c_str());
    ++*failures;
  }
  // Every device slot, orphans of a killed checkpoint included, must scrub
  // clean: nothing here was corrupted, only interrupted.
  tsb::db::ScrubStats scrub;
  s = db->Scrub(&scrub);
  if (!s.ok() || scrub.corruptions_detected != 0) {
    fprintf(stderr, "FAIL: scrub after kill: %s, %llu corruptions\n",
            s.ToString().c_str(),
            (unsigned long long)scrub.corruptions_detected);
    ++*failures;
  }
  return *failures == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.path = "/tmp/tsb_crash_harness." + std::to_string(::getpid());
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name, int* out) {
      if (strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (arg("--cycles", &cfg.cycles) || arg("--writers", &cfg.writers) ||
        arg("--batch", &cfg.batch) || arg("--min-ms", &cfg.min_ms) ||
        arg("--max-ms", &cfg.max_ms) || arg("--checksums", &cfg.checksums) ||
        arg("--checkpoint-bytes", &cfg.checkpoint_bytes)) {
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

  MultiVersionDB::Destroy(cfg.path);
  ::unlink((cfg.path + ".oracle").c_str());
  std::mt19937 rng(cfg.seed);
  std::uniform_int_distribution<int> run_ms(cfg.min_ms, cfg.max_ms);
  std::uniform_int_distribution<int> in_checkpoint_us(0, 5000);

  int failures = 0;
  uint64_t total_acks = 0;
  double total_recovery_ms = 0;
  uint64_t total_replayed = 0;
  int mid_checkpoint = 0;  // reopens that found a journal or orphan slots
  for (int cycle = 0; cycle < cfg.cycles; ++cycle) {
    const pid_t pid = ::fork();
    if (pid == 0) ChildWorkload(cfg, cycle);
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms(rng)));
    if (cfg.checkpoint_bytes > 0) {
      AwaitCheckpointWrites(cfg.path);
      std::this_thread::sleep_for(
          std::chrono::microseconds(in_checkpoint_us(rng)));
    }
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
    struct stat st;
    const bool journal_found =
        ::stat((cfg.path + "/checkpoint.tsb").c_str(), &st) == 0;
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<MultiVersionDB> db;
    Status s = MultiVersionDB::Open(cfg.path, Options(cfg), &db);
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
    const auto& rs = db->recovery_stats();
    if (journal_found || rs.orphan_slots_dropped > 0) mid_checkpoint++;
    printf("cycle %3d: %5zu acks, recovery %6.1f ms "
           "(%llu frames, %llu ghosts purged%s%s, %llu orphan slots) %s\n",
           cycle, acks.size(), open_ms,
           (unsigned long long)rs.frames_replayed,
           (unsigned long long)rs.purged_uncommitted,
           rs.tail_truncated ? ", torn tail" : "",
           !journal_found         ? ""
           : rs.journal_applied ? ", journal re-applied"
                                : ", torn journal discarded",
           (unsigned long long)rs.orphan_slots_dropped,
           failures == before ? "OK" : "FAILED");
    fflush(stdout);
    total_acks = acks.size();
    total_recovery_ms += open_ms;
    total_replayed += rs.frames_replayed;
    db.reset();  // clean close: the next cycle crashes on fresh state
  }

  printf("\n%d cycles, %llu acked commits verified each cycle end, "
         "%llu frames replayed total, mean recovery %.1f ms, "
         "%d reopens found a checkpoint journal or orphan slots\n",
         cfg.cycles, (unsigned long long)total_acks,
         (unsigned long long)total_replayed,
         total_recovery_ms / cfg.cycles, mid_checkpoint);
  MultiVersionDB::Destroy(cfg.path);
  ::unlink((cfg.path + ".oracle").c_str());
  if (failures != 0) {
    fprintf(stderr, "%d contract violations\n", failures);
    return 1;
  }
  if (cfg.checkpoint_bytes > 0 && mid_checkpoint == 0) {
    fprintf(stderr, "FAIL: --checkpoint-bytes %d, but no kill landed inside "
                    "a checkpoint\n",
            cfg.checkpoint_bytes);
    return 1;
  }
  printf("durability contract upheld in all %d kill cycles\n", cfg.cycles);
  return 0;
}
