// Silent-corruption harness: inject faults the disk LIES about — bit
// flips, misdirected writes, lost writes, all acknowledged as success —
// and check the detection contract against an in-process oracle:
//
//   1. DETECTION: if any silent fault actually fired, Scrub() plus a full
//      read sweep must surface at least one corruption (page CRC for bit
//      flips, page-id identity for misdirected writes, the stamped
//      trailer-LSN sweep for lost writes). Zero undetected corruptions.
//   2. NO FALSE POSITIVES: on control cycles (no fault armed) Scrub()
//      must report zero corruptions and quarantine nothing.
//   3. SALVAGE: tsb_doctor's engine (SalvageDatabase) run on the damaged
//      directory must recover every acknowledged record — each record
//      also lives in a WAL commit frame the faults never touched, so a
//      lossy salvage means salvage dropped checksummed bytes.
//
// Faults are injected on the base (magnetic) device's page writes, which
// a forced Checkpoint() then flushes through. No checkpoint runs between
// injection and detection — a later flush rewriting the page would heal
// the damage and void the oracle.
//
// Plain executable, no benchmark-library dependency:
//   scrub_harness [--cycles N] [--records N] [--path DIR] [--seed N]
// Exit code 0 = every cycle upheld the contract.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "db/multiversion_db.h"
#include "db/salvage.h"
#include "storage/fault_device.h"

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

struct Config {
  int cycles = 50;
  int records = 200;
  uint32_t seed = 0x5cab;
  std::string path;
};

enum class Scenario {
  kNoFault = 0,  // control: zero detections allowed
  kBitFlip,
  kMisdirectedWrite,
  kLostWrite,
  kCount
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kNoFault: return "no-fault";
    case Scenario::kBitFlip: return "bit-flip";
    case Scenario::kMisdirectedWrite: return "misdirected-write";
    case Scenario::kLostWrite: return "lost-write";
    default: return "?";
  }
}

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "rec-%06d", i);
  return buf;
}

std::string Value(int i, int gen) {
  char buf[48];
  snprintf(buf, sizeof(buf), "value-%06d-g%d-", i, gen);
  std::string v = buf;
  v.append(24, 'v');
  return v;
}

struct CycleResult {
  int failures = 0;
  uint64_t fired = 0;
  uint64_t detections = 0;
};

CycleResult RunCycle(const Config& cfg, int cycle, std::mt19937* rng) {
  CycleResult res;
  const std::string dir = cfg.path + "." + std::to_string(cycle);
  const std::string salvage_dir = dir + ".salvaged";
  MultiVersionDB::Destroy(dir);
  MultiVersionDB::Destroy(salvage_dir);

  auto plan = std::make_shared<FaultPlan>();
  DbOptions opts;
  opts.tree.page_size = 1024;
  // A tiny pool forces the read sweep through device misses, so the
  // inline verify-on-read path (not just the scrubber) gets exercised.
  opts.tree.buffer_pool_frames = 16;
  opts.paranoid_checks = true;
  opts.wrap_device = [plan](const std::string& role,
                            std::unique_ptr<tsb::Device> dev)
      -> std::unique_ptr<tsb::Device> {
    if (role != "magnetic") return dev;  // target base pages only
    return std::make_unique<FaultInjectingDevice>(std::move(dev), plan);
  };

  std::unique_ptr<MultiVersionDB> db;
  Status s = MultiVersionDB::Open(dir, opts, &db);
  if (!s.ok()) {
    fprintf(stderr, "FAIL cycle %d: open: %s\n", cycle, s.ToString().c_str());
    res.failures = 1;
    return res;
  }

  // Load phase (faults not armed yet): every record acknowledged here is
  // the oracle's expectation, for both detection and salvage.
  std::map<std::string, std::string> expected;
  for (int i = 0; i < cfg.records; ++i) {
    WriteBatch batch;
    const int per_batch = 4;
    for (int k = 0; k < per_batch && i < cfg.records; ++k, ++i) {
      batch.Put(Key(i), Value(i, 0));
      expected[Key(i)] = Value(i, 0);
    }
    --i;  // outer loop increments once more
    Timestamp ts = 0;
    Status ws = db->Write(batch, &ts);
    if (!ws.ok()) {
      fprintf(stderr, "FAIL cycle %d: load write: %s\n", cycle,
              ws.ToString().c_str());
      res.failures++;
      return res;
    }
  }
  // First checkpoint flushes the tree through the (healthy) device so
  // later faults hit page REWRITES too, not only first-time writes.
  Status cs = db->Checkpoint();
  if (!cs.ok()) {
    fprintf(stderr, "FAIL cycle %d: pre-fault checkpoint: %s\n", cycle,
            cs.ToString().c_str());
    res.failures++;
    return res;
  }
  // Overwrite a slice of the keys so the next checkpoint has real dirty
  // pages to flush through the armed faults.
  for (int i = 0; i < cfg.records; i += 3) {
    Status ws = db->Put(Key(i), Value(i, 1));
    if (!ws.ok()) {
      fprintf(stderr, "FAIL cycle %d: overwrite: %s\n", cycle,
              ws.ToString().c_str());
      res.failures++;
      return res;
    }
    expected[Key(i)] = Value(i, 1);
  }

  const auto scenario =
      static_cast<Scenario>((*rng)() % static_cast<uint32_t>(Scenario::kCount));
  const uint64_t nth = 1 + (*rng)() % 12;
  if (scenario != Scenario::kNoFault) {
    FaultKind kind = FaultKind::kBitFlip;
    if (scenario == Scenario::kMisdirectedWrite) {
      kind = FaultKind::kMisdirectedWrite;
    } else if (scenario == Scenario::kLostWrite) {
      kind = FaultKind::kLostWrite;
    }
    plan->FailNth(FaultOp::kWrite, nth, kind, /*sticky=*/false);
  }

  // Flush the dirty pages through the armed fault. The checkpoint itself
  // must report success — the whole point of a silent fault is that the
  // storage stack cannot see it at write time.
  cs = db->Checkpoint();
  if (!cs.ok()) {
    fprintf(stderr, "FAIL cycle %d (%s): checkpoint: %s\n", cycle,
            ScenarioName(scenario), cs.ToString().c_str());
    res.failures++;
    return res;
  }
  res.fired = plan->fired(FaultOp::kWrite);
  plan->Clear();  // stop injecting; from here we only detect

  // ---- detection phase (NO further checkpoints: a rewrite would heal
  // the damaged slot and break the oracle) ----

  ScrubStats pass;
  Status scrub_status = db->Scrub(&pass);
  if (!scrub_status.ok()) {
    fprintf(stderr, "FAIL cycle %d (%s): scrub errored: %s\n", cycle,
            ScenarioName(scenario), scrub_status.ToString().c_str());
    res.failures++;
    return res;
  }

  // Full read sweep. With corruption present some reads may legitimately
  // fail (quarantined page) — that IS detection. What must never happen
  // is a read returning the WRONG bytes with an OK status.
  uint64_t read_errors = 0;
  for (const auto& [key, value] : expected) {
    std::string got;
    Status gs = db->Get({}, key, &got);
    if (gs.ok()) {
      if (got != value) {
        fprintf(stderr,
                "FAIL cycle %d (%s): UNDETECTED corruption: key %s read OK "
                "with wrong bytes\n",
                cycle, ScenarioName(scenario), key.c_str());
        res.failures++;
      }
    } else {
      read_errors++;
      if (scenario == Scenario::kNoFault) {
        fprintf(stderr, "FAIL cycle %d (no-fault): read %s: %s\n", cycle,
                key.c_str(), gs.ToString().c_str());
        res.failures++;
      }
    }
  }

  res.detections = pass.corruptions_detected + db->quarantined_count() +
                   db->error_stats().errors_reported + read_errors;

  if (scenario == Scenario::kNoFault || res.fired == 0) {
    // Control contract: pristine device => scrub is silent.
    if (pass.corruptions_detected != 0 || db->quarantined_count() != 0) {
      fprintf(stderr,
              "FAIL cycle %d (%s): FALSE POSITIVE: %llu corruptions, %llu "
              "quarantined on a pristine device\n",
              cycle, ScenarioName(scenario),
              (unsigned long long)pass.corruptions_detected,
              (unsigned long long)db->quarantined_count());
      res.failures++;
    }
  } else if (res.detections == 0) {
    fprintf(stderr,
            "FAIL cycle %d (%s): UNDETECTED: fault fired %llu time(s), "
            "zero detections\n",
            cycle, ScenarioName(scenario), (unsigned long long)res.fired);
    res.failures++;
  }

  // ---- salvage phase: close the damaged DB and doctor it. Every
  // acknowledged record also lives in a checksummed WAL commit frame the
  // page faults never touched, so 100% must come back. ----
  db.reset();
  tsb::db::SalvageOptions sopts;
  tsb::db::SalvageReport report;
  Status vs = tsb::db::SalvageDatabase(dir, salvage_dir, sopts, &report);
  if (!vs.ok()) {
    fprintf(stderr, "FAIL cycle %d (%s): salvage: %s\n", cycle,
            ScenarioName(scenario), vs.ToString().c_str());
    res.failures++;
    return res;
  }
  std::unique_ptr<MultiVersionDB> doctored;
  DbOptions plain;
  plain.tree.page_size = 1024;
  s = MultiVersionDB::Open(salvage_dir, plain, &doctored);
  if (!s.ok()) {
    fprintf(stderr, "FAIL cycle %d (%s): open salvaged: %s\n", cycle,
            ScenarioName(scenario), s.ToString().c_str());
    res.failures++;
    return res;
  }
  for (const auto& [key, value] : expected) {
    std::string got;
    Status gs = doctored->Get({}, key, &got);
    if (!gs.ok() || got != value) {
      fprintf(stderr,
              "FAIL cycle %d (%s): salvage lost record %s (%s)\n", cycle,
              ScenarioName(scenario), key.c_str(), gs.ToString().c_str());
      res.failures++;
    }
  }
  doctored.reset();

  printf("cycle %3d %-18s nth=%-2llu fired=%llu scanned=%llu detections=%llu "
         "read_errors=%llu salvaged=%llu%s\n",
         cycle, ScenarioName(scenario), (unsigned long long)nth,
         (unsigned long long)res.fired,
         (unsigned long long)pass.pages_scanned,
         (unsigned long long)res.detections, (unsigned long long)read_errors,
         (unsigned long long)report.records_recovered,
         res.failures == 0 ? "" : "  ** FAILURES **");

  MultiVersionDB::Destroy(dir);
  MultiVersionDB::Destroy(salvage_dir);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.path = "/tmp/tsb_scrub_harness." + std::to_string(::getpid());
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name, int* out) {
      if (strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = atoi(argv[++i]);
        return true;
      }
      return false;
    };
    int seed = 0;
    if (arg("--cycles", &cfg.cycles) || arg("--records", &cfg.records)) {
      continue;
    }
    if (arg("--seed", &seed)) {
      cfg.seed = static_cast<uint32_t>(seed);
      continue;
    }
    if (strcmp(argv[i], "--path") == 0 && i + 1 < argc) {
      cfg.path = argv[++i];
      continue;
    }
    fprintf(stderr,
            "usage: %s [--cycles N] [--records N] [--path DIR] [--seed N]\n",
            argv[0]);
    return 2;
  }

  std::mt19937 rng(cfg.seed);
  int total_failures = 0;
  uint64_t faulty_cycles = 0, detected_cycles = 0;
  for (int cycle = 0; cycle < cfg.cycles; ++cycle) {
    CycleResult r = RunCycle(cfg, cycle, &rng);
    total_failures += r.failures;
    if (r.fired > 0) {
      faulty_cycles++;
      if (r.detections > 0) detected_cycles++;
    }
  }
  printf("scrub_harness: %d cycles, %llu faulty, %llu detected, "
         "%d failures\n",
         cfg.cycles, (unsigned long long)faulty_cycles,
         (unsigned long long)detected_cycles, total_failures);
  return total_failures == 0 ? 0 : 1;
}
