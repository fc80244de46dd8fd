// End-to-end integration: the full stack (MultiVersionDB + transactions +
// secondary index + TSB-tree over magnetic/WORM devices) driven by the
// workload generator, verified against a reference model, including a
// comparison run of TSB vs WOBT vs B+-tree on the same operation stream.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bpt/bplus_tree.h"
#include "common/random.h"
#include "storage/file_device.h"
#include "db/multiversion_db.h"
#include "storage/mem_device.h"
#include "storage/worm_device.h"
#include "tsb/tree_check.h"
#include "util/workload.h"
#include "wobt/wobt_tree.h"

namespace tsb {
namespace {

TEST(IntegrationTest, FullStackWorkloadWithTxnsAndIndex) {
  MemDevice magnetic;
  WormDevice worm(1024);
  db::DbOptions opts;
  opts.tree.page_size = 1024;
  std::unique_ptr<db::MultiVersionDB> mvdb;
  ASSERT_TRUE(db::MultiVersionDB::Open(&magnetic, &worm, opts, &mvdb).ok());
  ASSERT_TRUE(mvdb->CreateSecondaryIndex(
                      "by_region",
                      [](const Slice& v) -> std::optional<std::string> {
                        // value = "<region>|<payload>"
                        const std::string s = v.ToString();
                        const size_t bar = s.find('|');
                        if (bar == std::string::npos) return std::nullopt;
                        return s.substr(0, bar);
                      })
                  .ok());

  util::WorkloadSpec spec;
  spec.seed = 99;
  spec.num_ops = 1500;
  spec.update_fraction = 0.6;
  util::WorkloadGenerator gen(spec);

  std::map<std::string, std::map<Timestamp, std::string>> model;
  Random rnd(5);
  util::Op op;
  int batch = 0;
  std::unique_ptr<txn::Transaction> txn;
  while (gen.Next(&op)) {
    const std::string region = "region-" + std::to_string(rnd.Uniform(4));
    const std::string value = region + "|" + op.value;
    if (txn == nullptr) {
      ASSERT_TRUE(mvdb->Begin(&txn).ok());
    }
    Status s = txn->Put(op.key, value);
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (++batch >= 5) {
      Timestamp cts = 0;
      ASSERT_TRUE(txn->Commit(&cts).ok());
      // Model sees every committed write at its commit timestamp — but a
      // txn can overwrite its own earlier write; replay from write order
      // is simplest: re-read the committed state for affected keys is
      // overkill, so instead track commits below.
      txn.reset();
      batch = 0;
    }
  }
  if (txn != nullptr) {
    ASSERT_TRUE(txn->Commit().ok());
    txn.reset();
  }

  // Model reconstruction: replay history from the DB's own history
  // iterators would be circular; instead verify internal consistency:
  // 1. Structural invariants hold.
  tsb_tree::TreeChecker checker(mvdb->primary());
  Status cs = checker.Check();
  EXPECT_TRUE(cs.ok()) << cs.ToString();

  // 2. Every current record's region matches its secondary index entry.
  auto it = mvdb->NewCursor({.as_of = mvdb->Now()});
  ASSERT_TRUE(it->SeekToFirst().ok());
  size_t checked = 0;
  while (it->Valid()) {
    const std::string value = it->value().ToString();
    const std::string region = value.substr(0, value.find('|'));
    std::vector<std::string> pks;
    ASSERT_TRUE(mvdb->index("by_region")->Lookup(region, &pks).ok());
    bool found = false;
    for (const std::string& pk : pks) {
      if (pk == it->key().ToString()) found = true;
    }
    EXPECT_TRUE(found) << "key " << it->key().ToString()
                       << " missing from index region " << region;
    ++checked;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(gen.keys_created(), checked);

  // 3. Read-only snapshot at an old time agrees with as-of reads.
  const Timestamp old_t = mvdb->Now() / 2;
  auto old_it = mvdb->NewCursor({.as_of = old_t});
  ASSERT_TRUE(old_it->SeekToFirst().ok());
  while (old_it->Valid()) {
    std::string v;
    Timestamp ts = 0;
    ASSERT_TRUE(mvdb->Get({.as_of = old_t}, old_it->key(), &v, &ts).ok());
    EXPECT_EQ(old_it->value().ToString(), v);
    EXPECT_EQ(old_it->ts(), ts);
    ASSERT_TRUE(old_it->Next().ok());
  }
}

TEST(IntegrationTest, ThreeStructuresAgreeOnCurrentState) {
  // The same operation stream through the TSB-tree, the WOBT and the
  // B+-tree: all three must agree on every current value; TSB and WOBT
  // must agree on every as-of probe.
  util::WorkloadSpec spec;
  spec.seed = 123;
  spec.num_ops = 1200;
  spec.update_fraction = 0.5;
  spec.value_size = 16;

  MemDevice tsb_mag;
  WormDevice tsb_worm(512);
  tsb_tree::TsbOptions topts;
  topts.page_size = 512;
  std::unique_ptr<tsb_tree::TsbTree> tsb;
  ASSERT_TRUE(
      tsb_tree::TsbTree::Open(&tsb_mag, &tsb_worm, topts, &tsb).ok());

  WormDevice wobt_worm(512);
  wobt::WobtOptions wopts;
  wopts.node_sectors = 4;
  wobt::WobtTree wobt(&wobt_worm, wopts);

  MemDevice bpt_dev;
  bpt::BptOptions bopts;
  bopts.page_size = 512;
  std::unique_ptr<bpt::BPlusTree> bpt;
  ASSERT_TRUE(bpt::BPlusTree::Open(&bpt_dev, bopts, &bpt).ok());

  util::WorkloadGenerator gen(spec);
  util::Op op;
  std::map<std::string, std::map<Timestamp, std::string>> model;
  while (gen.Next(&op)) {
    ASSERT_TRUE(tsb->Put(op.key, op.value, op.ts).ok());
    ASSERT_TRUE(wobt.Insert(op.key, op.value, op.ts).ok());
    ASSERT_TRUE(bpt->Put(op.key, op.value).ok());
    model[op.key][op.ts] = op.value;
  }

  Random rnd(spec.seed);
  for (const auto& [key, versions] : model) {
    std::string vt, vw, vb;
    ASSERT_TRUE(tsb->Get({}, key, &vt).ok()) << key;
    ASSERT_TRUE(wobt.GetCurrent(key, &vw).ok()) << key;
    ASSERT_TRUE(bpt->Get(key, &vb).ok()) << key;
    EXPECT_EQ(versions.rbegin()->second, vt);
    EXPECT_EQ(vt, vw);
    EXPECT_EQ(vt, vb);
  }
  // Temporal agreement between the two multiversion structures.
  for (int probe = 0; probe < 300; ++probe) {
    const std::string key = gen.KeyFor(rnd.Uniform(gen.keys_created()));
    const Timestamp t = 1 + rnd.Uniform(spec.num_ops);
    std::string vt, vw;
    Status st = tsb->Get({.as_of = t}, key, &vt);
    Status sw = wobt.GetAsOf(key, t, &vw);
    EXPECT_EQ(st.ok(), sw.ok()) << key << "@" << t;
    if (st.ok() && sw.ok()) {
      EXPECT_EQ(vt, vw);
    }
    // And against the model.
    const auto& versions = model[key];
    auto uit = versions.upper_bound(t);
    if (uit == versions.begin()) {
      EXPECT_TRUE(st.IsNotFound());
    } else {
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(std::prev(uit)->second, vt);
    }
  }
}

TEST(IntegrationTest, FileBackedDevicesSurviveReopen) {
  const std::string mag_path = ::testing::TempDir() + "/tsb_integration_mag.db";
  const std::string hist_path =
      ::testing::TempDir() + "/tsb_integration_hist.db";
  ::remove(mag_path.c_str());
  ::remove(hist_path.c_str());
  {
    FileDevice *mag_raw = nullptr, *hist_raw = nullptr;
    ASSERT_TRUE(FileDevice::Open(mag_path, &mag_raw).ok());
    ASSERT_TRUE(FileDevice::Open(hist_path, &hist_raw,
                                 DeviceKind::kOpticalErasable,
                                 CostParams::OpticalWorm())
                    .ok());
    std::unique_ptr<FileDevice> mag(mag_raw), hist(hist_raw);
    tsb_tree::TsbOptions opts;
    opts.page_size = 1024;
    std::unique_ptr<tsb_tree::TsbTree> tree;
    ASSERT_TRUE(tsb_tree::TsbTree::Open(mag.get(), hist.get(), opts, &tree).ok());
    for (int i = 0; i < 500; ++i) {
      char kb[16];
      snprintf(kb, sizeof(kb), "k%04d", i % 50);
      ASSERT_TRUE(tree->Put(kb, "v" + std::to_string(i), i + 1).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(mag->Sync().ok());
    ASSERT_TRUE(hist->Sync().ok());
  }
  {
    FileDevice *mag_raw = nullptr, *hist_raw = nullptr;
    ASSERT_TRUE(FileDevice::Open(mag_path, &mag_raw).ok());
    ASSERT_TRUE(FileDevice::Open(hist_path, &hist_raw,
                                 DeviceKind::kOpticalErasable,
                                 CostParams::OpticalWorm())
                    .ok());
    std::unique_ptr<FileDevice> mag(mag_raw), hist(hist_raw);
    tsb_tree::TsbOptions opts;
    opts.page_size = 1024;
    std::unique_ptr<tsb_tree::TsbTree> tree;
    ASSERT_TRUE(tsb_tree::TsbTree::Open(mag.get(), hist.get(), opts, &tree).ok());
    std::string v;
    ASSERT_TRUE(tree->Get({}, "k0010", &v).ok());
    EXPECT_EQ("v460", v);
    ASSERT_TRUE(tree->Get({.as_of = 11}, "k0010", &v).ok());
    EXPECT_EQ("v10", v);
    tsb_tree::TreeChecker checker(tree.get());
    EXPECT_TRUE(checker.Check().ok());
  }
  ::remove(mag_path.c_str());
  ::remove(hist_path.c_str());
}

}  // namespace
}  // namespace tsb
