// The restart-block prefix-compressed historical node format and its
// zero-copy view refs: round trips, view binary-search parity against a
// linear scan on randomized entry sets at every restart interval the
// split policy can pick (plus the degenerate ones), rejection of every
// other version byte, container corruption handling, and the current
// index page's binary-search FindContaining parity against a linear scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "tsb/data_page.h"
#include "tsb/hist_node.h"
#include "tsb/index_page.h"

namespace tsb {
namespace tsb_tree {
namespace {

std::vector<DataEntry> MakeEntries(Random* rnd, int keys, int max_versions) {
  std::vector<DataEntry> entries;
  Timestamp ts = 1;
  for (int k = 0; k < keys; ++k) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", k * 3);
    const int versions = 1 + static_cast<int>(rnd->Uniform(max_versions));
    for (int v = 0; v < versions; ++v) {
      DataEntry e;
      e.key = key;
      e.ts = ts;
      ts += 1 + rnd->Uniform(3);
      e.value = "value-" + e.key + "-" + std::to_string(e.ts);
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

// Keys sharing a long common prefix — the workload prefix compression
// exists for.
std::vector<DataEntry> MakePrefixHeavyEntries(Random* rnd, int keys,
                                              int max_versions) {
  std::vector<DataEntry> entries;
  Timestamp ts = 1;
  for (int k = 0; k < keys; ++k) {
    char key[48];
    snprintf(key, sizeof(key), "tenant-0042/user-%08d/balance", k * 7);
    const int versions = 1 + static_cast<int>(rnd->Uniform(max_versions));
    for (int v = 0; v < versions; ++v) {
      DataEntry e;
      e.key = key;
      e.ts = ts;
      ts += 1 + rnd->Uniform(3);
      e.value = "v" + std::to_string(ts);
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

// Reference implementation: a linear scan over owned entries.
int LinearFindVersion(const std::vector<DataEntry>& entries, const Slice& key,
                      Timestamp t) {
  int best = -1;
  for (size_t i = 0; i < entries.size(); ++i) {
    const DataEntry& e = entries[i];
    if (e.uncommitted()) continue;
    if (Slice(e.key) == key && e.ts <= t) {
      if (best < 0 || e.ts > entries[best].ts) best = static_cast<int>(i);
    }
  }
  return best;
}

void ExpectSameEntries(const std::vector<DataEntry>& expected,
                       const std::vector<DataEntry>& got) {
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, got[i].key);
    EXPECT_EQ(expected[i].ts, got[i].ts);
    EXPECT_EQ(expected[i].value, got[i].value);
  }
}

// Restart intervals the parity tests sweep: the three the split policy
// picks (4 for long keys, 64 for version runs, 16 otherwise), plus
// single-cell blocks, tiny blocks, and blocks larger than most nodes.
constexpr uint32_t kIntervals[] = {1, 2, 4, 16, 64, 128};

// A tiling set of entries: `key_cuts`+1 key stripes x per-stripe time
// cells, mirroring what time/key splits produce. Entries are
// (key_lo, t_lo)-sorted as index pages keep them.
std::vector<IndexEntry> MakeTiling(Random* rnd, int key_stripes,
                                   int time_cells, Timestamp t_max) {
  std::vector<IndexEntry> entries;
  uint64_t next_addr = 64;
  for (int s = 0; s < key_stripes; ++s) {
    std::string lo =
        s == 0 ? std::string() : "key" + std::to_string(1000 + s * 7);
    std::string hi = "key" + std::to_string(1000 + (s + 1) * 7);
    const bool hi_inf = (s == key_stripes - 1);
    Timestamp t = 0;
    for (int c = 0; c < time_cells; ++c) {
      IndexEntry e;
      e.key_lo = lo;
      e.key_hi = hi_inf ? std::string() : hi;
      e.key_hi_inf = hi_inf;
      e.t_lo = t;
      t += 1 + rnd->Uniform(t_max / time_cells);
      e.t_hi = (c == time_cells - 1) ? kInfiniteTs : t;
      if (e.t_hi == kInfiniteTs) {
        e.child = NodeRef::Current(static_cast<uint32_t>(next_addr));
      } else {
        e.child = NodeRef::Historical(HistAddr{next_addr, 32});
      }
      next_addr += 64;
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

int LinearFindContaining(const std::vector<IndexEntry>& entries,
                         const Slice& key, Timestamp t) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].Contains(key, t)) return static_cast<int>(i);
  }
  return -1;
}

TEST(HistDataNodeTest, RoundTrip) {
  Random rnd(7);
  const std::vector<DataEntry> entries = MakePrefixHeavyEntries(&rnd, 40, 5);
  std::string blob;
  SerializeHistDataNode(ViewsOf(entries), &blob);

  std::vector<DataEntry> decoded;
  ASSERT_TRUE(DecodeHistDataNode(Slice(blob), &decoded).ok());
  ExpectSameEntries(entries, decoded);

  HistDataNodeRef ref;
  ASSERT_TRUE(ref.Parse(Slice(blob)).ok());
  EXPECT_EQ(kHistNodeVersion3, static_cast<uint8_t>(blob[1]));
  ASSERT_EQ(static_cast<int>(entries.size()), ref.Count());
  // One view at a time (the scratch contract): compare then move on.
  for (int i = 0; i < ref.Count(); ++i) {
    DataEntryView v;
    ASSERT_TRUE(ref.At(i, &v).ok());
    EXPECT_EQ(Slice(entries[i].key), v.key);
    EXPECT_EQ(entries[i].ts, v.ts);
    EXPECT_EQ(Slice(entries[i].value), v.value);
  }
  // Random access out of order exercises per-block reassembly.
  Random probe(23);
  for (int q = 0; q < 200; ++q) {
    const int i = static_cast<int>(probe.Uniform(ref.Count()));
    DataEntryView v;
    ASSERT_TRUE(ref.At(i, &v).ok());
    EXPECT_EQ(Slice(entries[i].key), v.key);
    EXPECT_EQ(Slice(entries[i].value), v.value);
  }
}

TEST(HistDataNodeTest, CompressesPrefixHeavyKeys) {
  Random rnd(31);
  const std::vector<DataEntry> entries = MakePrefixHeavyEntries(&rnd, 30, 6);
  std::string blob;
  uint64_t raw = 0;
  SerializeHistDataNode(ViewsOf(entries), &blob, &raw);
  // raw_bytes is the uncompressed slotted size: header, cells, offsets.
  uint64_t cells = 0;
  for (const DataEntry& e : entries) cells += e.EncodedSize();
  EXPECT_EQ(6 + cells + 4 * entries.size(), raw);
  EXPECT_LE(blob.size() * 10, raw * 8)
      << "should be <= 0.8x of uncompressed on prefix-heavy keys";
  // Smaller blocks must not compress better than bigger ones on this
  // prefix-heavy set (more restarts = more whole cells stored).
  std::string blob4, blob64;
  SerializeHistDataNode(ViewsOf(entries), &blob4, nullptr, 4);
  SerializeHistDataNode(ViewsOf(entries), &blob64, nullptr, 64);
  EXPECT_GT(blob4.size(), blob64.size());
}

TEST(HistDataNodeTest, FindVersionParityRandomizedAcrossIntervals) {
  Random rnd(13);
  for (const uint32_t interval : kIntervals) {
    for (int round = 0; round < 10; ++round) {
      const std::vector<DataEntry> entries =
          round % 2 == 0
              ? MakeEntries(&rnd, 1 + static_cast<int>(rnd.Uniform(30)), 6)
              : MakePrefixHeavyEntries(
                    &rnd, 1 + static_cast<int>(rnd.Uniform(30)), 6);
      std::string blob;
      SerializeHistDataNode(ViewsOf(entries), &blob, nullptr, interval);
      std::vector<DataEntry> decoded;
      ASSERT_TRUE(DecodeHistDataNode(Slice(blob), &decoded).ok());
      ExpectSameEntries(entries, decoded);
      HistNodeRef container;
      ASSERT_TRUE(container.Parse(Slice(blob)).ok());
      EXPECT_EQ(interval, container.restart_interval());
      EXPECT_EQ((entries.size() + interval - 1) / interval,
                static_cast<size_t>(container.RestartCount()));
      HistDataNodeRef ref;
      ASSERT_TRUE(ref.Parse(Slice(blob)).ok());

      const Timestamp max_ts = entries.back().ts + 2;
      for (int q = 0; q < 100; ++q) {
        std::string key;
        if (round % 2 == 0) {
          char buf[16];
          snprintf(buf, sizeof(buf), "key%05d",
                   static_cast<int>(rnd.Uniform(35 * 3)));
          key = buf;
        } else {
          char buf[48];
          snprintf(buf, sizeof(buf), "tenant-0042/user-%08d/balance",
                   static_cast<int>(rnd.Uniform(35 * 7)));
          key = buf;
        }
        const Timestamp t = 1 + rnd.Uniform(max_ts);
        int got = -2;
        ASSERT_TRUE(ref.FindVersion(key, t, &got).ok());
        EXPECT_EQ(LinearFindVersion(entries, key, t), got)
            << "interval=" << interval << " key=" << key << " t=" << t;
      }
    }
  }
}

TEST(HistDataNodeTest, FewerCellsThanOneBlock) {
  // count < restart_interval: a single restart block.
  std::vector<DataEntry> entries;
  DataEntry e;
  e.key = "shared/prefix/key-a";
  e.ts = 5;
  e.value = "va";
  entries.push_back(e);
  e.key = "shared/prefix/key-b";
  e.ts = 7;
  e.value = "vb";
  entries.push_back(e);
  std::string blob;
  SerializeHistDataNode(ViewsOf(entries), &blob);
  HistDataNodeRef ref;
  ASSERT_TRUE(ref.Parse(Slice(blob)).ok());
  ASSERT_EQ(2, ref.Count());
  {
    HistNodeRef container;
    ASSERT_TRUE(container.Parse(Slice(blob)).ok());
    EXPECT_EQ(1, container.RestartCount());
  }
  DataEntryView v;
  ASSERT_TRUE(ref.At(1, &v).ok());
  EXPECT_EQ(Slice("shared/prefix/key-b"), v.key);
  EXPECT_EQ(Slice("vb"), v.value);
}

TEST(HistDataNodeTest, EmptyNodeRoundTrips) {
  std::string blob;
  SerializeHistDataNode({}, &blob);
  HistDataNodeRef ref;
  ASSERT_TRUE(ref.Parse(Slice(blob)).ok());
  EXPECT_EQ(0, ref.Count());
  int pos = -2;
  ASSERT_TRUE(ref.FindVersion("any", 100, &pos).ok());
  EXPECT_EQ(-1, pos);
  std::vector<DataEntry> decoded;
  ASSERT_TRUE(DecodeHistDataNode(Slice(blob), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

// A well-formed blob in one of the retired formats: v1 (byte 1 == 0,
// length-prefixed cells) or v2 (byte 1 == 2, cells then a u32 offset per
// cell).
std::string LegacyBlob(uint8_t version, uint8_t level,
                       const std::vector<std::string>& cells) {
  std::string out;
  out.push_back(static_cast<char>(level));
  out.push_back(static_cast<char>(version));
  if (version == 0) {
    PutVarint32(&out, static_cast<uint32_t>(cells.size()));
    for (const std::string& c : cells) PutLengthPrefixedSlice(&out, c);
    return out;
  }
  PutFixed32(&out, static_cast<uint32_t>(cells.size()));
  std::vector<uint32_t> offsets;
  for (const std::string& c : cells) {
    offsets.push_back(static_cast<uint32_t>(out.size()));
    out.append(c);
  }
  for (const uint32_t off : offsets) PutFixed32(&out, off);
  return out;
}

TEST(HistNodeTest, RetiredVersionsRejected) {
  Random rnd(5);
  std::vector<std::string> data_cells, index_cells;
  for (const DataEntry& e : MakeEntries(&rnd, 20, 3)) {
    data_cells.emplace_back();
    EncodeDataCell(&data_cells.back(), e.key, e.ts, e.txn, e.value);
  }
  for (const IndexEntry& e : MakeTiling(&rnd, 3, 3, 300)) {
    index_cells.emplace_back();
    EncodeIndexCell(&index_cells.back(), e);
  }
  for (const uint8_t version : {uint8_t{0}, uint8_t{2}}) {
    for (const uint8_t level : {uint8_t{0}, uint8_t{1}}) {
      const std::string blob =
          LegacyBlob(version, level, level == 0 ? data_cells : index_cells);
      HistNodeRef ref;
      const Status s = ref.Parse(Slice(blob));
      EXPECT_TRUE(s.IsCorruption()) << "version " << int{version};
      EXPECT_NE(std::string::npos,
                s.ToString().find("unknown historical node version"))
          << s.ToString();
      std::vector<DataEntry> data;
      EXPECT_TRUE(DecodeHistDataNode(Slice(blob), &data).IsCorruption());
      EXPECT_TRUE(data.empty());
      uint8_t got_level = 0;
      std::vector<IndexEntry> index;
      EXPECT_TRUE(DecodeHistIndexNode(Slice(blob), &got_level, &index)
                      .IsCorruption());
      EXPECT_TRUE(index.empty());
    }
  }
}

TEST(HistNodeTest, CorruptContainersRejected) {
  std::vector<DataEntry> entries;
  for (int i = 0; i < 20; ++i) {
    DataEntry e;
    e.key = "prefix/key-" + std::to_string(100 + i);
    e.ts = 10 + i;
    e.value = "v" + std::to_string(i);
    entries.push_back(e);
  }
  std::string blob;
  SerializeHistDataNode(ViewsOf(entries), &blob);

  HistNodeRef ref;
  // Truncated below the version byte, then below the fixed header
  // (level/version/count/interval).
  EXPECT_TRUE(ref.Parse(Slice(blob.data(), 1)).IsCorruption());
  EXPECT_TRUE(ref.Parse(Slice(blob.data(), 7)).IsCorruption());
  // Too short to hold the restart directory (two restarts = 8 bytes).
  EXPECT_TRUE(ref.Parse(Slice(blob.data(), 9)).IsCorruption());
  // A restart directory entry pointing outside the cell area parses (the
  // container cannot know cell sizes) but fails at access time for every
  // cell of that block.
  std::string bad_dir = blob;
  bad_dir[bad_dir.size() - 4] = static_cast<char>(0xff);
  bad_dir[bad_dir.size() - 3] = static_cast<char>(0xff);
  HistDataNodeRef data_ref;
  ASSERT_TRUE(data_ref.Parse(Slice(bad_dir)).ok());
  DataEntryView v;
  EXPECT_TRUE(data_ref.At(16, &v).IsCorruption());
  // Zero restart interval is rejected at parse time.
  std::string bad_interval = blob;
  bad_interval[6] = 0;
  bad_interval[7] = 0;
  EXPECT_TRUE(ref.Parse(Slice(bad_interval)).IsCorruption());
  // Unknown version byte.
  std::string bad = blob;
  bad[1] = 9;
  EXPECT_TRUE(ref.Parse(Slice(bad)).IsCorruption());
  // An index decoder must reject a data node.
  uint8_t level = 0;
  std::vector<IndexEntry> ignored;
  EXPECT_TRUE(DecodeHistIndexNode(Slice(blob), &level, &ignored)
                  .IsCorruption());
}

TEST(HistIndexNodeTest, RoundTrip) {
  Random rnd(17);
  const std::vector<IndexEntry> entries = MakeTiling(&rnd, 4, 3, 300);
  std::string blob;
  SerializeHistIndexNode(2, entries, &blob);
  uint8_t level = 0;
  std::vector<IndexEntry> decoded;
  ASSERT_TRUE(DecodeHistIndexNode(Slice(blob), &level, &decoded).ok());
  EXPECT_EQ(2, level);
  ASSERT_EQ(entries.size(), decoded.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key_lo, decoded[i].key_lo);
    EXPECT_EQ(entries[i].key_hi_inf, decoded[i].key_hi_inf);
    EXPECT_EQ(entries[i].t_lo, decoded[i].t_lo);
    EXPECT_EQ(entries[i].t_hi, decoded[i].t_hi);
    EXPECT_EQ(entries[i].child, decoded[i].child);
  }
}

TEST(HistIndexNodeTest, FindContainingParityRandomizedAcrossIntervals) {
  Random rnd(19);
  for (const uint32_t interval : kIntervals) {
    for (int round = 0; round < 10; ++round) {
      const std::vector<IndexEntry> entries =
          MakeTiling(&rnd, 1 + static_cast<int>(rnd.Uniform(6)),
                     1 + static_cast<int>(rnd.Uniform(5)), 400);
      const uint8_t level = static_cast<uint8_t>(1 + round % 3);
      std::string blob;
      SerializeHistIndexNode(level, entries, &blob, nullptr, interval);
      HistIndexNodeRef ref;
      ASSERT_TRUE(ref.Parse(Slice(blob)).ok());
      EXPECT_EQ(level, ref.Level());
      ASSERT_EQ(static_cast<int>(entries.size()), ref.Count());
      for (size_t i = 0; i < entries.size(); ++i) {
        IndexEntryView v;
        ASSERT_TRUE(ref.AtView(static_cast<int>(i), &v).ok());
        EXPECT_EQ(Slice(entries[i].key_lo), v.key_lo)
            << "interval=" << interval;
        EXPECT_EQ(entries[i].t_hi, v.t_hi);
      }

      for (int q = 0; q < 100; ++q) {
        const std::string key =
            "key" + std::to_string(990 + rnd.Uniform(60));
        const Timestamp t = rnd.Uniform(500);
        int got = -2;
        ASSERT_TRUE(ref.FindContaining(key, t, &got).ok());
        EXPECT_EQ(LinearFindContaining(entries, key, t), got)
            << "interval=" << interval << " key=" << key << " t=" << t;
      }
    }
  }
}

// ---------------- current index pages ----------------

TEST(IndexPageFindContainingTest, BinarySearchParityWithLinearScan) {
  Random rnd(53);
  for (int round = 0; round < 20; ++round) {
    const std::vector<IndexEntry> entries =
        MakeTiling(&rnd, 1 + static_cast<int>(rnd.Uniform(6)),
                   1 + static_cast<int>(rnd.Uniform(5)), 400);
    std::vector<char> buf(8192);
    IndexPageRef::Format(buf.data(), static_cast<uint32_t>(buf.size()), 1);
    IndexPageRef page(buf.data(), static_cast<uint32_t>(buf.size()));
    ASSERT_TRUE(page.Load(entries).ok());

    for (int q = 0; q < 200; ++q) {
      const std::string key =
          "key" + std::to_string(990 + rnd.Uniform(60));
      const Timestamp t = rnd.Uniform(500);
      EXPECT_EQ(LinearFindContaining(entries, key, t),
                page.FindContaining(key, t))
          << "key=" << key << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace tsb_tree
}  // namespace tsb
