// Buffer pool under contention: multi-threaded fetch/evict stress with
// latched readers and writers, plus single-threaded regression coverage for
// the "temporarily over-allocates while everything is pinned" path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/mem_device.h"

namespace tsb {
namespace {

constexpr uint32_t kPageSize = 512;

class BufferPoolConcurrencyTest : public ::testing::Test {
 protected:
  BufferPoolConcurrencyTest() : pager_(&dev_, kPageSize) {}

  // Creates `n` pages, each stamped with its own id in the payload, and
  // flushes them so any pool over the same pager can re-read them.
  std::vector<uint32_t> SeedPages(BufferPool* pool, int n) {
    std::vector<uint32_t> ids;
    for (int i = 0; i < n; ++i) {
      PageHandle h;
      EXPECT_TRUE(pool->New(PageType::kTsbData, &h).ok());
      const uint32_t id = h.id();
      memcpy(h.data() + kPageHeaderSize, &id, sizeof(uint32_t));
      h.MarkDirty();
      ids.push_back(id);
    }
    EXPECT_TRUE(pool->FlushAll().ok());
    return ids;
  }

  static uint32_t Stamp(const PageHandle& h) {
    uint32_t v = 0;
    memcpy(&v, h.data() + kPageHeaderSize, sizeof(uint32_t));
    return v;
  }

  MemDevice dev_;
  Pager pager_;
};

// Many reader threads + one mutator thread over a pool far smaller than the
// page set: every fetch path (hit, miss+evict, latch wait) runs under
// contention. Each page's payload always holds its own id, and a counter
// the mutator bumps under the exclusive latch; readers verify the id under
// the shared latch.
TEST_F(BufferPoolConcurrencyTest, SharedAndExclusiveFetchStress) {
  constexpr int kPages = 64;
  constexpr int kReaders = 4;
  constexpr int kOpsPerThread = 3000;

  BufferPool pool(&pager_, 8);  // much smaller than kPages: constant eviction
  const std::vector<uint32_t> ids = SeedPages(&pool, kPages);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (r + 1);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t id = ids[(rng >> 33) % ids.size()];
        PageHandle h;
        if (!pool.FetchShared(id, &h).ok()) {
          failed.store(true);
          break;
        }
        if (Stamp(h) != id) {
          failed.store(true);
          break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t rng = 0xDEADBEEFCAFEF00Dull;
    for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const uint32_t id = ids[(rng >> 33) % ids.size()];
      PageHandle h;
      if (!pool.FetchExclusive(id, &h).ok()) {
        failed.store(true);
        break;
      }
      if (Stamp(h) != id) {
        failed.store(true);
        break;
      }
      // Bump a per-page counter stored after the stamp; the write is only
      // legal under the exclusive latch.
      uint32_t counter = 0;
      memcpy(&counter, h.data() + kPageHeaderSize + 4, sizeof(uint32_t));
      counter++;
      memcpy(h.data() + kPageHeaderSize + 4, &counter, sizeof(uint32_t));
      h.MarkDirty();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  // Every page still carries its stamp after the storm (write-backs and
  // re-reads preserved content).
  for (uint32_t id : ids) {
    PageHandle h;
    ASSERT_TRUE(pool.Fetch(id, &h).ok());
    EXPECT_EQ(id, Stamp(h));
  }
}

// Resident index pages under contention (a 512-frame pool runs 16 shards):
// readers and an exclusive writer race on resident index pages while a
// loader churns data pages through the shards. The writer keeps two copies of a per-page counter equal under
// its exclusive latch; a reader must never see them differ, and every
// page keeps its stamp.
// Index pages keep their level byte where Stamp reads: their stamp sits
// after the two counters.
constexpr uint32_t kIndexStampAt = kPageHeaderSize + 12;

uint32_t IndexStamp(const PageHandle& h) {
  uint32_t v = 0;
  memcpy(&v, h.data() + kIndexStampAt, sizeof(uint32_t));
  return v;
}

TEST_F(BufferPoolConcurrencyTest, ResidentIndexPagesUnderReadersAndWriter) {
  constexpr int kIndexPages = 16;
  constexpr int kReaders = 3;
  constexpr int kOpsPerThread = 4000;
  BufferPool pool(&pager_, 512);
  ASSERT_EQ(32u, pool.resident_budget());
  std::vector<uint32_t> ids;
  for (int i = 0; i < kIndexPages; ++i) {
    PageHandle h;
    ASSERT_TRUE(pool.New(PageType::kTsbIndex, &h).ok());
    const uint32_t id = h.id();
    SetTsbPageLevel(h.data(), 1);
    memcpy(h.data() + kIndexStampAt, &id, sizeof(uint32_t));
    h.MarkDirty();
    ids.push_back(id);
  }
  const std::vector<uint32_t> data = SeedPages(&pool, 64);
  for (uint32_t id : ids) {  // the first fetch publishes each page
    PageHandle h;
    ASSERT_TRUE(pool.FetchShared(id, &h).ok());
  }
  ASSERT_EQ(static_cast<size_t>(kIndexPages), pool.resident_index_pages());
  pool.ResetStats();

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (r + 1);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t id = ids[(rng >> 33) % ids.size()];
        PageHandle h;
        if (!pool.FetchShared(id, &h).ok() || IndexStamp(h) != id) {
          failed.store(true);
          break;
        }
        uint32_t a = 0, b = 0;
        memcpy(&a, h.data() + kPageHeaderSize + 4, sizeof(uint32_t));
        memcpy(&b, h.data() + kPageHeaderSize + 8, sizeof(uint32_t));
        if (a != b) failed.store(true);
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t rng = 0xDEADBEEFCAFEF00Dull;
    for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const uint32_t id = ids[(rng >> 33) % ids.size()];
      PageHandle h;
      if (!pool.FetchExclusive(id, &h).ok() || IndexStamp(h) != id) {
        failed.store(true);
        break;
      }
      uint32_t counter = 0;
      memcpy(&counter, h.data() + kPageHeaderSize + 4, sizeof(uint32_t));
      counter++;
      memcpy(h.data() + kPageHeaderSize + 4, &counter, sizeof(uint32_t));
      std::this_thread::yield();  // widen the window between the copies
      memcpy(h.data() + kPageHeaderSize + 8, &counter, sizeof(uint32_t));
      h.MarkDirty();
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
      PageHandle h;
      if (i % 4 == 0) {
        if (!pool.New(PageType::kTsbData, &h).ok()) failed.store(true);
        h.MarkDirty();
      } else if (!pool.FetchShared(data[i % data.size()], &h).ok()) {
        failed.store(true);
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(static_cast<size_t>(kIndexPages), pool.resident_index_pages());
  const BufferPoolStats st = pool.stats();
  EXPECT_EQ((kReaders + 1) * uint64_t{kOpsPerThread} + kOpsPerThread * 3 / 4,
            st.hits + st.misses);
  // Only the loader's data-page fetches went through a shard.
  EXPECT_EQ(uint64_t{kOpsPerThread} * 3 / 4, st.shard_lookups);
  for (uint32_t id : ids) {
    PageHandle h;
    ASSERT_TRUE(pool.Fetch(id, &h).ok());
    EXPECT_EQ(id, IndexStamp(h));
  }
}

// Concurrent shared fetches of one hot page must all succeed and overlap
// (shared latches do not exclude each other). Overlap is demonstrated by
// holding all handles alive simultaneously before releasing any.
TEST_F(BufferPoolConcurrencyTest, ConcurrentSharedHoldersOfOnePage) {
  BufferPool pool(&pager_, 4);
  const std::vector<uint32_t> ids = SeedPages(&pool, 1);

  constexpr int kThreads = 8;
  std::atomic<int> holding{0};
  std::atomic<bool> all_held{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      PageHandle h;
      if (!pool.FetchShared(ids[0], &h).ok()) {
        failed.store(true);
        return;
      }
      holding.fetch_add(1);
      while (!all_held.load() && !failed.load()) {
        if (holding.load() == kThreads) all_held.store(true);
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(all_held.load());
}

// Regression (single-threaded): when every frame is pinned the pool
// over-allocates instead of failing, and shrinks back once pins drop.
TEST_F(BufferPoolConcurrencyTest, OverAllocatesWhileAllFramesPinned) {
  BufferPool pool(&pager_, 2);
  std::vector<PageHandle> pinned(6);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(pool.New(PageType::kTsbData, &pinned[i]).ok());
    const uint32_t id = pinned[i].id();
    memcpy(pinned[i].data() + kPageHeaderSize, &id, sizeof(uint32_t));
    pinned[i].MarkDirty();
  }
  // All six frames resident despite capacity 2: nothing was evictable.
  EXPECT_EQ(6u, pool.resident_frames());
  // Pinned content is intact and still writable.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(pinned[i].id(), Stamp(pinned[i]));
  }
  const uint32_t id0 = pinned[0].id();
  for (auto& h : pinned) h.Release();
  // The next allocation triggers eviction back towards capacity.
  PageHandle extra;
  ASSERT_TRUE(pool.New(PageType::kTsbData, &extra).ok());
  EXPECT_LE(pool.resident_frames(), 3u);
  EXPECT_GE(pool.stats().evictions, 4u);
  // Evicted dirty pages were written back, not lost.
  PageHandle h;
  ASSERT_TRUE(pool.Fetch(id0, &h).ok());
  EXPECT_EQ(id0, Stamp(h));
}

}  // namespace
}  // namespace tsb
