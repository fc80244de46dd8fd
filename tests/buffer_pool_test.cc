// Buffer pool behaviour: hit/miss accounting, LRU eviction, pin protection,
// dirty write-back, drop, and resident index pages in 16-shard pools.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/mem_device.h"

namespace tsb {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : pager_(&dev_, 512) {}

  uint32_t MakePage(BufferPool* pool, char fill) {
    PageHandle h;
    EXPECT_TRUE(pool->New(PageType::kTsbData, &h).ok());
    h.data()[kPageHeaderSize] = fill;
    h.MarkDirty();
    return h.id();
  }

  MemDevice dev_;
  Pager pager_;
};

TEST_F(BufferPoolTest, NewPageIsPinnedAndDirty) {
  BufferPool pool(&pager_, 4);
  PageHandle h;
  ASSERT_TRUE(pool.New(PageType::kTsbData, &h).ok());
  EXPECT_TRUE(h.valid());
  EXPECT_NE(kInvalidPageId, h.id());
  EXPECT_EQ(1u, pool.resident_frames());
}

TEST_F(BufferPoolTest, FetchHitDoesNotTouchDevice) {
  BufferPool pool(&pager_, 4);
  const uint32_t id = MakePage(&pool, 'a');
  ASSERT_TRUE(pool.FlushAll().ok());
  dev_.ResetStats();
  PageHandle h;
  ASSERT_TRUE(pool.Fetch(id, &h).ok());
  EXPECT_EQ('a', h.data()[kPageHeaderSize]);
  EXPECT_EQ(0u, dev_.stats().reads);  // cached
  EXPECT_EQ(1u, pool.stats().hits);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyAndRereads) {
  BufferPool pool(&pager_, 2);
  const uint32_t a = MakePage(&pool, 'a');
  MakePage(&pool, 'b');
  MakePage(&pool, 'c');  // capacity 2: 'a' must have been evicted
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_LE(pool.resident_frames(), 2u);
  PageHandle h;
  ASSERT_TRUE(pool.Fetch(a, &h).ok());  // re-read from device
  EXPECT_EQ('a', h.data()[kPageHeaderSize]);
  EXPECT_GE(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  BufferPool pool(&pager_, 2);
  PageHandle pinned;
  ASSERT_TRUE(pool.New(PageType::kTsbData, &pinned).ok());
  pinned.data()[kPageHeaderSize] = 'p';
  pinned.MarkDirty();
  // Fill far past capacity while `pinned` stays pinned.
  for (int i = 0; i < 8; ++i) MakePage(&pool, static_cast<char>('0' + i));
  EXPECT_EQ('p', pinned.data()[kPageHeaderSize]);  // still resident and intact
}

TEST_F(BufferPoolTest, LruOrderEvictsColdest) {
  BufferPool pool(&pager_, 3);
  const uint32_t a = MakePage(&pool, 'a');
  const uint32_t b = MakePage(&pool, 'b');
  const uint32_t c = MakePage(&pool, 'c');
  // Touch a and c so b is coldest.
  PageHandle h;
  ASSERT_TRUE(pool.Fetch(a, &h).ok());
  h.Release();
  ASSERT_TRUE(pool.Fetch(c, &h).ok());
  h.Release();
  MakePage(&pool, 'd');  // evicts b
  dev_.ResetStats();
  ASSERT_TRUE(pool.Fetch(a, &h).ok());
  h.Release();
  EXPECT_EQ(0u, dev_.stats().reads);  // a still cached
  ASSERT_TRUE(pool.Fetch(b, &h).ok());
  EXPECT_EQ(1u, dev_.stats().reads);  // b was evicted
  EXPECT_EQ('b', h.data()[kPageHeaderSize]);
}

TEST_F(BufferPoolTest, FlushAllPersistsEverything) {
  BufferPool pool(&pager_, 8);
  std::vector<uint32_t> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(MakePage(&pool, static_cast<char>('A' + i)));
  ASSERT_TRUE(pool.FlushAll().ok());
  // Bypass the pool: read from the pager directly.
  std::string buf(512, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pager_.Read(ids[i], buf.data()).ok());
    EXPECT_EQ(static_cast<char>('A' + i), buf[kPageHeaderSize]);
  }
}

TEST_F(BufferPoolTest, DropFreesPageForReuse) {
  BufferPool pool(&pager_, 4);
  const uint32_t id = MakePage(&pool, 'x');
  ASSERT_TRUE(pool.Drop(id).ok());
  uint32_t re;
  ASSERT_TRUE(pager_.Alloc(&re).ok());
  EXPECT_EQ(id, re);
}

TEST_F(BufferPoolTest, DropPinnedFails) {
  BufferPool pool(&pager_, 4);
  PageHandle h;
  ASSERT_TRUE(pool.New(PageType::kTsbData, &h).ok());
  EXPECT_TRUE(pool.Drop(h.id()).IsBusy());
}

TEST_F(BufferPoolTest, MoveHandleTransfersPin) {
  BufferPool pool(&pager_, 4);
  PageHandle a;
  ASSERT_TRUE(pool.New(PageType::kTsbData, &a).ok());
  const uint32_t id = a.id();
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(id, b.id());
  b.Release();
  // After release the page is unpinned: Drop succeeds.
  EXPECT_TRUE(pool.Drop(id).ok());
}

TEST_F(BufferPoolTest, RepinnedPageLeavesLru) {
  BufferPool pool(&pager_, 2);
  const uint32_t a = MakePage(&pool, 'a');
  PageHandle h;
  ASSERT_TRUE(pool.Fetch(a, &h).ok());  // pinned again
  MakePage(&pool, 'b');
  MakePage(&pool, 'c');
  MakePage(&pool, 'd');
  EXPECT_EQ('a', h.data()[kPageHeaderSize]);  // never evicted while pinned
}

TEST_F(BufferPoolTest, FlushSingleKeepsCached) {
  BufferPool pool(&pager_, 4);
  const uint32_t id = MakePage(&pool, 'z');
  ASSERT_TRUE(pool.Flush(id).ok());
  dev_.ResetStats();
  PageHandle h;
  ASSERT_TRUE(pool.Fetch(id, &h).ok());
  EXPECT_EQ(0u, dev_.stats().reads);
}

// Resident index pages: a pool of 512 frames or more runs 16 shards and
// keeps TSB index pages in a lock-free page table.
class ResidentPoolTest : public BufferPoolTest {
 protected:
  static constexpr size_t kFrames = 512;

  // `fill` goes after the TSB sub-header; index pages are at `level`.
  uint32_t MakeTyped(BufferPool* pool, PageType type, char fill,
                     uint8_t level = 1) {
    PageHandle h;
    EXPECT_TRUE(pool->New(type, &h).ok());
    SetTsbPageLevel(h.data(), type == PageType::kTsbIndex ? level : 0);
    h.data()[kFillAt] = fill;
    h.MarkDirty();
    return h.id();
  }

  static constexpr uint32_t kFillAt = kPageHeaderSize + 2;
};

TEST_F(ResidentPoolTest, SmallPoolsKeepNoResidentPages) {
  BufferPool pool(&pager_, 256);
  EXPECT_EQ(0u, pool.resident_budget());
  const uint32_t id = MakeTyped(&pool, PageType::kTsbIndex, 'i');
  PageHandle h;
  ASSERT_TRUE(pool.FetchShared(id, &h).ok());
  h.Release();
  EXPECT_EQ(0u, pool.resident_index_pages());
  EXPECT_TRUE(pool.Drop(id).ok());  // no pool pin held
}

TEST_F(ResidentPoolTest, IndexPageIsResidentAfterOneFetch) {
  BufferPool pool(&pager_, kFrames);
  ASSERT_EQ(16u, pool.shard_count());
  EXPECT_EQ(kFrames / 16, pool.resident_budget());
  const uint32_t index = MakeTyped(&pool, PageType::kTsbIndex, 'i');
  const uint32_t data = MakeTyped(&pool, PageType::kTsbData, 'd');
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    PageHandle h;
    ASSERT_TRUE(pool.FetchShared(index, &h).ok());  // shard hit, publishes
    PageHandle d;
    ASSERT_TRUE(pool.FetchShared(data, &d).ok());  // data pages never do
  }
  EXPECT_EQ(1u, pool.resident_index_pages());
  pool.ResetStats();
  for (int i = 0; i < 3; ++i) {
    PageHandle h;
    ASSERT_TRUE(pool.FetchExclusive(index, &h).ok());
    EXPECT_EQ('i', h.data()[kFillAt]);
    PageHandle s;
    h.Release();
    ASSERT_TRUE(pool.FetchShared(index, &s).ok());
    s.Release();
    ASSERT_TRUE(pool.Fetch(index, &s).ok());
  }
  BufferPoolStats st = pool.stats();
  EXPECT_EQ(9u, st.hits);  // resident hits still count as pages fetched
  EXPECT_EQ(0u, st.misses);
  EXPECT_EQ(0u, st.shard_lookups);
  PageHandle d;
  ASSERT_TRUE(pool.Fetch(data, &d).ok());
  st = pool.stats();
  EXPECT_EQ(10u, st.hits);
  EXPECT_EQ(1u, st.shard_lookups);
}

TEST_F(ResidentPoolTest, ResidentPageSurvivesEvictionPressure) {
  BufferPool pool(&pager_, kFrames);
  const uint32_t index = MakeTyped(&pool, PageType::kTsbIndex, 'r');
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    PageHandle h;
    ASSERT_TRUE(pool.FetchShared(index, &h).ok());
  }
  ASSERT_EQ(1u, pool.resident_index_pages());
  // Eight pools' worth of data pages through the same shards.
  for (size_t i = 0; i < 8 * kFrames; ++i) {
    MakeTyped(&pool, PageType::kTsbData, 'd');
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  dev_.ResetStats();
  pool.ResetStats();
  PageHandle h;
  ASSERT_TRUE(pool.FetchShared(index, &h).ok());
  EXPECT_EQ('r', h.data()[kFillAt]);
  EXPECT_EQ(0u, dev_.stats().reads);
  EXPECT_EQ(1u, pool.stats().hits);
  EXPECT_EQ(0u, pool.stats().shard_lookups);
}

// Residency stops at one shard's worth (capacity/16), upper levels first:
// a level-L page joins only while fewer than budget - budget/2^L pages are
// resident, so level 1 fills half the budget, level 2 three quarters, and
// a high level (a late root) still finds a slot.
TEST_F(ResidentPoolTest, ResidencyStopsAtOneShardsWorthUpperLevelsFirst) {
  BufferPool pool(&pager_, kFrames);
  const size_t budget = pool.resident_budget();
  ASSERT_EQ(32u, budget);
  std::vector<uint32_t> ids;
  auto fetch_new = [&](size_t n, uint8_t level) {
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(MakeTyped(&pool, PageType::kTsbIndex, 'x', level));
      PageHandle h;
      ASSERT_TRUE(pool.FetchShared(ids.back(), &h).ok());
    }
  };
  fetch_new(budget, /*level=*/1);
  EXPECT_EQ(budget / 2, pool.resident_index_pages());
  fetch_new(budget, /*level=*/2);
  EXPECT_EQ(budget * 3 / 4, pool.resident_index_pages());
  fetch_new(budget, /*level=*/9);
  EXPECT_EQ(budget, pool.resident_index_pages());
  // The pages past their share still go through their shards.
  pool.ResetStats();
  for (uint32_t id : ids) {
    PageHandle h;
    ASSERT_TRUE(pool.FetchShared(id, &h).ok());
  }
  EXPECT_EQ(ids.size(), pool.stats().hits);
  EXPECT_EQ(ids.size() - budget, pool.stats().shard_lookups);
}

TEST_F(ResidentPoolTest, DropUnpublishesResidentPage) {
  BufferPool pool(&pager_, kFrames);
  const uint32_t id = MakeTyped(&pool, PageType::kTsbIndex, 'q');
  {
    PageHandle h;
    ASSERT_TRUE(pool.FetchShared(id, &h).ok());
    ASSERT_EQ(1u, pool.resident_index_pages());
    h.Release();
    PageHandle pinned;
    ASSERT_TRUE(pool.New(PageType::kTsbData, &pinned).ok());
    EXPECT_TRUE(pool.Drop(pinned.id()).IsBusy());
  }
  pool.ResetStats();
  {
    PageHandle h;
    ASSERT_TRUE(pool.Fetch(id, &h).ok());
  }
  ASSERT_TRUE(pool.Drop(id).ok());
  EXPECT_EQ(0u, pool.resident_index_pages());
  EXPECT_EQ(1u, pool.stats().hits);  // the resident hit outlives the frame
  // The id is free again; a page reusing it starts in its shard.
  PageHandle h;
  ASSERT_TRUE(pool.New(PageType::kTsbData, &h).ok());
  EXPECT_EQ(id, h.id());
  h.MarkDirty();
  h.Release();
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchShared(id, &h).ok());
  EXPECT_EQ(1u, pool.stats().shard_lookups);
  EXPECT_EQ(0u, pool.resident_index_pages());
}

}  // namespace
}  // namespace tsb
