// Tests for BufferPool replacement and its behavior under concurrent use:
// CLOCK second chance, capacity and dirty-victim flushes, and a multi-thread
// hammer over FetchHandle / Install / Prefetch / Evict.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace ode {
namespace {

using testing::TempDir;

/// A page image stamped with its id and a version: the id at byte 0, the
/// version at byte 4, and every later byte derived from both, so a reader
/// can tell a whole image from a torn or misplaced one.
void StampPage(char* buf, PageId id, uint32_t version) {
  EncodeFixed32(buf, id);
  EncodeFixed32(buf + 4, version);
  memset(buf + 8, static_cast<int>((id * 31 + version) & 0xFF), kPageSize - 8);
}

bool PageIsWhole(const char* buf, PageId id) {
  if (DecodeFixed32(buf) != id) return false;
  const uint32_t version = DecodeFixed32(buf + 4);
  const char fill = static_cast<char>((id * 31 + version) & 0xFF);
  for (size_t i = 8; i < kPageSize; i++) {
    if (buf[i] != fill) return false;
  }
  return true;
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bool created = false;
    ASSERT_OK(Pager::Open(Env::Default(), dir_.file("db"), &pager_, &created,
                          &metrics_));
    char buf[kPageSize];
    for (PageId id = 1; id <= kPages; id++) {
      StampPage(buf, id, 0);
      ASSERT_OK(pager_->WritePage(id, buf));
    }
  }

  uint64_t Count(const char* name) {
    return metrics_.GetCounter(name)->value();
  }

  static constexpr PageId kPages = 128;
  TempDir dir_;
  MetricsRegistry metrics_;
  std::unique_ptr<Pager> pager_;
};

TEST_F(BufferPoolTest, ClockGivesReferencedPagesASecondChance) {
  BufferPool pool(pager_.get(), 4, &metrics_);
  PageHandle h;
  for (PageId id = 1; id <= 4; id++) ASSERT_OK(pool.FetchHandle(id, &h));
  // Page 1 is the oldest frame, the first the sweep looks at; fetching it
  // again sets its reference bit.
  ASSERT_OK(pool.FetchHandle(1, &h));
  // A fifth page needs a victim: the sweep passes over page 1 (clearing its
  // bit) and takes page 2, the oldest frame not fetched since.
  ASSERT_OK(pool.FetchHandle(5, &h));
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(Count("storage.pool.evictions"), 1u);
  const uint64_t hits = Count("storage.pool.hits");
  const uint64_t misses = Count("storage.pool.misses");
  ASSERT_OK(pool.FetchHandle(1, &h));
  EXPECT_EQ(Count("storage.pool.hits"), hits + 1);  // page 1 survived
  ASSERT_OK(pool.FetchHandle(2, &h));
  EXPECT_EQ(Count("storage.pool.misses"), misses + 1);  // page 2 did not
  EXPECT_TRUE(PageIsWhole(h.data(), 2));
  EXPECT_EQ(pool.size(), 4u);
}

TEST_F(BufferPoolTest, ClockKeepsCapacityAndFlushesDirtyVictims) {
  BufferPool pool(pager_.get(), 4, &metrics_);
  char buf[kPageSize];
  // Four installed (dirty) images fill the pool.
  for (PageId id = 1; id <= 4; id++) {
    StampPage(buf, id, 7);
    pool.Install(id, buf);
  }
  EXPECT_EQ(pool.size(), 4u);
  // Every demand fetch past them evicts; a dirty victim is written back
  // before its frame goes, so the pager holds the installed image.
  PageHandle h;
  for (PageId id = 5; id <= 12; id++) {
    ASSERT_OK(pool.FetchHandle(id, &h));
    EXPECT_LE(pool.size(), 4u);
  }
  h.Release();
  EXPECT_EQ(Count("storage.pool.flushes"), 4u);
  EXPECT_EQ(Count("storage.pool.grows"), 0u);
  for (PageId id = 1; id <= 4; id++) {
    ASSERT_OK(pager_->ReadPage(id, buf));
    EXPECT_TRUE(PageIsWhole(buf, id));
    EXPECT_EQ(DecodeFixed32(buf + 4), 7u);
  }
  // Nothing grew, so the post-commit shrink has nothing to do.
  ASSERT_OK(pool.ShrinkToCapacity());
  EXPECT_EQ(pool.size(), 4u);
}

TEST_F(BufferPoolTest, ConcurrentFetchInstallPrefetchEvict) {
  // 64 frames over 128 pages: every operation mix keeps evicting.
  BufferPool pool(pager_.get(), 64, &metrics_, /*shards=*/8);
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  // Thread t installs only the pages with id % kThreads == t, so each
  // page's versions rise in install order; installed[id] is the newest
  // version whose Install has returned. A fetch must never see an older one.
  std::vector<std::atomic<uint32_t>> installed(kPages + 1);
  std::atomic<bool> bad_page{false};
  std::atomic<bool> stale_page{false};
  std::vector<uint64_t> fetch_calls(kThreads, 0);
  std::vector<uint64_t> thread_fetches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      const uint64_t fetches_at_start = BufferPool::ThreadFetches();
      char buf[kPageSize];
      for (int i = 0; i < kOps; i++) {
        const PageId id = 1 + rng.Uniform(kPages);
        const uint32_t op = rng.Uniform(100);
        if (op < 70) {
          const uint32_t floor = installed[id].load(std::memory_order_acquire);
          PageHandle h;
          fetch_calls[t]++;
          if (!pool.FetchHandle(id, &h).ok() || !PageIsWhole(h.data(), id)) {
            bad_page.store(true);
          } else if (DecodeFixed32(h.data() + 4) < floor) {
            stale_page.store(true);
          }
        } else if (op < 85) {
          const PageId own = id - id % kThreads + t;
          if (own < 1 || own > kPages) continue;
          const uint32_t version = installed[own].load() + 1;
          StampPage(buf, own, version);
          pool.Install(own, buf);
          installed[own].store(version, std::memory_order_release);
        } else if (op < 95) {
          PageId run[8];
          for (PageId k = 0; k < 8; k++) run[k] = 1 + (id + k) % kPages;
          if (!pool.Prefetch(run, 8).ok()) bad_page.store(true);
        } else {
          pool.Evict(id);
        }
      }
      thread_fetches[t] = BufferPool::ThreadFetches() - fetches_at_start;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(bad_page.load());
  EXPECT_FALSE(stale_page.load());
  uint64_t calls = 0;
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(thread_fetches[t], fetch_calls[t]);
    calls += fetch_calls[t];
  }
  // Every FetchHandle counted exactly once, as a hit or as a miss.
  EXPECT_EQ(Count("storage.pool.hits") + Count("storage.pool.misses"), calls);
  EXPECT_GT(Count("storage.pool.hits"), 0u);
  EXPECT_GT(Count("storage.pool.evictions"), 0u);
  EXPECT_EQ(Count("storage.pool.grows"), 0u);
  EXPECT_EQ(Count("storage.pool.read_errors"), 0u);
  EXPECT_LE(pool.size(), 64u);
  // Every page reads its newest installed image, through the pool and
  // (after a flush) from the file.
  ASSERT_OK(pool.FlushAll());
  char buf[kPageSize];
  for (PageId id = 1; id <= kPages; id++) {
    PageHandle h;
    ASSERT_OK(pool.FetchHandle(id, &h));
    EXPECT_TRUE(PageIsWhole(h.data(), id)) << id;
    EXPECT_EQ(DecodeFixed32(h.data() + 4), installed[id].load()) << id;
    ASSERT_OK(pager_->ReadPage(id, buf));
    EXPECT_EQ(memcmp(buf, h.data(), kPageSize), 0) << id;
  }
}

}  // namespace
}  // namespace ode
