// Tests for the Pager, BufferPool and transactional StorageEngine
// (no-steal buffering, undo on abort, page allocation, checkpoints).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <set>
#include <thread>

#include "storage/engine.h"
#include "storage/pager.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/env.h"

namespace ode {
namespace {

using testing::TempDir;

EngineOptions FastEngine() {
  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  return options;
}

// --- Pager -------------------------------------------------------------------

TEST(PagerTest, FormatsFreshFile) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created = false;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  EXPECT_TRUE(created);
  char page[kPageSize];
  ASSERT_OK(pager->ReadPage(kSuperblockPageId, page));
  EXPECT_EQ(memcmp(page, kSuperblockMagic, 8), 0);
  EXPECT_EQ(DecodeFixed32(page + SuperblockLayout::kPageCountOffset), 1u);
}

TEST(PagerTest, ReopenExisting) {
  TempDir dir;
  {
    std::unique_ptr<Pager> pager;
    bool created;
    ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
    char page[kPageSize];
    memset(page, 7, sizeof(page));
    ASSERT_OK(pager->WritePage(5, page));
    ASSERT_OK(pager->Sync());
  }
  std::unique_ptr<Pager> pager;
  bool created = true;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  EXPECT_FALSE(created);
  char page[kPageSize];
  ASSERT_OK(pager->ReadPage(5, page));
  EXPECT_EQ(page[100], 7);
}

TEST(PagerTest, RejectsBadMagic) {
  TempDir dir;
  {
    std::unique_ptr<File> file;
    ASSERT_OK(File::Open(dir.file("db"), &file));
    ASSERT_OK(file->Write(0, Slice("not a database at all, sorry......")));
  }
  std::unique_ptr<Pager> pager;
  bool created;
  EXPECT_TRUE(Pager::Open(dir.file("db"), &pager, &created).IsCorruption());
}

TEST(PagerTest, UnwrittenPagesReadZero) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  char page[kPageSize];
  ASSERT_OK(pager->ReadPage(42, page));
  for (size_t i = 0; i < kPageSize; i++) ASSERT_EQ(page[i], 0);
}

// --- StorageEngine: transactions ----------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  void Open(EngineOptions options = FastEngine()) {
    if (options.metrics == nullptr) options.metrics = &metrics_;
    ASSERT_OK(StorageEngine::Open(dir_.file("db"), options, &engine_));
  }

  uint64_t Count(const char* name) {
    return metrics_.GetCounter(name)->value();
  }

  TempDir dir_;
  MetricsRegistry metrics_;  // this test's counters only; outlives engine_
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(EngineTest, SingleActiveTransaction) {
  Open();
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  EXPECT_TRUE(engine_->BeginTxn().status().code() == Status::Code::kBusy);
  ASSERT_OK(engine_->CommitTxn(txn.value()));
  EXPECT_TRUE(engine_->BeginTxn().ok());
  ASSERT_OK(engine_->AbortTxn(engine_->active_txn()));
}

TEST_F(EngineTest, CommitPersistsAcrossReopen) {
  Open();
  PageId page;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    memcpy(handle.mutable_data(), "committed data", 14);
    handle.Release();
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  ASSERT_OK(engine_->Close());
  engine_.reset();
  Open();
  PageHandle handle;
  ASSERT_OK(engine_->GetPageRead(page, &handle));
  EXPECT_EQ(memcmp(handle.data(), "committed data", 14), 0);
}

TEST_F(EngineTest, AbortRestoresPageContent) {
  Open();
  PageId page;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    memcpy(handle.mutable_data(), "before", 6);
    handle.Release();
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->GetPageWrite(page, &handle));
    memcpy(handle.mutable_data(), "after!", 6);
    handle.Release();
    ASSERT_OK(engine_->AbortTxn(txn.value()));
  }
  PageHandle handle;
  ASSERT_OK(engine_->GetPageRead(page, &handle));
  EXPECT_EQ(memcmp(handle.data(), "before", 6), 0);
}

TEST_F(EngineTest, AbortRollsBackAllocation) {
  Open();
  uint32_t count_before;
  {
    auto r = engine_->ReadSuperU32(SuperblockLayout::kPageCountOffset);
    ASSERT_TRUE(r.ok());
    count_before = r.value();
  }
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageId page;
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    handle.Release();
    ASSERT_OK(engine_->AbortTxn(txn.value()));
  }
  auto r = engine_->ReadSuperU32(SuperblockLayout::kPageCountOffset);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), count_before);
}

TEST_F(EngineTest, FreedPageIsReused) {
  Open();
  PageId first;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&first, &handle));
    handle.Release();
    ASSERT_OK(engine_->FreePage(first));
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageId second;
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&second, &handle));
    EXPECT_EQ(second, first);
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
}

TEST_F(EngineTest, FreedPageZeroedOnRealloc) {
  Open();
  PageId page;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    memset(handle.mutable_data(), 0xAB, kPageSize);
    handle.Release();
    ASSERT_OK(engine_->FreePage(page));
    PageId again;
    ASSERT_OK(engine_->AllocPage(&again, &handle));
    ASSERT_EQ(again, page);
    for (size_t i = 0; i < kPageSize; i++) {
      ASSERT_EQ(handle.data()[i], 0);
    }
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
}

TEST_F(EngineTest, WriteOutsideTransactionFails) {
  Open();
  PageHandle handle;
  EXPECT_TRUE(engine_->GetPageWrite(1, &handle).IsInvalidArgument());
  PageId page;
  EXPECT_TRUE(engine_->AllocPage(&page, &handle).IsInvalidArgument());
  EXPECT_TRUE(engine_->FreePage(1).IsInvalidArgument());
}

TEST_F(EngineTest, CannotFreeSuperblock) {
  Open();
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  EXPECT_TRUE(engine_->FreePage(kSuperblockPageId).IsInvalidArgument());
  ASSERT_OK(engine_->AbortTxn(txn.value()));
}

TEST_F(EngineTest, TxnIdsAdvanceAcrossReopen) {
  Open();
  auto t1 = engine_->BeginTxn();
  ASSERT_TRUE(t1.ok());
  ASSERT_OK(engine_->CommitTxn(t1.value()));
  ASSERT_OK(engine_->Close());
  engine_.reset();
  Open();
  auto t2 = engine_->BeginTxn();
  ASSERT_TRUE(t2.ok());
  EXPECT_GT(t2.value(), t1.value());
  ASSERT_OK(engine_->AbortTxn(t2.value()));
}

TEST_F(EngineTest, CheckpointTruncatesWal) {
  Open();
  for (int i = 0; i < 5; i++) {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageId page;
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    handle.Release();
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  EXPECT_GT(engine_->wal().size_bytes(), 0u);
  ASSERT_OK(engine_->Checkpoint());
  EXPECT_EQ(engine_->wal().size_bytes(), 0u);
}

TEST_F(EngineTest, CheckpointInsideTxnRejected) {
  Open();
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(engine_->Checkpoint().code(), Status::Code::kBusy);
  ASSERT_OK(engine_->AbortTxn(txn.value()));
}

TEST_F(EngineTest, AutoCheckpointAtWalThreshold) {
  EngineOptions options = FastEngine();
  options.checkpoint_wal_bytes = 64 * 1024;
  Open(options);
  const uint64_t checkpoints_before = Count("storage.engine.checkpoints");
  for (int i = 0; i < 40; i++) {  // each commit logs >= 1 page (4 KiB)
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageId page;
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    handle.Release();
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  EXPECT_GT(Count("storage.engine.checkpoints"), checkpoints_before);
  EXPECT_LT(engine_->wal().size_bytes(), 64u * 1024);
}

// The threshold checkpoint must not wait for the engine to go idle: with
// another session's transaction open the whole time, the log still gets cut
// every time a commit crosses the threshold.
TEST_F(EngineTest, ThresholdCheckpointRunsWithOtherSessionsActive) {
  EngineOptions options = FastEngine();
  options.checkpoint_wal_bytes = 64 * 1024;
  Open(options);
  PageId page;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    handle.Release();
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }

  std::promise<void> begun;
  std::promise<void> finish;
  std::thread other([&] {
    auto txn = engine_->BeginTxn();
    EXPECT_TRUE(txn.ok());
    begun.set_value();
    finish.get_future().wait();
    if (txn.ok()) EXPECT_OK(engine_->AbortTxn(txn.value()));
  });
  begun.get_future().wait();

  uint64_t max_wal = 0;
  for (int i = 0; i < 100; i++) {  // each commit logs one 4 KiB page image
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->GetPageWrite(page, &handle));
    EncodeFixed32(handle.mutable_data(), static_cast<uint32_t>(i));
    handle.Release();
    ASSERT_OK(engine_->CommitTxn(txn.value()));
    max_wal = std::max(max_wal, engine_->wal().size_bytes());
  }
  finish.set_value();
  other.join();
  EXPECT_LT(max_wal, options.checkpoint_wal_bytes + 2 * kPageSize);
  EXPECT_LT(engine_->wal().size_bytes(),
            options.checkpoint_wal_bytes + 2 * kPageSize);
}

// --- Commit failure handling ----------------------------------------------------

TEST_F(EngineTest, TransientCommitFailureDegradesToAbort) {
  FaultInjectionEnv fenv;
  EngineOptions options = FastEngine();
  options.env = &fenv;
  Open(options);

  PageId page;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    memcpy(handle.mutable_data(), "doomed", 6);
    handle.Release();
    // The first WAL append fails, but the device stays up: the scrub
    // succeeds, so the commit degrades to a plain abort.
    FaultInjectionEnv::FaultSpec spec;
    spec.kind = FaultInjectionEnv::OpKind::kWrite;
    spec.nth = 1;
    spec.transient = true;
    spec.path_substring = ".wal";
    fenv.ArmFault(spec);
    Status s = engine_->CommitTxn(txn.value());
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(fenv.fault_fired());
  }
  EXPECT_FALSE(engine_->in_txn());
  EXPECT_EQ(Count("storage.engine.commit_failures"), 1u);
  EXPECT_EQ(Count("storage.engine.txn_aborts"), 1u);
  EXPECT_EQ(engine_->wal().size_bytes(), 0u);  // partial records scrubbed

  // The engine is immediately usable: the next transaction sees the
  // rolled-back state and commits normally.
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  PageHandle handle;
  PageId page2;
  ASSERT_OK(engine_->AllocPage(&page2, &handle));
  EXPECT_EQ(page2, page);  // the aborted allocation was rolled back
  memcpy(handle.mutable_data(), "alive", 5);
  handle.Release();
  ASSERT_OK(engine_->CommitTxn(txn.value()));
  ASSERT_OK(engine_->GetPageRead(page2, &handle));
  EXPECT_EQ(memcmp(handle.data(), "alive", 5), 0);
  handle.Release();
  engine_.reset();  // close while fenv (stack-local) is still alive
}

TEST_F(EngineTest, FailedScrubWedgesEngineUntilCheckpoint) {
  FaultInjectionEnv fenv;
  EngineOptions options;  // kSyncEveryCommit: the commit ends with a sync.
  options.env = &fenv;
  Open(options);

  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageId page;
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    handle.Release();
    // The commit sync fails and the device goes down, so the scrub cannot
    // remove the already-written commit record: the engine must wedge.
    FaultInjectionEnv::FaultSpec spec;
    spec.kind = FaultInjectionEnv::OpKind::kSync;
    spec.nth = 1;
    spec.path_substring = ".wal";
    fenv.ArmFault(spec);
    EXPECT_FALSE(engine_->CommitTxn(txn.value()).ok());
  }
  EXPECT_FALSE(engine_->in_txn());
  Status begin = engine_->BeginTxn().status();
  EXPECT_TRUE(begin.IsIOError()) << begin.ToString();

  // Device back up: a successful checkpoint empties the log and unwedges.
  fenv.Disarm();
  ASSERT_OK(engine_->Checkpoint());
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  ASSERT_OK(engine_->AbortTxn(txn.value()));
  engine_.reset();  // close while fenv (stack-local) is still alive
}

TEST_F(EngineTest, InstallGrowsOnFailedFlushAndNextCommitShrinks) {
  FaultInjectionEnv fenv;
  EngineOptions options = FastEngine();
  options.env = &fenv;
  options.buffer_pool_pages = 4;
  options.buffer_pool_shards = 1;
  Open(options);
  std::vector<PageId> pages;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    for (uint32_t i = 0; i < 6; i++) {
      PageId page;
      PageHandle handle;
      ASSERT_OK(engine_->AllocPage(&page, &handle));
      EncodeFixed32(handle.mutable_data(), 0xABC00000u + i);
      pages.push_back(page);
    }
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  auto committed = [&](PageId page) {
    std::vector<char> image(kPageSize);
    PageHandle handle;
    EXPECT_OK(engine_->GetPageRead(page, &handle));
    if (handle.valid()) memcpy(image.data(), handle.data(), kPageSize);
    return image;
  };
  // Republish the committed images of four pages until they are the pool's
  // only frames, all dirty (the commit path installs exactly such images).
  const std::vector<char> fifth = committed(pages[4]);
  BufferPool& pool = engine_->buffer_pool();
  for (int round = 0; round < 3; round++) {
    for (size_t i = 0; i < 4; i++) {
      pool.Install(pages[i], committed(pages[i]).data());
    }
  }
  ASSERT_EQ(pool.size(), 4u);
  // With the device dead, installing a fifth page cannot write its dirty
  // victim back, so the pool grows past capacity instead.
  FaultInjectionEnv::FaultSpec spec;
  spec.kind = FaultInjectionEnv::OpKind::kWrite;
  spec.nth = 1;
  fenv.ArmFault(spec);
  pool.Install(pages[4], fifth.data());
  EXPECT_TRUE(fenv.fault_fired());
  EXPECT_EQ(Count("storage.pool.grows"), 1u);
  EXPECT_EQ(pool.size(), 5u);
  // Device back: the next commit's shrink returns the pool to capacity.
  fenv.Disarm();
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine_->GetPageWrite(pages[5], &handle));
    EncodeFixed32(handle.mutable_data() + 4, 1);
    handle.Release();
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  EXPECT_EQ(pool.size(), 4u);
  for (uint32_t i = 0; i < pages.size(); i++) {
    PageHandle handle;
    ASSERT_OK(engine_->GetPageRead(pages[i], &handle));
    EXPECT_EQ(DecodeFixed32(handle.data()), 0xABC00000u + i);
  }
  engine_.reset();  // close while fenv (stack-local) is still alive
}

// --- BufferPool ----------------------------------------------------------------

TEST(BufferPoolTest, FailedFetchLeavesPoolConsistent) {
  TempDir dir;
  FaultInjectionEnv fenv;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(&fenv, dir.file("db"), &pager, &created));
  MetricsRegistry metrics;
  BufferPool pool(pager.get(), 4, &metrics);
  const Counter* read_errors = metrics.GetCounter("storage.pool.read_errors");
  const Counter* hits = metrics.GetCounter("storage.pool.hits");

  PageHandle handle;
  ASSERT_OK(pool.FetchHandle(kSuperblockPageId, &handle));
  handle.Release();
  EXPECT_EQ(pool.size(), 1u);

  FaultInjectionEnv::FaultSpec spec;
  spec.kind = FaultInjectionEnv::OpKind::kRead;
  spec.nth = 1;
  spec.transient = true;
  fenv.ArmFault(spec);
  Status s = pool.FetchHandle(9, &handle);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(read_errors->value(), 1u);
  // No half-initialized frame was left behind.
  EXPECT_EQ(pool.size(), 1u);

  // The pool keeps working: the failed page fetches fine once the device
  // recovers, and the resident frame is still addressable as a hit.
  ASSERT_OK(pool.FetchHandle(9, &handle));
  handle.Release();
  EXPECT_EQ(pool.size(), 2u);
  const uint64_t hits_before = hits->value();
  ASSERT_OK(pool.FetchHandle(kSuperblockPageId, &handle));
  EXPECT_EQ(hits->value() - hits_before, 1u);
}

TEST_F(EngineTest, BufferPoolHitsAndMisses) {
  Open();
  const uint64_t misses_before = Count("storage.pool.misses");
  const uint64_t hits_before = Count("storage.pool.hits");
  // Page 3 was never touched: first fetch misses, second hits.
  PageHandle handle;
  ASSERT_OK(engine_->GetPageRead(3, &handle));
  handle.Release();
  ASSERT_OK(engine_->GetPageRead(3, &handle));
  handle.Release();
  EXPECT_EQ(Count("storage.pool.misses") - misses_before, 1u);
  EXPECT_GE(Count("storage.pool.hits") - hits_before, 1u);
}

TEST_F(EngineTest, EvictionUnderCapacity) {
  EngineOptions options = FastEngine();
  options.buffer_pool_pages = 8;
  Open(options);
  // Create 32 pages.
  std::vector<PageId> pages;
  {
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    for (int i = 0; i < 32; i++) {
      PageId page;
      PageHandle handle;
      ASSERT_OK(engine_->AllocPage(&page, &handle));
      EncodeFixed32(handle.mutable_data(), page * 31);
      pages.push_back(page);
    }
    ASSERT_OK(engine_->CommitTxn(txn.value()));
  }
  // Touch all pages repeatedly; pool must evict but contents stay correct.
  for (int round = 0; round < 3; round++) {
    for (PageId page : pages) {
      PageHandle handle;
      ASSERT_OK(engine_->GetPageRead(page, &handle));
      ASSERT_EQ(DecodeFixed32(handle.data()), page * 31);
    }
  }
  EXPECT_GT(Count("storage.pool.evictions"), 0u);
  EXPECT_LE(engine_->buffer_pool().size(), 9u);  // capacity + slack
}

TEST_F(EngineTest, UncommittedPagesStayPrivateToShadows) {
  EngineOptions options = FastEngine();
  options.buffer_pool_pages = 4;
  Open(options);
  // Dirty more pages than the pool holds in one transaction. Uncommitted
  // writes live in the transaction's private shadow pages — the pool caches
  // only committed images, so it must neither grow under the transaction's
  // write set nor write uncommitted bytes to disk, and the commit must still
  // succeed with every page readable afterwards.
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  std::vector<PageId> pages;
  for (int i = 0; i < 16; i++) {
    PageId page;
    PageHandle handle;
    ASSERT_OK(engine_->AllocPage(&page, &handle));
    EncodeFixed32(handle.mutable_data(), 0xC0FFEE00u + i);
    pages.push_back(page);
  }
  EXPECT_EQ(Count("storage.pool.grows"), 0u);
  EXPECT_EQ(Count("storage.pool.flushes"), 0u);
  ASSERT_OK(engine_->CommitTxn(txn.value()));
  for (size_t i = 0; i < pages.size(); i++) {
    PageHandle handle;
    ASSERT_OK(engine_->GetPageRead(pages[i], &handle));
    ASSERT_EQ(DecodeFixed32(handle.data()), 0xC0FFEE00u + i);
  }
}

}  // namespace
}  // namespace ode
