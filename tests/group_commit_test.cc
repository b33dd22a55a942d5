// Group-commit WAL batching and buffer-pool sharding tests
// (docs/STORAGE.md "Group commit", docs/CONCURRENCY.md "Buffer-pool
// sharding").
//
// Covered here:
//   * single-session window=0 behaves exactly like fsync-per-commit
//     (one batch fsync per commit, batch size always 1);
//   * concurrent committers share fsyncs (commits_per_fsync > 1) and
//     everything they committed survives a crash;
//   * a failed leader fsync fails EVERY session in the batch — no false
//     success — and recovery replays only fully-synced batches;
//   * a transaction that read a predecessor's committed-but-unsynced
//     images aborts when that predecessor's batch dies;
//   * Wal::Sync() metric accounting: failures land in
//     storage.wal.fsync_errors, never in storage.wal.fsyncs;
//   * sharded-pool shard rounding, capacity split, and a concurrent
//     FetchHandle hammer (the TSan job runs this file via -L concurrency).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/engine.h"
#include "storage/pager.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/env.h"
#include "util/metrics.h"

namespace ode {
namespace {

using testing::TempDir;

/// Durable-mode options wired to a per-test registry (and optionally a
/// fault-injection env).
EngineOptions DurableEngine(MetricsRegistry* metrics, Env* env = nullptr,
                            uint64_t window_us = 0) {
  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kSyncEveryCommit;
  options.group_commit_window_us = window_us;
  options.metrics = metrics;
  options.env = env;
  return options;
}

/// One whole commit: write `value` into the first word of `page`.
Status StampPage(StorageEngine* engine, PageId page, uint32_t value) {
  ODE_ASSIGN_OR_RETURN(TxnId txn, engine->BeginTxn());
  PageHandle handle;
  Status s = engine->GetPageWrite(page, &handle);
  if (!s.ok()) {
    (void)engine->AbortTxn(txn);
    return s;
  }
  EncodeFixed32(handle.mutable_data(), value);
  handle.Release();
  return engine->CommitTxn(txn);
}

uint32_t ReadStamp(StorageEngine* engine, PageId page) {
  auto txn = engine->BeginTxn();
  EXPECT_OK(txn.status());
  PageHandle handle;
  EXPECT_OK(engine->GetPageRead(page, &handle));
  const uint32_t value = DecodeFixed32(handle.data());
  handle.Release();
  EXPECT_OK(engine->CommitTxn(txn.value()));
  return value;
}

/// Allocates `n` pages in one committed transaction.
std::vector<PageId> AllocPages(StorageEngine* engine, int n) {
  std::vector<PageId> pages;
  auto txn = engine->BeginTxn();
  EXPECT_OK(txn.status());
  for (int i = 0; i < n; i++) {
    PageId id;
    PageHandle handle;
    EXPECT_OK(engine->AllocPage(&id, &handle));
    handle.Release();
    pages.push_back(id);
  }
  EXPECT_OK(engine->CommitTxn(txn.value()));
  return pages;
}

TEST(GroupCommitTest, SingleSessionWindowZeroFsyncsEveryCommit) {
  TempDir dir;
  MetricsRegistry metrics;
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"), DurableEngine(&metrics),
                                &engine));
  std::vector<PageId> pages = AllocPages(engine.get(), 1);

  Counter* fsyncs = metrics.GetCounter("storage.wal.group_commit.fsyncs");
  Counter* commits = metrics.GetCounter("storage.wal.group_commit.commits");
  Histogram* batch =
      metrics.GetHistogram("storage.wal.group_commit.batch_size");
  const uint64_t fsyncs0 = fsyncs->value();
  const uint64_t commits0 = commits->value();

  constexpr int kCommits = 10;
  for (int i = 0; i < kCommits; i++) {
    ASSERT_OK(StampPage(engine.get(), pages[0], 1000 + i));
  }
  // With one session there is never anyone to share an fsync with: each
  // commit elects itself leader and pays for its own sync, exactly like the
  // old fsync-per-commit path.
  EXPECT_EQ(fsyncs->value() - fsyncs0, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(commits->value() - commits0, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(batch->max(), 1.0);
  EXPECT_EQ(metrics.GetGauge("txn.commits_per_fsync")->value(), 1);

  // Committed means durable: recover from a crash without a checkpoint.
  engine->SimulateCrash();
  engine.reset();
  ASSERT_OK(StorageEngine::Open(dir.file("db"), DurableEngine(&metrics),
                                &engine));
  EXPECT_EQ(ReadStamp(engine.get(), pages[0]), 1000u + kCommits - 1);
  ASSERT_OK(engine->Close());
}

TEST(GroupCommitTest, ConcurrentCommitsShareFsyncs) {
  TempDir dir;
  MetricsRegistry metrics;
  std::unique_ptr<StorageEngine> engine;
  // A wide window so publishers reliably pile onto the in-flight batch.
  ASSERT_OK(StorageEngine::Open(
      dir.file("db"),
      DurableEngine(&metrics, nullptr, /*window_us=*/5000), &engine));
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 5;
  std::vector<PageId> pages = AllocPages(engine.get(), kThreads);

  Counter* fsyncs = metrics.GetCounter("storage.wal.group_commit.fsyncs");
  Counter* commits = metrics.GetCounter("storage.wal.group_commit.commits");
  const uint64_t fsyncs0 = fsyncs->value();
  const uint64_t commits0 = commits->value();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        Status s = StampPage(engine.get(), pages[t], 100 * t + i);
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  const uint64_t total = kThreads * kCommitsPerThread;
  EXPECT_EQ(commits->value() - commits0, total);
  // The whole point: fewer fsyncs than commits. The first publisher leads
  // and naps through the window while the other seven publish behind it, so
  // at least one batch must have covered several commits.
  EXPECT_LT(fsyncs->value() - fsyncs0, total);
  EXPECT_GT(metrics.GetHistogram("storage.wal.group_commit.batch_size")->max(),
            1.0);

  // Every reported success is durable across a crash.
  engine->SimulateCrash();
  engine.reset();
  ASSERT_OK(StorageEngine::Open(dir.file("db"), DurableEngine(&metrics),
                                &engine));
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(ReadStamp(engine.get(), pages[t]),
              static_cast<uint32_t>(100 * t + kCommitsPerThread - 1));
  }
  ASSERT_OK(engine->Close());
}

TEST(GroupCommitTest, FsyncErrorsLandInErrorCounterNotFsyncs) {
  TempDir dir;
  MetricsRegistry metrics;
  FaultInjectionEnv env;
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"),
                                DurableEngine(&metrics, &env), &engine));
  std::vector<PageId> pages = AllocPages(engine.get(), 1);

  Counter* wal_fsyncs = metrics.GetCounter("storage.wal.fsyncs");
  Counter* wal_errors = metrics.GetCounter("storage.wal.fsync_errors");
  const uint64_t fsyncs0 = wal_fsyncs->value();
  ASSERT_EQ(wal_errors->value(), 0u);

  FaultInjectionEnv::FaultSpec spec;
  spec.kind = FaultInjectionEnv::OpKind::kSync;
  spec.nth = 1;
  spec.transient = true;  // the device stays up after the one failure
  spec.path_substring = ".wal";
  env.ArmFault(spec);

  Status s = StampPage(engine.get(), pages[0], 0xBAD);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // The failed sync counts as an error, NOT as an fsync (the old accounting
  // bumped storage.wal.fsyncs before calling into the file).
  EXPECT_EQ(wal_errors->value(), 1u);
  EXPECT_EQ(wal_fsyncs->value(), fsyncs0);

  // Transient fault: the engine rolled the commit back and stays usable.
  ASSERT_OK(StampPage(engine.get(), pages[0], 77));
  EXPECT_GT(wal_fsyncs->value(), fsyncs0);
  EXPECT_EQ(ReadStamp(engine.get(), pages[0]), 77u);
  ASSERT_OK(engine->Close());
}

TEST(GroupCommitTest, LeaderFsyncFailureFailsEveryFollower) {
  TempDir dir;
  MetricsRegistry metrics;
  FaultInjectionEnv env;
  std::unique_ptr<StorageEngine> engine;
  // A very wide window: the first committer leads and naps long enough for
  // every other thread to publish into the same doomed batch.
  ASSERT_OK(StorageEngine::Open(
      dir.file("db"),
      DurableEngine(&metrics, &env, /*window_us=*/300000), &engine));
  constexpr int kThreads = 4;
  std::vector<PageId> pages = AllocPages(engine.get(), kThreads + 1);
  const PageId survivor_page = pages[kThreads];
  ASSERT_OK(StampPage(engine.get(), survivor_page, 424242));

  FaultInjectionEnv::FaultSpec spec;
  spec.kind = FaultInjectionEnv::OpKind::kSync;
  spec.nth = 1;
  spec.transient = true;
  spec.path_substring = ".wal";
  env.ArmFault(spec);

  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads, Status::OK());
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      results[t] = StampPage(engine.get(), pages[t], 0xDEAD0 + t);
    });
  }
  for (auto& th : threads) th.join();

  // No false success: every session whose records sat behind the failed
  // fsync reports the failure, leader and followers alike.
  for (int t = 0; t < kThreads; t++) {
    EXPECT_TRUE(results[t].IsIOError())
        << "thread " << t << ": " << results[t].ToString();
  }
  EXPECT_EQ(metrics.GetCounter("storage.engine.commit_failures")->value(),
            static_cast<uint64_t>(kThreads));
  EXPECT_GE(metrics.GetCounter("storage.wal.fsync_errors")->value(), 1u);

  // The failure was transient, the unsynced tail was scrubbed: the engine
  // is not wedged and the next commit goes through.
  ASSERT_OK(StampPage(engine.get(), pages[0], 31337));

  // Recovery replays only fully-synced batches: the doomed batch's stamps
  // are gone, everything before and after it survives.
  engine->SimulateCrash();
  engine.reset();
  ASSERT_OK(StorageEngine::Open(dir.file("db"), DurableEngine(&metrics),
                                &engine));
  EXPECT_EQ(ReadStamp(engine.get(), survivor_page), 424242u);
  EXPECT_EQ(ReadStamp(engine.get(), pages[0]), 31337u);
  for (int t = 1; t < kThreads; t++) {
    EXPECT_EQ(ReadStamp(engine.get(), pages[t]), 0u)
        << "page of failed commit " << t << " must not be resurrected";
  }
  ASSERT_OK(engine->Close());
}

TEST(GroupCommitTest, DependentCommitAbortsAfterLeaderFsyncFailure) {
  TempDir dir;
  MetricsRegistry metrics;
  FaultInjectionEnv env;
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(
      dir.file("db"),
      DurableEngine(&metrics, &env, /*window_us=*/400000), &engine));
  std::vector<PageId> pages = AllocPages(engine.get(), 1);
  const PageId page = pages[0];

  FaultInjectionEnv::FaultSpec spec;
  spec.kind = FaultInjectionEnv::OpKind::kSync;
  spec.nth = 1;
  spec.transient = true;
  spec.path_substring = ".wal";
  env.ArmFault(spec);

  // Session A stamps the page and commits; its publish hands the writer
  // token over while its batch leader naps through the window (and then
  // fails the fsync).
  std::atomic<bool> a_has_token{false};
  Status a_result;
  std::thread session_a([&] {
    auto txn = engine->BeginTxn();
    ASSERT_OK(txn.status());
    PageHandle handle;
    ASSERT_OK(engine->GetPageWrite(page, &handle));
    EncodeFixed32(handle.mutable_data(), 111);
    handle.Release();
    a_has_token.store(true);
    a_result = engine->CommitTxn(txn.value());
  });

  // Session B: blocks on the writer token until A publishes, then seeds its
  // shadow from A's committed-but-unsynced pending image.
  while (!a_has_token.load()) std::this_thread::yield();
  auto txn_b = engine->BeginTxn();
  ASSERT_OK(txn_b.status());
  PageHandle handle;
  ASSERT_OK(engine->GetPageWrite(page, &handle));
  // Proof B read through the pending overlay: A's value is visible to the
  // next writer even though it is not durable yet.
  EXPECT_EQ(DecodeFixed32(handle.data()), 111u);
  EncodeFixed32(handle.mutable_data(), 222);
  handle.Release();

  // A's batch dies.
  session_a.join();
  EXPECT_TRUE(a_result.IsIOError()) << a_result.ToString();

  // B built on data that never became durable; its commit must degrade to
  // an abort instead of persisting a state derived from a rolled-back
  // transaction.
  Status b_result = engine->CommitTxn(txn_b.value());
  EXPECT_TRUE(b_result.IsIOError()) << b_result.ToString();
  EXPECT_EQ(metrics.GetCounter("storage.engine.commit_failures")->value(), 2u);

  // Neither value survives a crash.
  engine->SimulateCrash();
  engine.reset();
  ASSERT_OK(StorageEngine::Open(dir.file("db"), DurableEngine(&metrics),
                                &engine));
  EXPECT_EQ(ReadStamp(engine.get(), page), 0u);
  ASSERT_OK(engine->Close());
}

// --- Sharded buffer pool -----------------------------------------------------

TEST(ShardedPoolTest, ShardCountRoundsAndClamps) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  {
    BufferPool pool(pager.get(), 64, nullptr, 8);
    EXPECT_EQ(pool.shard_count(), 8u);
    EXPECT_EQ(pool.capacity(), 64u);
  }
  {
    // Not a power of two: rounded down.
    BufferPool pool(pager.get(), 64, nullptr, 6);
    EXPECT_EQ(pool.shard_count(), 4u);
  }
  {
    // More shards than capacity: clamped so no shard has zero pages.
    BufferPool pool(pager.get(), 3, nullptr, 8);
    EXPECT_EQ(pool.shard_count(), 2u);
  }
  {
    BufferPool pool(pager.get(), 64, nullptr, 0);
    EXPECT_EQ(pool.shard_count(), 1u);
  }
  {
    // Absurd requests cap at 64 shards.
    BufferPool pool(pager.get(), 1 << 20, nullptr, 1 << 20);
    EXPECT_EQ(pool.shard_count(), 64u);
  }
}

TEST(ShardedPoolTest, CapacityIsEnforcedAcrossShards) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  // An uneven split (37 over 4 shards) still caches at most 37 pages.
  MetricsRegistry metrics;
  BufferPool pool(pager.get(), 37, &metrics, 4);
  for (PageId id = 1; id <= 200; id++) {
    PageHandle handle;
    ASSERT_OK(pool.FetchHandle(id, &handle));
  }
  EXPECT_LE(pool.size(), 37u);
  EXPECT_GT(metrics.GetCounter("storage.pool.evictions")->value(), 0u);
}

TEST(ShardedPoolTest, ConcurrentReadersSeeCommittedStamps) {
  TempDir dir;
  MetricsRegistry metrics;
  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  options.metrics = &metrics;
  options.buffer_pool_pages = 64;  // small pool: force cross-shard eviction
  options.buffer_pool_shards = 8;
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
  constexpr int kPages = 128;
  std::vector<PageId> pages = AllocPages(engine.get(), kPages);
  {
    auto txn = engine->BeginTxn();
    ASSERT_OK(txn.status());
    for (int i = 0; i < kPages; i++) {
      PageHandle handle;
      ASSERT_OK(engine->GetPageWrite(pages[i], &handle));
      EncodeFixed32(handle.mutable_data(), 7000 + i);
      handle.Release();
    }
    ASSERT_OK(engine->CommitTxn(txn.value()));
  }

  // Hammer the sharded pool from many readers at once (each page cycles
  // through fetch/evict across its shard). TSan runs this via the
  // concurrency label.
  constexpr int kThreads = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      uint64_t x = 88172645463325252ull + t;  // xorshift64 seed
      for (int i = 0; i < 2000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const int pick = static_cast<int>(x % kPages);
        PageHandle handle;
        Status s = engine->GetPageRead(pages[pick], &handle);
        if (!s.ok() ||
            DecodeFixed32(handle.data()) != 7000u + static_cast<uint32_t>(pick)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(engine->buffer_pool().shard_count(), 8u);
  ASSERT_OK(engine->Close());
}

}  // namespace
}  // namespace ode
