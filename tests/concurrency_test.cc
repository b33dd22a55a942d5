// Multi-session concurrency tests (docs/CONCURRENCY.md): N-thread
// transfer workloads under strict 2PL, forced deadlocks with exactly one
// victim, §5 constraint isolation (only the offending transaction aborts),
// the async trigger executor (§6 weak coupling) and once-only activations
// under contention, and thread-safety of the metrics instruments.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "test_models.h"
#include "test_util.h"
#include "util/histogram.h"

namespace ode {
namespace {

using odetest::StockItem;
using testing::TestDb;

// StockItem doubles as a bank account: quantity() is the balance.
constexpr int kAccounts = 8;
constexpr int kInitialBalance = 1000;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void OpenWith(DatabaseOptions options) {
    db_ = std::make_unique<TestDb>(options);
    ASSERT_OK((*db_)->CreateCluster<StockItem>());
    ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
      for (int i = 0; i < kAccounts; i++) {
        ODE_ASSIGN_OR_RETURN(Ref<StockItem> ref,
                             txn.New<StockItem>("acct" + std::to_string(i),
                                                0.0, kInitialBalance, 0));
        accounts_.push_back(ref);
      }
      return Status::OK();
    }));
  }

  void Open() { OpenWith(TestDb::FastOptions()); }

  /// Sum of all balances, read in a fresh transaction.
  int64_t TotalBalance() {
    int64_t sum = 0;
    Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
      for (const auto& ref : accounts_) {
        ODE_ASSIGN_OR_RETURN(const StockItem* item, txn.Read(ref));
        sum += item->quantity();
      }
      return Status::OK();
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return sum;
  }

  std::unique_ptr<TestDb> db_;
  std::vector<Ref<StockItem>> accounts_;
};

// The classic invariant workload: threads transfer random amounts between
// random account pairs. Strict 2PL + deadlock-retry must preserve the total
// (every transaction either commits whole or rolls back whole).
TEST_F(ConcurrencyTest, ConcurrentTransfersPreserveTotal) {
  Open();
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 50;
  std::atomic<int> committed{0};
  std::atomic<int> failed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Deterministic per-thread account walk; pairs overlap across threads
      // (same accounts in different orders), so deadlocks do happen.
      unsigned rng = 0x9E3779B9u * static_cast<unsigned>(t + 1);
      for (int i = 0; i < kTransfersPerThread; i++) {
        rng = rng * 1664525u + 1013904223u;
        const int from = static_cast<int>(rng % kAccounts);
        const int to = (from + 1 + static_cast<int>((rng >> 8) %
                                                    (kAccounts - 1))) %
                       kAccounts;
        const int amount = 1 + static_cast<int>((rng >> 16) % 10);
        Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
          ODE_ASSIGN_OR_RETURN(StockItem * src, txn.Write(accounts_[from]));
          ODE_ASSIGN_OR_RETURN(StockItem * dst, txn.Write(accounts_[to]));
          src->set_quantity(src->quantity() - amount);
          dst->set_quantity(dst->quantity() + amount);
          return Status::OK();
        });
        if (s.ok()) {
          committed.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Most transfers must get through (retry absorbs the deadlocks)...
  EXPECT_GT(committed.load(), kThreads * kTransfersPerThread / 2);
  // ...and the invariant holds regardless of the commit/abort mix.
  EXPECT_EQ(TotalBalance(),
            static_cast<int64_t>(kAccounts) * kInitialBalance);
}

// Two transactions locking the same two objects in opposite orders: the
// waits-for cycle must be detected, exactly one of them fails with
// Status::Deadlock, and the survivor commits.
TEST_F(ConcurrencyTest, ForcedDeadlockHasExactlyOneVictim) {
  MetricsRegistry registry;
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.metrics = &registry;
  options.max_txn_retries = 0;  // observe the raw deadlock, no retry
  OpenWith(options);

  std::atomic<bool> t1_holds_a{false};
  std::atomic<bool> t2_holds_b{false};
  std::atomic<int> deadlocks{0};
  std::atomic<int> commits{0};

  auto record = [&](const Status& s) {
    if (s.IsDeadlock()) {
      deadlocks.fetch_add(1);
    } else if (s.ok()) {
      commits.fetch_add(1);
    } else {
      ADD_FAILURE() << "unexpected status: " << s.ToString();
    }
  };

  std::thread t1([&] {
    Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(StockItem * a, txn.Write(accounts_[0]));
      a->set_quantity(a->quantity() + 1);
      t1_holds_a.store(true);
      while (!t2_holds_b.load()) std::this_thread::yield();
      // t2 holds X(b) and will request X(a): one of us is the victim.
      ODE_ASSIGN_OR_RETURN(StockItem * b, txn.Write(accounts_[1]));
      b->set_quantity(b->quantity() - 1);
      return Status::OK();
    });
    record(s);
  });
  std::thread t2([&] {
    Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(StockItem * b, txn.Write(accounts_[1]));
      b->set_quantity(b->quantity() + 1);
      t2_holds_b.store(true);
      while (!t1_holds_a.load()) std::this_thread::yield();
      // Give t1 time to block on X(b) so the cycle closes on our request.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ODE_ASSIGN_OR_RETURN(StockItem * a, txn.Write(accounts_[0]));
      a->set_quantity(a->quantity() - 1);
      return Status::OK();
    });
    record(s);
  });
  t1.join();
  t2.join();

  EXPECT_EQ(deadlocks.load(), 1);
  EXPECT_EQ(commits.load(), 1);
  EXPECT_EQ(registry.GetCounter("concur.lock.deadlocks")->value(), 1);
  // The victim rolled back; the survivor's +1/-1 cancel out.
  EXPECT_EQ(TotalBalance(),
            static_cast<int64_t>(kAccounts) * kInitialBalance);
  db_.reset();  // before `registry` (a local) goes out of scope
}

// §5: "the transaction in which the violation occurred is aborted" — and
// only that one. Violating and clean transactions run concurrently; every
// clean one commits, every violating one fails with ConstraintViolation.
TEST_F(ConcurrencyTest, ConstraintViolationAbortsOnlyOffender) {
  Open();
  (*db_)->RegisterConstraint<StockItem>(
      "non_negative", [](const StockItem& s) { return s.quantity() >= 0; });

  constexpr int kThreads = 4;
  std::atomic<int> violations{0};
  std::atomic<int> clean_commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; i++) {
        const bool violate = (t + i) % 2 == 0;
        const int idx = (t + i) % kAccounts;
        Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
          ODE_ASSIGN_OR_RETURN(StockItem * item, txn.Write(accounts_[idx]));
          item->set_quantity(violate ? -1 : item->quantity());
          return Status::OK();
        });
        if (violate) {
          EXPECT_TRUE(s.IsConstraintViolation()) << s.ToString();
          if (s.IsConstraintViolation()) violations.fetch_add(1);
        } else {
          EXPECT_TRUE(s.ok()) << s.ToString();
          if (s.ok()) clean_commits.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(violations.load(), kThreads * 10);
  EXPECT_EQ(clean_commits.load(), kThreads * 10);
  // The violating writes never became visible.
  EXPECT_EQ(TotalBalance(),
            static_cast<int64_t>(kAccounts) * kInitialBalance);
}

// §6 weak coupling, asynchronously: every fired action runs (in a worker
// transaction) even though the committing threads never execute them.
TEST_F(ConcurrencyTest, AsyncTriggersAllExecute) {
  MetricsRegistry registry;  // exact trigger.executed count below
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.metrics = &registry;
  options.trigger_executor_threads = 2;
  std::atomic<int> fired{0};
  OpenWith(options);
  (*db_)->DefineTrigger<StockItem>(
      "audit",
      [](const StockItem&, const std::vector<double>&) { return true; },
      [&fired](Transaction& txn, Ref<StockItem> item,
               const std::vector<double>&) -> Status {
        ODE_RETURN_IF_ERROR(txn.Read(item).status());
        fired.fetch_add(1);
        return Status::OK();
      });

  constexpr int kThreads = 3;
  constexpr int kUpdatesPerThread = 10;
  // Perpetual activation on every account.
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    for (const auto& ref : accounts_) {
      ODE_RETURN_IF_ERROR(
          txn.ActivateTrigger(ref, "audit", {}, /*perpetual=*/true).status());
    }
    return Status::OK();
  }));

  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kUpdatesPerThread; i++) {
        const int idx = (t * kUpdatesPerThread + i) % kAccounts;
        Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
          ODE_ASSIGN_OR_RETURN(StockItem * item, txn.Write(accounts_[idx]));
          item->set_quantity(item->quantity() + 1);
          return Status::OK();
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  (*db_)->DrainTriggers();

  // One firing per committed update (perpetual trigger, condition true).
  EXPECT_EQ(fired.load(), committed.load());
  EXPECT_EQ(committed.load(), kThreads * kUpdatesPerThread);
  EXPECT_EQ(registry.GetCounter("trigger.executed")->value(),
            static_cast<uint64_t>(committed.load()));
  db_.reset();  // before `registry` (a local) goes out of scope
}

// A once-only activation fires exactly once no matter how many contending
// transactions make its condition true: the first committer burns the
// activation under the exclusive schema lock.
TEST_F(ConcurrencyTest, OnceOnlyFiresExactlyOnceUnderContention) {
  DatabaseOptions options = TestDb::FastOptions();
  options.trigger_executor_threads = 2;
  std::atomic<int> fired{0};
  OpenWith(options);
  (*db_)->DefineTrigger<StockItem>(
      "once",
      [](const StockItem&, const std::vector<double>&) { return true; },
      [&fired](Transaction&, Ref<StockItem>,
               const std::vector<double>&) -> Status {
        fired.fetch_add(1);
        return Status::OK();
      });
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    return txn.ActivateTrigger(accounts_[0], "once", {}, /*perpetual=*/false)
        .status();
  }));

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
        ODE_ASSIGN_OR_RETURN(StockItem * item, txn.Write(accounts_[0]));
        item->set_quantity(item->quantity() + 1);
        return Status::OK();
      });
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
  }
  for (auto& th : threads) th.join();
  (*db_)->DrainTriggers();

  EXPECT_EQ(fired.load(), 1);
}

// Readers scan concurrently with writers; each scan sees a consistent
// committed total (2PL blocks a scan only while a writer holds the cluster
// or an object it wants).
TEST_F(ConcurrencyTest, ReadersSeeConsistentTotals) {
  Open();
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      int64_t sum = TotalBalance();
      EXPECT_EQ(sum, static_cast<int64_t>(kAccounts) * kInitialBalance);
      reads.fetch_add(1);
    }
  });
  std::thread writer([&] {
    // Overlap the writes with the scans: start once the reader has finished
    // its first one, or a fast writer could be done before it ever ran.
    while (reads.load() == 0) std::this_thread::yield();
    for (int i = 0; i < 30; i++) {
      Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
        ODE_ASSIGN_OR_RETURN(StockItem * a, txn.Write(accounts_[0]));
        ODE_ASSIGN_OR_RETURN(StockItem * b, txn.Write(accounts_[1]));
        a->set_quantity(a->quantity() - 5);
        b->set_quantity(b->quantity() + 5);
        return Status::OK();
      });
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    stop.store(true);
  });
  writer.join();
  reader.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(TotalBalance(),
            static_cast<int64_t>(kAccounts) * kInitialBalance);
}

// Satellite audit: the metrics instruments are hammered from many threads
// (histogram reservoir + summary reads race by design of the API).
TEST(ConcurrentMetricsTest, HistogramAndCountersAreThreadSafe) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("hammer.latency");
  Counter* counter = registry.GetCounter("hammer.ops");
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        histogram->Add(static_cast<double>(i % 100));
        counter->Add();
        if (i % 256 == 0) {
          (void)histogram->Summary();
          (void)registry.GetGauge("hammer.gauge")->Set(i);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(histogram->count(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

// txn.deadlock_retries surfaces the retry loop: with retries enabled, a
// deliberately deadlock-prone workload should record at least one.
TEST_F(ConcurrencyTest, DeadlockRetriesAreCounted) {
  MetricsRegistry registry;
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.metrics = &registry;
  OpenWith(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  // Threads holding their first lock in round 0, by parity. Each thread's
  // first attempt waits (bounded) until the other parity holds its first
  // lock too, so at least one cycle forms however the threads are
  // scheduled; a loaded machine could otherwise run them one after another.
  std::atomic<int> holding[2] = {{0}, {0}};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      bool rendezvous = true;
      for (int i = 0; i < kRounds; i++) {
        // Opposite lock orders by thread parity: a deadlock factory.
        const int first = t % 2 == 0 ? 0 : 1;
        const int second = 1 - first;
        Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
          ODE_ASSIGN_OR_RETURN(StockItem * a, txn.Write(accounts_[first]));
          a->set_quantity(a->quantity() + 1);
          if (rendezvous) {
            rendezvous = false;
            holding[first].fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (holding[second].load() == 0 &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
          }
          std::this_thread::yield();
          ODE_ASSIGN_OR_RETURN(StockItem * b, txn.Write(accounts_[second]));
          b->set_quantity(b->quantity() - 1);
          return Status::OK();
        });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Deadlocks occurred and were retried (the workload forces cycles), yet
  // the invariant held.
  EXPECT_GT(registry.GetCounter("concur.lock.deadlocks")->value(), 0u);
  EXPECT_GT(registry.GetCounter("txn.deadlock_retries")->value(), 0u);
  EXPECT_EQ(TotalBalance(),
            static_cast<int64_t>(kAccounts) * kInitialBalance);
  db_.reset();  // before `registry` (a local) goes out of scope
}

}  // namespace
}  // namespace ode
