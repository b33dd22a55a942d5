// Snapshot ForAll execution (docs/CONCURRENCY.md "Parallel query
// execution"): every snapshot-transaction scan partitions the clusters'
// object-table entry ranges into page-aligned morsels; Parallel() fans them
// out over the shared QueryPool, otherwise they run inline in the caller's
// transaction. The contract under test:
//
//   * results are exactly what the test's own model of the seeded data
//     says — the refs it created, in creation order (a fresh cluster hands
//     out entries in order), with quantity == index — in refs, order and
//     aggregate values (ties in Min/Max resolve to the first object); the
//     inline and Parallel() snapshot scans, and a locked scan, agree with
//     it and with each other;
//   * the scan is snapshot-consistent while writers commit concurrently,
//     inline with no pool as well as on pool workers, and reads a head
//     visible at its cut with one pool fetch, straight from the walked
//     entry;
//   * admission is all-or-nothing: a pool with fewer idle threads than the
//     job asks for fails with Busy instead of degrading silently;
//   * ineligible loops (locked transactions, explicit oid lists, no pool)
//     run on the caller's thread and count query.parallel.fallbacks;
//   * per-worker ExecStats merge into the coordinator's counters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "query/aggregate.h"
#include "query/parallel.h"
#include "test_models.h"
#include "test_util.h"

namespace ode {
namespace {

using odetest::Person;
using odetest::StockItem;
using odetest::Student;
using testing::TestDb;

class ParallelQueryTest : public ::testing::Test {
 protected:
  void Open(size_t query_threads) {
    DatabaseOptions options = TestDb::FastOptions();
    options.engine.query_threads = query_threads;
    db_ = std::make_unique<TestDb>(options);
    ASSERT_OK((*db_)->CreateCluster<StockItem>());
  }

  /// Seeds `n` items, quantity = index (an exact-integer aggregate base),
  /// recording each ref in refs_ in creation order: the model every
  /// expected answer comes from. Object-table entry pages hold 127 entries
  /// and a morsel spans four of them, so anything past ~508 items gives the
  /// pool several morsels.
  void Seed(int n) {
    constexpr int kBatch = 300;
    for (int start = 0; start < n; start += kBatch) {
      const int end = std::min(n, start + kBatch);
      ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
        for (int i = start; i < end; i++) {
          ODE_ASSIGN_OR_RETURN(Ref<StockItem> ref,
                               txn.New<StockItem>("item", 1.0, i, 0));
          refs_.push_back(ref);
        }
        return Status::OK();
      }));
    }
  }

  /// Runs `fn` in its own locked transaction.
  template <typename Fn>
  void Locked(Fn fn) {
    ASSERT_OK((*db_)->RunTransaction(
        [&](Transaction& txn) -> Status { return fn(txn); }));
  }

  std::unique_ptr<TestDb> db_;
  std::vector<Ref<StockItem>> refs_;
};

// The inline and parallel snapshot collects and a locked one return
// exactly the seeded refs in creation order (morsel slots concatenate in
// scan order), and the merged ExecStats match the inline counters.
TEST_F(ParallelQueryTest, CollectMatchesSerialOrdered) {
  Open(/*query_threads=*/4);
  Seed(1200);
  ASSERT_EQ(refs_.size(), 1200u);
  Locked([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(std::vector<Ref<StockItem>> locked_refs,
                         ForAll<StockItem>(txn).Collect());
    EXPECT_EQ(locked_refs.size(), refs_.size());
    for (size_t i = 0; i < locked_refs.size() && i < refs_.size(); i++) {
      EXPECT_EQ(locked_refs[i].oid(), refs_[i].oid()) << "at " << i;
    }
    return Status::OK();
  });

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  ForAll<StockItem> serial(*snap);
  auto serial_refs = ASSERT_OK_AND_UNWRAP(serial.Collect());
  ASSERT_EQ(serial_refs.size(), refs_.size());
  for (size_t i = 0; i < refs_.size(); i++) {
    EXPECT_EQ(serial_refs[i].oid(), refs_[i].oid()) << "at " << i;
  }
  EXPECT_EQ(serial.exec_stats().workers, 0u);

  ForAll<StockItem> parallel(*snap);
  parallel.Parallel();
  EXPECT_TRUE(parallel.WillRunParallel());
  auto parallel_refs = ASSERT_OK_AND_UNWRAP(parallel.Collect());
  ASSERT_EQ(parallel_refs.size(), serial_refs.size());
  for (size_t i = 0; i < serial_refs.size(); i++) {
    EXPECT_EQ(parallel_refs[i].oid(), serial_refs[i].oid()) << "at " << i;
  }

  const auto& stats = parallel.exec_stats();
  EXPECT_EQ(stats.access_path, "scan");
  EXPECT_GT(stats.workers, 0u);
  EXPECT_EQ(stats.clusters, 1u);
  EXPECT_EQ(stats.rows_scanned, serial.exec_stats().rows_scanned);
  EXPECT_EQ(stats.rows_returned, serial.exec_stats().rows_returned);
  ASSERT_OK(snap->Commit());
}

// Filtered scans and the aggregate helpers produce the model's answers
// (quantity == index), inline, in parallel and locked, with the merged
// ExecStats counting every scanned row once across workers.
TEST_F(ParallelQueryTest, FilteredAggregatesMatchSerial) {
  Open(/*query_threads=*/4);
  Seed(1000);
  auto filtered = [](ForAll<StockItem> loop) {
    return std::move(loop).SuchThat(
        [](const StockItem& s) { return s.quantity() % 3 == 0; });
  };
  auto quantity = [](const StockItem& s) {
    return static_cast<double>(s.quantity());
  };
  // The model: quantity == index, so the matches are 0, 3, ..., 999.
  // Integer-valued doubles: no fold order can differ by association.
  double want_sum = 0;
  size_t want_n = 0;
  for (size_t i = 0; i < refs_.size(); i++) {
    if (i % 3 != 0) continue;
    want_sum += static_cast<double>(i);
    want_n++;
  }
  ASSERT_EQ(want_n, 334u);
  const double want_avg = want_sum / static_cast<double>(want_n);
  Locked([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(double locked_sum,
                         Sum<StockItem>(filtered(ForAll<StockItem>(txn)), txn,
                                        quantity));
    ODE_ASSIGN_OR_RETURN(double locked_avg,
                         Avg<StockItem>(filtered(ForAll<StockItem>(txn)), txn,
                                        quantity));
    EXPECT_EQ(locked_sum, want_sum);
    EXPECT_EQ(locked_avg, want_avg);
    return Status::OK();
  });

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  double serial_sum = ASSERT_OK_AND_UNWRAP(
      Sum<StockItem>(filtered(ForAll<StockItem>(*snap)), *snap, quantity));
  double parallel_sum = ASSERT_OK_AND_UNWRAP(Sum<StockItem>(
      filtered(ForAll<StockItem>(*snap).Parallel()), *snap, quantity));
  EXPECT_EQ(serial_sum, want_sum);
  EXPECT_EQ(parallel_sum, serial_sum);

  double serial_avg = ASSERT_OK_AND_UNWRAP(
      Avg<StockItem>(filtered(ForAll<StockItem>(*snap)), *snap, quantity));
  double parallel_avg = ASSERT_OK_AND_UNWRAP(Avg<StockItem>(
      filtered(ForAll<StockItem>(*snap).Parallel()), *snap, quantity));
  EXPECT_EQ(serial_avg, want_avg);
  EXPECT_EQ(parallel_avg, serial_avg);

  // Exercise the worker-side predicate + merged counters through a counted
  // scan as well.
  ForAll<StockItem> loop(*snap);
  loop.SuchThat([](const StockItem& s) { return s.quantity() % 3 == 0; })
      .Parallel(2);
  size_t n = ASSERT_OK_AND_UNWRAP(loop.Count());
  EXPECT_EQ(n, want_n);
  EXPECT_EQ(loop.exec_stats().workers, 2u);
  EXPECT_EQ(loop.exec_stats().rows_scanned, 1000u);
  EXPECT_EQ(loop.exec_stats().rows_returned, 334u);
  ASSERT_OK(snap->Commit());
}

// MinBy/MaxBy under ties: every item shares the key, so "the" extremum is
// the first object in scan order, the first one seeded — the morsel merge,
// inline, parallel or locked, must pick it (strict comparison in fold and
// ascending slot merge).
TEST_F(ParallelQueryTest, MinMaxTiesResolveLikeSerial) {
  Open(/*query_threads=*/4);
  Seed(700);
  auto constant = [](const StockItem&) { return 7; };
  const Oid first = refs_.front().oid();
  Locked([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(Ref<StockItem> locked_min,
                         (MinBy<StockItem, int>(ForAll<StockItem>(txn), txn,
                                                constant)));
    ODE_ASSIGN_OR_RETURN(Ref<StockItem> locked_max,
                         (MaxBy<StockItem, int>(ForAll<StockItem>(txn), txn,
                                                constant)));
    EXPECT_EQ(locked_min.oid(), first);
    EXPECT_EQ(locked_max.oid(), first);
    return Status::OK();
  });

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  auto serial_min = ASSERT_OK_AND_UNWRAP(
      (MinBy<StockItem, int>(ForAll<StockItem>(*snap), *snap, constant)));
  auto parallel_min = ASSERT_OK_AND_UNWRAP((MinBy<StockItem, int>(
      ForAll<StockItem>(*snap).Parallel(), *snap, constant)));
  EXPECT_EQ(serial_min.oid(), first);
  EXPECT_EQ(parallel_min.oid(), serial_min.oid());

  auto serial_max = ASSERT_OK_AND_UNWRAP(
      (MaxBy<StockItem, int>(ForAll<StockItem>(*snap), *snap, constant)));
  auto parallel_max = ASSERT_OK_AND_UNWRAP((MaxBy<StockItem, int>(
      ForAll<StockItem>(*snap).Parallel(), *snap, constant)));
  EXPECT_EQ(serial_max.oid(), first);
  EXPECT_EQ(parallel_max.oid(), serial_max.oid());
  ASSERT_OK(snap->Commit());
}

// Snapshot consistency under concurrent committing writers: the parallel
// workers all join the coordinator's cut, so repeated parallel sums over one
// snapshot return the exact seed-time total no matter what commits land
// meanwhile; a snapshot minted afterwards sees every writer increment.
TEST_F(ParallelQueryTest, SnapshotConsistentUnderWriters) {
  Open(/*query_threads=*/4);
  const int kItems = 900;
  Seed(kItems);
  const double seed_total =
      static_cast<double>(kItems) * (kItems - 1) / 2.0;

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());

  constexpr int kWriters = 2;
  constexpr int kWritesEach = 25;
  std::atomic<bool> go{false};
  std::vector<Status> writer_status(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kWritesEach; i++) {
        Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
          Ref<StockItem> victim = refs_[(w * kWritesEach + i) % refs_.size()];
          ODE_ASSIGN_OR_RETURN(StockItem * obj, txn.Write(victim));
          obj->set_quantity(obj->quantity() + 1);
          return Status::OK();
        });
        if (!s.ok()) {
          writer_status[w] = s;
          return;
        }
      }
    });
  }

  go.store(true, std::memory_order_release);
  auto quantity = [](const StockItem& s) {
    return static_cast<double>(s.quantity());
  };
  for (int round = 0; round < 8; round++) {
    double sum = ASSERT_OK_AND_UNWRAP(Sum<StockItem>(
        ForAll<StockItem>(*snap).Parallel(), *snap, quantity));
    EXPECT_EQ(sum, seed_total) << "round " << round;
  }
  for (auto& t : writers) t.join();
  for (const Status& s : writer_status) ASSERT_OK(s);
  ASSERT_OK(snap->Commit());

  auto after = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  double sum = ASSERT_OK_AND_UNWRAP(
      Sum<StockItem>(ForAll<StockItem>(*after).Parallel(), *after, quantity));
  EXPECT_EQ(sum, seed_total + kWriters * kWritesEach);
  ASSERT_OK(after->Commit());
}

// All-or-nothing admission: while another job holds every pool thread, a
// parallel query fails with Busy (no silent degradation, no queuing); once
// the pool drains the identical query succeeds. Oversized and zero-width
// requests are rejected outright.
TEST_F(ParallelQueryTest, PoolExhaustionIsBusy) {
  Open(/*query_threads=*/2);
  Seed(600);

  QueryPool* pool = (*db_)->query_pool();
  ASSERT_NE(pool, nullptr);
  ASSERT_EQ(pool->thread_count(), 2u);
  EXPECT_TRUE(pool->Run(3, [](size_t) { return Status::OK(); }).IsBusy());
  EXPECT_TRUE(
      pool->Run(0, [](size_t) { return Status::OK(); }).IsInvalidArgument());

  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  Status holder_status;
  std::thread holder([&] {
    holder_status = pool->Run(2, [&](size_t) -> Status {
      started.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::OK();
    });
  });
  while (started.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool->idle_count(), 0u);

  {
    auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
    ForAll<StockItem> loop(*snap);
    loop.Parallel();
    auto got = loop.Collect();
    EXPECT_TRUE(got.status().IsBusy()) << got.status().ToString();
    ASSERT_OK(snap->Commit());
  }

  release.store(true, std::memory_order_release);
  holder.join();
  ASSERT_OK(holder_status);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  ForAll<StockItem> loop(*snap);
  loop.Parallel();
  auto refs = ASSERT_OK_AND_UNWRAP(loop.Collect());
  EXPECT_EQ(refs.size(), 600u);
  EXPECT_GT(loop.exec_stats().workers, 0u);
  ASSERT_OK(snap->Commit());
}

// Ineligible loops run serially and count query.parallel.fallbacks: a
// locked (non-snapshot) transaction, and an explicit oid list inside a
// snapshot. Results stay correct either way.
TEST_F(ParallelQueryTest, IneligibleLoopsFallBackSerial) {
  Open(/*query_threads=*/4);
  Seed(600);
  const Counter* fallbacks = (*db_)->core_metrics().parallel_fallbacks;

  uint64_t before = fallbacks->value();
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ForAll<StockItem> loop(txn);
    loop.Parallel();
    EXPECT_FALSE(loop.WillRunParallel());
    ODE_ASSIGN_OR_RETURN(size_t n, loop.Count());
    EXPECT_EQ(n, 600u);
    EXPECT_EQ(loop.exec_stats().workers, 0u);
    return Status::OK();
  }));
  EXPECT_EQ(fallbacks->value(), before + 1);

  before = fallbacks->value();
  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  ForAll<StockItem> loop(*snap);
  loop.OverOids({refs_[0].oid(), refs_[1].oid()}).Parallel();
  EXPECT_FALSE(loop.WillRunParallel());
  auto refs = ASSERT_OK_AND_UNWRAP(loop.Collect());
  EXPECT_EQ(refs.size(), 2u);
  EXPECT_EQ(loop.exec_stats().workers, 0u);
  EXPECT_EQ(fallbacks->value(), before + 1);
  ASSERT_OK(snap->Commit());
}

// With no query pool every snapshot scan runs its morsels inline in the
// caller's transaction. Persons and Students under WithDerived() span three
// morsels over two clusters; a delete and an insert committed after the
// snapshot's cut must not show, so every answer equals the model of the
// data seeded before them (and a locked scan of it). A Parallel() request
// there runs inline too and counts one fallback.
TEST_F(ParallelQueryTest, InlineScanWithoutPoolMatchesModelAtCut) {
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.query_threads = 0;
  db_ = std::make_unique<TestDb>(options);
  ASSERT_EQ((*db_)->query_pool(), nullptr);
  ASSERT_OK((*db_)->CreateCluster<Person>());
  ASSERT_OK((*db_)->CreateCluster<Student>());
  // 600 Persons fill two morsels of their cluster, 300 Students one. Ages
  // cycle so MinBy meets ties; incomes are whole numbers so sums are exact.
  // The model: every seeded object in scan order (the Person cluster,
  // then the Student cluster, each in creation order).
  std::vector<Ref<Person>> people;
  std::vector<Oid> want_oids;
  for (int start = 0; start < 900; start += 300) {
    Locked([&](Transaction& txn) -> Status {
      for (int i = start; i < start + 300; i++) {
        const int age = 20 + i % 40;
        if (i < 600) {
          ODE_ASSIGN_OR_RETURN(Ref<Person> p, txn.New<Person>("p", age, i));
          people.push_back(p);
          want_oids.push_back(p.oid());
        } else {
          ODE_ASSIGN_OR_RETURN(Ref<Student> s,
                               txn.New<Student>("s", age, i, 3.0));
          want_oids.push_back(s.oid());
        }
      }
      return Status::OK();
    });
  }
  auto everyone = [](Transaction& txn) {
    ForAll<Person> loop(txn);
    loop.WithDerived();
    return loop;
  };
  auto income = [](const Person& p) { return p.income(); };
  auto age = [](const Person& p) { return p.age(); };

  const size_t want_count = want_oids.size();
  const double want_sum = 899.0 * 900 / 2;  // incomes 0..899
  const Oid want_min = people.front().oid();  // first of the age-20s
  auto expect_model = [&](const std::vector<Ref<Person>>& got) {
    ASSERT_EQ(got.size(), want_oids.size());
    for (size_t i = 0; i < want_oids.size(); i++) {
      EXPECT_EQ(got[i].oid(), want_oids[i]) << "at " << i;
    }
  };
  Locked([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(std::vector<Ref<Person>> refs,
                         everyone(txn).Collect());
    expect_model(refs);
    ODE_ASSIGN_OR_RETURN(size_t count, everyone(txn).Count());
    EXPECT_EQ(count, want_count);
    ODE_ASSIGN_OR_RETURN(double sum, Sum<Person>(everyone(txn), txn, income));
    EXPECT_EQ(sum, want_sum);
    ODE_ASSIGN_OR_RETURN(Ref<Person> min,
                         (MinBy<Person, int>(everyone(txn), txn, age)));
    EXPECT_EQ(min.oid(), want_min);
    return Status::OK();
  });

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  // After the cut: the MinBy winner goes, and a Student that would win and
  // would shift the sum comes in.
  std::thread writer([&] {
    Locked([&](Transaction& txn) -> Status {
      ODE_RETURN_IF_ERROR(txn.Delete(people.front()));
      return txn.New<Student>("late", 1, 1e6, 4.0).status();
    });
  });
  writer.join();

  const Counter* fallbacks = (*db_)->core_metrics().parallel_fallbacks;
  const uint64_t before = fallbacks->value();
  ForAll<Person> inline_loop = everyone(*snap);
  auto got = ASSERT_OK_AND_UNWRAP(inline_loop.Collect());
  expect_model(got);
  EXPECT_EQ(inline_loop.exec_stats().clusters, 2u);
  EXPECT_EQ(inline_loop.exec_stats().workers, 0u);
  size_t count = ASSERT_OK_AND_UNWRAP(everyone(*snap).Count());
  EXPECT_EQ(count, want_count);
  double sum =
      ASSERT_OK_AND_UNWRAP(Sum<Person>(everyone(*snap), *snap, income));
  EXPECT_EQ(sum, want_sum);
  auto min = ASSERT_OK_AND_UNWRAP(
      (MinBy<Person, int>(everyone(*snap), *snap, age)));
  EXPECT_EQ(min.oid(), want_min);
  EXPECT_EQ(fallbacks->value(), before);  // nothing asked for the pool

  ForAll<Person> parallel = everyone(*snap);
  parallel.Parallel();
  EXPECT_FALSE(parallel.WillRunParallel());
  auto parallel_refs = ASSERT_OK_AND_UNWRAP(parallel.Collect());
  expect_model(parallel_refs);
  EXPECT_EQ(parallel.exec_stats().workers, 0u);
  EXPECT_EQ(fallbacks->value(), before + 1);
  ASSERT_OK(snap->Commit());

  // A snapshot minted after the writer sees both changes.
  auto after = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  auto late_min = ASSERT_OK_AND_UNWRAP(
      (MinBy<Person, int>(everyone(*after), *after, age)));
  auto late = ASSERT_OK_AND_UNWRAP(after->Read(late_min));
  EXPECT_EQ(late->name(), "late");
  size_t after_count = ASSERT_OK_AND_UNWRAP(everyone(*after).Count());
  EXPECT_EQ(after_count, want_count);  // one deleted, one inserted
  ASSERT_OK(after->Commit());
}

// A snapshot scan reads a head visible at its cut straight from the data
// page the walked entry names, and walks the version chain only otherwise
// (ObjectStore::ReadSnapshotHead). The expected rows come from a locked
// scan taken just before the cut; the inline and Parallel() snapshot scans
// must return exactly those rows, values included, across every case that
// rule tells apart: heads stamped before the cut (most rows, and a Student
// under WithDerived()), an overflow record, pre-cut deletes (tombstones at
// or below the cut: skipped), and post-cut updates, deletes and an insert
// (heads above the cut: the chain decides). The fetch count pins the one
// fetch per visible inline row.
TEST_F(ParallelQueryTest, WalkedHeadReadsMatchLockedScanAtCut) {
  Open(/*query_threads=*/4);
  ASSERT_OK((*db_)->CreateCluster<Person>());
  ASSERT_OK((*db_)->CreateCluster<Student>());
  // 600 Persons (two morsels) and 100 Students; Person 5's name makes its
  // record spill into an overflow chain. Incomes are whole and distinct.
  std::vector<Ref<Person>> people;
  std::vector<Ref<Student>> students;
  Locked([&](Transaction& txn) -> Status {
    for (int i = 0; i < 600; i++) {
      const std::string name = i == 5 ? std::string(3000, 'o') : "p";
      ODE_ASSIGN_OR_RETURN(Ref<Person> p, txn.New<Person>(name, 20, i));
      people.push_back(p);
    }
    for (int i = 0; i < 100; i++) {
      ODE_ASSIGN_OR_RETURN(Ref<Student> s,
                           txn.New<Student>("s", 20, 1000 + i, 3.0));
      students.push_back(s);
    }
    return Status::OK();
  });
  // Deleted before the cut: their heads are tombstones at or below it.
  Locked([&](Transaction& txn) -> Status {
    for (int i = 10; i < 20; i++) ODE_RETURN_IF_ERROR(txn.Delete(people[i]));
    return txn.Delete(students[3]);
  });

  using Row = std::tuple<uint64_t, std::string, double>;
  using Rows = std::vector<Row>;
  auto rows_of = [](ForAll<Person>& loop) -> Result<Rows> {
    loop.WithDerived();
    ODE_ASSIGN_OR_RETURN(
        std::vector<Rows> slots,
        loop.template Fold<Rows>(
            [](Rows& acc, Ref<Person> ref, const Person& p) -> Status {
              acc.emplace_back(ref.oid().Pack(), p.name(), p.income());
              return Status::OK();
            }));
    Rows rows;
    for (const Rows& slot : slots) {
      rows.insert(rows.end(), slot.begin(), slot.end());
    }
    return rows;
  };
  Rows want;
  Locked([&](Transaction& txn) -> Status {
    ForAll<Person> locked(txn);
    ODE_ASSIGN_OR_RETURN(want, rows_of(locked));
    return Status::OK();
  });
  ASSERT_EQ(want.size(), 600u - 10 + 100 - 1);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  // After the cut: two updates (one of them a Student), two deletes (one in
  // each Person morsel) and an insert.
  std::thread writer([&] {
    Locked([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(Person * p, txn.Write(people[100]));
      p->set_income(1e6);
      ODE_ASSIGN_OR_RETURN(Student * s, txn.Write(students[50]));
      s->set_income(1e6);
      ODE_RETURN_IF_ERROR(txn.Delete(people[200]));
      ODE_RETURN_IF_ERROR(txn.Delete(people[550]));
      return txn.New<Person>("late", 20, 1e6).status();
    });
  });
  writer.join();

  ForAll<Person> inline_loop(*snap);
  EXPECT_EQ(ASSERT_OK_AND_UNWRAP(rows_of(inline_loop)), want);
  ForAll<Person> parallel(*snap);
  parallel.Parallel();
  EXPECT_EQ(ASSERT_OK_AND_UNWRAP(rows_of(parallel)), want);
  EXPECT_GT(parallel.exec_stats().workers, 1u);
  EXPECT_EQ(parallel.exec_stats().rows_scanned, want.size());
  // Inline fetches: the Person cluster's plan (high-water root and entry
  // listing 2; its 614 entries — 600 heads, 13 retained images and the
  // insert — span five entry pages, so root + 4 entry pages and root + 1
  // for its two morsels 7) and the Student cluster's (2 + root + 1 entry page) = 13;
  // one data page per head visible at the cut (586 Persons, 98 Students);
  // none for the 11 pre-cut tombstones; the overflow record through
  // ReadSnapshot (root, entry page, one chain page) 3; the four updated or
  // deleted heads each walk one hop (root and entry page twice, then the
  // data page) 4 * 5; and the post-cut insert finds nothing at the cut
  // (root and entry page) 2. 13 + 684 + 3 + 20 + 2 = 722.
  EXPECT_EQ(inline_loop.exec_stats().pool_fetches, 722u);
  EXPECT_EQ(parallel.exec_stats().pool_fetches, 722u);
  ASSERT_OK(snap->Commit());

  // The writes did land: a cut taken after them sees them.
  auto after = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  ForAll<Person> later(*after);
  Rows now = ASSERT_OK_AND_UNWRAP(rows_of(later));
  EXPECT_EQ(now.size(), want.size() - 2 + 1);
  EXPECT_NE(now, want);
  const Person* updated = ASSERT_OK_AND_UNWRAP(after->Read(people[100]));
  EXPECT_EQ(updated->income(), 1e6);
  ASSERT_OK(after->Commit());
}

// Degenerate shapes: an empty cluster yields an empty result (no workers
// dispatched), and a width request above the pool size clamps to the pool
// rather than failing.
TEST_F(ParallelQueryTest, EmptyClusterAndClampedWidth) {
  Open(/*query_threads=*/2);
  ASSERT_OK((*db_)->CreateCluster<Person>());
  Seed(600);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  ForAll<Person> empty(*snap);
  empty.Parallel();
  auto none = ASSERT_OK_AND_UNWRAP(empty.Collect());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(empty.exec_stats().workers, 0u);

  ForAll<StockItem> wide(*snap);
  wide.Parallel(16);  // pool only has 2 threads
  auto refs = ASSERT_OK_AND_UNWRAP(wide.Collect());
  EXPECT_EQ(refs.size(), 600u);
  EXPECT_EQ(wide.exec_stats().workers, 2u);
  ASSERT_OK(snap->Commit());
}

}  // namespace
}  // namespace ode
