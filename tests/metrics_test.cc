// Observability-layer tests: the MetricsRegistry itself, the storage/txn
// counters it mirrors, ForAll::ExecStats per access path, JoinStats, and the
// bounded transaction object cache (DatabaseOptions::max_cached_objects)
// that the join pointer-discipline fix depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "query/join.h"
#include "test_models.h"
#include "test_util.h"
#include "util/metrics.h"

namespace ode {
namespace {

using odetest::Person;
using odetest::Student;
using testing::TestDb;

/// A TestDb reporting into its own private registry, so counter assertions
/// are exact (the Global registry accumulates across tests).
struct MeteredDb {
  MetricsRegistry registry;
  TestDb db;

  explicit MeteredDb(DatabaseOptions options = TestDb::FastOptions())
      : db(WithRegistry(options, &registry)) {}

  static DatabaseOptions WithRegistry(DatabaseOptions options,
                                      MetricsRegistry* registry) {
    options.engine.metrics = registry;
    return options;
  }

  Database* operator->() { return db.db.get(); }
  MetricsRegistry::Snapshot Snap() { return registry.TakeSnapshot(); }
};

// --- Registry basics --------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistogramsRoundTrip) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("a.count");
  Gauge* g = reg.GetGauge("a.level");
  Histogram* h = reg.GetHistogram("a.latency");

  // Resolving the same name returns the same instrument.
  EXPECT_EQ(c, reg.GetCounter("a.count"));
  EXPECT_EQ(g, reg.GetGauge("a.level"));
  EXPECT_EQ(h, reg.GetHistogram("a.latency"));

  c->Add();
  c->Add(4);
  g->Set(10);
  g->Sub(3);
  for (int i = 1; i <= 100; i++) h->Add(i);

  MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("a.count"), 5u);
  EXPECT_EQ(snap.gauge("a.level"), 7);
  EXPECT_EQ(snap.counter("no.such.counter"), 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "a.latency");
  EXPECT_EQ(snap.histograms[0].count, 100u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].min, 1.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, 100.0);

  const std::string text = snap.RenderText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("a.level"), std::string::npos);
  const std::string json = snap.RenderJson();
  EXPECT_NE(json.find("\"a.count\":5"), std::string::npos);

  reg.Reset();
  EXPECT_EQ(c->value(), 0u);  // pointers stay valid across Reset
  EXPECT_EQ(reg.TakeSnapshot().counter("a.count"), 0u);
}

TEST(MetricsRegistryTest, HistogramReservoirStaysBounded) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("bounded", /*max_samples=*/64);
  for (int i = 0; i < 100000; i++) h->Add(i);
  // Exact aggregates over everything ever added; bounded sample memory.
  EXPECT_EQ(h->count(), 100000u);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 99999.0);
  EXPECT_LE(h->sample_count(), 64u);
  // Percentiles remain sane estimates from the reservoir.
  const double p50 = h->Percentile(50);
  EXPECT_GT(p50, 100000 * 0.2);
  EXPECT_LT(p50, 100000 * 0.8);
}

// IgnoreStatus (util/status.h) is the sanctioned way to drop a Status under
// the [[nodiscard]] discipline; its whole value is that the drop is
// *observable*. The counter lives in the Global registry (IgnoreStatus has
// no registry parameter by design — call sites must stay one-liners), so
// assertions are deltas, and the instrument must surface through the normal
// snapshot/render pipeline like any other counter.
TEST(MetricsRegistryTest, StatusIgnoredSurfacesInSnapshotAndRenders) {
  MetricsRegistry& m = MetricsRegistry::Global();
  const uint64_t before = m.TakeSnapshot().counter("status.ignored");
  IgnoreStatus(Status::Corruption("deliberately dropped"), "metrics-test");
  const MetricsRegistry::Snapshot snap = m.TakeSnapshot();
  EXPECT_EQ(snap.counter("status.ignored"), before + 1);
  EXPECT_GE(snap.counter("status.ignored.metrics-test"), 1u);
  // Renders like any other instrument (ode_shell `.stats`, BENCH_JSON).
  EXPECT_NE(snap.RenderText().find("status.ignored"), std::string::npos);
  EXPECT_NE(snap.RenderJson().find("\"status.ignored\""), std::string::npos);
}

// --- Storage / transaction counters ----------------------------------------

TEST(MetricsDbTest, TxnCountersMonotoneAcrossCommitAndAbort) {
  MeteredDb m;
  ASSERT_OK(m->CreateCluster<Person>());

  const uint64_t base_commits = m.Snap().counter("storage.engine.txn_commits");
  ASSERT_OK(m->RunTransaction([&](Transaction& txn) -> Status {
    return txn.New<Person>("ok", 1, 1).status();
  }));
  auto after_commit = m.Snap();
  EXPECT_EQ(after_commit.counter("storage.engine.txn_commits"),
            base_commits + 1);

  const uint64_t base_aborts = after_commit.counter("storage.engine.txn_aborts");
  Status failed = m->RunTransaction([&](Transaction& txn) -> Status {
    ODE_RETURN_IF_ERROR(txn.New<Person>("doomed", 2, 2).status());
    return Status::InvalidArgument("forced rollback");
  });
  EXPECT_FALSE(failed.ok());
  auto after_abort = m.Snap();
  EXPECT_EQ(after_abort.counter("storage.engine.txn_aborts"), base_aborts + 1);
  // Monotone: the abort did not disturb the commit count.
  EXPECT_EQ(after_abort.counter("storage.engine.txn_commits"),
            base_commits + 1);
  EXPECT_GE(after_abort.counter("storage.engine.txn_begins"),
            after_abort.counter("storage.engine.txn_commits") +
                after_abort.counter("storage.engine.txn_aborts"));

  // Commit latency histogram recorded the successful commit.
  bool saw_commit_us = false;
  for (const auto& row : after_abort.histograms) {
    if (row.name == "txn.commit_us") {
      saw_commit_us = true;
      EXPECT_GE(row.count, 1u);
    }
  }
  EXPECT_TRUE(saw_commit_us);
}

TEST(MetricsDbTest, BufferPoolHitMissCountersTrackScriptedAccess) {
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.buffer_pool_pages = 8;  // tiny pool to force misses
  MetricsRegistry registry;
  options.engine.metrics = &registry;
  TestDb db(options);
  ASSERT_OK(db->CreateCluster<Person>());

  std::vector<Ref<Person>> people;
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 300; i++) {
      // Fat records so the extent spans well past the 8-frame pool.
      ODE_ASSIGN_OR_RETURN(
          Ref<Person> p,
          txn.New<Person>(std::string(256, 'x') + std::to_string(i), i, i));
      people.push_back(p);
    }
    return Status::OK();
  }));

  auto before = registry.TakeSnapshot();
  const Counter* global_hits =
      MetricsRegistry::Global().GetCounter("storage.pool.hits");
  const uint64_t global_hits_before = global_hits->value();
  // Two full scans: the second should not be all misses (some locality),
  // and hits+misses must land in the registry the engine was given.
  for (int round = 0; round < 2; round++) {
    ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
      return ForAll<Person>(txn).Do(
          [&](Ref<Person>) -> Status { return Status::OK(); });
    }));
  }
  auto after = registry.TakeSnapshot();
  const uint64_t hits = after.counter("storage.pool.hits");
  const uint64_t misses = after.counter("storage.pool.misses");
  EXPECT_GT(hits, before.counter("storage.pool.hits"));
  EXPECT_EQ(&db->engine().metrics(), &registry);
  EXPECT_EQ(global_hits->value(), global_hits_before);
  // The pool is capped at 8 frames but 300 objects span more pages, so the
  // scans must have both hit and missed.
  EXPECT_GT(misses, 0u);
  EXPECT_GT(after.counter("storage.pool.evictions"), 0u);
  EXPECT_LE(after.gauge("storage.pool.frames"), 8);
}

TEST(MetricsDbTest, WalAndPagerCountersAdvanceOnCommit) {
  MeteredDb m;
  ASSERT_OK(m->CreateCluster<Person>());
  auto before = m.Snap();
  ASSERT_OK(m->RunTransaction([&](Transaction& txn) -> Status {
    return txn.New<Person>("w", 1, 1).status();
  }));
  auto after = m.Snap();
  EXPECT_GT(after.counter("storage.wal.appends"),
            before.counter("storage.wal.appends"));
  EXPECT_GT(after.counter("storage.wal.appended_bytes"),
            before.counter("storage.wal.appended_bytes"));
  EXPECT_GE(after.gauge("storage.wal.bytes"), 0);
}

// --- ForAll ExecStats -------------------------------------------------------

class ExecStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(m_->CreateCluster<Person>());
    ASSERT_OK(m_->CreateIndex<Person>("person_age", [](const Person& p) {
      return index_key::FromInt64(p.age());
    }));
    ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
      for (int i = 0; i < 10; i++) {
        ODE_RETURN_IF_ERROR(
            txn.New<Person>("p" + std::to_string(i), 20 + i, 100).status());
      }
      return Status::OK();
    }));
  }

  MeteredDb m_;
};

TEST_F(ExecStatsTest, ScanPathCountsRowsScannedAndReturned) {
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    loop.SuchThat([](const Person& p) { return p.age() >= 25; });
    EXPECT_EQ(loop.Describe(), "scan(odetest::Person) filter(x1)");
    EXPECT_EQ(loop.Explain(), loop.Describe());
    size_t n = 0;
    ODE_RETURN_IF_ERROR(loop.Do([&](Ref<Person>) -> Status {
      n++;
      return Status::OK();
    }));
    EXPECT_EQ(n, 5u);
    const auto& stats = loop.exec_stats();
    EXPECT_EQ(stats.access_path, "scan");
    EXPECT_EQ(stats.clusters, 1u);
    EXPECT_GE(stats.rounds, 1u);
    EXPECT_EQ(stats.rows_scanned, 10u);
    EXPECT_EQ(stats.rows_returned, 5u);
    EXPECT_NE(stats.ToString().find("scan"), std::string::npos);
    return Status::OK();
  }));
  auto snap = m_.Snap();
  EXPECT_EQ(snap.counter("query.scans"), 1u);
  EXPECT_EQ(snap.counter("query.rows_scanned"), 10u);
  EXPECT_EQ(snap.counter("query.rows_returned"), 5u);
}

TEST_F(ExecStatsTest, IndexExactPathReportsCandidates) {
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    loop.ViaIndexExact("person_age", index_key::FromInt64(23));
    size_t n = 0;
    ODE_RETURN_IF_ERROR(loop.Do([&](Ref<Person>) -> Status {
      n++;
      return Status::OK();
    }));
    EXPECT_EQ(n, 1u);
    const auto& stats = loop.exec_stats();
    EXPECT_EQ(stats.access_path, "index-exact");
    EXPECT_EQ(stats.index_candidates, 1u);
    EXPECT_EQ(stats.rows_scanned, 1u);
    EXPECT_EQ(stats.rows_returned, 1u);
    return Status::OK();
  }));
  auto snap = m_.Snap();
  EXPECT_EQ(snap.counter("query.index_scans"), 1u);
  EXPECT_GE(snap.counter("query.index.probes"), 1u);
  EXPECT_EQ(snap.counter("query.scans"), 0u);
}

TEST_F(ExecStatsTest, IndexRangePathFiltersAfterTheIndex) {
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    loop.ViaIndexRange("person_age", index_key::FromInt64(22),
                       index_key::FromInt64(28));
    // Range [22, 28) = ages 22..27 → 6 candidates; predicate keeps evens.
    loop.SuchThat([](const Person& p) { return p.age() % 2 == 0; });
    size_t n = 0;
    ODE_RETURN_IF_ERROR(loop.Do([&](Ref<Person>) -> Status {
      n++;
      return Status::OK();
    }));
    EXPECT_EQ(n, 3u);
    const auto& stats = loop.exec_stats();
    EXPECT_EQ(stats.access_path, "index-range");
    EXPECT_EQ(stats.index_candidates, 6u);
    EXPECT_EQ(stats.rows_scanned, 6u);
    EXPECT_EQ(stats.rows_returned, 3u);
    return Status::OK();
  }));
  EXPECT_EQ(m_.Snap().counter("query.index_scans"), 1u);
}

TEST_F(ExecStatsTest, CountAndCollectPopulateStatsToo) {
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    ODE_ASSIGN_OR_RETURN(size_t n, loop.Count());
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(loop.exec_stats().rows_scanned, 10u);
    return Status::OK();
  }));
}

TEST_F(ExecStatsTest, ScansReportExactPoolFetchesPerRow) {
  // The ten Persons share one object-table entry page, listed in the
  // table's single root (directory) page, and one data page. Every snapshot
  // scan is the morsel scan, and both executions below plan one morsel.
  //
  // Inline snapshot scan (no Parallel()): the caller fetches the root to
  // list the entry pages and again for the high-water mark (2), walks the
  // morsel with one root and one entry-page fetch (2), then reads the ten
  // objects, each read fetching the root, the entry page and the data
  // page (10 * 3). 2 + 2 + 30 = 34.
  ASSERT_OK(m_->RunReadTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    ODE_ASSIGN_OR_RETURN(size_t n, loop.Count());
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(loop.exec_stats().workers, 0u);
    EXPECT_EQ(loop.exec_stats().pool_fetches, 34u);
    EXPECT_NE(loop.Explain().find("pool_fetches=34"), std::string::npos)
        << loop.Explain();
    return Status::OK();
  }));
  // Parallel snapshot scan, one morsel: the same 34 fetches, split between
  // the coordinator (root listing and high-water root, 2) and the one
  // worker (morsel walk 2, reads 30).
  ASSERT_OK(m_->RunReadTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    loop.Parallel(2);
    EXPECT_TRUE(loop.WillRunParallel());
    ODE_ASSIGN_OR_RETURN(size_t n, loop.Count());
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(loop.exec_stats().workers, 1u);
    EXPECT_EQ(loop.exec_stats().pool_fetches, 34u);
    return Status::OK();
  }));
  auto snap = m_.Snap();
  bool found = false;
  for (const auto& row : snap.histograms) {
    if (row.name != "query.pool_fetches_per_row") continue;
    found = true;
    EXPECT_EQ(row.count, 2u);
    EXPECT_DOUBLE_EQ(row.min, 3.4);
    EXPECT_DOUBLE_EQ(row.max, 3.4);
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecStatsTest, LockedScanReportsExactPoolFetches) {
  // A locked scan walks the same single morsel as the snapshot scans above
  // (ScansReportExactPoolFetchesPerRow), inline in its own transaction: the
  // root for the extent's end under S(cluster) and again to list the entry
  // pages (2), the morsel walk (2), then ten reads of root, entry page and
  // data page (10 * 3). 2 + 2 + 30 = 34.
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    ODE_ASSIGN_OR_RETURN(size_t n, loop.Count());
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(loop.exec_stats().rounds, 1u);
    EXPECT_EQ(loop.exec_stats().pool_fetches, 34u);
    EXPECT_EQ(loop.Explain(),
              "scan(odetest::Person) | scan clusters=1 rounds=1 "
              "rows_scanned=10 rows_returned=10 pool_fetches=34");
    return Status::OK();
  }));
  // A body that creates one Person on the first row: its own fetches stay
  // out, but its insert leaves this transaction private copies of the root,
  // the entry page and the data page, and reads of those are no pool
  // fetches. So: 2 + 2 as above, 3 for the first read, none for the other
  // nine = 7. The insert pass then visits the new Person as an eleventh row
  // in a second round, read from the transaction cache.
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    ForAll<Person> loop(txn);
    bool created = false;
    ODE_RETURN_IF_ERROR(loop.Do([&](Ref<Person>) -> Status {
      if (created) return Status::OK();
      created = true;
      return txn.New<Person>("late", 99, 0).status();
    }));
    EXPECT_EQ(loop.exec_stats().rounds, 2u);
    EXPECT_EQ(loop.exec_stats().rows_scanned, 11u);
    EXPECT_EQ(loop.exec_stats().pool_fetches, 7u);
    return Status::OK();
  }));
}

// --- Joins ------------------------------------------------------------------

class JoinMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(m_->CreateCluster<Person>());
    ASSERT_OK(m_->CreateCluster<Student>());
    ASSERT_OK(m_->CreateIndex<Student>("student_age", [](const Student& s) {
      return index_key::FromInt64(s.age());
    }));
    ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
      for (int i = 0; i < 4; i++) {
        ODE_RETURN_IF_ERROR(
            txn.New<Person>("p" + std::to_string(i), 20 + i, 1).status());
        ODE_RETURN_IF_ERROR(
            txn.New<Student>("s" + std::to_string(i), 20 + i, 1, 3.0)
                .status());
      }
      return Status::OK();
    }));
  }

  MeteredDb m_;
};

TEST_F(JoinMetricsTest, NestedLoopJoinCountsPairsAndStrategy) {
  JoinStats stats;
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    return NestedLoopJoin<Person, Student>(
        txn,
        [](const Person& p, const Student& s) { return p.age() == s.age(); },
        [](Ref<Person>, Ref<Student>) { return Status::OK(); }, &stats);
  }));
  EXPECT_EQ(stats.strategy, "nested-loop");
  EXPECT_EQ(stats.left_rows, 4u);
  EXPECT_EQ(stats.right_rows, 16u);
  EXPECT_EQ(stats.pairs, 4u);
  auto snap = m_.Snap();
  EXPECT_EQ(snap.counter("query.join.nested_loop"), 1u);
  EXPECT_EQ(snap.counter("query.join.pairs"), 4u);
}

TEST_F(JoinMetricsTest, IndexAndHashJoinAgreeWithNestedLoop) {
  JoinStats index_stats, hash_stats;
  ASSERT_OK(m_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_RETURN_IF_ERROR((IndexJoin<Person, Student>(
        txn, "student_age",
        [](const Person& p) { return index_key::FromInt64(p.age()); },
        [](Ref<Person>, Ref<Student>) { return Status::OK(); },
        &index_stats)));
    return HashJoin<Person, Student>(
        txn, [](const Person& p) { return index_key::FromInt64(p.age()); },
        [](const Student& s) { return index_key::FromInt64(s.age()); },
        [](Ref<Person>, Ref<Student>) { return Status::OK(); }, &hash_stats);
  }));
  EXPECT_EQ(index_stats.strategy, "index");
  EXPECT_EQ(index_stats.pairs, 4u);
  EXPECT_EQ(hash_stats.strategy, "hash");
  EXPECT_EQ(hash_stats.pairs, 4u);
  auto snap = m_.Snap();
  EXPECT_EQ(snap.counter("query.join.index"), 1u);
  EXPECT_EQ(snap.counter("query.join.hash"), 1u);
  EXPECT_EQ(snap.counter("query.join.pairs"), 8u);
}

// --- Bounded object cache + join pointer discipline -------------------------

TEST(BoundedCacheTest, JoinSurvivesTinyObjectCache) {
  // Regression for the join dangling-pointer bug: the old NestedLoopJoin
  // held the left-row pointer across every inner read; with a bounded cache
  // that pointer dangles as soon as the entry is evicted. The fixed join
  // re-reads per pair, so a tiny cache must still produce exact results.
  DatabaseOptions options = TestDb::FastOptions();
  options.max_cached_objects = 8;  // kMinCacheLimit floor
  TestDb db(options);
  ASSERT_OK(db->CreateCluster<Person>());
  ASSERT_OK(db->CreateCluster<Student>());

  constexpr int kPeople = 30;
  constexpr int kStudents = 30;
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < kPeople; i++) {
      ODE_RETURN_IF_ERROR(
          txn.New<Person>("p" + std::to_string(i), i % 10, 1).status());
    }
    for (int i = 0; i < kStudents; i++) {
      ODE_RETURN_IF_ERROR(
          txn.New<Student>("s" + std::to_string(i), i % 10, 1, 3.0).status());
    }
    return Status::OK();
  }));

  size_t pairs = 0;
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    ODE_RETURN_IF_ERROR((NestedLoopJoin<Person, Student>(
        txn,
        [](const Person& p, const Student& s) { return p.age() == s.age(); },
        [&](Ref<Person>, Ref<Student>) {
          pairs++;
          return Status::OK();
        })));
    // The cache stayed within its bound even though the join touched
    // kPeople * kStudents row pairs.
    EXPECT_LE(txn.cached_object_count(), 8u);
    return Status::OK();
  }));
  // 30 people x 3 matching students each (ages collide mod 10).
  EXPECT_EQ(pairs, static_cast<size_t>(kPeople * 3));
}

TEST(BoundedCacheTest, EvictionNeverDropsDirtyObjectsAndCountsEvictions) {
  MetricsRegistry registry;
  DatabaseOptions options = TestDb::FastOptions();
  options.max_cached_objects = 8;
  options.engine.metrics = &registry;
  TestDb db(options);
  ASSERT_OK(db->CreateCluster<Person>());

  std::vector<Ref<Person>> people;
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 64; i++) {
      ODE_ASSIGN_OR_RETURN(
          Ref<Person> p, txn.New<Person>("p" + std::to_string(i), i, 0));
      people.push_back(p);
    }
    return Status::OK();
  }));

  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    // Dirty the first four objects, then stream over everything repeatedly:
    // clean entries churn through the cache, dirty ones must survive to
    // commit with their edits intact.
    for (int i = 0; i < 4; i++) {
      ODE_ASSIGN_OR_RETURN(Person * p, txn.Write(people[i]));
      p->set_income(777);
    }
    for (int round = 0; round < 3; round++) {
      for (const auto& ref : people) {
        ODE_RETURN_IF_ERROR(txn.Read(ref).status());
      }
    }
    EXPECT_LE(txn.cached_object_count(), 8u + 4u);
    return Status::OK();
  }));
  EXPECT_GT(registry.TakeSnapshot().counter("txn.cache_evictions"), 0u);

  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 4; i++) {
      ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(people[i]));
      EXPECT_DOUBLE_EQ(p->income(), 777.0);
    }
    return Status::OK();
  }));
}

TEST(BoundedCacheTest, OrderedForAllPinsItsWorkingSet) {
  // The ordered (By) path materializes object pointers for the sort; the
  // CachePin must keep them all valid even when the set is far larger than
  // the cache bound.
  DatabaseOptions options = TestDb::FastOptions();
  options.max_cached_objects = 8;
  TestDb db(options);
  ASSERT_OK(db->CreateCluster<Person>());
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 50; i++) {
      ODE_RETURN_IF_ERROR(
          txn.New<Person>("p" + std::to_string(99 - i), i, 0).status());
    }
    return Status::OK();
  }));
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    std::vector<std::string> names;
    ForAll<Person> loop(txn);
    loop.By<std::string>([](const Person& p) { return p.name(); });
    ODE_RETURN_IF_ERROR(loop.Each(
        [&](Ref<Person>, const Person& p) { names.push_back(p.name()); }));
    EXPECT_EQ(names.size(), 50u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    return Status::OK();
  }));
}

}  // namespace
}  // namespace ode
