// Scale/stress tests: larger populations, tight buffer pools, frequent
// checkpoints, overflow-heavy payload mixes, repeated reopen — the
// conditions that shake out space-management and caching bugs.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/verify.h"
#include "test_models.h"
#include "test_util.h"
#include "util/random.h"

namespace ode {
namespace {

using odetest::Person;
using odetest::StockItem;
using testing::TestDb;

TEST(ScaleTest, TenThousandObjectsSurviveReopen) {
  TestDb db;
  ASSERT_OK(db->CreateCluster<Person>());
  const int kCount = 10000;
  for (int batch = 0; batch < 10; batch++) {
    ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
      for (int i = 0; i < kCount / 10; i++) {
        const int id = batch * (kCount / 10) + i;
        ODE_RETURN_IF_ERROR(
            txn.New<Person>("p" + std::to_string(id), id % 100, id).status());
      }
      return Status::OK();
    }));
  }
  db.Reopen();
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    auto count = ForAll<Person>(txn).Count();
    ODE_RETURN_IF_ERROR(count.status());
    EXPECT_EQ(count.value(), static_cast<size_t>(kCount));
    // Aggregate check: sum of incomes = sum of 0..kCount-1.
    double sum = 0;
    ODE_RETURN_IF_ERROR(ForAll<Person>(txn).Each(
        [&](Ref<Person>, const Person& p) { sum += p.income(); }));
    EXPECT_DOUBLE_EQ(sum, kCount * (kCount - 1) / 2.0);
    return Status::OK();
  }));
}

TEST(ScaleTest, TinyBufferPoolStillCorrect) {
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.buffer_pool_pages = 8;  // brutal
  MetricsRegistry metrics;
  options.engine.metrics = &metrics;
  TestDb db(options);
  ASSERT_OK(db->CreateCluster<Person>());
  Random rng(5);
  std::map<int, double> model;
  std::map<int, Ref<Person>> refs;
  for (int round = 0; round < 10; round++) {
    ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
      for (int i = 0; i < 100; i++) {
        const int id = round * 100 + i;
        const double income = rng.NextDouble() * 1000;
        ODE_ASSIGN_OR_RETURN(
            Ref<Person> p, txn.New<Person>("p" + std::to_string(id), 1, income));
        refs[id] = p;
        model[id] = income;
      }
      // Random updates of earlier objects (forces page churn).
      for (int i = 0; i < 30 && !model.empty(); i++) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        const double income = rng.NextDouble() * 1000;
        ODE_ASSIGN_OR_RETURN(Person * p, txn.Write(refs[it->first]));
        p->set_income(income);
        it->second = income;
      }
      return Status::OK();
    }));
  }
  // The 8-page pool must be thrashing. (Per-transaction shadow pages keep
  // uncommitted writes out of the pool, so the count is lower than it was
  // under write-through, but eviction pressure must still be real.)
  EXPECT_GT(metrics.GetCounter("storage.pool.evictions")->value(), 50u);
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (const auto& [id, income] : model) {
      ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(refs[id]));
      EXPECT_DOUBLE_EQ(p->income(), income) << "object " << id;
    }
    return Status::OK();
  }));
}

TEST(ScaleTest, FrequentCheckpointsWithCrashes) {
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.checkpoint_wal_bytes = 32 * 1024;  // checkpoint constantly
  TestDb db(options);
  ASSERT_OK(db->CreateCluster<StockItem>());
  int expected = 0;
  for (int round = 0; round < 5; round++) {
    for (int t = 0; t < 20; t++) {
      ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
        for (int i = 0; i < 5; i++) {
          ODE_RETURN_IF_ERROR(
              txn.New<StockItem>("i" + std::to_string(expected), 1.0, expected,
                                 0)
                  .status());
          expected++;
        }
        return Status::OK();
      }));
    }
    db.CrashAndReopen(options);
    ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
      auto count = ForAll<StockItem>(txn).Count();
      ODE_RETURN_IF_ERROR(count.status());
      EXPECT_EQ(count.value(), static_cast<size_t>(expected))
          << "after crash round " << round;
      return Status::OK();
    }));
  }
}

TEST(ScaleTest, OverflowHeavyMix) {
  TestDb db;
  ASSERT_OK(db->CreateCluster<Person>());
  Random rng(11);
  std::map<int, size_t> name_sizes;
  std::map<int, Ref<Person>> refs;
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 300; i++) {
      // Mix: small, page-boundary, and multi-page payloads.
      const size_t sizes[] = {10, 2000, 2100, 4096, 9000, 40000};
      const size_t size = sizes[rng.Uniform(6)];
      ODE_ASSIGN_OR_RETURN(
          Ref<Person> p,
          txn.New<Person>(std::string(size, 'a' + i % 26), i, i));
      refs[i] = p;
      name_sizes[i] = size;
    }
    return Status::OK();
  }));
  // Shrink/grow updates across the overflow boundary.
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 300; i += 3) {
      const size_t new_size = name_sizes[i] > 2048 ? 50 : 8000;
      ODE_ASSIGN_OR_RETURN(Person * p, txn.Write(refs[i]));
      p->set_name(std::string(new_size, 'z'));
      name_sizes[i] = new_size;
    }
    return Status::OK();
  }));
  db.Reopen();
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (const auto& [i, size] : name_sizes) {
      ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(refs[i]));
      EXPECT_EQ(p->name().size(), size) << "object " << i;
    }
    return Status::OK();
  }));
}

TEST(ScaleTest, SpaceReclaimedAfterMassDelete) {
  TestDb db;
  ASSERT_OK(db->CreateCluster<Person>());
  std::vector<Ref<Person>> refs;
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 2000; i++) {
      ODE_ASSIGN_OR_RETURN(
          Ref<Person> p,
          txn.New<Person>("victim" + std::to_string(i), i, i));
      refs.push_back(p);
    }
    return Status::OK();
  }));
  auto pages_full =
      db->engine().ReadSuperU32(SuperblockLayout::kPageCountOffset);
  ASSERT_TRUE(pages_full.ok());
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (const auto& p : refs) {
      ODE_RETURN_IF_ERROR(txn.Delete(p));
    }
    return Status::OK();
  }));
  // Deletes tombstone the heads and retain pre-delete images for snapshot
  // readers; the space comes back once version GC runs (no snapshots are
  // active, so the watermark covers every tombstone).
  Database::GcTotals gc;
  ASSERT_OK(db->CollectVersionGarbage(&gc));
  EXPECT_EQ(gc.objects_reclaimed, 2000u);
  // With every entry freed, the vacated trailing entry pages go back to the
  // allocator instead of lingering as slack (2000 heads + 2000 retained
  // images at 127 entries/page is ~32 pages).
  EXPECT_GT(gc.pages_reclaimed, 0u);
  // Re-inserting the same volume must reuse freed pages, not extend much.
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 2000; i++) {
      ODE_RETURN_IF_ERROR(
          txn.New<Person>("fresh" + std::to_string(i), i, i).status());
    }
    return Status::OK();
  }));
  auto pages_after =
      db->engine().ReadSuperU32(SuperblockLayout::kPageCountOffset);
  ASSERT_TRUE(pages_after.ok());
  // Slack covers the entry-table growth from the delete pass: each delete
  // retains a pre-delete image, transiently doubling the entry count, and
  // entry pages are reused slot-by-slot rather than shrunk (2000 extra
  // entries at 127 per page = 16 pages). Data pages must be fully reused.
  EXPECT_LE(pages_after.value(), pages_full.value() + 20);
}

TEST(ScaleTest, VacuumShrinksFileAfterDrop) {
  TestDb db;
  ASSERT_OK(db->CreateCluster<Person>());
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 3000; i++) {
      ODE_RETURN_IF_ERROR(
          txn.New<Person>(std::string(300, 'v'), i, i).status());
    }
    return Status::OK();
  }));
  // Flush so the file reflects the data volume before measuring.
  ASSERT_OK(db->engine().Checkpoint());
  std::unique_ptr<File> file;
  ASSERT_OK(File::Open(db.dir.file("test.db"), &file));
  const uint64_t size_full = file->Size().value();
  ASSERT_GT(size_full, 100u * kPageSize);

  ASSERT_OK(db->RunTransaction(
      [&](Transaction& txn) -> Status { return txn.DropCluster<Person>(); }));
  auto released = db->Vacuum();
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_GT(released.value(), 100u);
  const uint64_t size_vacuumed = file->Size().value();
  EXPECT_LT(size_vacuumed, size_full / 4);

  // The shrunken database is structurally sound and fully usable.
  {
    VerifyReport report;
    ASSERT_OK(VerifyDatabase(*db, &report));
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  ASSERT_OK(db->CreateCluster<Person>());
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 500; i++) {
      ODE_RETURN_IF_ERROR(txn.New<Person>("post", i, i).status());
    }
    return Status::OK();
  }));
  db.Reopen();
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    auto count = ForAll<Person>(txn).Count();
    ODE_RETURN_IF_ERROR(count.status());
    EXPECT_EQ(count.value(), 500u);
    return Status::OK();
  }));
  VerifyReport report;
  ASSERT_OK(VerifyDatabase(*db, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ScaleTest, VacuumNoopOnCompactDatabase) {
  TestDb db;
  ASSERT_OK(db->CreateCluster<Person>());
  ASSERT_OK(db->RunTransaction([&](Transaction& txn) -> Status {
    return txn.New<Person>("solo", 1, 1).status();
  }));
  auto released = db->Vacuum();
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(released.value(), 0u);
}

}  // namespace
}  // namespace ode
