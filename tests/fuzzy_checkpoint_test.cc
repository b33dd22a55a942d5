// Fuzzy-checkpoint correctness (docs/STORAGE.md "Fuzzy checkpoints"):
// FuzzyCheckpoint writes the dirty set behind while commits proceed, then
// resets the durability horizon and truncates the WAL inside a short
// critical section. The properties under test:
//
//   * a checkpoint truncates the log and loses nothing — committed state
//     survives both a clean reopen and a crash at EVERY injected fault
//     point inside the checkpoint itself (the sweep);
//   * atomicity across the checkpoint: a transaction is recovered all or
//     nothing, and a commit that reported success is durable;
//   * commits may run concurrently with the checkpoint (the hammer, also a
//     TSan target);
//   * the background checkpointer bounds the WAL under sustained writes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ode.h"
#include "core/verify.h"
#include "test_models.h"
#include "test_util.h"
#include "util/env.h"
#include "util/random.h"

namespace ode {
namespace {

using odetest::Person;
using testing::TempDir;
using testing::TestDb;

constexpr int kBaseObjects = 20;

/// Builds a clean base database (checkpointed, WAL empty) and records the
/// oid + expected income of every base object. File copies of the base see
/// identical oids, so one recording serves every sweep iteration.
void BuildBase(const std::string& path, std::vector<Oid>* base_oids) {
  std::unique_ptr<Database> db;
  ASSERT_OK(Database::Open(path, DatabaseOptions(), &db));
  ASSERT_OK(db->CreateCluster<Person>());
  auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
  for (int i = 0; i < kBaseObjects; i++) {
    auto ref = ASSERT_OK_AND_UNWRAP(
        txn->New<Person>("base_" + std::to_string(i), i, 2.5 * i));
    base_oids->push_back(ref.oid());
  }
  ASSERT_OK(txn->Commit());
  ASSERT_OK(db->Close());
}

/// Commits `count` fresh persons (~1 KiB each, so several pages dirty) with
/// names `prefix_i`, recording their oids even when the commit later fails.
Status CommitBatch(Database* db, const std::string& prefix, int count,
                   std::vector<Oid>* oids) {
  Result<std::unique_ptr<Transaction>> begun = db->Begin();
  if (!begun.ok()) return begun.status();
  std::unique_ptr<Transaction> txn = begun.TakeValue();
  Random rng(0xF0CCA + count);
  for (int i = 0; i < count; i++) {
    Result<Ref<Person>> ref = txn->New<Person>(
        prefix + "_" + std::to_string(i) + "_" + rng.NextString(900), 30 + i,
        100.0 * i);
    if (!ref.ok()) {
      (void)txn->Abort();
      return ref.status();
    }
    oids->push_back(ref.value().oid());
  }
  return txn->Commit();
}

/// How many of `oids` exist in `db`.
size_t CountPresent(Database* db, const std::vector<Oid>& oids) {
  auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
  size_t present = 0;
  for (const Oid& oid : oids) {
    if (ASSERT_OK_AND_UNWRAP(txn->Exists(Ref<Person>(db, oid)))) present++;
  }
  EXPECT_OK(txn->Abort());
  return present;
}

/// The sweep: commit a batch, fuzzy-checkpoint, commit another batch,
/// fuzzy-checkpoint again — killing the engine at the k-th mutating syscall
/// for k = 1, 1+stride, ... until the workload runs fault-free. After every
/// kill, recovery must produce a structurally sound database holding all of
/// the base, each victim batch all-or-nothing, and every batch whose commit
/// reported success.
int RunCheckpointSweep(bool torn, uint64_t stride) {
  TempDir dir;
  std::vector<Oid> base_oids;
  BuildBase(dir.file("base.db"), &base_oids);
  if (::testing::Test::HasFatalFailure()) return -1;

  int points = 0;
  for (uint64_t k = 1;; k += stride) {
    SCOPED_TRACE("fault point " + std::to_string(k) +
                 (torn ? " (torn)" : ""));
    EXPECT_OK(env::CopyFile(dir.file("base.db"), dir.file("work.db")));
    EXPECT_OK(
        env::CopyFile(dir.file("base.db.wal"), dir.file("work.db.wal")));

    FaultInjectionEnv fenv;
    fenv.FailNthMutatingOp(k, torn);
    DatabaseOptions injected;
    injected.engine.env = &fenv;
    std::unique_ptr<Database> db;
    Status open = Database::Open(dir.file("work.db"), injected, &db);
    EXPECT_OK(open);
    if (!open.ok()) return -1;

    std::vector<Oid> t1, t2;
    Status s1 = CommitBatch(db.get(), "t1", 3, &t1);
    Status ck1 = db->engine().FuzzyCheckpoint();
    Status s2 = CommitBatch(db.get(), "t2", 3, &t2);
    Status ck2 = db->engine().FuzzyCheckpoint();
    const bool fired = fenv.fault_fired();
    db->SimulateCrash();
    db.reset();
    if (!fired) {
      EXPECT_OK(s1);
      EXPECT_OK(ck1);
      EXPECT_OK(s2);
      EXPECT_OK(ck2);
      break;
    }
    points++;

    std::unique_ptr<Database> recovered;
    Status reopen =
        Database::Open(dir.file("work.db"), DatabaseOptions(), &recovered);
    EXPECT_OK(reopen);
    if (!reopen.ok()) return -1;
    VerifyReport report;
    EXPECT_OK(VerifyDatabase(*recovered, &report));
    EXPECT_TRUE(report.ok()) << report.ToString();

    // The base predates the faulty session entirely; a checkpoint must
    // never lose it.
    EXPECT_EQ(CountPresent(recovered.get(), base_oids), base_oids.size());
    {
      auto txn = ASSERT_OK_AND_UNWRAP(recovered->Begin());
      for (size_t i = 0; i < base_oids.size(); i++) {
        const Person* p = ASSERT_OK_AND_UNWRAP(
            txn->Read(Ref<Person>(recovered.get(), base_oids[i])));
        EXPECT_EQ(p->age(), static_cast<int>(i));
        EXPECT_DOUBLE_EQ(p->income(), 2.5 * i);
      }
      EXPECT_OK(txn->Abort());
    }

    // Victim batches: all-or-nothing, and reported success implies
    // durability. (A commit may REPORT failure yet survive — the fault can
    // land on the covering fsync after the records reached the file — so
    // only the forward implication is asserted.)
    const size_t p1 = CountPresent(recovered.get(), t1);
    const size_t p2 = CountPresent(recovered.get(), t2);
    EXPECT_TRUE(p1 == 0 || p1 == t1.size())
        << "batch t1 recovered partially: " << p1 << "/" << t1.size();
    EXPECT_TRUE(p2 == 0 || p2 == t2.size())
        << "batch t2 recovered partially: " << p2 << "/" << t2.size();
    if (s1.ok()) {
      EXPECT_EQ(p1, t1.size()) << "committed batch t1 lost";
    }
    if (s2.ok()) {
      EXPECT_EQ(p2, t2.size()) << "committed batch t2 lost";
    }
    // Commit order: t1 committed (or died) strictly before t2 began, so a
    // surviving t2 implies a surviving t1 — the checkpoint in between must
    // not have dropped t1 while recovery replays t2.
    if (!t2.empty() && p2 == t2.size() && !t1.empty()) {
      EXPECT_EQ(p1, t1.size()) << "t2 survived but earlier t1 lost";
    }
    if (::testing::Test::HasFatalFailure()) return -1;
    EXPECT_OK(recovered->Close());
  }
  return points;
}

TEST(FuzzyCheckpointCrash, SweepEveryFaultPoint) {
  const int points = RunCheckpointSweep(/*torn=*/false, /*stride=*/1);
  ASSERT_GE(points, 0);
  // The workload must actually expose the checkpoint's own write/sync/
  // truncate sites, not just the commits around it.
  EXPECT_GE(points, 20) << "checkpoint workload hits too few fault points";
}

TEST(FuzzyCheckpointCrash, SweepTornWrites) {
  const int points = RunCheckpointSweep(/*torn=*/true, /*stride=*/3);
  ASSERT_GE(points, 0);
  EXPECT_GE(points, 5);
}

// A fuzzy checkpoint on a quiet engine truncates the WAL, and everything
// survives a reopen.
TEST(FuzzyCheckpoint, TruncatesWalAndPreservesData) {
  TestDb db;
  ASSERT_OK(db->CreateCluster<Person>());
  std::vector<Oid> oids;
  ASSERT_OK(CommitBatch(db.db.get(), "a", 10, &oids));
  EXPECT_GT(db->engine().wal().size_bytes(), 0u);

  const Counter* checkpoints =
      db->engine().metrics().GetCounter("storage.engine.checkpoints");
  const uint64_t checkpoints_before = checkpoints->value();
  ASSERT_OK(db->engine().FuzzyCheckpoint());
  EXPECT_EQ(db->engine().wal().size_bytes(), 0u);
  EXPECT_GE(checkpoints->value() - checkpoints_before, 1u);
  EXPECT_EQ(CountPresent(db.db.get(), oids), oids.size());

  db.Reopen();
  EXPECT_EQ(CountPresent(db.db.get(), oids), oids.size());
}

// Commits keep landing while fuzzy checkpoints run — the write-behind phase
// holds no engine-wide lock and the critical section is bounded. Every
// commit and every checkpoint must succeed, and nothing is lost across a
// crash afterwards. (Also the TSan hammer for the checkpoint/commit race.)
TEST(FuzzyCheckpoint, ConcurrentCommitsSurvive) {
  TestDb db;
  ASSERT_OK(db->CreateCluster<Person>());

  constexpr int kWriters = 2;
  constexpr int kTxnsEach = 60;
  std::vector<Status> writer_status(kWriters);
  std::vector<std::vector<Oid>> writer_oids(kWriters);
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsEach; i++) {
        Status s = CommitBatch(db.db.get(),
                               "w" + std::to_string(w) + "_" +
                                   std::to_string(i),
                               1, &writer_oids[w]);
        if (!s.ok()) {
          writer_status[w] = s;
          return;
        }
      }
    });
  }
  std::thread checkpointer([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      ASSERT_OK(db->engine().FuzzyCheckpoint());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  checkpointer.join();
  for (const Status& s : writer_status) ASSERT_OK(s);

  // One final checkpoint on the now-quiet engine: everything durable, log
  // empty, and a crash right after loses nothing.
  ASSERT_OK(db->engine().FuzzyCheckpoint());
  EXPECT_EQ(db->engine().wal().size_bytes(), 0u);
  db.CrashAndReopen();
  for (int w = 0; w < kWriters; w++) {
    EXPECT_EQ(CountPresent(db.db.get(), writer_oids[w]),
              writer_oids[w].size());
  }
}

// The background checkpointer (EngineOptions::background_checkpoint) wakes
// when a commit pushes the WAL past the threshold and truncates it without
// any explicit call; committed data survives a crash afterwards.
TEST(FuzzyCheckpoint, BackgroundCheckpointerBoundsWal) {
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.background_checkpoint = true;
  options.engine.checkpoint_wal_bytes = 32 << 10;
  TestDb db(options);
  ASSERT_OK(db->CreateCluster<Person>());
  const Counter* checkpoints =
      db->engine().metrics().GetCounter("storage.engine.checkpoints");
  const uint64_t checkpoints_before = checkpoints->value();

  std::vector<Oid> oids;
  for (int i = 0; i < 60; i++) {
    ASSERT_OK(CommitBatch(db.db.get(), "bg" + std::to_string(i), 2, &oids));
  }
  // ~120 KiB of payload against a 32 KiB threshold: the checkpointer must
  // have fired at least once. Give the async thread a bounded grace period.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (checkpoints->value() == checkpoints_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(checkpoints->value() - checkpoints_before, 1u);

  db.CrashAndReopen(options);
  EXPECT_EQ(CountPresent(db.db.get(), oids), oids.size());
}

}  // namespace
}  // namespace ode
