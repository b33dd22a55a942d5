// MVCC snapshot-read tests (docs/CONCURRENCY.md "MVCC snapshot reads"):
// read-only snapshot transactions resolve every object read against the
// version chain at a commit sequence minted at Begin, taking no object,
// cluster, or index locks — readers never block writers and writers never
// block readers. Writers keep strict 2PL, so the only isolation anomaly a
// snapshot introduces is staleness: a snapshot sees a consistent committed
// prefix, never a torn one.
//
// Write skew — the textbook snapshot-isolation anomaly (two transactions
// each read both of a pair of rows under a snapshot, then each update a
// different one) — is NOT expressible here and therefore allowed by
// definition: snapshot transactions are read-only (every mutating operation
// returns InvalidArgument, asserted below), and read-write transactions
// read under 2PL locks, not under a snapshot. A future read-write snapshot
// mode would need first-committer-wins validation to exclude it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "query/join.h"
#include "test_models.h"
#include "test_util.h"

namespace ode {
namespace {

using odetest::Person;
using odetest::StockItem;
using testing::TestDb;

class MvccTest : public ::testing::Test {
 protected:
  void OpenWith(DatabaseOptions options) {
    db_ = std::make_unique<TestDb>(options);
    ASSERT_OK((*db_)->CreateCluster<StockItem>());
  }

  void Open() { OpenWith(TestDb::FastOptions()); }

  Ref<StockItem> MakeItem(const std::string& name, int quantity) {
    Ref<StockItem> out;
    EXPECT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(out,
                           txn.New<StockItem>(name, 1.0, quantity, 0));
      return Status::OK();
    }));
    return out;
  }

  /// Runs `body` in a committed read-write transaction on another thread
  /// (this thread usually holds the snapshot transaction under test).
  void CommitElsewhere(const std::function<Status(Transaction&)>& body) {
    Status s;
    std::thread worker(
        [&] { s = (*db_)->RunTransaction(body); });
    worker.join();
    ASSERT_OK(s);
  }

  std::unique_ptr<TestDb> db_;
};

// A snapshot keeps returning the value committed before it began, across a
// concurrent committed overwrite; a fresh locked transaction sees the new
// value while the snapshot is still open.
TEST_F(MvccTest, RepeatableReadAcrossConcurrentCommit) {
  Open();
  Ref<StockItem> item = MakeItem("widget", 10);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  {
    auto read = snap->Read(item);
    ASSERT_OK(read.status());
    EXPECT_EQ(read.value()->quantity(), 10);
  }

  CommitElsewhere([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(StockItem * w, txn.Write(item));
    w->set_quantity(99);
    return Status::OK();
  });

  // The overwrite is committed and durable — but after the snapshot.
  {
    auto read = snap->Read(item);
    ASSERT_OK(read.status());
    EXPECT_EQ(read.value()->quantity(), 10);
  }
  ASSERT_OK(snap->Commit());

  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(const StockItem* now, txn.Read(item));
    EXPECT_EQ(now->quantity(), 99);
    return Status::OK();
  }));
}

// Objects inserted after the snapshot began are invisible to it; objects
// deleted after it began stay visible with their pre-delete contents.
TEST_F(MvccTest, InsertInvisibleDeleteStillVisible) {
  Open();
  Ref<StockItem> keep = MakeItem("keep", 1);
  Ref<StockItem> doomed = MakeItem("doomed", 2);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());

  Ref<StockItem> late;
  CommitElsewhere([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(late, txn.New<StockItem>("late", 1.0, 3, 0));
    return txn.Delete(doomed);
  });

  EXPECT_FALSE(ASSERT_OK_AND_UNWRAP(snap->Exists(late)));
  {
    auto read = snap->Read(doomed);  // Tombstoned after the snapshot.
    ASSERT_OK(read.status());
    EXPECT_EQ(read.value()->quantity(), 2);
  }
  auto count = ForAll<StockItem>(*snap).Count();
  ASSERT_OK(count.status());
  EXPECT_EQ(count.value(), 2u);  // keep + doomed; not late.
  ASSERT_OK(snap->Commit());

  // A locked transaction sees the post-commit world.
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(bool doomed_there, txn.Exists(doomed));
    EXPECT_FALSE(doomed_there);
    ODE_ASSIGN_OR_RETURN(bool late_there, txn.Exists(late));
    EXPECT_TRUE(late_there);
    return Status::OK();
  }));
  (void)keep;
}

// Every mutating operation is rejected in a snapshot transaction — the
// read-only contract that makes lock-free reads sound (see the write-skew
// note at the top of this file).
TEST_F(MvccTest, MutationsRejected) {
  Open();
  Ref<StockItem> item = MakeItem("sealed", 5);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  EXPECT_TRUE(snap->Write(item).status().IsInvalidArgument());
  EXPECT_TRUE(snap->Delete(item).IsInvalidArgument());
  EXPECT_TRUE(snap->NewVersion(item).status().IsInvalidArgument());
  EXPECT_TRUE(snap->New<StockItem>("x", 1.0, 1, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(snap->CreateCluster<Person>().IsInvalidArgument());
  ASSERT_OK(snap->Commit());
}

// Readers do not block on writer locks: a transaction holding X(item)
// mid-transaction cannot delay a snapshot read of the same item.
TEST_F(MvccTest, SnapshotReadIgnoresExclusiveLock) {
  Open();
  Ref<StockItem> item = MakeItem("contended", 7);

  std::atomic<bool> locked{false};
  std::atomic<bool> release{false};
  std::thread writer([&] {
    Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(StockItem * w, txn.Write(item));  // X(item).
      w->set_quantity(8);
      locked.store(true);
      while (!release.load()) std::this_thread::yield();
      return Status::OK();
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  while (!locked.load()) std::this_thread::yield();

  // With S-locking reads this would deadlock against the parked writer;
  // the snapshot read returns the committed value immediately.
  const uint64_t snapshot_reads_before =
      (*db_)->core_metrics().snapshot_reads->value();
  ASSERT_OK((*db_)->RunReadTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(const StockItem* obj, txn.Read(item));
    EXPECT_EQ(obj->quantity(), 7);  // Writer's 8 is uncommitted.
    return Status::OK();
  }));
  EXPECT_GT((*db_)->core_metrics().snapshot_reads->value(),
            snapshot_reads_before);

  release.store(true);
  writer.join();
}

// The consistent-cut hammer: writers transfer quantity between items (the
// total is invariant); snapshot scans — both the full-cluster scan path and
// the index path — must always observe the invariant total, never a torn
// intermediate state. Run under TSan in CI (label: concurrency).
TEST_F(MvccTest, ConsistentCutUnderConcurrentTransfers) {
  Open();
  constexpr int kItems = 8;
  constexpr int kTotal = kItems * 100;
  std::vector<Ref<StockItem>> items;
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < kItems; i++) {
      // Quantities churn but keys stay put here; the versioned-entry suite
      // below (SnapshotIndexScansUnderKeyChurn) hammers the key-churn case.
      ODE_ASSIGN_OR_RETURN(
          Ref<StockItem> ref,
          txn.New<StockItem>("item" + std::to_string(i), 1.0, 100, 0));
      items.push_back(ref);
    }
    return Status::OK();
  }));
  ASSERT_OK((*db_)->CreateIndex<StockItem>(
      "mvcc_name_idx",
      [](const StockItem& s) { return index_key::FromString(s.name()); }));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; t++) {
    writers.emplace_back([&, t] {
      unsigned rng = 0x9E3779B9u * static_cast<unsigned>(t + 1);
      while (!stop.load()) {
        rng = rng * 1664525u + 1013904223u;
        unsigned a = (rng >> 8) % kItems;
        unsigned b = (a + 1 + (rng >> 20) % (kItems - 1)) % kItems;
        if (a > b) std::swap(a, b);
        (void)(*db_)->RunTransaction([&](Transaction& txn) -> Status {
          ODE_ASSIGN_OR_RETURN(StockItem * from, txn.Write(items[a]));
          ODE_ASSIGN_OR_RETURN(StockItem * to, txn.Write(items[b]));
          from->set_quantity(from->quantity() - 5);
          to->set_quantity(to->quantity() + 5);
          return Status::OK();
        });
      }
    });
  }

  for (int round = 0; round < 50; round++) {
    ASSERT_OK((*db_)->RunReadTransaction([&](Transaction& txn) -> Status {
      int64_t scan_sum = 0;
      ODE_RETURN_IF_ERROR(
          ForAll<StockItem>(txn).Do([&](Ref<StockItem> ref) -> Status {
            ODE_ASSIGN_OR_RETURN(const StockItem* s, txn.Read(ref));
            scan_sum += s->quantity();
            return Status::OK();
          }));
      EXPECT_EQ(scan_sum, kTotal) << "torn full scan";
      int64_t index_sum = 0;
      ODE_RETURN_IF_ERROR(
          ForAll<StockItem>(txn)
              .ViaIndexRange("mvcc_name_idx", std::string(), std::string())
              .Do([&](Ref<StockItem> ref) -> Status {
                ODE_ASSIGN_OR_RETURN(const StockItem* s, txn.Read(ref));
                index_sum += s->quantity();
                return Status::OK();
              }));
      EXPECT_EQ(index_sum, kTotal) << "torn index scan";
      return Status::OK();
    }));
  }

  stop.store(true);
  for (auto& w : writers) w.join();
}

// Version GC never reclaims a version some active snapshot can still see:
// the retained pre-update image and the tombstoned object survive GC while
// the snapshot is open, and are reclaimed after it closes.
TEST_F(MvccTest, GcSparesSnapshotVisibleVersions) {
  Open();
  Ref<StockItem> updated = MakeItem("updated", 11);
  Ref<StockItem> deleted = MakeItem("deleted", 22);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());

  CommitElsewhere([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(StockItem * w, txn.Write(updated));
    w->set_quantity(1111);
    return txn.Delete(deleted);
  });

  // GC runs on this thread; park the snapshot on another so the watermark
  // (min active snapshot) pins both old states. One transaction per thread.
  {
    Database::GcTotals totals;
    std::thread gc([&] {
      Status s = (*db_)->CollectVersionGarbage(&totals);
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    gc.join();
    EXPECT_EQ(totals.objects_reclaimed, 0u);
    EXPECT_EQ(totals.versions_reclaimed, 0u);
  }

  {
    auto read = snap->Read(updated);
    ASSERT_OK(read.status());
    EXPECT_EQ(read.value()->quantity(), 11);
    auto dead = snap->Read(deleted);
    ASSERT_OK(dead.status());
    EXPECT_EQ(dead.value()->quantity(), 22);
  }
  ASSERT_OK(snap->Commit());

  // No active snapshot: the retained image and the tombstone are garbage.
  {
    Database::GcTotals totals;
    ASSERT_OK((*db_)->CollectVersionGarbage(&totals));
    EXPECT_EQ(totals.objects_reclaimed, 1u);   // "deleted" purged.
    EXPECT_GE(totals.versions_reclaimed, 1u);  // "updated"'s old image.
  }
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(bool there, txn.Exists(deleted));
    EXPECT_FALSE(there);
    ODE_ASSIGN_OR_RETURN(const StockItem* now, txn.Read(updated));
    EXPECT_EQ(now->quantity(), 1111);
    return Status::OK();
  }));
}

// delversion frees storage physically (bypassing the GC watermark
// protocol), so it must wait out active snapshot readers.
TEST_F(MvccTest, DeleteVersionBusyWhileSnapshotActive) {
  Open();
  Ref<StockItem> item = MakeItem("versioned", 1);
  ASSERT_OK((*db_)->RunTransaction(
      [&](Transaction& txn) { return txn.NewVersion(item).status(); }));

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  Status s;
  std::thread worker([&] {
    // Manual Begin (not RunTransaction): Busy here means "a snapshot is
    // active", which retrying cannot fix while `snap` stays open.
    auto begun = (*db_)->Begin();
    ASSERT_TRUE(begun.ok()) << begun.status().ToString();
    std::unique_ptr<Transaction> txn = begun.TakeValue();
    s = txn->DeleteVersion(Ref<StockItem>(&**db_, item.oid(), /*vnum=*/1));
    Status abort_status = txn->Abort();
    EXPECT_TRUE(abort_status.ok()) << abort_status.ToString();
  });
  worker.join();
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  ASSERT_OK(snap->Commit());
}

// Object→cluster lock escalation: past the threshold, per-object locks
// collapse into one cluster lock (visible in concur.lock.escalations).
TEST_F(MvccTest, LockEscalationPastThreshold) {
  DatabaseOptions options = TestDb::FastOptions();
  options.lock_escalation_threshold = 4;
  OpenWith(options);
  std::vector<Ref<StockItem>> items;
  for (int i = 0; i < 8; i++) {
    items.push_back(MakeItem("esc" + std::to_string(i), i));
  }

  const uint64_t before = (*db_)->core_metrics().lock_escalations->value();
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    for (const auto& ref : items) {
      ODE_RETURN_IF_ERROR(txn.Read(ref).status());
    }
    return Status::OK();
  }));
  EXPECT_GT((*db_)->core_metrics().lock_escalations->value(), before);

  // Escalated or not, the data still reads back correctly.
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(const StockItem* s7, txn.Read(items[7]));
    EXPECT_EQ(s7->quantity(), 7);
    return Status::OK();
  }));
}

// The 10k-version navigation regression (the old VPrev/VNext re-listed the
// whole chain every hop — O(n²) for a full walk; the per-transaction
// version cache makes the walk O(n log n)). Generously bounded wall-clock
// assert: the quadratic walk took minutes, the cached one takes well under
// the test timeout.
TEST_F(MvccTest, VersionWalkOverTenThousandVersions) {
  Open();
  Ref<StockItem> item = MakeItem("historied", 0);
  constexpr uint32_t kVersions = 10000;
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    for (uint32_t i = 1; i < kVersions; i++) {
      ODE_RETURN_IF_ERROR(txn.NewVersion(item).status());
    }
    return Status::OK();
  }));

  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(uint32_t current, txn.CurrentVnum(item));
    EXPECT_EQ(current, kVersions - 1);
    Ref<StockItem> at(&**db_, item.oid(), current);
    uint32_t hops = 0;
    while (true) {
      auto prev = VPrev(txn, at);
      if (prev.status().IsNotFound()) break;
      ODE_RETURN_IF_ERROR(prev.status());
      EXPECT_EQ(prev.value().vnum(), at.vnum() - 1);
      at = prev.value();
      hops++;
    }
    EXPECT_EQ(hops, kVersions - 1);
    // And forward again via vnext.
    while (true) {
      auto next = VNext(txn, at);
      if (next.status().IsNotFound()) break;
      ODE_RETURN_IF_ERROR(next.status());
      at = next.value();
    }
    EXPECT_EQ(at.vnum(), kVersions - 1);
    return Status::OK();
  }));
}

// Concurrent inserters into one cluster under durable commits: the
// creation X(cluster) lock is released at the publish point, before the
// fsync wait, so same-cluster inserters don't serialize across the fsync.
// Correctness check here; batching (commits/fsync > 1) is measured by
// bench_concurrent E12b.
TEST_F(MvccTest, ConcurrentSameClusterInsertsUnderDurableCommits) {
  DatabaseOptions options;
  options.engine.wal_sync = Wal::SyncMode::kSyncEveryCommit;
  OpenWith(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        Status s = (*db_)->RunTransaction([&](Transaction& txn) -> Status {
          return txn.New<StockItem>("c" + std::to_string(t) + "_" +
                                        std::to_string(i),
                                    1.0, i, 0)
              .status();
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(committed.load(), kThreads * kPerThread);
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(size_t n, ForAll<StockItem>(txn).Count());
    EXPECT_EQ(n, static_cast<size_t>(kThreads * kPerThread));
    return Status::OK();
  }));
}

// --- Versioned index entries (docs/STORAGE.md) --------------------------------------
//
// Index entries are commit-seq-stamped like object versions: a key update
// publishes a tombstone for the old key and an add for the new one, and a
// snapshot scan/probe filters entries at its cut. The suite below pins the
// anomaly the versioning fixed: a snapshot probing a key that was mutated
// AFTER the snapshot began must see the old key set, not the current one.

// A snapshot probe finds the item under its old key and nothing under the
// new key; a locked transaction sees the reverse. The snapshot path takes
// no locks at all (concur.lock.acquires stays flat).
TEST_F(MvccTest, SnapshotIndexProbeSeesCutKeySet) {
  Open();
  ASSERT_OK((*db_)->CreateIndex<StockItem>(
      "mvcc_probe_idx",
      [](const StockItem& s) { return index_key::FromString(s.name()); }));
  Ref<StockItem> item = MakeItem("before", 1);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());

  CommitElsewhere([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(StockItem * w, txn.Write(item));
    w->set_name("after");
    return Status::OK();
  });

  Counter* acquires =
      (*db_)->engine().metrics().GetCounter("concur.lock.acquires");
  const uint64_t acquires_before = acquires->value();
  size_t via_old = 0, via_new = 0;
  ASSERT_OK(ForAll<StockItem>(*snap)
                .ViaIndexExact("mvcc_probe_idx", index_key::FromString("before"))
                .Do([&](Ref<StockItem> ref) -> Status {
                  via_old++;
                  EXPECT_EQ(ref.oid(), item.oid());
                  ODE_ASSIGN_OR_RETURN(const StockItem* s, snap->Read(ref));
                  EXPECT_EQ(s->name(), "before");  // Object read at same cut.
                  return Status::OK();
                }));
  ASSERT_OK(ForAll<StockItem>(*snap)
                .ViaIndexExact("mvcc_probe_idx", index_key::FromString("after"))
                .Do([&](Ref<StockItem>) -> Status {
                  via_new++;
                  return Status::OK();
                }));
  EXPECT_EQ(via_old, 1u);
  EXPECT_EQ(via_new, 0u);
  EXPECT_EQ(acquires->value(), acquires_before)
      << "snapshot index probe took a lock";
  ASSERT_OK(snap->Commit());

  // A locked transaction probes the current key set.
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    size_t old_now = 0, new_now = 0;
    ODE_RETURN_IF_ERROR(
        ForAll<StockItem>(txn)
            .ViaIndexExact("mvcc_probe_idx", index_key::FromString("before"))
            .Do([&](Ref<StockItem>) -> Status {
              old_now++;
              return Status::OK();
            }));
    ODE_RETURN_IF_ERROR(
        ForAll<StockItem>(txn)
            .ViaIndexExact("mvcc_probe_idx", index_key::FromString("after"))
            .Do([&](Ref<StockItem>) -> Status {
              new_now++;
              return Status::OK();
            }));
    EXPECT_EQ(old_now, 0u);
    EXPECT_EQ(new_now, 1u);
    return Status::OK();
  }));
}

// A snapshot index read of an index that does not exist answers NotFound,
// as a locked one does: no commit is racing it, so Busy — which tells
// RunReadTransaction to try again — would be the wrong answer.
TEST_F(MvccTest, SnapshotIndexScanOfUnknownIndexIsNotFound) {
  Open();
  MakeItem("x", 1);
  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());
  Status s = ForAll<StockItem>(*snap)
                 .ViaIndexExact("no_such_idx", index_key::FromString("x"))
                 .Do([](Ref<StockItem>) { return Status::OK(); });
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  ASSERT_OK(snap->Commit());
}

// An index join probing through a snapshot pairs rows as of the cut: a key
// mutation plus a decoy insert under the old key, both after the snapshot
// began, change nothing for the snapshot and everything for a locked join.
TEST_F(MvccTest, SnapshotIndexJoinYieldsCutPairs) {
  Open();
  ASSERT_OK((*db_)->CreateCluster<Person>());
  ASSERT_OK((*db_)->CreateIndex<StockItem>(
      "mvcc_join_idx",
      [](const StockItem& s) { return index_key::FromString(s.name()); }));
  Ref<StockItem> original = MakeItem("alpha", 7);
  Ref<Person> buyer;
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(buyer, txn.New<Person>("alpha", 30, 1.0));
    return Status::OK();
  }));

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());

  Ref<StockItem> decoy;
  CommitElsewhere([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(StockItem * w, txn.Write(original));
    w->set_name("beta");  // The buyer's key no longer matches this item...
    ODE_ASSIGN_OR_RETURN(decoy,
                         txn.New<StockItem>("alpha", 1.0, 1, 0));
    return Status::OK();  // ...and a different item took the key over.
  });

  std::vector<Oid> snap_matches;
  ASSERT_OK((IndexJoin<Person, StockItem>(
      *snap, "mvcc_join_idx",
      [](const Person& p) { return index_key::FromString(p.name()); },
      [&](Ref<Person>, Ref<StockItem> right) -> Status {
        snap_matches.push_back(right.oid());
        return Status::OK();
      })));
  ASSERT_EQ(snap_matches.size(), 1u);
  EXPECT_EQ(snap_matches[0], original.oid());
  ASSERT_OK(snap->Commit());

  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    std::vector<Oid> now_matches;
    ODE_RETURN_IF_ERROR((IndexJoin<Person, StockItem>(
        txn, "mvcc_join_idx",
        [](const Person& p) { return index_key::FromString(p.name()); },
        [&](Ref<Person>, Ref<StockItem> right) -> Status {
          now_matches.push_back(right.oid());
          return Status::OK();
        })));
    EXPECT_EQ(now_matches, std::vector<Oid>{decoy.oid()});
    return Status::OK();
  }));
}

// The index sweep honors the snapshot watermark exactly like the object
// sweep: superseded entries survive while a snapshot that can see them is
// open, and are reclaimed the moment it closes.
TEST_F(MvccTest, GcSparesSnapshotVisibleIndexVersions) {
  Open();
  ASSERT_OK((*db_)->CreateIndex<StockItem>(
      "mvcc_gc_idx",
      [](const StockItem& s) { return index_key::FromString(s.name()); }));
  Ref<StockItem> item = MakeItem("a", 1);

  auto snap = ASSERT_OK_AND_UNWRAP((*db_)->BeginSnapshot());

  CommitElsewhere([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(StockItem * w, txn.Write(item));
    w->set_name("b");
    return Status::OK();
  });
  // Physically: add("a"), tombstone("a"), add("b").
  EXPECT_EQ(ASSERT_OK_AND_UNWRAP((*db_)->indexes().CountAllVersions("mvcc_gc_idx")),
            3u);

  {
    Database::GcTotals totals;
    std::thread gc([&] {
      Status s = (*db_)->CollectVersionGarbage(&totals);
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    gc.join();
    EXPECT_EQ(totals.index_entries_reclaimed, 0u);
  }
  {
    size_t hits = 0;
    ASSERT_OK(ForAll<StockItem>(*snap)
                  .ViaIndexExact("mvcc_gc_idx", index_key::FromString("a"))
                  .Do([&](Ref<StockItem>) -> Status {
                    hits++;
                    return Status::OK();
                  }));
    EXPECT_EQ(hits, 1u);  // Old key still visible to the pinned snapshot.
  }
  ASSERT_OK(snap->Commit());

  {
    Database::GcTotals totals;
    ASSERT_OK((*db_)->CollectVersionGarbage(&totals));
    EXPECT_EQ(totals.index_entries_reclaimed, 2u);  // add("a") + its tombstone.
    EXPECT_GE(totals.indexes, 1u);
  }
  EXPECT_EQ(ASSERT_OK_AND_UNWRAP((*db_)->indexes().CountAllVersions("mvcc_gc_idx")),
            1u);  // Only add("b") remains.
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    size_t a_hits = 0, b_hits = 0;
    ODE_RETURN_IF_ERROR(ForAll<StockItem>(txn)
                            .ViaIndexExact("mvcc_gc_idx",
                                           index_key::FromString("a"))
                            .Do([&](Ref<StockItem>) -> Status {
                              a_hits++;
                              return Status::OK();
                            }));
    ODE_RETURN_IF_ERROR(ForAll<StockItem>(txn)
                            .ViaIndexExact("mvcc_gc_idx",
                                           index_key::FromString("b"))
                            .Do([&](Ref<StockItem>) -> Status {
                              b_hits++;
                              return Status::OK();
                            }));
    EXPECT_EQ(a_hits, 0u);
    EXPECT_EQ(b_hits, 1u);
    return Status::OK();
  }));
}

// The key-churn hammer (run under TSan in CI): writers flip item names back
// and forth while snapshot index scans run. Every cut must show exactly one
// key per item — never both sides of a rename, never neither. The
// background GC daemon sweeps concurrently to stress scan-vs-sweep.
TEST_F(MvccTest, SnapshotIndexScansUnderKeyChurn) {
  DatabaseOptions options = TestDb::FastOptions();
  options.gc_interval_ms = 5;  // Daemon sweeps while scans run.
  OpenWith(options);
  constexpr int kItems = 8;
  std::vector<Ref<StockItem>> items;
  ASSERT_OK((*db_)->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < kItems; i++) {
      ODE_ASSIGN_OR_RETURN(
          Ref<StockItem> ref,
          txn.New<StockItem>("churn" + std::to_string(i) + "_x", 1.0, 1, 0));
      items.push_back(ref);
    }
    return Status::OK();
  }));
  ASSERT_OK((*db_)->CreateIndex<StockItem>(
      "mvcc_churn_idx",
      [](const StockItem& s) { return index_key::FromString(s.name()); }));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; t++) {
    writers.emplace_back([&, t] {
      unsigned rng = 0xB5297A4Du * static_cast<unsigned>(t + 1);
      while (!stop.load()) {
        rng = rng * 1664525u + 1013904223u;
        const int i = static_cast<int>((rng >> 8) % kItems);
        (void)(*db_)->RunTransaction([&](Transaction& txn) -> Status {
          ODE_ASSIGN_OR_RETURN(StockItem * w, txn.Write(items[i]));
          const std::string base = "churn" + std::to_string(i);
          w->set_name(w->name() == base + "_x" ? base + "_y" : base + "_x");
          return Status::OK();
        });
      }
    });
  }

  for (int round = 0; round < 50; round++) {
    ASSERT_OK((*db_)->RunReadTransaction([&](Transaction& txn) -> Status {
      std::set<uint64_t> seen;
      ODE_RETURN_IF_ERROR(
          ForAll<StockItem>(txn)
              .ViaIndexRange("mvcc_churn_idx", std::string(), std::string())
              .Do([&](Ref<StockItem> ref) -> Status {
                EXPECT_TRUE(seen.insert(ref.oid().Pack()).second)
                    << "item under both sides of a rename in one cut";
                return Status::OK();
              }));
      EXPECT_EQ(seen.size(), static_cast<size_t>(kItems))
          << "cut lost or duplicated an item";
      return Status::OK();
    }));
  }

  stop.store(true);
  for (auto& w : writers) w.join();
}

}  // namespace
}  // namespace ode
