// Tests for the object store: record CRUD, object-table indirection,
// version chains (paper §2, §4 substrate).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "objstore/object_store.h"
#include "test_util.h"
#include "util/random.h"

namespace ode {
namespace {

using testing::TempDir;

class ObjectStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.wal_sync = Wal::SyncMode::kNoSync;
    ASSERT_OK(StorageEngine::Open(dir_.file("db"), options, &engine_));
    store_ = std::make_unique<ObjectStore>(engine_.get());
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    ASSERT_OK(store_->CreateTable(&root_));
  }

  void TearDown() override {
    if (engine_ != nullptr && engine_->in_txn()) {
      ASSERT_OK(engine_->CommitTxn(engine_->active_txn()));
    }
  }

  std::string ReadData(LocalOid local, uint32_t vnum = kGenericVersion) {
    std::string data;
    uint32_t type_code, resolved;
    Status s = store_->Read(root_, local, vnum, &data, &type_code, &resolved);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return data;
  }

  TempDir dir_;
  std::unique_ptr<StorageEngine> engine_;
  std::unique_ptr<ObjectStore> store_;
  PageId root_ = kInvalidPageId;
};

TEST_F(ObjectStoreTest, InsertAndRead) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 7, Slice("payload"), &oid));
  std::string data;
  uint32_t type_code = 0, resolved = 99;
  ASSERT_OK(store_->Read(root_, oid, kGenericVersion, &data, &type_code,
                         &resolved));
  EXPECT_EQ(data, "payload");
  EXPECT_EQ(type_code, 7u);
  EXPECT_EQ(resolved, 0u);  // objects start at version 0
}

TEST_F(ObjectStoreTest, SequentialOids) {
  LocalOid a, b, c;
  ASSERT_OK(store_->Insert(root_, 1, Slice("a"), &a));
  ASSERT_OK(store_->Insert(root_, 1, Slice("b"), &b));
  ASSERT_OK(store_->Insert(root_, 1, Slice("c"), &c));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
}

TEST_F(ObjectStoreTest, UpdateInPlaceGrowShrink) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("medium-sized"), &oid));
  ASSERT_OK(store_->Update(root_, oid, Slice("s")));
  EXPECT_EQ(ReadData(oid), "s");
  const std::string big(1500, 'G');
  ASSERT_OK(store_->Update(root_, oid, Slice(big)));
  EXPECT_EQ(ReadData(oid), big);
}

TEST_F(ObjectStoreTest, UpdateAcrossOverflowBoundary) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("inline"), &oid));
  // Inline -> overflow.
  const std::string huge(ObjectStore::kInlineRecordMax * 4, 'H');
  ASSERT_OK(store_->Update(root_, oid, Slice(huge)));
  EXPECT_EQ(ReadData(oid), huge);
  // Overflow -> inline again.
  ASSERT_OK(store_->Update(root_, oid, Slice("tiny again")));
  EXPECT_EQ(ReadData(oid), "tiny again");
}

TEST_F(ObjectStoreTest, InsertLargeRecord) {
  const std::string huge(100000, 'L');
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice(huge), &oid));
  EXPECT_EQ(ReadData(oid), huge);
}

TEST_F(ObjectStoreTest, DeleteAndReuseOid) {
  LocalOid a, b;
  ASSERT_OK(store_->Insert(root_, 1, Slice("a"), &a));
  ASSERT_OK(store_->Insert(root_, 1, Slice("b"), &b));
  ASSERT_OK(store_->Delete(root_, a));
  std::string data;
  EXPECT_TRUE(store_->Read(root_, a, kGenericVersion, &data, nullptr, nullptr)
                  .IsNotFound());
  EXPECT_TRUE(store_->Delete(root_, a).IsNotFound());
  // Freed entry index is recycled.
  LocalOid c;
  ASSERT_OK(store_->Insert(root_, 1, Slice("c"), &c));
  EXPECT_EQ(c, a);
}

TEST_F(ObjectStoreTest, ScanSkipsDeletedAndVersions) {
  std::vector<LocalOid> oids(5);
  for (int i = 0; i < 5; i++) {
    ASSERT_OK(store_->Insert(root_, 1, Slice(std::to_string(i)), &oids[i]));
  }
  ASSERT_OK(store_->Delete(root_, oids[1]));
  ASSERT_OK(store_->Delete(root_, oids[3]));
  uint32_t vn;
  ASSERT_OK(store_->NewVersion(root_, oids[2], &vn));  // adds a version entry

  std::set<LocalOid> seen;
  LocalOid at = 0;
  while (true) {
    LocalOid found_oid;
    bool found = false;
    ASSERT_OK(store_->NextHead(root_, at, &found_oid, &found));
    if (!found) break;
    seen.insert(found_oid);
    at = found_oid + 1;
  }
  EXPECT_EQ(seen, (std::set<LocalOid>{oids[0], oids[2], oids[4]}));
}

TEST_F(ObjectStoreTest, ManyObjectsAcrossTablePages) {
  // More objects than fit one entry page (170) and one directory's worth.
  const int kCount = 2000;
  for (int i = 0; i < kCount; i++) {
    LocalOid oid;
    ASSERT_OK(store_->Insert(root_, 1, Slice("obj" + std::to_string(i)), &oid));
    ASSERT_EQ(oid, static_cast<LocalOid>(i));
  }
  Random rng(5);
  for (int probe = 0; probe < 200; probe++) {
    const LocalOid oid = rng.Uniform(kCount);
    ASSERT_EQ(ReadData(oid), "obj" + std::to_string(oid));
  }
  auto num = store_->NumEntries(root_);
  ASSERT_TRUE(num.ok());
  EXPECT_EQ(num.value(), static_cast<uint32_t>(kCount));
}

TEST_F(ObjectStoreTest, EntriesPastTheFirstDirectoryRoot) {
  // A directory root lists 1018 entry pages of 127 entries; the next entry
  // page chains a second root. Entries on both sides of that boundary
  // read back, and one ScanHeads walk crosses it.
  const uint32_t kFirstRootEntries = 1018 * ObjectTable::kEntriesPerPage;
  const uint32_t kCount = kFirstRootEntries + 200;
  for (uint32_t i = 0; i < kCount; i++) {
    LocalOid oid;
    ASSERT_OK(store_->Insert(root_, 1, Slice(std::to_string(i)), &oid));
    ASSERT_EQ(oid, i);
  }
  for (LocalOid oid : {0u, kFirstRootEntries - 1, kFirstRootEntries,
                       kCount - 1}) {
    EXPECT_EQ(ReadData(oid), std::to_string(oid));
  }
  std::vector<ObjectTable::Head> heads;
  auto end = store_->ScanHeads(root_, kFirstRootEntries - 100,
                               kFirstRootEntries + 100,
                               /*include_tombstones=*/false, &heads);
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(end.value(), kCount);
  ASSERT_EQ(heads.size(), 200u);
  EXPECT_EQ(heads.front().local, kFirstRootEntries - 100);
  EXPECT_EQ(heads.back().local, kFirstRootEntries + 99);
}

TEST_F(ObjectStoreTest, ScanHeadsMatchesNextHeadAndGetEntry) {
  // Five entry pages (127 entries each) holding every kind of entry: live
  // heads, tombstones, retained pre-update images and explicit versions.
  const int kCount = 560;
  std::vector<LocalOid> oids(kCount);
  for (int i = 0; i < kCount; i++) {
    ASSERT_OK(store_->Insert(root_, 1, Slice("obj" + std::to_string(i)),
                             &oids[i]));
  }
  // Commit so the updates below retain their pre-images.
  ASSERT_OK(engine_->CommitTxn(engine_->active_txn()));
  ASSERT_TRUE(engine_->BeginTxn().ok());
  for (int i = 0; i < kCount; i++) {
    if (i % 7 == 3) {
      ASSERT_OK(store_->Delete(root_, oids[i]));
    } else if (i % 5 == 1) {
      ASSERT_OK(store_->Update(root_, oids[i], Slice("upd" + std::to_string(i))));
    } else if (i % 11 == 2) {
      uint32_t vnum;
      ASSERT_OK(store_->NewVersion(root_, oids[i], &vnum));
    }
  }
  auto num = store_->NumEntries(root_);
  ASSERT_TRUE(num.ok());
  ASSERT_GT(num.value(), 3u * 127u);  // at least four entry pages

  ObjectTable table(engine_.get(), root_);
  auto expect_same = [&](LocalOid lo, LocalOid hi, bool tombstones) {
    SCOPED_TRACE("[" + std::to_string(lo) + ", " + std::to_string(hi) +
                 ") tombstones=" + std::to_string(tombstones));
    std::vector<ObjectTable::Head> want;
    for (LocalOid at = lo;;) {
      LocalOid local;
      bool found = false;
      ASSERT_OK(table.NextHead(at, &local, &found, tombstones));
      if (!found || local >= hi) break;
      ObjectTable::Head head;
      head.local = local;
      ASSERT_OK(table.GetEntry(local, &head.entry));
      want.push_back(head);
      at = local + 1;
    }
    std::vector<ObjectTable::Head> got;
    Result<uint32_t> end = store_->ScanHeads(root_, lo, hi, tombstones, &got);
    ASSERT_OK(end.status());
    EXPECT_EQ(end.value(), num.value());  // the high-water mark, any range
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); i++) {
      const ObjectTable::Entry& g = got[i].entry;
      const ObjectTable::Entry& w = want[i].entry;
      EXPECT_EQ(got[i].local, want[i].local);
      EXPECT_EQ(g.page, w.page);
      EXPECT_EQ(g.slot, w.slot);
      EXPECT_EQ(g.flags, w.flags);
      EXPECT_EQ(g.type_code, w.type_code);
      EXPECT_EQ(g.prev_version, w.prev_version);
      EXPECT_EQ(g.vnum, w.vnum);
      EXPECT_EQ(g.parent_vnum, w.parent_vnum);
      EXPECT_EQ(g.commit_seq, w.commit_seq);
    }
  };
  // Morsel-aligned ranges (four entry pages each, the parallel scan's cut),
  // including one past the high-water mark, plus unaligned and empty ones.
  const LocalOid kMorsel = 4 * 127;
  for (bool tombstones : {false, true}) {
    for (LocalOid lo = 0; lo < num.value() + kMorsel; lo += kMorsel) {
      expect_same(lo, lo + kMorsel, tombstones);
    }
    expect_same(0, num.value(), tombstones);
    expect_same(100, 400, tombstones);
    expect_same(126, 128, tombstones);
    expect_same(200, 200, tombstones);
  }
}

// --- Versions -----------------------------------------------------------------

TEST_F(ObjectStoreTest, NewVersionFreezesState) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("v0 state"), &oid));
  uint32_t vnum;
  ASSERT_OK(store_->NewVersion(root_, oid, &vnum));
  EXPECT_EQ(vnum, 1u);
  ASSERT_OK(store_->Update(root_, oid, Slice("v1 state")));

  EXPECT_EQ(ReadData(oid, 0), "v0 state");
  EXPECT_EQ(ReadData(oid, 1), "v1 state");
  EXPECT_EQ(ReadData(oid), "v1 state");  // generic == current
}

TEST_F(ObjectStoreTest, LongVersionChain) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("state 0"), &oid));
  for (int i = 1; i <= 20; i++) {
    uint32_t vnum;
    ASSERT_OK(store_->NewVersion(root_, oid, &vnum));
    ASSERT_EQ(vnum, static_cast<uint32_t>(i));
    ASSERT_OK(store_->Update(root_, oid, Slice("state " + std::to_string(i))));
  }
  for (int i = 0; i <= 20; i++) {
    EXPECT_EQ(ReadData(oid, i), "state " + std::to_string(i));
  }
  std::vector<uint32_t> vnums;
  ASSERT_OK(store_->ListVersions(root_, oid, &vnums));
  ASSERT_EQ(vnums.size(), 21u);
  EXPECT_EQ(vnums.front(), 0u);
  EXPECT_EQ(vnums.back(), 20u);
}

TEST_F(ObjectStoreTest, ReadMissingVersion) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("x"), &oid));
  std::string data;
  EXPECT_TRUE(
      store_->Read(root_, oid, 5, &data, nullptr, nullptr).IsNotFound());
}

TEST_F(ObjectStoreTest, DeleteMiddleVersion) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("s0"), &oid));
  uint32_t vn;
  ASSERT_OK(store_->NewVersion(root_, oid, &vn));
  ASSERT_OK(store_->Update(root_, oid, Slice("s1")));
  ASSERT_OK(store_->NewVersion(root_, oid, &vn));
  ASSERT_OK(store_->Update(root_, oid, Slice("s2")));

  ASSERT_OK(store_->DeleteVersion(root_, oid, 1));
  EXPECT_EQ(ReadData(oid, 0), "s0");
  EXPECT_EQ(ReadData(oid, 2), "s2");
  std::string data;
  EXPECT_TRUE(
      store_->Read(root_, oid, 1, &data, nullptr, nullptr).IsNotFound());
  std::vector<uint32_t> vnums;
  ASSERT_OK(store_->ListVersions(root_, oid, &vnums));
  EXPECT_EQ(vnums, (std::vector<uint32_t>{0, 2}));
}

TEST_F(ObjectStoreTest, DeleteCurrentVersionPromotesPrevious) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("old"), &oid));
  uint32_t vn;
  ASSERT_OK(store_->NewVersion(root_, oid, &vn));
  ASSERT_OK(store_->Update(root_, oid, Slice("new")));

  ASSERT_OK(store_->DeleteVersion(root_, oid, 1));
  EXPECT_EQ(ReadData(oid), "old");  // previous version promoted to current
  ObjectTable::Entry entry;
  ASSERT_OK(store_->GetInfo(root_, oid, &entry));
  EXPECT_EQ(entry.vnum, 0u);
}

TEST_F(ObjectStoreTest, DeleteOnlyVersionRejected) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("only"), &oid));
  EXPECT_TRUE(store_->DeleteVersion(root_, oid, 0).IsInvalidArgument());
}

TEST_F(ObjectStoreTest, DeleteObjectFreesWholeChain) {
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice("s0"), &oid));
  uint32_t vn;
  for (int i = 0; i < 5; i++) {
    ASSERT_OK(store_->NewVersion(root_, oid, &vn));
  }
  auto entries_before = store_->NumEntries(root_);
  ASSERT_TRUE(entries_before.ok());
  ASSERT_OK(store_->Delete(root_, oid));
  // All 6 entries (head + 5 frozen) return to the free list: inserting 6
  // objects does not extend the table.
  for (int i = 0; i < 6; i++) {
    LocalOid fresh;
    ASSERT_OK(store_->Insert(root_, 1, Slice("r"), &fresh));
  }
  auto entries_after = store_->NumEntries(root_);
  ASSERT_TRUE(entries_after.ok());
  EXPECT_EQ(entries_before.value(), entries_after.value());
}

TEST_F(ObjectStoreTest, VersionedLargeObjects) {
  const std::string big0(ObjectStore::kInlineRecordMax * 2, 'A');
  const std::string big1(ObjectStore::kInlineRecordMax * 3, 'B');
  LocalOid oid;
  ASSERT_OK(store_->Insert(root_, 1, Slice(big0), &oid));
  uint32_t vn;
  ASSERT_OK(store_->NewVersion(root_, oid, &vn));
  ASSERT_OK(store_->Update(root_, oid, Slice(big1)));
  EXPECT_EQ(ReadData(oid, 0), big0);
  EXPECT_EQ(ReadData(oid, 1), big1);
}

TEST_F(ObjectStoreTest, StressRandomOps) {
  Random rng(99);
  std::vector<std::pair<LocalOid, std::string>> live;
  for (int step = 0; step < 2000; step++) {
    const int op = static_cast<int>(rng.Uniform(10));
    if (op < 5 || live.empty()) {
      const std::string data = rng.NextString(rng.Uniform(3000) + 1);
      LocalOid oid;
      ASSERT_OK(store_->Insert(root_, 1, Slice(data), &oid));
      live.emplace_back(oid, data);
    } else if (op < 8) {
      auto& [oid, data] = live[rng.Uniform(live.size())];
      data = rng.NextString(rng.Uniform(3000) + 1);
      ASSERT_OK(store_->Update(root_, oid, Slice(data)));
    } else {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_OK(store_->Delete(root_, live[idx].first));
      live.erase(live.begin() + idx);
    }
  }
  for (const auto& [oid, data] : live) {
    ASSERT_EQ(ReadData(oid), data);
  }
}

}  // namespace
}  // namespace ode
