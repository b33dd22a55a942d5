// Tests for the disk-resident B+tree, including a randomized comparison
// against std::map.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "query/btree.h"
#include "test_util.h"
#include "util/random.h"

namespace ode {
namespace {

using testing::TempDir;

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.wal_sync = Wal::SyncMode::kNoSync;
    ASSERT_OK(StorageEngine::Open(dir_.file("db"), options, &engine_));
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageId root;
    ASSERT_OK(BTree::Create(engine_.get(), &root));
    tree_ = std::make_unique<BTree>(engine_.get(), root);
  }

  void TearDown() override {
    tree_.reset();
    if (engine_ != nullptr && engine_->in_txn()) {
      ASSERT_OK(engine_->CommitTxn(engine_->active_txn()));
    }
  }

  TempDir dir_;
  std::unique_ptr<StorageEngine> engine_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  uint64_t value;
  bool found = true;
  ASSERT_OK(tree_->Get(Slice("missing"), &value, &found));
  EXPECT_FALSE(found);
  BTree::Iterator it;
  ASSERT_OK(tree_->SeekFirst(&it));
  EXPECT_FALSE(it.Valid());
  auto count = tree_->CountAll();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0u);
}

TEST_F(BTreeTest, InsertGetDelete) {
  ASSERT_OK(tree_->Insert(Slice("banana"), 2));
  ASSERT_OK(tree_->Insert(Slice("apple"), 1));
  ASSERT_OK(tree_->Insert(Slice("cherry"), 3));
  uint64_t value;
  bool found;
  ASSERT_OK(tree_->Get(Slice("apple"), &value, &found));
  ASSERT_TRUE(found);
  EXPECT_EQ(value, 1u);
  bool deleted;
  ASSERT_OK(tree_->Delete(Slice("apple"), &deleted));
  EXPECT_TRUE(deleted);
  ASSERT_OK(tree_->Get(Slice("apple"), &value, &found));
  EXPECT_FALSE(found);
  ASSERT_OK(tree_->Delete(Slice("apple"), &deleted));
  EXPECT_FALSE(deleted);
}

TEST_F(BTreeTest, DuplicateKeyRejected) {
  ASSERT_OK(tree_->Insert(Slice("k"), 1));
  EXPECT_TRUE(tree_->Insert(Slice("k"), 2).IsAlreadyExists());
  uint64_t value;
  bool found;
  ASSERT_OK(tree_->Get(Slice("k"), &value, &found));
  EXPECT_EQ(value, 1u);
}

TEST_F(BTreeTest, KeyValidation) {
  EXPECT_TRUE(tree_->Insert(Slice(""), 1).IsInvalidArgument());
  const std::string huge(BTree::kMaxKeySize + 1, 'k');
  EXPECT_TRUE(tree_->Insert(Slice(huge), 1).IsInvalidArgument());
  const std::string max(BTree::kMaxKeySize, 'k');
  EXPECT_OK(tree_->Insert(Slice(max), 1));
}

TEST_F(BTreeTest, OrderedIteration) {
  std::vector<std::string> keys = {"delta", "alpha", "echo", "bravo",
                                   "charlie"};
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_OK(tree_->Insert(Slice(keys[i]), i));
  }
  BTree::Iterator it;
  ASSERT_OK(tree_->SeekFirst(&it));
  std::vector<std::string> seen;
  while (it.Valid()) {
    seen.push_back(it.key().ToString());
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "bravo", "charlie",
                                            "delta", "echo"}));
}

TEST_F(BTreeTest, SeekGESemantics) {
  ASSERT_OK(tree_->Insert(Slice("b"), 1));
  ASSERT_OK(tree_->Insert(Slice("d"), 2));
  ASSERT_OK(tree_->Insert(Slice("f"), 3));
  BTree::Iterator it;
  ASSERT_OK(tree_->SeekGE(Slice("d"), &it));  // exact hit
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "d");
  ASSERT_OK(tree_->SeekGE(Slice("c"), &it));  // between keys
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "d");
  ASSERT_OK(tree_->SeekGE(Slice("a"), &it));  // before first
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "b");
  ASSERT_OK(tree_->SeekGE(Slice("g"), &it));  // past last
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  auto h0 = tree_->Height();
  ASSERT_TRUE(h0.ok());
  EXPECT_EQ(h0.value(), 1u);
  // Insert enough sequential keys to force multiple levels.
  for (int i = 0; i < 5000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%08d", i);
    ASSERT_OK(tree_->Insert(Slice(key, 11), i));
  }
  auto h1 = tree_->Height();
  ASSERT_TRUE(h1.ok());
  EXPECT_GE(h1.value(), 2u);
  auto count = tree_->CountAll();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 5000u);
  // Spot-check lookups after all the splits.
  Random rng(1);
  for (int probe = 0; probe < 500; probe++) {
    const int i = static_cast<int>(rng.Uniform(5000));
    char key[16];
    snprintf(key, sizeof(key), "key%08d", i);
    uint64_t value;
    bool found;
    ASSERT_OK(tree_->Get(Slice(key, 11), &value, &found));
    ASSERT_TRUE(found) << key;
    ASSERT_EQ(value, static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, DescendingInsertOrder) {
  for (int i = 3000; i >= 0; i--) {
    char key[16];
    snprintf(key, sizeof(key), "key%08d", i);
    ASSERT_OK(tree_->Insert(Slice(key, 11), i));
  }
  // Iteration is still ascending.
  BTree::Iterator it;
  ASSERT_OK(tree_->SeekFirst(&it));
  uint64_t expected = 0;
  while (it.Valid()) {
    ASSERT_EQ(it.value(), expected);
    expected++;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(expected, 3001u);
}

TEST_F(BTreeTest, LargeKeysSplitCorrectly) {
  Random rng(7);
  std::map<std::string, uint64_t> model;
  for (int i = 0; i < 200; i++) {
    const std::string key = rng.NextString(400) + std::to_string(i);
    ASSERT_OK(tree_->Insert(Slice(key), i));
    model[key] = i;
  }
  for (const auto& [key, value] : model) {
    uint64_t v;
    bool found;
    ASSERT_OK(tree_->Get(Slice(key), &v, &found));
    ASSERT_TRUE(found);
    ASSERT_EQ(v, value);
  }
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  for (int i = 0; i < 1000; i++) {
    ASSERT_OK(tree_->Insert(Slice("key" + std::to_string(i)), i));
  }
  const PageId root = tree_->root();
  tree_.reset();
  ASSERT_OK(engine_->CommitTxn(engine_->active_txn()));
  ASSERT_OK(engine_->Close());
  engine_.reset();

  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  ASSERT_OK(StorageEngine::Open(dir_.file("db"), options, &engine_));
  BTree tree(engine_.get(), root);
  uint64_t value;
  bool found;
  ASSERT_OK(tree.Get(Slice("key512"), &value, &found));
  ASSERT_TRUE(found);
  EXPECT_EQ(value, 512u);
  auto count = tree.CountAll();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 1000u);
}

TEST_F(BTreeTest, DropFreesPages) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_OK(tree_->Insert(Slice("key" + std::to_string(i)), i));
  }
  const Counter* freed =
      engine_->metrics().GetCounter("storage.engine.pages_freed");
  const uint64_t freed_before = freed->value();
  ASSERT_OK(tree_->Drop());
  EXPECT_GT(freed->value() - freed_before, 10u);
  tree_.reset();
}

TEST_F(BTreeTest, IterationSkipsEmptiedLeaves) {
  // Lazy deletion leaves empty leaf pages in the chain; iteration and
  // SeekGE must skip through them.
  for (int i = 0; i < 2000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%08d", i);
    ASSERT_OK(tree_->Insert(Slice(key, 11), i));
  }
  // Delete a large middle range (several whole leaves).
  for (int i = 500; i < 1500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%08d", i);
    bool deleted;
    ASSERT_OK(tree_->Delete(Slice(key, 11), &deleted));
    ASSERT_TRUE(deleted);
  }
  auto count = tree_->CountAll();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 1000u);
  // SeekGE into the deleted gap lands on the first survivor.
  BTree::Iterator it;
  ASSERT_OK(tree_->SeekGE(Slice("key00000500", 11), &it));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "key00001500");
  // Iterating across the gap sees survivors in order.
  uint64_t prev = 0;
  ASSERT_OK(tree_->SeekFirst(&it));
  size_t seen = 0;
  while (it.Valid()) {
    if (seen > 0) {
      ASSERT_GT(it.value(), prev);
    }
    prev = it.value();
    seen++;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(seen, 1000u);
}

TEST_F(BTreeTest, DeleteEverythingThenReuse) {
  for (int i = 0; i < 1000; i++) {
    ASSERT_OK(tree_->Insert(Slice("k" + std::to_string(i)), i));
  }
  for (int i = 0; i < 1000; i++) {
    bool deleted;
    ASSERT_OK(tree_->Delete(Slice("k" + std::to_string(i)), &deleted));
    ASSERT_TRUE(deleted);
  }
  auto count = tree_->CountAll();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0u);
  BTree::Iterator it;
  ASSERT_OK(tree_->SeekFirst(&it));
  EXPECT_FALSE(it.Valid());
  // The emptied tree still accepts inserts.
  ASSERT_OK(tree_->Insert(Slice("fresh"), 42));
  uint64_t value;
  bool found;
  ASSERT_OK(tree_->Get(Slice("fresh"), &value, &found));
  ASSERT_TRUE(found);
  EXPECT_EQ(value, 42u);
}

class BTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeModelTest, MatchesStdMap) {
  TempDir dir;
  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
  auto txn = engine->BeginTxn();
  ASSERT_TRUE(txn.ok());
  PageId root;
  ASSERT_OK(BTree::Create(engine.get(), &root));
  BTree tree(engine.get(), root);

  Random rng(GetParam());
  std::map<std::string, uint64_t> model;
  for (int step = 0; step < 4000; step++) {
    const int op = static_cast<int>(rng.Uniform(10));
    if (op < 6) {  // insert
      const std::string key = "k" + std::to_string(rng.Uniform(2000));
      const uint64_t value = rng.Next();
      Status s = tree.Insert(Slice(key), value);
      if (model.count(key)) {
        ASSERT_TRUE(s.IsAlreadyExists());
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        model[key] = value;
      }
    } else if (op < 8) {  // delete
      const std::string key = "k" + std::to_string(rng.Uniform(2000));
      bool deleted;
      ASSERT_OK(tree.Delete(Slice(key), &deleted));
      ASSERT_EQ(deleted, model.erase(key) > 0);
    } else {  // lookup
      const std::string key = "k" + std::to_string(rng.Uniform(2000));
      uint64_t value;
      bool found;
      ASSERT_OK(tree.Get(Slice(key), &value, &found));
      auto it = model.find(key);
      ASSERT_EQ(found, it != model.end());
      if (found) {
        ASSERT_EQ(value, it->second);
      }
    }
  }
  // Full ordered comparison at the end.
  BTree::Iterator it;
  ASSERT_OK(tree.SeekFirst(&it));
  auto expected = model.begin();
  while (it.Valid()) {
    ASSERT_NE(expected, model.end());
    ASSERT_EQ(it.key().ToString(), expected->first);
    ASSERT_EQ(it.value(), expected->second);
    ++expected;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(expected, model.end());
  ASSERT_OK(engine->CommitTxn(txn.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace ode
