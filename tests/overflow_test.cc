// Tests for large-record overflow chains.

#include <gtest/gtest.h>

#include "storage/engine.h"
#include "storage/overflow.h"
#include "test_util.h"
#include "util/random.h"

namespace ode {
namespace {

using testing::TempDir;

class OverflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.wal_sync = Wal::SyncMode::kNoSync;
    ASSERT_OK(StorageEngine::Open(dir_.file("db"), options, &engine_));
    auto txn = engine_->BeginTxn();
    ASSERT_TRUE(txn.ok());
    txn_ = txn.value();
  }

  void TearDown() override {
    if (engine_ != nullptr && engine_->in_txn()) {
      ASSERT_OK(engine_->CommitTxn(txn_));
    }
  }

  TempDir dir_;
  std::unique_ptr<StorageEngine> engine_;
  TxnId txn_ = 0;
};

class OverflowSizeTest : public OverflowTest,
                         public ::testing::WithParamInterface<size_t> {};

TEST_P(OverflowSizeTest, RoundTripsAnySize) {
  Random rng(GetParam());
  const std::string data = rng.NextString(GetParam());
  PageId first;
  ASSERT_OK(overflow::WriteChain(engine_.get(), Slice(data), &first));
  std::string read_back;
  ASSERT_OK(overflow::ReadChain(engine_.get(), first, &read_back));
  EXPECT_EQ(read_back, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverflowSizeTest,
                         ::testing::Values(1, 100, overflow::kOverflowPayload - 1,
                                           overflow::kOverflowPayload,
                                           overflow::kOverflowPayload + 1,
                                           3 * overflow::kOverflowPayload,
                                           64 * 1024, 1024 * 1024));

TEST_F(OverflowTest, EmptyDataRejected) {
  PageId first;
  EXPECT_TRUE(overflow::WriteChain(engine_.get(), Slice(""), &first)
                  .IsInvalidArgument());
}

TEST_F(OverflowTest, FreeChainReturnsPages) {
  const std::string data(20 * overflow::kOverflowPayload, 'q');
  PageId first;
  ASSERT_OK(overflow::WriteChain(engine_.get(), Slice(data), &first));
  const Counter* freed =
      engine_->metrics().GetCounter("storage.engine.pages_freed");
  const uint64_t freed_before = freed->value();
  ASSERT_OK(overflow::FreeChain(engine_.get(), first));
  EXPECT_EQ(freed->value() - freed_before, 20u);
  // Freed pages get reused by the next chain: the file does not grow.
  auto count_before = engine_->ReadSuperU32(SuperblockLayout::kPageCountOffset);
  ASSERT_TRUE(count_before.ok());
  PageId second;
  ASSERT_OK(overflow::WriteChain(engine_.get(), Slice(data), &second));
  auto count_after = engine_->ReadSuperU32(SuperblockLayout::kPageCountOffset);
  ASSERT_TRUE(count_after.ok());
  EXPECT_EQ(count_before.value(), count_after.value());
}

TEST_F(OverflowTest, CorruptChainDetected) {
  const std::string data(2 * overflow::kOverflowPayload, 'w');
  PageId first;
  ASSERT_OK(overflow::WriteChain(engine_.get(), Slice(data), &first));
  // Clobber the page-type tag of the first chain page.
  PageHandle handle;
  ASSERT_OK(engine_->GetPageWrite(first, &handle));
  handle.mutable_data()[0] = static_cast<char>(PageType::kSlotted);
  handle.Release();
  std::string read_back;
  EXPECT_TRUE(overflow::ReadChain(engine_.get(), first, &read_back)
                  .IsCorruption());
  EXPECT_TRUE(overflow::FreeChain(engine_.get(), first).IsCorruption());
}

TEST_F(OverflowTest, ChainSurvivesReopen) {
  const std::string data(5 * overflow::kOverflowPayload + 123, 'r');
  PageId first;
  ASSERT_OK(overflow::WriteChain(engine_.get(), Slice(data), &first));
  ASSERT_OK(engine_->CommitTxn(txn_));
  ASSERT_OK(engine_->Close());
  engine_.reset();

  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  ASSERT_OK(StorageEngine::Open(dir_.file("db"), options, &engine_));
  std::string read_back;
  ASSERT_OK(overflow::ReadChain(engine_.get(), first, &read_back));
  EXPECT_EQ(read_back, data);
}

}  // namespace
}  // namespace ode
