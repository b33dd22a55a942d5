// Tests for the redo-only WAL record format and crash recovery.

#include <gtest/gtest.h>

#include <cstring>

#include "storage/engine.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/coding.h"

namespace ode {
namespace {

using testing::TempDir;

std::string MakeImage(char fill) { return std::string(kPageSize, fill); }

TEST(WalTest, AppendAndReadBack) {
  TempDir dir;
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("wal"), Wal::SyncMode::kNoSync, &wal));
  const std::string img_a = MakeImage('a');
  const std::string img_b = MakeImage('b');
  ASSERT_OK(wal->AppendPageImage(1, 10, img_a.data()));
  ASSERT_OK(wal->AppendPageImage(1, 11, img_b.data()));
  ASSERT_OK(wal->AppendCommit(1));

  Wal::Reader reader(wal->file());
  Wal::Record record;
  std::string scratch;
  bool eof = false;

  ASSERT_OK(reader.Next(&record, &scratch, &eof));
  ASSERT_FALSE(eof);
  EXPECT_EQ(record.type, Wal::RecordType::kPageImage);
  EXPECT_EQ(record.txn_id, 1u);
  EXPECT_EQ(record.page_id, 10u);
  EXPECT_EQ(record.image.ToString(), img_a);

  ASSERT_OK(reader.Next(&record, &scratch, &eof));
  ASSERT_FALSE(eof);
  EXPECT_EQ(record.page_id, 11u);

  ASSERT_OK(reader.Next(&record, &scratch, &eof));
  ASSERT_FALSE(eof);
  EXPECT_EQ(record.type, Wal::RecordType::kCommit);

  ASSERT_OK(reader.Next(&record, &scratch, &eof));
  EXPECT_TRUE(eof);
  EXPECT_EQ(reader.tail(), Wal::Reader::TailState::kCleanEof);
}

TEST(WalTest, TornTailStopsScan) {
  TempDir dir;
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("wal"), Wal::SyncMode::kNoSync, &wal));
  const std::string img = MakeImage('x');
  ASSERT_OK(wal->AppendPageImage(1, 5, img.data()));
  ASSERT_OK(wal->AppendCommit(1));
  ASSERT_OK(wal->AppendPageImage(2, 6, img.data()));
  // Tear the last record.
  ASSERT_OK(wal->file()->Truncate(wal->size_bytes() - 100));

  Wal::Reader reader(wal->file());
  Wal::Record record;
  std::string scratch;
  bool eof = false;
  int records = 0;
  while (true) {
    ASSERT_OK(reader.Next(&record, &scratch, &eof));
    if (eof) break;
    records++;
  }
  EXPECT_EQ(records, 2);  // the torn third record is not surfaced
  EXPECT_EQ(reader.tail(), Wal::Reader::TailState::kTorn);
  // The record's body runs past end-of-file: nothing can follow it.
  EXPECT_EQ(reader.torn_resync_offset(), 0u);
}

TEST(WalTest, CorruptCrcStopsScan) {
  TempDir dir;
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("wal"), Wal::SyncMode::kNoSync, &wal));
  const std::string img = MakeImage('y');
  ASSERT_OK(wal->AppendPageImage(1, 5, img.data()));
  ASSERT_OK(wal->AppendCommit(1));
  // Flip one byte inside the first record's body.
  ASSERT_OK(wal->file()->Write(100, Slice("Z", 1)));

  Wal::Reader reader(wal->file());
  Wal::Record record;
  std::string scratch;
  bool eof = false;
  ASSERT_OK(reader.Next(&record, &scratch, &eof));
  EXPECT_TRUE(eof);
  EXPECT_EQ(reader.tail(), Wal::Reader::TailState::kTorn);
  // The framing was intact, so the damaged record is skippable: the resync
  // offset points just past it (header + body of a full page image).
  EXPECT_EQ(reader.torn_resync_offset(), 8u + 1u + 8u + 4u + kPageSize);
}

// Pins the on-disk record format: the expected bytes were produced by the
// byte-at-a-time table CRC32C, so a log written by either CRC implementation
// replays on the other. Any change here is a log-format change.
TEST(WalTest, RecordBytesArePinned) {
  TempDir dir;
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("wal"), Wal::SyncMode::kNoSync, &wal));
  std::string image(kPageSize, '\0');
  for (size_t i = 0; i < kPageSize; i++) {
    image[i] = static_cast<char>(i * 7 + 3);
  }
  const TxnId txn = 0x0102030405060708ull;
  ASSERT_OK(wal->AppendPageImage(txn, 0x0A0B0C0Du, image.data()));
  ASSERT_OK(wal->AppendCommit(txn));

  const size_t image_record = 8 + 1 + 8 + 4 + kPageSize;
  const size_t commit_record = 8 + 1 + 8;
  ASSERT_EQ(wal->size_bytes(), image_record + commit_record);
  std::string log(image_record + commit_record, '\0');
  size_t n = 0;
  ASSERT_OK(wal->file()->ReadAtMost(0, log.size(), log.data(), &n));
  ASSERT_EQ(n, log.size());

  // Page image: len 4109, masked crc, type 1, txn id, page id, then the image.
  const std::string image_header(
      "\x0d\x10\x00\x00\x7d\x0c\x49\xfd\x01\x08\x07\x06\x05\x04\x03\x02\x01"
      "\x0d\x0c\x0b\x0a",
      21);
  EXPECT_EQ(log.substr(0, 21), image_header);
  EXPECT_EQ(log.substr(21, kPageSize), image);
  EXPECT_EQ(DecodeFixed32(log.data()), 4109u);
  EXPECT_EQ(DecodeFixed32(log.data() + 4), 0xFD490C7Du);

  // Commit: len 9, masked crc, type 2, txn id.
  const std::string commit(
      "\x09\x00\x00\x00\x22\xe4\x2c\xa7\x02\x08\x07\x06\x05\x04\x03\x02\x01",
      17);
  EXPECT_EQ(log.substr(image_record), commit);
  EXPECT_EQ(DecodeFixed32(log.data() + image_record + 4), 0xA72CE422u);
}

TEST(WalTest, ResetEmptiesLog) {
  TempDir dir;
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("wal"), Wal::SyncMode::kNoSync, &wal));
  const std::string img = MakeImage('z');
  ASSERT_OK(wal->AppendPageImage(1, 2, img.data()));
  EXPECT_GT(wal->size_bytes(), 0u);
  ASSERT_OK(wal->Reset());
  EXPECT_EQ(wal->size_bytes(), 0u);
}

// --- Recovery -----------------------------------------------------------------

TEST(RecoveryTest, ReplaysOnlyCommittedTransactions) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("db.wal"), Wal::SyncMode::kNoSync, &wal));

  const std::string committed = MakeImage('C');
  const std::string uncommitted = MakeImage('U');
  ASSERT_OK(wal->AppendPageImage(1, 3, committed.data()));
  ASSERT_OK(wal->AppendCommit(1));
  ASSERT_OK(wal->AppendPageImage(2, 4, uncommitted.data()));
  // txn 2 never commits.

  RecoveryStats stats;
  ASSERT_OK(RunRecovery(pager.get(), wal.get(), &stats));
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 1u);
  EXPECT_EQ(wal->size_bytes(), 0u);

  char page[kPageSize];
  ASSERT_OK(pager->ReadPage(3, page));
  EXPECT_EQ(page[0], 'C');
  ASSERT_OK(pager->ReadPage(4, page));
  EXPECT_EQ(page[0], 0);  // untouched
}

TEST(RecoveryTest, LastImageWins) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("db.wal"), Wal::SyncMode::kNoSync, &wal));

  ASSERT_OK(wal->AppendPageImage(1, 7, MakeImage('1').data()));
  ASSERT_OK(wal->AppendCommit(1));
  ASSERT_OK(wal->AppendPageImage(2, 7, MakeImage('2').data()));
  ASSERT_OK(wal->AppendCommit(2));

  RecoveryStats stats;
  ASSERT_OK(RunRecovery(pager.get(), wal.get(), &stats));
  char page[kPageSize];
  ASSERT_OK(pager->ReadPage(7, page));
  EXPECT_EQ(page[0], '2');
}

TEST(RecoveryTest, TornTailIsDiscardedAndCounted) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("db.wal"), Wal::SyncMode::kNoSync, &wal));

  ASSERT_OK(wal->AppendPageImage(1, 3, MakeImage('A').data()));
  ASSERT_OK(wal->AppendCommit(1));
  ASSERT_OK(wal->AppendPageImage(2, 4, MakeImage('B').data()));
  // Crash mid-append: the last record loses its tail.
  ASSERT_OK(wal->file()->Truncate(wal->size_bytes() - 100));

  RecoveryStats stats;
  ASSERT_OK(RunRecovery(pager.get(), wal.get(), &stats));
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 1u);
  EXPECT_EQ(stats.torn_tail_records, 1u);
  char page[kPageSize];
  ASSERT_OK(pager->ReadPage(3, page));
  EXPECT_EQ(page[0], 'A');
}

TEST(RecoveryTest, CorruptionFollowedByValidRecordsFails) {
  TempDir dir;
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("db"), &pager, &created));
  std::unique_ptr<Wal> wal;
  ASSERT_OK(Wal::Open(dir.file("db.wal"), Wal::SyncMode::kNoSync, &wal));

  ASSERT_OK(wal->AppendPageImage(1, 3, MakeImage('A').data()));
  ASSERT_OK(wal->AppendCommit(1));
  ASSERT_OK(wal->AppendPageImage(2, 4, MakeImage('B').data()));
  ASSERT_OK(wal->AppendCommit(2));
  // Flip a byte inside the *first* record's body: valid records follow the
  // damage, so this is mid-log corruption, not a torn tail. Skipping the
  // record could replay txn 2 without txn 1 — recovery must refuse.
  ASSERT_OK(wal->file()->Write(100, Slice("Z", 1)));

  RecoveryStats stats;
  Status s = RunRecovery(pager.get(), wal.get(), &stats);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The log was not truncated: the damage stays available for inspection.
  EXPECT_GT(wal->size_bytes(), 0u);
}

TEST(RecoveryTest, CommitRecordMissingViaFaultInjection) {
  // The same single-transaction workload runs twice: a clean run counts the
  // WAL writes, then a second run (fresh directory) fails exactly on the
  // last of them — the commit record — as a crash between logging the page
  // images and logging the commit would.
  auto run = [](const std::string& path, FaultInjectionEnv* fenv,
                PageId* page) -> Status {
    EngineOptions options;
    options.env = fenv;
    std::unique_ptr<StorageEngine> engine;
    ODE_RETURN_IF_ERROR(StorageEngine::Open(path, options, &engine));
    ODE_ASSIGN_OR_RETURN(TxnId txn, engine->BeginTxn());
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine->AllocPage(page, &handle));
    memcpy(handle.mutable_data(), "never committed", 15);
    handle.Release();
    Status s = engine->CommitTxn(txn);
    engine->SimulateCrash();
    return s;
  };

  TempDir dir;
  FaultInjectionEnv counting;
  PageId page = kInvalidPageId;
  ASSERT_OK(run(dir.file("count.db"), &counting, &page));
  // All but one of the writes went to the WAL (the other created the
  // database file's superblock); the last WAL write is the commit record.
  const uint64_t wal_writes = counting.counters().writes - 1;
  ASSERT_GE(wal_writes, 2u);

  FaultInjectionEnv fenv;
  FaultInjectionEnv::FaultSpec spec;
  spec.kind = FaultInjectionEnv::OpKind::kWrite;
  spec.nth = wal_writes;
  spec.path_substring = ".wal";
  fenv.ArmFault(spec);
  Status s = run(dir.file("crash.db"), &fenv, &page);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(fenv.fault_fired());

  // Recover with the real env: the log holds page images but no commit
  // record, and it ends cleanly where the failed write would have gone.
  std::unique_ptr<Pager> pager;
  bool created;
  ASSERT_OK(Pager::Open(dir.file("crash.db"), &pager, &created));
  EXPECT_FALSE(created);
  std::unique_ptr<Wal> wal;
  ASSERT_OK(
      Wal::Open(dir.file("crash.db.wal"), Wal::SyncMode::kNoSync, &wal));
  RecoveryStats stats;
  ASSERT_OK(RunRecovery(pager.get(), wal.get(), &stats));
  EXPECT_EQ(stats.committed_txns, 0u);
  EXPECT_EQ(stats.pages_replayed, 0u);
  EXPECT_EQ(stats.torn_tail_records, 0u);
  char buf[kPageSize];
  ASSERT_OK(pager->ReadPage(page, buf));
  EXPECT_NE(memcmp(buf, "never committed", 15), 0);
}

TEST(RecoveryTest, FaultOnCommitSyncPreservesAtomicity) {
  TempDir dir;
  FaultInjectionEnv fenv;
  EngineOptions options;  // kSyncEveryCommit: the commit ends with a sync.
  options.env = &fenv;
  PageId page = kInvalidPageId;
  {
    std::unique_ptr<StorageEngine> engine;
    ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
    auto txn = engine->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine->AllocPage(&page, &handle));
    memcpy(handle.mutable_data(), "sync failed", 11);
    handle.Release();
    FaultInjectionEnv::FaultSpec spec;
    spec.kind = FaultInjectionEnv::OpKind::kSync;
    spec.nth = 1;
    spec.path_substring = ".wal";
    fenv.ArmFault(spec);
    Status s = engine->CommitTxn(txn.value());
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(fenv.fault_fired());
    engine->SimulateCrash();
  }
  // Reopen with the real env. The commit record reached the file — only its
  // sync failed, and the scrub could not run on the dead device — so after a
  // *process* crash (file contents survive) recovery legitimately replays
  // the transaction. The guarantee under test is atomicity: all of the
  // transaction's effects or none, never a torn mixture.
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"), EngineOptions(), &engine));
  PageHandle handle;
  ASSERT_OK(engine->GetPageRead(page, &handle));
  const bool all = memcmp(handle.data(), "sync failed", 11) == 0;
  bool none = true;
  for (size_t i = 0; i < 11; i++) none = none && handle.data()[i] == 0;
  EXPECT_TRUE(all || none);
  EXPECT_TRUE(all);  // Deterministic here: the record survived in the file.
}

// --- End-to-end crash recovery through the engine -------------------------------

TEST(RecoveryTest, EngineCrashRecoversCommittedData) {
  TempDir dir;
  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  PageId page;
  {
    std::unique_ptr<StorageEngine> engine;
    ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
    auto txn = engine->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    ASSERT_OK(engine->AllocPage(&page, &handle));
    memcpy(handle.mutable_data(), "survives crash", 14);
    handle.Release();
    ASSERT_OK(engine->CommitTxn(txn.value()));
    engine->SimulateCrash();  // no checkpoint, no flush
  }
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
  PageHandle handle;
  ASSERT_OK(engine->GetPageRead(page, &handle));
  EXPECT_EQ(memcmp(handle.data(), "survives crash", 14), 0);
}

TEST(RecoveryTest, EngineCrashDropsUncommittedData) {
  TempDir dir;
  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  PageId committed_page, uncommitted_page;
  {
    std::unique_ptr<StorageEngine> engine;
    ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
    {
      auto txn = engine->BeginTxn();
      ASSERT_TRUE(txn.ok());
      PageHandle handle;
      ASSERT_OK(engine->AllocPage(&committed_page, &handle));
      memcpy(handle.mutable_data(), "yes", 3);
      handle.Release();
      ASSERT_OK(engine->CommitTxn(txn.value()));
    }
    {
      auto txn = engine->BeginTxn();
      ASSERT_TRUE(txn.ok());
      PageHandle handle;
      ASSERT_OK(engine->AllocPage(&uncommitted_page, &handle));
      memcpy(handle.mutable_data(), "no!", 3);
      handle.Release();
      // Crash mid-transaction.
    }
    engine->SimulateCrash();
  }
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
  PageHandle handle;
  ASSERT_OK(engine->GetPageRead(committed_page, &handle));
  EXPECT_EQ(memcmp(handle.data(), "yes", 3), 0);
  handle.Release();
  ASSERT_OK(engine->GetPageRead(uncommitted_page, &handle));
  EXPECT_NE(memcmp(handle.data(), "no!", 3), 0);
}

TEST(RecoveryTest, RepeatedCrashesAreIdempotent) {
  TempDir dir;
  EngineOptions options;
  options.wal_sync = Wal::SyncMode::kNoSync;
  PageId page = kInvalidPageId;
  for (int round = 0; round < 4; round++) {
    std::unique_ptr<StorageEngine> engine;
    ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
    auto txn = engine->BeginTxn();
    ASSERT_TRUE(txn.ok());
    PageHandle handle;
    if (page == kInvalidPageId) {
      ASSERT_OK(engine->AllocPage(&page, &handle));
    } else {
      ASSERT_OK(engine->GetPageWrite(page, &handle));
      EXPECT_EQ(DecodeFixed32(handle.data()), static_cast<uint32_t>(round - 1));
    }
    EncodeFixed32(handle.mutable_data(), round);
    handle.Release();
    ASSERT_OK(engine->CommitTxn(txn.value()));
    engine->SimulateCrash();
  }
  std::unique_ptr<StorageEngine> engine;
  ASSERT_OK(StorageEngine::Open(dir.file("db"), options, &engine));
  PageHandle handle;
  ASSERT_OK(engine->GetPageRead(page, &handle));
  EXPECT_EQ(DecodeFixed32(handle.data()), 3u);
}

}  // namespace
}  // namespace ode
