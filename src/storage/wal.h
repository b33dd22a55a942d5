#ifndef ODE_STORAGE_WAL_H_
#define ODE_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/page.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/slice.h"
#include "util/status.h"

namespace ode {

using TxnId = uint64_t;

/// Redo-only write-ahead log.
///
/// ODE uses a no-steal buffer policy: dirty pages of an uncommitted
/// transaction never reach the database file, so no undo information is
/// logged. At commit, the full after-image of every page the transaction
/// dirtied is appended, followed by a commit record. Recovery replays page
/// images of committed transactions in log order (see recovery.h).
///
/// Record framing: [len u32][masked crc32c u32][body], where body is
/// [type u8][txn_id u64][payload]. A torn or corrupt tail ends the scan.
class Wal {
 public:
  enum class RecordType : uint8_t {
    kPageImage = 1,  ///< payload: page_id u32 + kPageSize image bytes
    kCommit = 2,     ///< payload: empty
  };

  /// A decoded record (image points into caller-provided scratch).
  struct Record {
    RecordType type;
    TxnId txn_id = 0;
    PageId page_id = kInvalidPageId;
    Slice image;
  };

  /// Controls when the log is forced to stable storage.
  enum class SyncMode {
    kSyncEveryCommit,  ///< fdatasync after each commit record (durable).
    kNoSync,           ///< leave flushing to the OS (fast, test/bench use).
  };

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if needed) the log file at `path` for appending,
  /// through `env`. `metrics` counts appends/fsyncs/bytes under
  /// `storage.wal.*`; nullptr means the global registry.
  static Status Open(Env* env, const std::string& path, SyncMode mode,
                     std::unique_ptr<Wal>* out,
                     MetricsRegistry* metrics = nullptr);

  /// Opens via Env::Default().
  static Status Open(const std::string& path, SyncMode mode,
                     std::unique_ptr<Wal>* out) {
    return Open(Env::Default(), path, mode, out);
  }

  Status AppendPageImage(TxnId txn, PageId page, const char* image);

  /// Appends a commit record; syncs per the SyncMode.
  Status AppendCommit(TxnId txn);

  /// Appends a commit record WITHOUT syncing, regardless of SyncMode. The
  /// engine's group-commit path uses this: records are published under the
  /// log latch and a batch leader issues one Sync() for every commit queued
  /// since the last fsync (docs/STORAGE.md "Group commit").
  Status AppendCommitRecord(TxnId txn);

  /// Forces the log to stable storage. `storage.wal.fsyncs` counts only
  /// successful syncs; failures bump `storage.wal.fsync_errors` instead.
  Status Sync();

  /// Truncates the log to empty (after a checkpoint).
  Status Reset();

  /// Truncates the log back to `offset` bytes — used to scrub the partial
  /// records of a commit that failed mid-append, so a log that stays in use
  /// can never expose that transaction's records to a later recovery.
  Status TruncateTo(uint64_t offset);

  /// Current log size in bytes. Appends happen under the engine's log
  /// latch, but this may be read without it (the commit path's checkpoint
  /// threshold check runs after releasing the latch).
  uint64_t size_bytes() const {
    return write_offset_.load(std::memory_order_relaxed);
  }

  void set_sync_mode(SyncMode mode) { sync_mode_ = mode; }
  SyncMode sync_mode() const { return sync_mode_; }

  /// Sequential scanner over a closed or live log file, used by recovery.
  class Reader {
   public:
    /// How the scan ended (meaningful once *eof was set).
    enum class TailState {
      kNone,      ///< Still mid-scan.
      kCleanEof,  ///< The log ended exactly at a record boundary.
      kTorn,      ///< The last record was short or failed its checksum.
    };

    explicit Reader(File* file, uint64_t start_offset = 0)
        : file_(file), offset_(start_offset) {}

    /// Reads the next record. Sets *eof=true (and returns OK) at clean end
    /// of log or at the first torn/corrupt record; tail() distinguishes the
    /// two. Returns a real error only for I/O failures.
    Status Next(Record* record, std::string* scratch, bool* eof);

    TailState tail() const { return tail_; }

    /// Byte offset of the next unread record (= where a torn tail starts).
    uint64_t offset() const { return offset_; }

    /// When tail() is kTorn and the damaged record's framing was intact
    /// (its full body is present but the checksum or content is bad), the
    /// offset just past it — recovery probes there to tell a torn tail from
    /// corruption in the middle of the log. 0 when the record cannot be
    /// skipped (short header or body: nothing can follow it).
    uint64_t torn_resync_offset() const { return torn_resync_offset_; }

   private:
    File* file_;
    uint64_t offset_ = 0;
    TailState tail_ = TailState::kNone;
    uint64_t torn_resync_offset_ = 0;
  };

  File* file() { return file_.get(); }

 private:
  Wal(std::unique_ptr<File> file, SyncMode mode, uint64_t write_offset,
      MetricsRegistry* metrics);

  /// Frames a record of `payload_size` payload bytes into buffer_: writes
  /// its length, type and txn id, and returns where the payload goes. The
  /// caller fills the payload, then calls WriteRecord().
  char* StartRecord(RecordType type, TxnId txn, size_t payload_size);

  /// Checksums the record framed in buffer_ in place and appends it.
  Status WriteRecord();

  std::unique_ptr<File> file_;
  SyncMode sync_mode_;
  std::atomic<uint64_t> write_offset_;
  std::string buffer_;  // reused encode buffer: one whole framed record
  Counter* appends_;        ///< storage.wal.appends (records written)
  Counter* appended_bytes_; ///< storage.wal.appended_bytes
  Counter* fsyncs_;         ///< storage.wal.fsyncs (successful only)
  Counter* fsync_errors_;   ///< storage.wal.fsync_errors
  Gauge* size_gauge_;       ///< storage.wal.bytes (current log size)
};

}  // namespace ode

#endif  // ODE_STORAGE_WAL_H_
