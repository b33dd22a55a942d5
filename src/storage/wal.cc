#include "storage/wal.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace ode {

namespace {
constexpr size_t kHeaderSize = 8;      // len u32 + crc u32
constexpr size_t kBodyPrefixSize = 9;  // type u8 + txn_id u64
}  // namespace

Wal::Wal(std::unique_ptr<File> file, SyncMode mode, uint64_t write_offset,
         MetricsRegistry* metrics)
    : file_(std::move(file)), sync_mode_(mode), write_offset_(write_offset) {
  MetricsRegistry& m = metrics != nullptr ? *metrics : MetricsRegistry::Global();
  appends_ = m.GetCounter("storage.wal.appends");
  appended_bytes_ = m.GetCounter("storage.wal.appended_bytes");
  fsyncs_ = m.GetCounter("storage.wal.fsyncs");
  fsync_errors_ = m.GetCounter("storage.wal.fsync_errors");
  size_gauge_ = m.GetGauge("storage.wal.bytes");
  size_gauge_->Set(static_cast<int64_t>(write_offset));
}

Status Wal::Open(Env* env, const std::string& path, SyncMode mode,
                 std::unique_ptr<Wal>* out, MetricsRegistry* metrics) {
  std::unique_ptr<File> file;
  ODE_RETURN_IF_ERROR(env->NewFile(path, &file));
  ODE_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  out->reset(new Wal(std::move(file), mode, size, metrics));
  return Status::OK();
}

char* Wal::StartRecord(RecordType type, TxnId txn, size_t payload_size) {
  const size_t body_size = kBodyPrefixSize + payload_size;
  buffer_.resize(kHeaderSize + body_size);
  char* record = buffer_.data();
  EncodeFixed32(record, static_cast<uint32_t>(body_size));
  record[kHeaderSize] = static_cast<char>(type);
  EncodeFixed64(record + kHeaderSize + 1, txn);
  return record + kHeaderSize + kBodyPrefixSize;
}

Status Wal::WriteRecord() {
  char* record = buffer_.data();
  EncodeFixed32(record + 4,
                crc32c::Mask(crc32c::Value(record + kHeaderSize,
                                           buffer_.size() - kHeaderSize)));
  const uint64_t offset = write_offset_.load(std::memory_order_relaxed);
  ODE_RETURN_IF_ERROR(file_->Write(offset, buffer_));
  const uint64_t end = offset + buffer_.size();
  write_offset_.store(end, std::memory_order_relaxed);
  appends_->Add();
  appended_bytes_->Add(buffer_.size());
  size_gauge_->Set(static_cast<int64_t>(end));
  return Status::OK();
}

Status Wal::AppendPageImage(TxnId txn, PageId page, const char* image) {
  char* payload = StartRecord(RecordType::kPageImage, txn, 4 + kPageSize);
  EncodeFixed32(payload, page);
  memcpy(payload + 4, image, kPageSize);
  return WriteRecord();
}

Status Wal::AppendCommit(TxnId txn) {
  ODE_RETURN_IF_ERROR(AppendCommitRecord(txn));
  if (sync_mode_ == SyncMode::kSyncEveryCommit) {
    return Sync();
  }
  return Status::OK();
}

Status Wal::AppendCommitRecord(TxnId txn) {
  StartRecord(RecordType::kCommit, txn, 0);
  return WriteRecord();
}

Status Wal::Sync() {
  // Count only successful syncs: a failed fdatasync made nothing durable,
  // and inflating the counter would skew commits-per-fsync arithmetic.
  Status s = file_->Sync();
  if (s.ok()) {
    fsyncs_->Add();
  } else {
    fsync_errors_->Add();
  }
  return s;
}

Status Wal::Reset() {
  ODE_RETURN_IF_ERROR(file_->Truncate(0));
  Status synced = file_->Sync();
  if (!synced.ok()) {
    fsync_errors_->Add();
    return synced;
  }
  fsyncs_->Add();
  write_offset_.store(0, std::memory_order_relaxed);
  size_gauge_->Set(0);
  return Status::OK();
}

Status Wal::TruncateTo(uint64_t offset) {
  ODE_RETURN_IF_ERROR(file_->Truncate(offset));
  write_offset_.store(offset, std::memory_order_relaxed);
  size_gauge_->Set(static_cast<int64_t>(offset));
  return Status::OK();
}

Status Wal::Reader::Next(Record* record, std::string* scratch, bool* eof) {
  *eof = false;
  tail_ = TailState::kNone;
  torn_resync_offset_ = 0;
  char header[kHeaderSize];
  size_t n = 0;
  ODE_RETURN_IF_ERROR(file_->ReadAtMost(offset_, kHeaderSize, header, &n));
  if (n < kHeaderSize) {
    *eof = true;
    tail_ = n == 0 ? TailState::kCleanEof : TailState::kTorn;
    return Status::OK();
  }
  const uint32_t len = DecodeFixed32(header);
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header + 4));
  if (len < kBodyPrefixSize || len > 16u * 1024 * 1024) {
    *eof = true;  // Corrupt length: cannot even locate the next record.
    tail_ = TailState::kTorn;
    return Status::OK();
  }
  scratch->resize(len);
  ODE_RETURN_IF_ERROR(
      file_->ReadAtMost(offset_ + kHeaderSize, len, scratch->data(), &n));
  if (n < len) {
    *eof = true;  // Torn record: body runs past end of file.
    tail_ = TailState::kTorn;
    return Status::OK();
  }
  // The body is fully present from here on, so any damage is skippable:
  // whatever follows this record starts at a known offset.
  if (crc32c::Value(scratch->data(), len) != expected_crc) {
    *eof = true;
    tail_ = TailState::kTorn;
    torn_resync_offset_ = offset_ + kHeaderSize + len;
    return Status::OK();
  }
  Slice body(*scratch);
  record->type = static_cast<RecordType>(body[0]);
  body.remove_prefix(1);
  uint64_t txn;
  if (!GetFixed64(&body, &txn)) {
    *eof = true;
    tail_ = TailState::kTorn;
    torn_resync_offset_ = offset_ + kHeaderSize + len;
    return Status::OK();
  }
  record->txn_id = txn;
  switch (record->type) {
    case RecordType::kPageImage: {
      uint32_t page;
      if (!GetFixed32(&body, &page) || body.size() != kPageSize) {
        *eof = true;
        tail_ = TailState::kTorn;
        torn_resync_offset_ = offset_ + kHeaderSize + len;
        return Status::OK();
      }
      record->page_id = page;
      record->image = body;
      break;
    }
    case RecordType::kCommit:
      record->page_id = kInvalidPageId;
      record->image = Slice();
      break;
    default:
      *eof = true;  // Unknown record type: stop.
      tail_ = TailState::kTorn;
      torn_resync_offset_ = offset_ + kHeaderSize + len;
      return Status::OK();
  }
  offset_ += kHeaderSize + len;
  return Status::OK();
}

}  // namespace ode
