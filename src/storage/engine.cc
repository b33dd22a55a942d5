#include "storage/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <set>
#include <vector>

#include "storage/recovery.h"
#include "util/coding.h"
#include "util/logging.h"

namespace ode {

namespace {

/// Engine-instance generations. Globally unique and monotone so a reopened
/// engine landing at a recycled heap address can never match a thread-local
/// binding left behind by its predecessor.
std::atomic<uint64_t> g_engine_gen{1};

}  // namespace

// --- Thread-local transaction binding --------------------------------------
//
// Each thread keeps a tiny map: engine generation -> its TxnState on that
// engine. A map (rather than a single slot) so one thread can interleave
// transactions on several engines (e.g. backup copying between databases).
// Entries are erased on transaction end; an engine that dies with a live
// entry (SimulateCrash) leaves a stale pair whose generation is never issued
// again, so it can never be looked up.

using TlsTxnMap = std::unordered_map<uint64_t, void*>;

static TlsTxnMap& TlsTxns() {
  static thread_local TlsTxnMap map;
  return map;
}

StorageEngine::TxnState* StorageEngine::CurrentTxn() const {
  TlsTxnMap& map = TlsTxns();
  auto it = map.find(gen_);
  if (it == map.end()) return nullptr;
  return static_cast<TxnState*>(it->second);
}

void StorageEngine::BindTls(TxnState* txn) const { TlsTxns()[gen_] = txn; }

void StorageEngine::UnbindTls() const { TlsTxns().erase(gen_); }

// ---------------------------------------------------------------------------

StorageEngine::StorageEngine(std::string path, std::unique_ptr<Pager> pager,
                             std::unique_ptr<Wal> wal,
                             const EngineOptions& options)
    : path_(std::move(path)),
      pager_(std::move(pager)),
      wal_(std::move(wal)),
      pool_(new BufferPool(pager_.get(), options.buffer_pool_pages,
                           options.metrics, options.buffer_pool_shards)),
      locks_(new concur::LockManager(
          options.metrics != nullptr ? options.metrics
                                     : &MetricsRegistry::Global(),
          options.lock_wait_timeout_ms)),
      options_(options),
      gen_(g_engine_gen.fetch_add(1, std::memory_order_relaxed)),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &MetricsRegistry::Global()) {
  m_txn_begins_ = metrics_->GetCounter("storage.engine.txn_begins");
  m_txn_commits_ = metrics_->GetCounter("storage.engine.txn_commits");
  m_txn_aborts_ = metrics_->GetCounter("storage.engine.txn_aborts");
  m_commit_failures_ = metrics_->GetCounter("storage.engine.commit_failures");
  m_checkpoints_ = metrics_->GetCounter("storage.engine.checkpoints");
  m_pages_allocated_ = metrics_->GetCounter("storage.engine.pages_allocated");
  m_pages_freed_ = metrics_->GetCounter("storage.engine.pages_freed");
  m_active_txns_ = metrics_->GetGauge("storage.engine.active_txns");
  m_gc_batch_size_ =
      metrics_->GetHistogram("storage.wal.group_commit.batch_size");
  m_gc_wait_us_ = metrics_->GetHistogram("storage.wal.group_commit.wait_us");
  m_gc_fsyncs_ = metrics_->GetCounter("storage.wal.group_commit.fsyncs");
  m_gc_commits_ = metrics_->GetCounter("storage.wal.group_commit.commits");
  m_commits_per_fsync_ = metrics_->GetGauge("txn.commits_per_fsync");
  m_ckpt_fuzzy_ = metrics_->GetCounter("storage.checkpoint.fuzzy");
  m_ckpt_deferred_ = metrics_->GetCounter("storage.checkpoint.deferred");
  m_ckpt_wb_pages_ =
      metrics_->GetCounter("storage.checkpoint.write_behind_pages");
  m_ckpt_critical_us_ =
      metrics_->GetHistogram("storage.checkpoint.critical_us");
  m_ckpt_residual_ = metrics_->GetGauge("storage.checkpoint.residual_pages");
  {
    // Everything in the log at open time survived recovery's own fsync-free
    // scan of a closed file; treat it as the durable prefix.
    MutexLock lock(commit_mu_);
    synced_wal_offset_ = wal_->size_bytes();
  }
  if (options_.background_checkpoint) {
    checkpointer_ = std::thread([this] { CheckpointerMain(); });
  }
}

StorageEngine::~StorageEngine() {
  if (!closed_) {
    Status s = Close();
    if (!s.ok()) {
      ODE_LOG(kError) << "close " << path_ << " failed: " << s.ToString();
    }
  }
  StopCheckpointer();  // no-op after Close()/SimulateCrash() already did it
}

Status StorageEngine::Open(const std::string& path,
                           const EngineOptions& options,
                           std::unique_ptr<StorageEngine>* out) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::unique_ptr<Pager> pager;
  bool created = false;
  ODE_RETURN_IF_ERROR(
      Pager::Open(env, path, &pager, &created, options.metrics));

  const std::string wal_path = path + ".wal";
  std::unique_ptr<Wal> wal;
  ODE_RETURN_IF_ERROR(
      Wal::Open(env, wal_path, options.wal_sync, &wal, options.metrics));

  if (wal->size_bytes() > 0) {
    RecoveryStats recovery_stats;
    ODE_RETURN_IF_ERROR(RunRecovery(pager.get(), wal.get(), &recovery_stats));
    ODE_LOG(kInfo) << "recovered " << path << ": "
                   << recovery_stats.committed_txns << " txns, "
                   << recovery_stats.pages_replayed << " page images"
                   << (recovery_stats.torn_tail_records > 0
                           ? " (torn tail discarded)"
                           : "");
  }

  std::unique_ptr<StorageEngine> engine(
      new StorageEngine(path, std::move(pager), std::move(wal), options));
  // Seed the transaction-id counter from the superblock. (The counter is
  // persisted at checkpoints and rides along in any committed superblock
  // image; after a crash, ids issued by transactions since the last
  // checkpointed value may be reissued — benign for redo correctness, ids
  // only group log records and replay is in log order.)
  ODE_ASSIGN_OR_RETURN(uint64_t next_txn, engine->ReadSuperU64(
                                              SuperblockLayout::kNextTxnIdOffset));
  engine->next_txn_id_.store(next_txn < 1 ? 1 : next_txn,
                             std::memory_order_relaxed);
  // Seed the publish-sequence counter. Every commit that stamps MVCC version
  // headers also stamps its sequence into the superblock image it logs, so
  // the recovered value is >= every version stamp on any recovered page —
  // the invariant snapshot visibility depends on (a fresh snapshot must see
  // all pre-crash commits).
  ODE_ASSIGN_OR_RETURN(uint64_t seq, engine->ReadSuperU64(
                                         SuperblockLayout::kCommitSeqOffset));
  {
    MutexLock lock(engine->commit_mu_);
    engine->commit_seq_ = seq;
    engine->synced_seq_ = seq;
  }
  *out = std::move(engine);
  return Status::OK();
}

void StorageEngine::StopCheckpointer() {
  if (!checkpointer_.joinable()) return;
  {
    MutexLock lock(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.NotifyAll();
  checkpointer_.join();
}

void StorageEngine::CheckpointerMain() {
  for (;;) {
    {
      MutexLock lock(ckpt_mu_);
      while (!ckpt_stop_ && !ckpt_wake_) ckpt_cv_.Wait(ckpt_mu_);
      if (ckpt_stop_) return;
      ckpt_wake_ = false;
    }
    Status s = FuzzyCheckpoint();
    if (!s.ok()) {
      // Never fatal: the WAL keeps growing and the next commit re-nudges us;
      // recovery can always redo the work from the log.
      ODE_LOG(kWarn) << "background checkpoint failed: " << s.ToString();
    }
  }
}

void StorageEngine::SimulateCrash() {
  StopCheckpointer();
  closed_ = true;
}

Status StorageEngine::Close() {
  if (closed_) return Status::OK();
  StopCheckpointer();
  // Abort every still-active transaction, including ones leaked by other
  // threads (their thread-local bindings go stale; the generation check
  // keeps them from ever resolving again).
  std::vector<std::unique_ptr<TxnState>> leaked;
  {
    MutexLock lock(txn_mu_);
    for (auto& [id, txn] : txns_) leaked.push_back(std::move(txn));
    txns_.clear();
    m_active_txns_->Set(0);
  }
  for (auto& txn : leaked) {
    locks_->ReleaseAll(txn->id);
    m_txn_aborts_->Add();
  }
  UnbindTls();
  Status s = Checkpoint();
  closed_ = true;
  return s;
}

Result<TxnId> StorageEngine::BeginTxn() {
  if (CurrentTxn() != nullptr) {
    return Status::Busy("a transaction is already active");
  }
  if (wedged_.load(std::memory_order_acquire)) {
    return Status::IOError(
        "engine wedged: a failed commit could not scrub the log; "
        "checkpoint (or reopen) before starting new transactions");
  }
  auto txn = std::make_unique<TxnState>();
  TxnState* raw = txn.get();
  {
    MutexLock lock(txn_mu_);
    if (vacuum_active_ && vacuum_owner_ != std::this_thread::get_id()) {
      return Status::Busy("vacuum in progress");
    }
    txn->id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
    txn->owner = std::this_thread::get_id();
    txns_.emplace(txn->id, std::move(txn));
    m_active_txns_->Set(static_cast<int64_t>(txns_.size()));
  }
  BindTls(raw);
  m_txn_begins_->Add();
  return raw->id;
}

Status StorageEngine::DetachTxn() {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument(
        "DetachTxn: no active transaction on this thread");
  }
  {
    // txn_mu_ publishes every shadow-page write this thread made to whichever
    // thread attaches next (its AttachTxn acquires the same mutex).
    MutexLock lock(txn_mu_);
    state->detached = true;
    state->owner = std::thread::id();
  }
  UnbindTls();
  return Status::OK();
}

Status StorageEngine::AttachTxn(TxnId txn) {
  if (CurrentTxn() != nullptr) {
    return Status::Busy("AttachTxn: a transaction is already active on this "
                        "thread");
  }
  TxnState* state = nullptr;
  {
    MutexLock lock(txn_mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return Status::NotFound("AttachTxn: no active transaction " +
                              std::to_string(txn));
    }
    if (!it->second->detached) {
      return Status::Busy("AttachTxn: transaction " + std::to_string(txn) +
                          " is attached to another thread");
    }
    it->second->detached = false;
    it->second->owner = std::this_thread::get_id();
    state = it->second.get();
  }
  BindTls(state);
  return Status::OK();
}

Status StorageEngine::EnsureWriterToken(TxnState* txn) {
  if (txn->has_writer_token) return Status::OK();
  ODE_RETURN_IF_ERROR(locks_->Acquire(txn->id, concur::kWriterResource,
                                      concur::LockMode::kExclusive));
  txn->has_writer_token = true;
  return Status::OK();
}

void StorageEngine::FinishTxn(TxnState* txn, bool committed) {
  const TxnId id = txn->id;
  if (txn->is_snapshot || txn->structure_op) {
    MutexLock lock(commit_mu_);
    if (txn->is_snapshot) {
      // Retire this reader from the active-snapshot set; the GC watermark
      // may advance past versions only this snapshot could still see.
      auto it = active_snapshots_.find(txn->snapshot_seq);
      if (it != active_snapshots_.end()) active_snapshots_.erase(it);
    }
    if (txn->structure_op && structure_ops_ > 0) {
      // Lift the structure-op barrier; snapshots may begin again.
      structure_ops_--;
    }
  }
  UnbindTls();
  {
    MutexLock lock(txn_mu_);
    txns_.erase(id);  // destroys *txn
    m_active_txns_->Set(static_cast<int64_t>(txns_.size()));
  }
  if (committed) {
    m_txn_commits_->Add();
  } else {
    m_txn_aborts_->Add();
  }
}

Status StorageEngine::CommitTxn(
    TxnId txn, bool release_locks,
    const std::vector<concur::ResourceId>* publish_release) {
  TxnState* state = CurrentTxn();
  if (txn == 0 || state == nullptr || state->id != txn) {
    return Status::InvalidArgument("CommitTxn: not the active transaction");
  }
  if (state->shadows.empty()) {
    // Read-only: nothing to log or publish. But if the reads went through
    // the pending overlay (writer token held at some point), the values
    // handed to the caller are only as durable as the batches they came
    // from — wait for those before reporting success.
    Status durable = Status::OK();
    uint64_t dep_hi = 0;
    for (uint64_t dep : state->dep_seqs) dep_hi = std::max(dep_hi, dep);
    if (dep_hi != 0) durable = WaitForDurableSeq(dep_hi);
    if (!durable.ok()) {
      m_commit_failures_->Add();
      FinishTxn(state, /*committed=*/false);
      if (release_locks) locks_->ReleaseAll(txn);
      return durable;
    }
    FinishTxn(state, /*committed=*/true);
    if (release_locks) locks_->ReleaseAll(txn);
    return Status::OK();
  }
  assert(state->has_writer_token);

  // A transaction that stamped MVCC version headers must persist its publish
  // sequence: force the superblock into its write set so the in-latch stamp
  // below rides along. Without this, a crash after the commit would reopen
  // the engine with commit_seq_ below stamps already on disk, making durably
  // committed objects invisible to post-crash snapshots.
  if (state->stamp_seq != 0 &&
      state->shadows.find(kSuperblockPageId) == state->shadows.end()) {
    PageHandle super;
    Status seeded = GetPageWrite(kSuperblockPageId, &super);
    if (!seeded.ok()) {
      FinishTxn(state, /*committed=*/false);
      if (release_locks) locks_->ReleaseAll(txn);
      return seeded;
    }
  }

  const bool durable_mode =
      wal_->sync_mode() == Wal::SyncMode::kSyncEveryCommit;

  // Publish phase, under the log latch: append after-images in page order
  // plus the commit record (no fsync), assign the publish sequence, and move
  // the shadows into the pending overlay where the next writer token holder
  // can see them. If an append fails the commit degrades to an abort: scrub
  // the partial records off the log, drop the shadows, report the error, but
  // leave the engine usable.
  SyncWaiter me;
  Status logged;
  {
    MutexLock lock(commit_mu_);
    logged = [&]() -> Status {
      if (AnyDepDeadLocked(*state)) {
        return Status::IOError(
            "commit depends on a transaction whose group-commit fsync "
            "failed; rolled back");
      }
      // This commit's publish sequence. A reserved write stamp is exact:
      // the writer token (held since WriteStampSeq) serialized every
      // publish in between.
      const uint64_t seq = commit_seq_ + 1;
      assert(state->stamp_seq == 0 || state->stamp_seq == seq);
      // Ride the advanced id counter and the publish sequence along in the
      // superblock image if this transaction carries one (free persistence
      // across crashes; the sequence stamp keeps commit_seq_ monotone across
      // reopen — see Open()).
      auto super_it = state->shadows.find(kSuperblockPageId);
      if (super_it != state->shadows.end()) {
        EncodeFixed64(
            super_it->second.get() + SuperblockLayout::kNextTxnIdOffset,
            next_txn_id_.load(std::memory_order_relaxed));
        EncodeFixed64(
            super_it->second.get() + SuperblockLayout::kCommitSeqOffset, seq);
      }
      const uint64_t log_start = wal_->size_bytes();
      for (const auto& [id, image] : state->shadows) {
        ODE_RETURN_IF_ERROR(wal_->AppendPageImage(txn, id, image.get()));
      }
      Status appended = durable_mode ? wal_->AppendCommitRecord(txn)
                                     : wal_->AppendCommit(txn);
      if (!appended.ok()) {
        // Scrub: if some records reached the file, leaving them there would
        // let a later recovery resurrect the transaction we are about to
        // roll back.
        Status scrub = wal_->TruncateTo(log_start);
        if (!scrub.ok()) {
          wedged_.store(true, std::memory_order_release);
          ODE_LOG(kError) << "commit " << txn << " failed ("
                          << appended.ToString()
                          << ") and the log scrub also failed ("
                          << scrub.ToString() << "); engine wedged";
        }
        return appended;
      }
      if (durable_mode) {
        me.seq = ++commit_seq_;
        for (auto& [id, image] : state->shadows) {
          pending_[id].push_back(
              PendingImage{me.seq, std::shared_ptr<char[]>(std::move(image))});
        }
        state->shadows.clear();
        sync_queue_.push_back(&me);
      } else {
        // kNoSync: durability is the OS's problem; publish straight to the
        // pool. Installing under the latch keeps the snapshot invariant —
        // a snapshot minted at synced_seq_ S sees either all or none of a
        // commit's pages, never a torn subset.
        ++commit_seq_;
        for (const auto& [id, image] : state->shadows) {
          pool_->Install(id, image.get());
        }
        state->shadows.clear();
        synced_seq_ = commit_seq_;
      }
      return Status::OK();
    }();
  }
  if (!logged.ok()) {
    m_commit_failures_->Add();
    if (!wedged_.load(std::memory_order_acquire)) {
      ODE_LOG(kWarn) << "commit " << txn
                     << " failed, rolled back: " << logged.ToString();
    }
    FinishTxn(state, /*committed=*/false);
    if (release_locks) locks_->ReleaseAll(txn);
    return logged;
  }

  // The commit is published: release the resources the caller asked to drop
  // at the publish point (cluster-extent locks taken for object creation).
  // Like the writer-token handoff below, this trades a sliver of pre-
  // durability exposure for insert batching; see docs/CONCURRENCY.md.
  if (publish_release != nullptr) {
    for (concur::ResourceId res : *publish_release) {
      locks_->Release(txn, res);
    }
  }

  if (durable_mode) {
    // Durability phase. The records are published; the next writer can
    // already append behind us — hand over the writer token before blocking
    // on the shared fsync so commits overlap instead of serializing on it.
    locks_->Release(txn, concur::kWriterResource);
    state->has_writer_token = false;
    Status durable = WaitForDurable(&me);
    if (!durable.ok()) {
      // The whole batch failed; the leader already scrubbed the log and
      // dropped the pending images. Degrade to an abort.
      m_commit_failures_->Add();
      ODE_LOG(kWarn) << "commit " << txn
                     << " failed, rolled back: " << durable.ToString();
      FinishTxn(state, /*committed=*/false);
      if (release_locks) locks_->ReleaseAll(txn);
      return durable;
    }
  }
  FinishTxn(state, /*committed=*/true);

  // The transaction is committed; from here on nothing may turn that into
  // an error (the caller would wrongly conclude it aborted). Maintenance
  // failures (shrink, checkpoint) are logged — recovery can always redo the
  // work from the log. The shrink takes no latch unless an Install grew.
  Status maintenance = pool_->ShrinkToCapacity();
  if (maintenance.ok() &&
      wal_->size_bytes() >= options_.checkpoint_wal_bytes) {
    if (options_.background_checkpoint) {
      // Nudge the fuzzy checkpointer and return — the commit path never
      // pays for the checkpoint, which is what keeps p99 flat under full
      // write load (docs/STORAGE.md "Fuzzy checkpoints").
      MutexLock lock(ckpt_mu_);
      ckpt_wake_ = true;
      ckpt_cv_.NotifyOne();
    } else {
      // No checkpointer thread: this session runs the same checkpoint
      // itself before returning. It tolerates other sessions' open
      // transactions, so a busy engine still bounds its log.
      maintenance = FuzzyCheckpoint();
    }
  }
  if (!maintenance.ok()) {
    ODE_LOG(kWarn) << "post-commit maintenance failed (txn " << txn
                   << " is committed): " << maintenance.ToString();
  }
  if (release_locks) locks_->ReleaseAll(txn);
  return Status::OK();
}

Status StorageEngine::WaitForDurableSeq(uint64_t seq) {
  SyncWaiter me;
  me.seq = seq;
  {
    MutexLock lock(commit_mu_);
    if (SeqDeadLocked(seq)) {
      return Status::IOError(
          "read data from a transaction whose group-commit fsync failed; "
          "rolled back");
    }
    if (seq <= synced_seq_) return Status::OK();
    sync_queue_.push_back(&me);
  }
  return WaitForDurable(&me);
}

Status StorageEngine::WaitForDurable(SyncWaiter* me) {
  const auto wait_start = std::chrono::steady_clock::now();
  commit_mu_.Lock();
  while (!me->done) {
    if (sync_active_) {
      // A leader's fsync is in flight; it (or a successor) will resolve us.
      commit_cv_.Wait(commit_mu_);
      continue;
    }
    // Become the batch leader.
    sync_active_ = true;
    if (options_.group_commit_window_us > 0) {
      // Let more committers publish and join the batch before paying for
      // the fsync. Nobody can resolve us meanwhile (we hold leadership), so
      // only the deadline ends the nap.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.group_commit_window_us);
      while (commit_cv_.WaitUntil(commit_mu_, deadline)) {
      }
    }
    const uint64_t target_seq = commit_seq_;
    const uint64_t target_off = wal_->size_bytes();
    commit_mu_.Unlock();
    Status synced = wal_->Sync();  // the one step outside the latch
    commit_mu_.Lock();
    CompleteBatchLocked(target_seq, target_off, synced);
    sync_active_ = false;
    commit_cv_.NotifyAll();
  }
  Status result = me->status;
  commit_mu_.Unlock();
  m_gc_wait_us_->Add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wait_start)
          .count()));
  return result;
}

void StorageEngine::CompleteBatchLocked(uint64_t target_seq,
                                        uint64_t target_off,
                                        const Status& synced) {
  Status verdict = Status::OK();
  if (synced.ok()) {
    PublishPendingLocked(target_seq);
    synced_seq_ = std::max(synced_seq_, target_seq);
    synced_wal_offset_ = std::max(synced_wal_offset_, target_off);
  } else {
    // The fsync failed: nothing appended since the durable prefix can be
    // trusted, including records published AFTER this leader captured its
    // target (they sit behind the same unsynced tail). Scrub the log back
    // to the durable prefix, drop every pending image, and remember the
    // dead sequence interval so transactions that read those images abort.
    Status scrub = wal_->TruncateTo(synced_wal_offset_);
    pending_.clear();
    if (commit_seq_ > synced_seq_) {
      dead_seqs_.emplace_back(synced_seq_ + 1, commit_seq_);
    }
    std::string msg = "group commit fsync failed: " + synced.ToString();
    if (!scrub.ok()) {
      wedged_.store(true, std::memory_order_release);
      msg += "; log scrub also failed (" + scrub.ToString() +
             "), engine wedged";
      ODE_LOG(kError) << msg;
    } else {
      ODE_LOG(kWarn) << msg << "; unsynced records scrubbed";
    }
    verdict = Status::IOError(msg);
  }
  // Resolve the covered waiters: on success everyone the fsync reached; on
  // failure everyone queued (all their records were just scrubbed).
  size_t batch = 0;
  for (auto it = sync_queue_.begin(); it != sync_queue_.end();) {
    SyncWaiter* w = *it;
    if (synced.ok() && w->seq > target_seq) {
      ++it;
      continue;
    }
    w->status = verdict;
    w->done = true;
    it = sync_queue_.erase(it);
    batch++;
  }
  if (synced.ok()) {
    m_gc_fsyncs_->Add();
    m_gc_commits_->Add(batch);
    m_gc_batch_size_->Add(static_cast<double>(batch));
    const uint64_t fsyncs = m_gc_fsyncs_->value();
    if (fsyncs > 0) {
      m_commits_per_fsync_->Set(
          static_cast<int64_t>(m_gc_commits_->value() / fsyncs));
    }
  }
}

void StorageEngine::PublishPendingLocked(uint64_t target_seq) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto& chain = it->second;
    size_t covered = 0;
    while (covered < chain.size() && chain[covered].seq <= target_seq) {
      covered++;
    }
    if (covered > 0) {
      // The newest covered image wins; older ones were already superseded.
      pool_->Install(it->first, chain[covered - 1].image.get());
      chain.erase(chain.begin(), chain.begin() + covered);
    }
    if (chain.empty()) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

bool StorageEngine::SeqDeadLocked(uint64_t seq) const {
  for (const auto& [lo, hi] : dead_seqs_) {
    if (seq >= lo && seq <= hi) return true;
  }
  return false;
}

bool StorageEngine::AnyDepDeadLocked(const TxnState& txn) const {
  for (uint64_t dep : txn.dep_seqs) {
    if (SeqDeadLocked(dep)) return true;
  }
  return false;
}

Status StorageEngine::AbortTxn(TxnId txn, bool release_locks) {
  TxnState* state = CurrentTxn();
  if (txn == 0 || state == nullptr || state->id != txn) {
    return Status::InvalidArgument("AbortTxn: not the active transaction");
  }
  // Shadow paging makes abort trivial: the pool never saw this
  // transaction's writes, so dropping the shadows is the whole rollback.
  FinishTxn(state, /*committed=*/false);
  if (release_locks) locks_->ReleaseAll(txn);
  return Status::OK();
}

void StorageEngine::ReleaseTxnLocks(TxnId txn) { locks_->ReleaseAll(txn); }

bool StorageEngine::in_txn() const { return CurrentTxn() != nullptr; }

TxnId StorageEngine::active_txn() const {
  TxnState* state = CurrentTxn();
  return state != nullptr ? state->id : 0;
}

size_t StorageEngine::active_txn_count() const {
  MutexLock lock(txn_mu_);
  return txns_.size();
}

Result<uint64_t> StorageEngine::MarkSnapshot() {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument("MarkSnapshot: no active transaction");
  }
  if (!state->shadows.empty() || state->has_writer_token) {
    return Status::InvalidArgument(
        "MarkSnapshot: transaction already wrote pages");
  }
  if (state->is_snapshot) return state->snapshot_seq;
  MutexLock lock(commit_mu_);
  if (structure_ops_ > 0) {
    // A structure operation (delversion/drop cluster) is physically freeing
    // storage; a snapshot minted now could resolve into it mid-flight.
    // Busy — RunReadTransaction retries once the operation finishes.
    return Status::Busy("snapshot must wait for an active structure op");
  }
  // Mint from the durable horizon: every image with seq <= synced_seq_ is
  // installed in the pool (installs and the horizon advance under this
  // latch), so the snapshot reads a consistent committed cut. Images
  // installed later carry larger stamps and are filtered by visibility.
  state->is_snapshot = true;
  state->snapshot_seq = synced_seq_;
  active_snapshots_.insert(state->snapshot_seq);
  return state->snapshot_seq;
}

Result<uint64_t> StorageEngine::MarkSnapshotAt(uint64_t seq) {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument("MarkSnapshotAt: no active transaction");
  }
  if (!state->shadows.empty() || state->has_writer_token) {
    return Status::InvalidArgument(
        "MarkSnapshotAt: transaction already wrote pages");
  }
  if (state->is_snapshot) {
    if (state->snapshot_seq != seq) {
      return Status::InvalidArgument(
          "MarkSnapshotAt: already a snapshot at a different sequence");
    }
    return seq;
  }
  MutexLock lock(commit_mu_);
  if (structure_ops_ > 0) {
    return Status::Busy("snapshot must wait for an active structure op");
  }
  if (seq > synced_seq_) {
    return Status::InvalidArgument(
        "MarkSnapshotAt: sequence beyond the durable horizon");
  }
  // Joining at `seq` must not resurrect versions GC may already have
  // reclaimed: `seq` has to sit at or above the current watermark. A
  // parallel-query coordinator guarantees this by keeping its own snapshot
  // registered at the same sequence — verified here rather than trusted.
  const uint64_t watermark =
      active_snapshots_.empty() ? synced_seq_ : *active_snapshots_.begin();
  if (seq < watermark) {
    return Status::Busy("MarkSnapshotAt: sequence below the GC watermark");
  }
  state->is_snapshot = true;
  state->snapshot_seq = seq;
  active_snapshots_.insert(seq);
  return seq;
}

uint64_t StorageEngine::SnapshotSeq() const {
  TxnState* state = CurrentTxn();
  return (state != nullptr && state->is_snapshot) ? state->snapshot_seq : 0;
}

Result<uint64_t> StorageEngine::WriteStampSeq() {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument("WriteStampSeq: no active transaction");
  }
  if (state->is_snapshot) {
    return Status::InvalidArgument(
        "WriteStampSeq: snapshot transactions are read-only");
  }
  if (state->stamp_seq != 0) return state->stamp_seq;
  // Token first: publishes are token-serialized, so commit_seq_ cannot
  // advance between the reservation and this transaction's own publish.
  ODE_RETURN_IF_ERROR(EnsureWriterToken(state));
  MutexLock lock(commit_mu_);
  state->stamp_seq = commit_seq_ + 1;
  return state->stamp_seq;
}

uint64_t StorageEngine::SnapshotWatermark() const {
  MutexLock lock(commit_mu_);
  if (!active_snapshots_.empty()) return *active_snapshots_.begin();
  return synced_seq_;
}

size_t StorageEngine::active_snapshot_count() const {
  MutexLock lock(commit_mu_);
  return active_snapshots_.size();
}

Status StorageEngine::BeginStructureOp() {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument("BeginStructureOp: no active transaction");
  }
  if (state->is_snapshot) {
    return Status::InvalidArgument(
        "BeginStructureOp: snapshot transactions are read-only");
  }
  if (state->structure_op) return Status::OK();
  MutexLock lock(commit_mu_);
  // Check and register under ONE critical section: either a snapshot exists
  // (we back off) or the barrier is up before any snapshot can mint — there
  // is no window where both proceed.
  if (!active_snapshots_.empty()) {
    return Status::Busy("structure op must wait for active snapshot readers");
  }
  state->structure_op = true;
  structure_ops_++;
  return Status::OK();
}

uint64_t StorageEngine::SyncedSeq() const {
  MutexLock lock(commit_mu_);
  return synced_seq_;
}

void StorageEngine::AwaitPublish() const { MutexLock lock(commit_mu_); }

Status StorageEngine::GetPageRead(PageId id, PageHandle* handle) {
  TxnState* state = CurrentTxn();
  if (state != nullptr) {
    auto it = state->shadows.find(id);
    if (it != state->shadows.end()) {
      *handle = PageHandle::Borrowed(id, it->second.get());
      return Status::OK();
    }
    if (state->has_writer_token) {
      // The writer token holder must see the newest COMMITTED image even if
      // its batch has not fsynced yet — the pool only gets images after
      // durability. Everyone else reads the pool (durable state only).
      MutexLock lock(commit_mu_);
      auto p = pending_.find(id);
      if (p != pending_.end() && !p->second.empty()) {
        const PendingImage& newest = p->second.back();
        state->dep_seqs.push_back(newest.seq);
        *handle = PageHandle::Shared(id, newest.image);
        return Status::OK();
      }
    }
  }
  return pool_->FetchHandle(id, handle);
}

Status StorageEngine::GetPageWrite(PageId id, PageHandle* handle) {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument("page write outside a transaction");
  }
  ODE_RETURN_IF_ERROR(EnsureWriterToken(state));
  auto it = state->shadows.find(id);
  if (it == state->shadows.end()) {
    // First touch: seed a private shadow from the newest committed image —
    // the pending group-commit overlay first (a predecessor's commit may
    // not have fsynced yet), then the pool.
    auto image = std::make_unique<char[]>(kPageSize);
    bool seeded = false;
    {
      MutexLock lock(commit_mu_);
      auto p = pending_.find(id);
      if (p != pending_.end() && !p->second.empty()) {
        const PendingImage& newest = p->second.back();
        memcpy(image.get(), newest.image.get(), kPageSize);
        state->dep_seqs.push_back(newest.seq);
        seeded = true;
      }
    }
    if (!seeded) {
      PageHandle committed;
      ODE_RETURN_IF_ERROR(pool_->FetchHandle(id, &committed));
      memcpy(image.get(), committed.data(), kPageSize);
    }
    it = state->shadows.emplace(id, std::move(image)).first;
  }
  *handle = PageHandle::Borrowed(id, it->second.get());
  return Status::OK();
}

Status StorageEngine::AllocPage(PageId* id, PageHandle* handle) {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument("page allocation outside a transaction");
  }
  // Take the writer token BEFORE reading the allocation metadata: with
  // commits batched, a predecessor's free-list update may still sit in the
  // pending overlay, which only the token holder reads through. Reading the
  // pool first could hand out a page the predecessor already allocated.
  ODE_RETURN_IF_ERROR(EnsureWriterToken(state));
  ODE_ASSIGN_OR_RETURN(uint32_t free_head,
                       ReadSuperU32(SuperblockLayout::kFreeListOffset));
  PageId page;
  if (free_head != kInvalidPageId) {
    page = free_head;
    // Pop: head = page.next (stored in the free page's first 4 bytes).
    PageHandle freed;
    ODE_RETURN_IF_ERROR(GetPageWrite(page, &freed));
    const PageId next = DecodeFixed32(freed.data());
    ODE_RETURN_IF_ERROR(WriteSuperU32(SuperblockLayout::kFreeListOffset, next));
    memset(freed.mutable_data(), 0, kPageSize);
    *id = page;
    *handle = std::move(freed);
    m_pages_allocated_->Add();
    return Status::OK();
  }
  // Extend the file.
  ODE_ASSIGN_OR_RETURN(uint32_t page_count,
                       ReadSuperU32(SuperblockLayout::kPageCountOffset));
  page = page_count;
  ODE_RETURN_IF_ERROR(
      WriteSuperU32(SuperblockLayout::kPageCountOffset, page_count + 1));
  PageHandle fresh;
  ODE_RETURN_IF_ERROR(GetPageWrite(page, &fresh));
  memset(fresh.mutable_data(), 0, kPageSize);
  *id = page;
  *handle = std::move(fresh);
  m_pages_allocated_->Add();
  return Status::OK();
}

Status StorageEngine::FreePage(PageId id) {
  TxnState* state = CurrentTxn();
  if (state == nullptr) {
    return Status::InvalidArgument("page free outside a transaction");
  }
  if (id == kSuperblockPageId || id == kInvalidPageId) {
    return Status::InvalidArgument("cannot free page " + std::to_string(id));
  }
  // Same ordering as AllocPage: token first, then read the free-list head
  // through the pending overlay.
  ODE_RETURN_IF_ERROR(EnsureWriterToken(state));
  ODE_ASSIGN_OR_RETURN(uint32_t free_head,
                       ReadSuperU32(SuperblockLayout::kFreeListOffset));
  PageHandle handle;
  ODE_RETURN_IF_ERROR(GetPageWrite(id, &handle));
  memset(handle.mutable_data(), 0, kPageSize);
  EncodeFixed32(handle.mutable_data(), free_head);
  ODE_RETURN_IF_ERROR(WriteSuperU32(SuperblockLayout::kFreeListOffset, id));
  m_pages_freed_->Add();
  return Status::OK();
}

Result<uint32_t> StorageEngine::ReadSuperU32(uint32_t offset) {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(GetPageRead(kSuperblockPageId, &handle));
  return DecodeFixed32(handle.data() + offset);
}

Result<uint64_t> StorageEngine::ReadSuperU64(uint32_t offset) {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(GetPageRead(kSuperblockPageId, &handle));
  return DecodeFixed64(handle.data() + offset);
}

Status StorageEngine::WriteSuperU32(uint32_t offset, uint32_t value) {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(GetPageWrite(kSuperblockPageId, &handle));
  EncodeFixed32(handle.mutable_data() + offset, value);
  return Status::OK();
}

Status StorageEngine::WriteSuperU64(uint32_t offset, uint64_t value) {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(GetPageWrite(kSuperblockPageId, &handle));
  EncodeFixed64(handle.mutable_data() + offset, value);
  return Status::OK();
}

Result<uint32_t> StorageEngine::Vacuum() {
  {
    MutexLock lock(txn_mu_);
    if (!txns_.empty()) {
      return Status::Busy("cannot vacuum inside a transaction");
    }
    if (vacuum_active_) {
      return Status::Busy("vacuum in progress");
    }
    vacuum_active_ = true;
    vacuum_owner_ = std::this_thread::get_id();
  }
  // From here on, only this thread can begin transactions (BeginTxn's
  // vacuum gate); clear the gate on every exit.
  struct Ungate {
    StorageEngine* e;
    ~Ungate() {
      MutexLock lock(e->txn_mu_);
      e->vacuum_active_ = false;
    }
  } ungate{this};

  // Collect the free list.
  std::vector<PageId> free_pages;
  {
    ODE_ASSIGN_OR_RETURN(uint32_t head,
                         ReadSuperU32(SuperblockLayout::kFreeListOffset));
    PageId page = head;
    while (page != kInvalidPageId) {
      free_pages.push_back(page);
      if (free_pages.size() > (1u << 26)) {
        return Status::Corruption("free list cycle during vacuum");
      }
      PageHandle handle;
      ODE_RETURN_IF_ERROR(GetPageRead(page, &handle));
      page = DecodeFixed32(handle.data());
    }
  }
  ODE_ASSIGN_OR_RETURN(uint32_t page_count,
                       ReadSuperU32(SuperblockLayout::kPageCountOffset));
  // Find the maximal free tail.
  std::set<PageId> free_set(free_pages.begin(), free_pages.end());
  uint32_t new_count = page_count;
  while (new_count > 1 && free_set.count(new_count - 1) > 0) {
    new_count--;
  }
  const uint32_t released = page_count - new_count;
  if (released == 0) return 0u;

  // Rebuild the free list without the dropped tail, inside a transaction.
  ODE_ASSIGN_OR_RETURN(TxnId txn, BeginTxn());
  Status status = [&]() -> Status {
    PageId head = kInvalidPageId;
    for (auto it = free_pages.rbegin(); it != free_pages.rend(); ++it) {
      if (*it >= new_count) continue;
      PageHandle handle;
      ODE_RETURN_IF_ERROR(GetPageWrite(*it, &handle));
      memset(handle.mutable_data(), 0, kPageSize);
      EncodeFixed32(handle.mutable_data(), head);
      head = *it;
    }
    ODE_RETURN_IF_ERROR(WriteSuperU32(SuperblockLayout::kFreeListOffset, head));
    ODE_RETURN_IF_ERROR(
        WriteSuperU32(SuperblockLayout::kPageCountOffset, new_count));
    return Status::OK();
  }();
  if (!status.ok()) {
    ODE_RETURN_IF_ERROR(AbortTxn(txn));
    return status;
  }
  ODE_RETURN_IF_ERROR(CommitTxn(txn));
  // Metadata is durable; the dropped tail is unreferenced. Make sure no
  // stale frames survive, flush, then shrink the file. (A crash between
  // commit and truncate just leaves a harmless oversized file.)
  for (PageId p = new_count; p < page_count; p++) {
    pool_->Evict(p);
  }
  ODE_RETURN_IF_ERROR(Checkpoint());
  ODE_RETURN_IF_ERROR(pager_->TruncateToPages(new_count));
  ODE_RETURN_IF_ERROR(pager_->Sync());
  return released;
}

Status StorageEngine::Checkpoint() {
  MutexLock txn_lock(txn_mu_);
  if (!txns_.empty()) {
    return Status::Busy("cannot checkpoint inside a transaction");
  }
  // No transaction is alive: committing sessions stay registered until
  // their batch resolves, so no batch is in flight and nothing is pending
  // (BeginTxn also needs txn_mu_, so no one can start while we hold it).
  MutexLock lock(commit_mu_);
  ODE_RETURN_IF_ERROR(CheckpointCriticalLocked());
  // No live transaction means no dependencies on failed batches either.
  dead_seqs_.clear();
  return Status::OK();
}

Status StorageEngine::FuzzyCheckpoint() {
  // Phase 1 — write-behind: push the dirty set out and sync without any
  // engine-wide lock held. Commits keep publishing; whatever they re-dirty
  // meanwhile is caught by the (small) residual flush in phase 2.
  size_t behind = 0;
  ODE_RETURN_IF_ERROR(pool_->FlushAll(&behind));
  ODE_RETURN_IF_ERROR(pager_->Sync());
  m_ckpt_wb_pages_->Add(behind);

  // Phase 2 — horizon reset, under the log latch. dead_seqs_ stays, unlike
  // the idle-engine checkpoint: live transactions may still hold dep_seqs
  // into failed batches, and those dependencies must keep aborting their
  // commits.
  MutexLock lock(commit_mu_);
  Status s = CheckpointCriticalLocked();
  if (s.IsBusy()) return Status::OK();  // deferred; counted already
  ODE_RETURN_IF_ERROR(s);
  m_ckpt_fuzzy_->Add();
  return Status::OK();
}

Status StorageEngine::CheckpointCriticalLocked() {
  // New publishes are excluded by the latch for the whole critical section.
  // An in-flight batch leader (out on its fsync with leadership held) gets
  // a bounded wait; if it does not resolve in time the reset is deferred —
  // waiting for the QUEUE to drain instead would never terminate under
  // sustained load, because every wait releases the latch and lets new
  // publishes in.
  const auto critical_start = std::chrono::steady_clock::now();
  const auto batch_deadline =
      critical_start + std::chrono::milliseconds(100);
  while (sync_active_) {
    if (!commit_cv_.WaitUntil(commit_mu_, batch_deadline)) break;
  }
  if (sync_active_) {
    m_ckpt_deferred_->Add();
    return Status::Busy("checkpoint deferred: a commit batch is in flight");
  }
  // Quiesce the unsynced tail ourselves, latch held: no leader is in flight
  // and publishes are excluded, so one covering fsync makes everything
  // published durable, and resolving that batch empties pending_ and the
  // queue — deterministically, without releasing the latch. (Every unsynced
  // publish has a waiter queued; a sequence gap with an empty queue is a
  // failed batch whose records were already scrubbed, so it needs no sync.)
  if (!sync_queue_.empty() || !pending_.empty()) {
    Status synced = wal_->Sync();
    CompleteBatchLocked(commit_seq_, wal_->size_bytes(), synced);
    commit_cv_.NotifyAll();  // waiters resolved above wake on their done flag
    if (!synced.ok()) return synced;  // failure path already scrubbed
  }
  // Everything published is durable and installed, or scrubbed. Persist
  // the id and publish-sequence counters: stamp them into the cached
  // superblock if they moved, so both keep advancing across a clean
  // close/reopen (MVCC version stamps on disk must never exceed a reopened
  // engine's starting commit_seq_). Then flush the residual dirty set, and
  // only then cut the log. Taking pool shard mutexes here is the
  // documented lock order (commit_mu_ before shard mutexes).
  {
    PageHandle super;
    ODE_RETURN_IF_ERROR(pool_->FetchHandle(kSuperblockPageId, &super));
    const uint64_t next = next_txn_id_.load(std::memory_order_relaxed);
    const uint64_t seq = commit_seq_;
    if (DecodeFixed64(super.data() + SuperblockLayout::kNextTxnIdOffset) !=
            next ||
        DecodeFixed64(super.data() + SuperblockLayout::kCommitSeqOffset) !=
            seq) {
      char image[kPageSize];
      memcpy(image, super.data(), kPageSize);
      EncodeFixed64(image + SuperblockLayout::kNextTxnIdOffset, next);
      EncodeFixed64(image + SuperblockLayout::kCommitSeqOffset, seq);
      pool_->Install(kSuperblockPageId, image);
    }
  }
  size_t residual = 0;
  ODE_RETURN_IF_ERROR(pool_->FlushAll(&residual));
  ODE_RETURN_IF_ERROR(pager_->Sync());
  m_ckpt_residual_->Set(static_cast<int64_t>(residual));
  ODE_RETURN_IF_ERROR(wal_->Reset());
  synced_wal_offset_ = 0;
  synced_seq_ = commit_seq_;
  m_checkpoints_->Add();
  // An empty log can no longer resurrect anything: a wedge (failed commit
  // whose partial records could not be scrubbed) is resolved.
  wedged_.store(false, std::memory_order_release);
  m_ckpt_critical_us_->Add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - critical_start)
          .count()));
  return Status::OK();
}

}  // namespace ode
