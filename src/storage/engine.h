#ifndef ODE_STORAGE_ENGINE_H_
#define ODE_STORAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "concur/lock_manager.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/status.h"

namespace ode {

/// Tuning knobs for the storage engine.
struct EngineOptions {
  size_t buffer_pool_pages = 1024;  ///< 4 MiB of cache by default.
  /// Buffer-pool shard count (docs/CONCURRENCY.md "Buffer-pool sharding"):
  /// rounded down to a power of two and clamped to [1, min(64, pool pages)].
  /// Each shard has its own latch + clock ring, so concurrent readers of
  /// unrelated pages do not contend. 8 covers typical core counts; raise it
  /// only if storage.pool contention shows up in profiles.
  size_t buffer_pool_shards = 8;
  Wal::SyncMode wal_sync = Wal::SyncMode::kSyncEveryCommit;
  /// Group-commit batching window (docs/STORAGE.md "Group commit"), in
  /// microseconds. After a committing session publishes its log records it
  /// may become the batch leader; a non-zero window makes the leader wait
  /// this long for more sessions to publish before issuing the one shared
  /// fsync. 0 never delays — the leader fsyncs immediately, still covering
  /// whatever queued while a previous fsync was in flight.
  uint64_t group_commit_window_us = 0;
  /// Checkpoint (flush pages + truncate log) once the WAL exceeds this size.
  uint64_t checkpoint_wal_bytes = 8ull << 20;
  /// Which thread runs the threshold checkpoint (docs/STORAGE.md "Fuzzy
  /// checkpoints"). Either way it is the one fuzzy checkpoint: dirty pages
  /// are written behind while commits proceed, then a short critical section
  /// under the log latch resets the horizon and truncates the WAL. On, a
  /// background thread runs it, so commits never pay for it and p99 commit
  /// latency stays flat; servers and benches turn this on. Off (the
  /// default), the commit that crosses checkpoint_wal_bytes runs it before
  /// returning, which keeps fault-injection op counts deterministic for the
  /// crash sweeps.
  bool background_checkpoint = false;
  /// Shared query worker pool size for parallel ForAll execution
  /// (docs/CONCURRENCY.md "Parallel query execution"). The engine itself
  /// does not spawn these threads — Database sizes its QueryPool from this.
  /// 0 disables intra-query parallelism (ForAll::Parallel() falls back to
  /// the serial path).
  size_t query_threads = 4;
  /// Lock-manager wait bound before a blocked acquisition gives up with
  /// Status::Busy (deadlocks are detected and reported much sooner; this is
  /// the safety net). 0 means wait forever.
  uint64_t lock_wait_timeout_ms = 10000;
  /// I/O environment for the database file and WAL; nullptr means
  /// Env::Default(). Tests inject a FaultInjectionEnv here.
  Env* env = nullptr;
  /// Metrics registry receiving the engine's `storage.*` instrument updates
  /// (and, through Database, the `txn.*` / `query.*` ones); nullptr means
  /// MetricsRegistry::Global(). Tests that assert exact counts pass their
  /// own registry here.
  MetricsRegistry* metrics = nullptr;
};

/// The transactional page store: pager + buffer pool + redo WAL + recovery,
/// shared by concurrent sessions.
///
/// Transaction model (docs/CONCURRENCY.md): any number of transactions may
/// be active at once, each bound to the thread that began it (thread-affine).
/// The buffer pool holds ONLY committed page images; a transaction's page
/// writes go to private shadow copies invisible to everyone else. The first
/// page write acquires the single global writer token (exclusively, through
/// the lock manager, so token waits participate in deadlock detection) and
/// holds it until the commit is published — writers serialize, readers run
/// concurrently against committed state. Commit appends the shadow
/// after-images plus a commit record to the WAL under a short log latch (the
/// serialization point), hands the writer token to the next writer, and then
/// waits for durability: a batch leader issues one Wal::Sync() on behalf of
/// every session that published since the last fsync (group commit — see
/// docs/STORAGE.md). Only after the shared fsync succeeds are the images
/// published into the pool; abort just drops the shadows. Opening a database
/// replays committed transactions from the log (crash recovery).
class StorageEngine {
 public:
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Opens (creating if needed) the database at `path` (the WAL lives at
  /// `path` + ".wal"). Runs crash recovery if the log is non-empty.
  static Status Open(const std::string& path, const EngineOptions& options,
                     std::unique_ptr<StorageEngine>* out);

  /// Aborts any still-active transactions, checkpoints and closes. The
  /// destructor also checkpoints best-effort.
  Status Close();

  ~StorageEngine();

  // --- Transactions -------------------------------------------------------

  /// Starts a transaction bound to the calling thread. Fails with Busy if
  /// this thread already has one (or a vacuum is running elsewhere), with
  /// IOError if a previous commit failure wedged the engine (see CommitTxn).
  Result<TxnId> BeginTxn();

  /// Durably commits the calling thread's transaction. Under
  /// SyncMode::kSyncEveryCommit the commit is group-batched: the log records
  /// are appended under the log latch, the writer token is handed to the
  /// next writer, and the session blocks until a batch leader's shared
  /// fsync covers it (docs/STORAGE.md "Group commit"). If appending the page
  /// images or the commit record fails — or the batch fsync fails — the
  /// commit degrades to an abort: the unsynced log records are scrubbed, the
  /// page images are dropped, and the engine stays usable (the error is
  /// still returned; every session in a failed batch gets it). Only if the
  /// scrub itself also fails — the log may then still hold the dead
  /// transactions' records — does the engine wedge itself: further
  /// transactions are refused until a Checkpoint manages to truncate the
  /// log.
  ///
  /// `release_locks=false` keeps the transaction's locks held after the
  /// engine-level commit: the core layer finishes its own post-commit work
  /// (catalog handling) under them and then calls ReleaseTxnLocks().
  ///
  /// `publish_release` (optional) names lock-manager resources to release at
  /// the PUBLISH point — right after the writer-token handoff, before the
  /// durability wait — the same early-release discipline as the writer token
  /// itself. The core layer passes cluster-extent locks taken only for
  /// object creation here so insert-heavy workloads batch their fsyncs
  /// instead of serializing on X(cluster) across the durability wait.
  Status CommitTxn(TxnId txn, bool release_locks = true,
                   const std::vector<concur::ResourceId>* publish_release =
                       nullptr);

  /// Drops the calling thread's transaction's shadow pages. Same
  /// `release_locks` contract as CommitTxn.
  Status AbortTxn(TxnId txn, bool release_locks = true);

  /// Releases the calling thread's transaction binding WITHOUT ending the
  /// transaction, so another thread can adopt it with AttachTxn. The
  /// transaction keeps its locks, shadow pages and id; until someone
  /// attaches it, no thread can operate on it. This is the session-migration
  /// primitive behind the network server: a connection's transaction hops
  /// between pool workers, one request at a time (docs/SERVER.md).
  /// InvalidArgument if the calling thread has no transaction here.
  Status DetachTxn();

  /// Adopts a previously detached transaction on the calling thread. Busy if
  /// this thread already has a transaction or if `txn` is currently attached
  /// elsewhere; NotFound if the id is not an active transaction. The
  /// detaching thread's writes happen-before the attaching thread's reads
  /// (both sides synchronize on the transaction table mutex).
  Status AttachTxn(TxnId txn);

  /// Releases every lock `txn` holds (for callers that committed/aborted
  /// with release_locks=false).
  void ReleaseTxnLocks(TxnId txn);

  /// True if the CALLING THREAD has an active transaction on this engine.
  bool in_txn() const;
  /// The calling thread's transaction id, or 0.
  TxnId active_txn() const;
  /// Transactions active across all threads.
  size_t active_txn_count() const;

  // --- MVCC snapshots (docs/CONCURRENCY.md "MVCC snapshot reads") ----------

  /// Turns the calling thread's transaction into a snapshot reader: mints a
  /// snapshot sequence from the durable publish horizon (everything with
  /// commit_seq <= the minted value is installed in the pool) and registers
  /// it in the active-snapshot set that gates version GC. The transaction
  /// must not have written anything. Returns the snapshot sequence.
  Result<uint64_t> MarkSnapshot();

  /// Registers the calling thread's transaction as a snapshot reader at the
  /// GIVEN sequence instead of minting a fresh horizon — the primitive
  /// behind parallel query workers, which must all read the exact cut their
  /// coordinator minted (docs/CONCURRENCY.md "Parallel query execution").
  /// `seq` must be at or below the durable horizon and at or above the GC
  /// watermark; the caller guarantees the latter by keeping the coordinator
  /// snapshot registered (its entry pins the watermark at or below `seq`).
  /// Busy if a structure op is active or the watermark has moved past `seq`.
  Result<uint64_t> MarkSnapshotAt(uint64_t seq);

  /// The calling thread's transaction's snapshot sequence, or 0 if it is not
  /// a snapshot reader.
  uint64_t SnapshotSeq() const;

  /// The write stamp for the calling thread's transaction: the publish
  /// sequence its commit WILL get. Acquires the writer token first (may
  /// return Deadlock/Busy); the token serializes publishes, so the reserved
  /// value is exact. The objstore stamps this into object-table entries so
  /// snapshot readers can resolve visibility.
  Result<uint64_t> WriteStampSeq();

  /// Oldest snapshot sequence still in use by an active snapshot reader, or
  /// the current durable horizon when none are active. Versions whose
  /// successor committed at or before this watermark are invisible to every
  /// present and future snapshot and may be garbage-collected.
  uint64_t SnapshotWatermark() const;

  /// Active snapshot readers across all threads (DDL-style operations that
  /// physically free pages check this before proceeding).
  size_t active_snapshot_count() const;

  /// Registers the calling thread's transaction as a STRUCTURE OPERATION —
  /// one that physically frees storage other readers might still resolve
  /// (delversion, drop cluster). Fails with Busy if any snapshot reader is
  /// active; on success, MarkSnapshot returns Busy until this transaction
  /// finishes. The check and the barrier registration happen under one
  /// critical section, so a racing snapshot begin can never observe the
  /// operation mid-flight (the delversion TOCTOU fix — see
  /// docs/CONCURRENCY.md). Idempotent within a transaction.
  Status BeginStructureOp();

  /// Highest publish sequence whose page images are installed in the pool
  /// (the durable horizon snapshot sequences are minted from).
  uint64_t SyncedSeq() const;

  /// Returns once no commit is part-way through installing its page images
  /// in the pool (installs run under the log latch, one page at a time). A
  /// lock-free snapshot walk that met a half-installed commit calls this
  /// before walking again.
  void AwaitPublish() const;

  // --- Page access ---------------------------------------------------------

  /// A readable view of `id`: the calling transaction's shadow copy if it
  /// has one, else the committed image (shared-ownership handle — stays
  /// valid across concurrent commits).
  Status GetPageRead(PageId id, PageHandle* handle);

  /// A writable view of `id` in the calling thread's transaction: a private
  /// shadow copy seeded from the committed image on first touch. Acquires
  /// the global writer token first (may return Deadlock/Busy).
  Status GetPageWrite(PageId id, PageHandle* handle);

  /// Allocates a page (free list first, then file extension) within the
  /// calling thread's transaction and returns it as a writable shadow,
  /// zero-filled.
  Status AllocPage(PageId* id, PageHandle* handle);

  /// Returns `id` to the free list within the calling thread's transaction.
  Status FreePage(PageId id);

  // --- Superblock fields ---------------------------------------------------

  Result<uint32_t> ReadSuperU32(uint32_t offset);
  Result<uint64_t> ReadSuperU64(uint32_t offset);
  Status WriteSuperU32(uint32_t offset, uint32_t value);  ///< Needs a txn.
  Status WriteSuperU64(uint32_t offset, uint64_t value);  ///< Needs a txn.

  // --- Maintenance ---------------------------------------------------------

  /// Flushes all committed dirty pages, syncs the db file, truncates the WAL:
  /// the checkpoint critical section run on an idle engine (Close, Vacuum,
  /// tools). Fails with Busy while any transaction is active. Also forgets
  /// failed group-commit batches, since no transaction can depend on them.
  Status Checkpoint();

  /// Fuzzy (incremental) checkpoint — docs/STORAGE.md "Fuzzy checkpoints".
  /// Phase 1 writes the dirty set behind and syncs the db file with NO
  /// engine-wide lock held, so commits keep publishing. Phase 2 takes the
  /// log latch for the checkpoint critical section: a bounded wait for any
  /// in-flight group-commit batch, a flush of the (small) residual dirty
  /// set, then the horizon reset and WAL truncation. Unlike Checkpoint(),
  /// runs with transactions active: their shadow pages are private and
  /// their publishes are excluded by the latch. If a batch stays in flight
  /// past the bound the reset is deferred (OK is returned;
  /// storage.checkpoint.deferred counts it). dead_seqs_ is kept — live
  /// transactions may still hold dependencies into failed batches. A commit
  /// that crosses checkpoint_wal_bytes runs this (inline, or on the
  /// background thread — EngineOptions::background_checkpoint).
  Status FuzzyCheckpoint();

  /// Reclaims trailing free pages: unlinks every free page at the end of
  /// the file from the free list, commits the shrunken metadata, checkpoints
  /// and truncates the file. Returns the number of pages released. Fails
  /// with Busy while any transaction is active; other threads cannot begin
  /// one until it finishes.
  Result<uint32_t> Vacuum();

  /// Test hook: drops the engine as a crash would — no checkpoint, no page
  /// write-back. Committed state only survives via WAL recovery on reopen.
  /// (The background checkpointer, if any, is joined first so it cannot
  /// write pages after the "crash".)
  void SimulateCrash();

  BufferPool& buffer_pool() { return *pool_; }
  Wal& wal() { return *wal_; }
  concur::LockManager& lock_manager() { return *locks_; }
  const std::string& path() const { return path_; }
  /// The registry this engine reports into (resolved from
  /// EngineOptions::metrics; never null).
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  StorageEngine(std::string path, std::unique_ptr<Pager> pager,
                std::unique_ptr<Wal> wal, const EngineOptions& options);

  /// Per-transaction private state. Owned by txns_; the owning thread also
  /// reaches it lock-free through a thread-local binding keyed by this
  /// engine's globally-unique generation (so a reopened engine landing at a
  /// recycled heap address can never match a stale binding).
  struct TxnState {
    TxnId id = 0;
    std::thread::id owner;
    /// True between DetachTxn and AttachTxn: no thread is bound to this
    /// transaction and any thread may adopt it.
    bool detached = false;
    /// Private copies of every page this transaction wrote. std::map so
    /// commit logs images in page order (deterministic WAL layout).
    std::map<PageId, std::unique_ptr<char[]>> shadows;
    bool has_writer_token = false;
    /// Reserved publish sequence (WriteStampSeq), 0 if never asked for. The
    /// writer token pins it: no other publish can intervene, so the commit's
    /// me.seq is guaranteed to equal it.
    uint64_t stamp_seq = 0;
    /// Snapshot-reader state (MarkSnapshot): the minted sequence. Only
    /// meaningful when is_snapshot is set (a fresh database mints seq 0).
    bool is_snapshot = false;
    uint64_t snapshot_seq = 0;
    /// Set by BeginStructureOp: this transaction blocks new snapshots until
    /// it finishes (structure_ops_ is decremented in FinishTxn).
    bool structure_op = false;
    /// Commit sequence numbers of every appended-but-not-yet-synced image
    /// this transaction read or seeded a shadow from (see pending_). If any
    /// of them lands in a failed batch, this transaction read data that
    /// never became durable and its own commit must degrade to an abort.
    std::vector<uint64_t> dep_seqs;
  };

  /// The calling thread's transaction on THIS engine, or nullptr.
  TxnState* CurrentTxn() const;
  void BindTls(TxnState* txn) const;
  void UnbindTls() const;

  /// Acquires the global writer token for `txn` if not yet held.
  Status EnsureWriterToken(TxnState* txn);

  /// Removes `txn` from txns_ (txn_mu_ taken internally), updates stats, and
  /// unbinds the calling thread's binding. Does NOT release locks.
  void FinishTxn(TxnState* txn, bool committed);

  /// The checkpoint critical section (docs/STORAGE.md "Fuzzy checkpoints"),
  /// shared by Checkpoint() and FuzzyCheckpoint(): a bounded wait for an
  /// in-flight group-commit batch, a covering fsync of the unsynced tail,
  /// the id/sequence stamp into the superblock, a flush of the dirty set, a
  /// db-file sync and the WAL reset. Returns Busy without touching anything
  /// (and counts storage.checkpoint.deferred) if a batch stays in flight
  /// past the bound. Leaves dead_seqs_ to the caller.
  Status CheckpointCriticalLocked() REQUIRES(commit_mu_);

  /// Background checkpointer (EngineOptions::background_checkpoint): sleeps
  /// until CommitTxn observes the WAL past checkpoint_wal_bytes and nudges
  /// it, then runs FuzzyCheckpoint.
  void CheckpointerMain();
  /// Signals the checkpointer to exit and joins it. Idempotent; called from
  /// Close(), SimulateCrash() and the destructor.
  void StopCheckpointer();

  // --- Group commit (docs/STORAGE.md "Group commit") -----------------------

  /// A committed-but-unsynced page image, tagged with the publish sequence
  /// of the commit it belongs to. Chains per page live in pending_ in
  /// ascending seq order; the newest covered entry wins at publish time.
  struct PendingImage {
    uint64_t seq = 0;
    std::shared_ptr<char[]> image;
  };

  /// A committing session's slot in the durability queue. Stack-allocated in
  /// CommitTxn; the leader fills status/done for every waiter its fsync
  /// covered (or killed) and notifies commit_cv_.
  struct SyncWaiter {
    uint64_t seq = 0;
    bool done = false;
    Status status;
  };

  /// Blocks until `me` (already registered in sync_queue_) is resolved,
  /// electing this thread batch leader whenever no fsync is in flight.
  Status WaitForDurable(SyncWaiter* me);

  /// Read-only-with-dependencies commits: waits until publish sequence `seq`
  /// is durable (or its batch failed). Registers its own waiter.
  Status WaitForDurableSeq(uint64_t seq);

  /// Leader epilogue: on success installs pending images up to `target_seq`
  /// into the pool and advances the synced horizon; on failure scrubs every
  /// unsynced record off the log, clears pending_, and records the dead
  /// sequence interval. Resolves and dequeues the covered waiters either way.
  void CompleteBatchLocked(uint64_t target_seq, uint64_t target_off,
                           const Status& synced) REQUIRES(commit_mu_);

  void PublishPendingLocked(uint64_t target_seq) REQUIRES(commit_mu_);

  /// True if `seq` belongs to a batch whose fsync failed (data scrubbed).
  bool SeqDeadLocked(uint64_t seq) const REQUIRES(commit_mu_);
  bool AnyDepDeadLocked(const TxnState& txn) const REQUIRES(commit_mu_);

  std::string path_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<concur::LockManager> locks_;
  EngineOptions options_;
  /// Globally unique per engine instance (see TxnState).
  const uint64_t gen_;

  /// The log latch: serializes WAL appends/truncation and guards the
  /// group-commit state below. Held only for short critical sections — the
  /// leader's fsync itself runs with the latch dropped. Lock order:
  /// txn_mu_ before commit_mu_ before pool shard mutexes; never the reverse.
  mutable Mutex commit_mu_;
  CondVar commit_cv_;
  /// True while a batch leader's fsync is in flight (leadership token).
  bool sync_active_ GUARDED_BY(commit_mu_) = false;
  /// Publish sequence of the most recent durable-mode commit appended to the
  /// log; 0 before any. Monotone, never reset (survives checkpoints).
  uint64_t commit_seq_ GUARDED_BY(commit_mu_) = 0;
  /// Highest publish sequence known durable.
  uint64_t synced_seq_ GUARDED_BY(commit_mu_) = 0;
  /// Log length in bytes known durable; a failed batch truncates back here.
  uint64_t synced_wal_offset_ GUARDED_BY(commit_mu_) = 0;
  /// Committed-but-unsynced page images, per page in ascending seq order.
  /// The writer token holder reads through this overlay (it must see the
  /// newest committed image even before the fsync lands); everyone else
  /// sees only the pool, i.e. only durable state.
  std::unordered_map<PageId, std::vector<PendingImage>> pending_
      GUARDED_BY(commit_mu_);
  /// Sessions between publish and durability, in publish order.
  std::deque<SyncWaiter*> sync_queue_ GUARDED_BY(commit_mu_);
  /// Closed [lo, hi] publish-sequence intervals of failed batches. Commits
  /// whose dep_seqs intersect these read never-durable data and must abort.
  /// Cleared by Checkpoint() (no transactions alive, so no deps either).
  std::vector<std::pair<uint64_t, uint64_t>> dead_seqs_ GUARDED_BY(commit_mu_);
  /// Snapshot sequences of active snapshot readers (multiset: several
  /// snapshots can mint the same horizon). Min = the GC watermark.
  std::multiset<uint64_t> active_snapshots_ GUARDED_BY(commit_mu_);
  /// Active structure operations (BeginStructureOp): while nonzero, new
  /// snapshots are refused with Busy. Shares commit_mu_ with
  /// active_snapshots_ so check-and-register is one critical section.
  size_t structure_ops_ GUARDED_BY(commit_mu_) = 0;

  /// Background-checkpointer handshake. ckpt_mu_ is a leaf lock (never held
  /// while taking txn_mu_/commit_mu_/shard mutexes): CommitTxn only sets the
  /// wake flag under it, and the checkpointer drops it before running
  /// FuzzyCheckpoint.
  Mutex ckpt_mu_;
  CondVar ckpt_cv_;
  bool ckpt_stop_ GUARDED_BY(ckpt_mu_) = false;
  bool ckpt_wake_ GUARDED_BY(ckpt_mu_) = false;
  std::thread checkpointer_;

  mutable Mutex txn_mu_;  ///< Guards txns_, vacuum gate, checkpoint gate.
  std::unordered_map<TxnId, std::unique_ptr<TxnState>> txns_
      GUARDED_BY(txn_mu_);
  std::atomic<TxnId> next_txn_id_{1};
  bool vacuum_active_ GUARDED_BY(txn_mu_) = false;
  std::thread::id vacuum_owner_ GUARDED_BY(txn_mu_);

  MetricsRegistry* metrics_;  // resolved, never null
  // Engine instruments (storage.engine.*, docs/OBSERVABILITY.md).
  Counter* m_txn_begins_;
  Counter* m_txn_commits_;
  Counter* m_txn_aborts_;
  Counter* m_commit_failures_;
  Counter* m_checkpoints_;
  Counter* m_pages_allocated_;
  Counter* m_pages_freed_;
  Gauge* m_active_txns_;
  // Group-commit instruments (storage.wal.group_commit.*, txn.*).
  Histogram* m_gc_batch_size_;   ///< commits resolved per successful fsync
  Histogram* m_gc_wait_us_;      ///< per-session durability wait
  Counter* m_gc_fsyncs_;         ///< successful batch fsyncs
  Counter* m_gc_commits_;        ///< commits made durable by batch fsyncs
  Gauge* m_commits_per_fsync_;   ///< txn.commits_per_fsync (derived ratio)
  // Fuzzy-checkpoint instruments (storage.checkpoint.*).
  Counter* m_ckpt_fuzzy_;        ///< fuzzy checkpoints completed
  Counter* m_ckpt_deferred_;     ///< horizon resets deferred (batch in flight)
  Counter* m_ckpt_wb_pages_;     ///< pages written behind (phase 1)
  Histogram* m_ckpt_critical_us_;///< phase-2 critical-section length
  Gauge* m_ckpt_residual_;       ///< pages flushed inside the last critical
                                 ///< section (must stay small for flat p99)
  bool closed_ = false;
  /// A failed commit could not scrub its partial WAL records; replaying them
  /// after more commits could resurrect a rolled-back transaction, so the
  /// engine refuses new transactions until a checkpoint empties the log.
  std::atomic<bool> wedged_{false};
};

}  // namespace ode

#endif  // ODE_STORAGE_ENGINE_H_
