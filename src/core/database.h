#ifndef ODE_CORE_DATABASE_H_
#define ODE_CORE_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concur/session_manager.h"
#include "concur/trigger_executor.h"
#include "core/constraint.h"
#include "core/options.h"
#include "core/ref.h"
#include "core/trigger.h"
#include "objstore/object_store.h"
#include "query/index_manager.h"
#include "query/parallel.h"
#include "schema/catalog.h"
#include "schema/type_registry.h"
#include "storage/engine.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"

namespace ode {

class Transaction;

/// An ODE database: persistent objects grouped into per-type clusters,
/// accessed and manipulated inside transactions (paper §1–2). This is the
/// C++ embedding of what O++ source compiles down to; the `oppc` translator
/// (src/opp) emits calls against this API.
///
/// Thread model (docs/CONCURRENCY.md): any number of threads may call
/// Begin()/RunTransaction() concurrently; each transaction is bound to the
/// thread that began it and has a private object cache. Isolation is strict
/// two-phase locking through the engine's lock manager (shared/exclusive
/// locks at object, cluster and schema granularity), with deadlock detection
/// — the victim's transaction fails with Status::Deadlock and
/// RunTransaction retries it. The paper itself defers concurrency ("any O++
/// program ... will be considered to be a single transaction"); this is the
/// natural multi-session extension.
class Database {
 public:
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  ~Database();

  /// Opens (creating if necessary) the database at `path`; runs crash
  /// recovery if needed and loads the catalog.
  static Status Open(const std::string& path, const DatabaseOptions& options,
                     std::unique_ptr<Database>* out);

  /// Checkpoints and closes.
  Status Close();

  // --- Transactions --------------------------------------------------------

  /// Starts a transaction bound to the calling thread. At most one can be
  /// open per thread; any number of threads may each have one.
  Result<std::unique_ptr<Transaction>> Begin();

  /// Starts a read-only MVCC snapshot transaction: reads resolve against
  /// the commit sequence current at this call, take no object/cluster/index
  /// locks, and never block or abort on concurrent writers. All mutating
  /// operations fail with InvalidArgument (docs/CONCURRENCY.md "MVCC
  /// snapshot reads").
  Result<std::unique_ptr<Transaction>> BeginSnapshot();

  /// BeginSnapshot at an EXISTING snapshot sequence instead of minting a
  /// fresh one: the new transaction reads the exact same cut as the
  /// transaction that minted `seq`. Parallel ForAll workers join their
  /// coordinator's snapshot this way, so every worker resolves every object
  /// identically. `seq` must belong to a still-active snapshot (or at least
  /// lie at or above the GC watermark) — Busy otherwise.
  ///
  /// Contract: the minting transaction must stay open for the whole life of
  /// the joined transaction. Joiners skip the per-transaction schema lock
  /// and rely on the coordinator's (see Transaction::StartSnapshotAt).
  Result<std::unique_ptr<Transaction>> BeginSnapshotAt(uint64_t seq);

  /// RunTransaction's read-only sibling: runs `body` in a snapshot
  /// transaction, retrying Busy (e.g. a scan that raced a version-GC
  /// publish) like RunTransaction retries deadlock victims.
  Status RunReadTransaction(const std::function<Status(Transaction&)>& body);

  /// Runs `body` in a transaction: commit on OK, abort on error. The commit
  /// itself can fail (e.g. ConstraintViolation), which also aborts. If the
  /// transaction loses a deadlock or times out on a lock, the whole body is
  /// retried up to DatabaseOptions::max_txn_retries times with jittered
  /// backoff (counted in txn.deadlock_retries).
  Status RunTransaction(const std::function<Status(Transaction&)>& body);

  /// The calling thread's open transaction, if any (used by
  /// Ref<T>::operator->).
  Transaction* active_txn() const { return sessions_.Current(); }

  // --- Session migration (the network server, docs/SERVER.md) --------------

  /// Unbinds the calling thread's open transaction WITHOUT ending it: the
  /// engine TLS binding and the session-map entry are released while the
  /// transaction keeps its locks, caches and id. Until AttachSession adopts
  /// it on some thread, no thread may operate on it. InvalidArgument if
  /// `txn` is not the calling thread's open transaction.
  Status DetachSession(Transaction* txn);

  /// Adopts a transaction detached by DetachSession on the calling thread;
  /// the pair lets a server worker pool service one connection's transaction
  /// across many requests, one worker at a time. Busy if the calling thread
  /// already has a transaction or `txn` is attached elsewhere.
  Status AttachSession(Transaction* txn);

  // --- Clusters (paper §2.5) -----------------------------------------------

  /// The paper's `create(T)`: creates the cluster (type extent) for T.
  /// Runs in the active transaction, or its own if none is open.
  template <typename T>
  Status CreateCluster();

  template <typename T>
  bool HasCluster() const {
    return catalog_.FindClusterByType(TypeNameOf<T>()) != nullptr;
  }

  template <typename T>
  Result<ClusterId> ClusterOf() const {
    return ClusterIdForName(TypeNameOf<T>());
  }

  Result<ClusterId> ClusterIdForName(const std::string& type_name) const;

  // --- Constraints (paper §5) ----------------------------------------------

  /// Attaches a named constraint to class T. Applies to T and all derived
  /// classes; checked on the write set at commit.
  template <typename T>
  void RegisterConstraint(const std::string& name,
                          std::function<bool(const T&)> pred) {
    constraints_.Add(TypeNameOf<T>(), name, [pred = std::move(pred)](
                                                const void* obj) {
      return pred(*static_cast<const T*>(obj));
    });
  }

  // --- Triggers (paper §6) ---------------------------------------------------

  /// Registers the (condition, action) code of a class-level trigger
  /// definition. Activations referencing it are created per object with
  /// Transaction::ActivateTrigger and persist in the database.
  template <typename T>
  void DefineTrigger(
      const std::string& name,
      std::function<bool(const T&, const std::vector<double>&)> condition,
      std::function<Status(Transaction&, Ref<T>, const std::vector<double>&)>
          action,
      bool perpetual_default = false);

  /// Executes firings deferred by run_triggers_on_commit=false.
  Status RunPendingTriggers();

  size_t pending_trigger_count() const {
    MutexLock lock(pending_mu_);
    return pending_firings_.size();
  }

  /// Blocks until every trigger action queued to the async executor has
  /// finished (no-op when trigger_executor_threads == 0).
  void DrainTriggers();

  // --- Indexes ---------------------------------------------------------------

  /// Creates a persistent secondary index on cluster T. `key_fn` returns the
  /// encoded user key (see index_key.h). Existing objects are backfilled.
  /// Runs in the active transaction, or its own if none is open.
  template <typename T>
  Status CreateIndex(const std::string& name,
                     std::function<std::string(const T&)> key_fn);

  /// Re-attaches extractor code to a persisted index after re-open.
  template <typename T>
  void AttachIndexExtractor(const std::string& name,
                            std::function<std::string(const T&)> key_fn) {
    indexes_->RegisterExtractor(
        name, [key_fn = std::move(key_fn)](const void* obj) {
          return key_fn(*static_cast<const T*>(obj));
        });
  }

  Status DropIndex(const std::string& name);

  /// Reclaims trailing free pages, shrinking the database file (storage
  /// maintenance; must be called outside a transaction). Returns the number
  /// of 4 KiB pages released.
  Result<uint32_t> Vacuum() { return engine_->Vacuum(); }

  /// Online backup: checkpoints (so the page file is self-contained, WAL
  /// empty) and copies it to `path`. The copy opens as a normal database.
  /// Must be called outside a transaction.
  Status BackupTo(const std::string& path);

  /// Totals from one CollectVersionGarbage pass.
  struct GcTotals {
    uint64_t objects_reclaimed = 0;
    uint64_t versions_reclaimed = 0;
    uint64_t index_entries_reclaimed = 0;  ///< Dead versioned index entries.
    uint64_t pages_reclaimed = 0;  ///< Entry pages freed (mass-delete slack).
    uint64_t clusters = 0;         ///< Clusters swept.
    uint64_t indexes = 0;          ///< Indexes swept.
  };

  /// Reclaims MVCC debris — tombstoned objects, retained pre-update images
  /// and superseded versioned index entries no active or future snapshot
  /// can see (watermark = oldest active snapshot sequence, else the durable
  /// commit sequence). Sweeps each cluster in its own write transaction
  /// under an exclusive cluster lock (freeing fully-vacated trailing entry
  /// pages), then each index under an exclusive index lock. Must be called
  /// outside a transaction; explicit newversion history is never touched.
  /// Runs off the commit path — on demand here, or periodically on the
  /// background GC thread when DatabaseOptions::gc_interval_ms > 0.
  Status CollectVersionGarbage(GcTotals* totals = nullptr);

  // --- Internal plumbing (used by Transaction/ForAll; stable but not part
  // --- of the end-user surface) ----------------------------------------------

  /// Registry instruments for the core/query hot paths, resolved once at
  /// Open so per-row increments are a pointer deref + relaxed add (metric
  /// catalog: docs/OBSERVABILITY.md).
  struct CoreMetrics {
    Histogram* commit_us;            ///< txn.commit_us — full Commit() latency
    Counter* constraint_checks;      ///< txn.constraint_checks
    Counter* constraint_violations;  ///< txn.constraint_violations
    Counter* trigger_firings;        ///< txn.trigger_firings
    Counter* trigger_failures;       ///< trigger.failures — firings whose
                                     ///< action transaction ultimately failed
                                     ///< (shared with the async executor)
    Counter* cache_evictions;        ///< txn.cache_evictions
    Counter* deadlock_retries;       ///< txn.deadlock_retries — RunTransaction
                                     ///< re-runs after Deadlock/Busy
    Counter* scans;                  ///< query.scans — full-cluster ForAll runs
    Counter* index_scans;            ///< query.index_scans — indexed ForAll runs
    Counter* oid_list_scans;         ///< query.oid_list_scans — OverOids runs
    Counter* rows_scanned;           ///< query.rows_scanned
    Counter* rows_returned;          ///< query.rows_returned
    Histogram* pool_fetches_per_row; ///< query.pool_fetches_per_row — pool
                                     ///< fetches per row scanned, one sample
                                     ///< per ForAll execution
    Counter* parallel_scans;         ///< query.parallel.scans — ForAll runs
                                     ///< that executed the morsel-parallel
                                     ///< scan path
    Counter* parallel_morsels;       ///< query.parallel.morsels — entry-range
                                     ///< morsels claimed by pool workers
    Counter* parallel_fallbacks;     ///< query.parallel.fallbacks — Parallel()
                                     ///< requests that ran serially (not a
                                     ///< snapshot txn, indexed path, or no
                                     ///< pool)
    Counter* join_nested_loop;       ///< query.join.nested_loop — runs
    Counter* join_index;             ///< query.join.index — runs
    Counter* join_hash;              ///< query.join.hash — runs
    Counter* join_pairs;             ///< query.join.pairs — pairs emitted
    Counter* snapshot_reads;         ///< concur.snapshot.reads — lock-free
                                     ///< MVCC object reads by snapshot txns
    Counter* lock_escalations;       ///< concur.lock.escalations — object→
                                     ///< cluster lock escalations
    Counter* gc_objects_reclaimed;   ///< mvcc.gc.objects_reclaimed
    Counter* gc_versions_reclaimed;  ///< mvcc.gc.versions_reclaimed
    Counter* gc_index_entries_reclaimed;  ///< mvcc.gc.index_entries_reclaimed
    Counter* gc_pages_reclaimed;     ///< mvcc.gc.pages_reclaimed — entry
                                     ///< pages freed by the GC slack sweep
  };

  /// The registry this database reports into (EngineOptions::metrics, or
  /// the process-global one).
  MetricsRegistry& metrics() { return engine_->metrics(); }
  const CoreMetrics& core_metrics() const { return core_metrics_; }

  StorageEngine& engine() { return *engine_; }
  ObjectStore& store() { return *store_; }
  /// Shared worker pool for parallel ForAll scans; nullptr when
  /// EngineOptions::query_threads == 0.
  QueryPool* query_pool() { return query_pool_.get(); }
  CatalogData& catalog() { return catalog_; }
  const CatalogData& catalog() const { return catalog_; }
  IndexManager& indexes() { return *indexes_; }
  ConstraintRegistry& constraints() { return constraints_; }
  TriggerRegistry& triggers() { return triggers_; }
  const DatabaseOptions& options() const { return options_; }

  /// Persists the catalog inside the active transaction.
  Status SaveCatalog();
  /// Re-reads the catalog from disk (after an abort).
  Status ReloadCatalog();

  /// Assigns (persisting) a stable type code for `type_name` if absent.
  Result<uint32_t> EnsureTypeCode(const std::string& type_name);
  Result<std::string> TypeNameByCode(uint32_t code) const;

  /// Object-table root for a cluster.
  Result<PageId> TableRootOf(ClusterId cluster) const;

  /// Fresh persistent trigger id (inside the active transaction).
  Result<uint64_t> NextTriggerId();

  /// A scheduled trigger firing awaiting execution.
  struct Firing {
    const TriggerRegistry::Definition* def;
    uint64_t trigger_id;
    Oid oid;
    std::vector<double> params;
    int depth = 0;  ///< Cascade depth (firings fired by firings).
  };

  /// Runs each firing as an independent transaction (weak coupling, §6) —
  /// synchronously, or through the async executor when
  /// trigger_executor_threads > 0.
  void ExecuteFirings(std::vector<Firing> firings);

  /// Test hook: abandons the database as a crash would (no checkpoint; the
  /// WAL is recovered on the next Open).
  void SimulateCrash() {
    closed_ = true;
    engine_->SimulateCrash();
  }

 private:
  friend class Transaction;

  Database(const DatabaseOptions& options,
           std::unique_ptr<StorageEngine> engine);

  /// Runs `fn` inside the calling thread's transaction if one is open, else
  /// inside a fresh one (used by schema conveniences).
  Status InTransaction(const std::function<Status(Transaction&)>& fn);

  /// Runs one firing as its own transaction, retrying Deadlock/Busy up to
  /// `max_retries` (the async executor path passes trigger_max_retries).
  Status RunOneFiring(const Firing& firing);

  /// Background GC loop (gc_interval_ms > 0): sleeps the interval, runs
  /// CollectVersionGarbage, repeats until StopGcThread. Busy results (a
  /// session was active) are expected and ignored — the next tick retries.
  void GcThreadMain();
  void StartGcThread();
  void StopGcThread();

  DatabaseOptions options_;
  std::unique_ptr<StorageEngine> engine_;
  CoreMetrics core_metrics_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<IndexManager> indexes_;
  /// Parallel-query worker pool (EngineOptions::query_threads); torn down
  /// in Close() before the engine so no worker outlives the storage layer.
  std::unique_ptr<QueryPool> query_pool_;
  CatalogData catalog_;
  ConstraintRegistry constraints_;
  TriggerRegistry triggers_;
  /// Thread → its open transaction (thread-affine sessions).
  mutable concur::SessionManager<Transaction> sessions_;
  /// Async trigger daemon; null when trigger_executor_threads == 0.
  std::unique_ptr<concur::TriggerExecutor> trigger_exec_;
  mutable Mutex pending_mu_;
  std::vector<Firing> pending_firings_ GUARDED_BY(pending_mu_);
  /// Background version-GC thread (DatabaseOptions::gc_interval_ms).
  std::thread gc_thread_;
  Mutex gc_mu_;
  CondVar gc_cv_;
  bool gc_stop_ GUARDED_BY(gc_mu_) = false;
  bool closed_ = false;
};

template <typename T>
void Database::DefineTrigger(
    const std::string& name,
    std::function<bool(const T&, const std::vector<double>&)> condition,
    std::function<Status(Transaction&, Ref<T>, const std::vector<double>&)>
        action,
    bool perpetual_default) {
  TriggerRegistry::Definition def;
  def.type_name = TypeNameOf<T>();
  def.trigger_name = name;
  def.perpetual_default = perpetual_default;
  def.condition = [condition = std::move(condition)](
                      const void* obj, const std::vector<double>& params) {
    return condition(*static_cast<const T*>(obj), params);
  };
  def.action = [this, action = std::move(action)](
                   Transaction& txn, Oid oid,
                   const std::vector<double>& params) {
    return action(txn, Ref<T>(this, oid), params);
  };
  triggers_.Define(std::move(def));
}

}  // namespace ode

#endif  // ODE_CORE_DATABASE_H_
