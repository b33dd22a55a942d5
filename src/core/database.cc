#include "core/database.h"

#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "core/transaction.h"
#include "util/logging.h"

namespace ode {

namespace {

/// Jittered exponential backoff before retrying a deadlock/timeout victim:
/// uniformly random in [base/2, base] where base doubles per attempt,
/// starting at 1 ms and capped at 32 ms. Jitter desynchronizes rivals that
/// deadlocked against each other so the retry does not re-create the cycle.
void BackoffBeforeRetry(int attempt) {
  static thread_local std::mt19937 rng{std::random_device{}()};
  const int shift = attempt < 5 ? attempt : 5;
  const int64_t base_us = 1000ll << shift;
  std::uniform_int_distribution<int64_t> dist(base_us / 2, base_us);
  std::this_thread::sleep_for(std::chrono::microseconds(dist(rng)));
}

/// Cascade depth of the firing currently executing on this thread (0 when
/// no trigger action is running here). Thread-local because the async
/// executor runs actions on its own threads concurrently with user commits.
thread_local int t_trigger_depth = 0;

/// Scopes t_trigger_depth to a firing's execution.
struct TriggerDepthScope {
  explicit TriggerDepthScope(int depth) : saved(t_trigger_depth) {
    t_trigger_depth = depth;
  }
  ~TriggerDepthScope() { t_trigger_depth = saved; }
  int saved;
};

}  // namespace

Database::Database(const DatabaseOptions& options,
                   std::unique_ptr<StorageEngine> engine)
    : options_(options), engine_(std::move(engine)) {
  store_ = std::make_unique<ObjectStore>(engine_.get());
  indexes_ = std::make_unique<IndexManager>(engine_.get(), &catalog_,
                                            [this] { return SaveCatalog(); });
  // Resolve (and thereby pre-register, so `.stats` shows them at zero) the
  // core and query instruments.
  MetricsRegistry& m = engine_->metrics();
  core_metrics_.commit_us = m.GetHistogram("txn.commit_us");
  core_metrics_.constraint_checks = m.GetCounter("txn.constraint_checks");
  core_metrics_.constraint_violations =
      m.GetCounter("txn.constraint_violations");
  core_metrics_.trigger_firings = m.GetCounter("txn.trigger_firings");
  // Same instrument the async executor reports into, so `trigger.failures`
  // covers both execution modes.
  core_metrics_.trigger_failures = m.GetCounter("trigger.failures");
  core_metrics_.cache_evictions = m.GetCounter("txn.cache_evictions");
  core_metrics_.deadlock_retries = m.GetCounter("txn.deadlock_retries");
  core_metrics_.scans = m.GetCounter("query.scans");
  core_metrics_.index_scans = m.GetCounter("query.index_scans");
  core_metrics_.oid_list_scans = m.GetCounter("query.oid_list_scans");
  core_metrics_.rows_scanned = m.GetCounter("query.rows_scanned");
  core_metrics_.rows_returned = m.GetCounter("query.rows_returned");
  core_metrics_.pool_fetches_per_row =
      m.GetHistogram("query.pool_fetches_per_row");
  core_metrics_.parallel_scans = m.GetCounter("query.parallel.scans");
  core_metrics_.parallel_morsels = m.GetCounter("query.parallel.morsels");
  core_metrics_.parallel_fallbacks = m.GetCounter("query.parallel.fallbacks");
  core_metrics_.join_nested_loop = m.GetCounter("query.join.nested_loop");
  core_metrics_.join_index = m.GetCounter("query.join.index");
  core_metrics_.join_hash = m.GetCounter("query.join.hash");
  core_metrics_.join_pairs = m.GetCounter("query.join.pairs");
  core_metrics_.snapshot_reads = m.GetCounter("concur.snapshot.reads");
  core_metrics_.lock_escalations = m.GetCounter("concur.lock.escalations");
  core_metrics_.gc_objects_reclaimed = m.GetCounter("mvcc.gc.objects_reclaimed");
  core_metrics_.gc_versions_reclaimed =
      m.GetCounter("mvcc.gc.versions_reclaimed");
  core_metrics_.gc_index_entries_reclaimed =
      m.GetCounter("mvcc.gc.index_entries_reclaimed");
  core_metrics_.gc_pages_reclaimed = m.GetCounter("mvcc.gc.pages_reclaimed");

  if (options_.engine.query_threads > 0) {
    query_pool_ =
        std::make_unique<QueryPool>(options_.engine.query_threads, &m);
  }

  if (options_.trigger_executor_threads > 0) {
    concur::TriggerExecutor::Options exec_options;
    exec_options.threads = options_.trigger_executor_threads;
    exec_options.queue_capacity = options_.trigger_queue_capacity;
    exec_options.max_retries = options_.trigger_max_retries;
    trigger_exec_ =
        std::make_unique<concur::TriggerExecutor>(exec_options, &m);
  }
}

Database::~Database() {
  if (!closed_) {
    Status s = Close();
    if (!s.ok()) {
      ODE_LOG(kError) << "close failed: " << s.ToString();
    }
  }
}

Status Database::Open(const std::string& path, const DatabaseOptions& options,
                      std::unique_ptr<Database>* out) {
  std::unique_ptr<StorageEngine> engine;
  ODE_RETURN_IF_ERROR(StorageEngine::Open(path, options.engine, &engine));
  std::unique_ptr<Database> db(new Database(options, std::move(engine)));
  ODE_RETURN_IF_ERROR(db->ReloadCatalog());
  db->StartGcThread();
  *out = std::move(db);
  return Status::OK();
}

Status Database::Close() {
  if (closed_) return Status::OK();
  // Park the daemons first: their threads run transactions against this
  // database and must be gone before the engine goes away.
  StopGcThread();
  query_pool_.reset();
  if (trigger_exec_ != nullptr) {
    trigger_exec_->Shutdown();
  }
  {
    MutexLock lock(pending_mu_);
    if (!pending_firings_.empty()) {
      ODE_LOG(kWarn) << "closing with " << pending_firings_.size()
                     << " unexecuted trigger firing(s) (RunPendingTriggers "
                        "was not called)";
    }
  }
  // Abort the calling thread's transaction at this layer (so the catalog is
  // reloaded etc.); transactions leaked by other threads are rolled back by
  // the engine's Close below.
  Transaction* mine = sessions_.Current();
  if (mine != nullptr) {
    Status s = mine->Abort();
    if (!s.ok()) {
      ODE_LOG(kError) << "aborting open transaction on close: "
                      << s.ToString();
    }
  }
  closed_ = true;
  return engine_->Close();
}

// --- Transactions -------------------------------------------------------------

Result<std::unique_ptr<Transaction>> Database::Begin() {
  if (closed_) return Status::InvalidArgument("database is closed");
  if (sessions_.Current() != nullptr) {
    return Status::Busy("a transaction is already active on this thread");
  }
  std::unique_ptr<Transaction> txn(new Transaction(this));
  ODE_RETURN_IF_ERROR(txn->Start());
  return txn;
}

Result<std::unique_ptr<Transaction>> Database::BeginSnapshot() {
  if (closed_) return Status::InvalidArgument("database is closed");
  if (sessions_.Current() != nullptr) {
    return Status::Busy("a transaction is already active on this thread");
  }
  std::unique_ptr<Transaction> txn(new Transaction(this));
  ODE_RETURN_IF_ERROR(txn->StartSnapshot());
  return txn;
}

Result<std::unique_ptr<Transaction>> Database::BeginSnapshotAt(uint64_t seq) {
  if (closed_) return Status::InvalidArgument("database is closed");
  if (sessions_.Current() != nullptr) {
    return Status::Busy("a transaction is already active on this thread");
  }
  std::unique_ptr<Transaction> txn(new Transaction(this));
  ODE_RETURN_IF_ERROR(txn->StartSnapshotAt(seq));
  return txn;
}

Status Database::DetachSession(Transaction* txn) {
  if (txn == nullptr || !txn->open()) {
    return Status::InvalidArgument("DetachSession: transaction is not open");
  }
  if (sessions_.Current() != txn) {
    return Status::InvalidArgument(
        "DetachSession: not the calling thread's transaction");
  }
  ODE_RETURN_IF_ERROR(engine_->DetachTxn());
  sessions_.Unbind(txn);
  return Status::OK();
}

Status Database::AttachSession(Transaction* txn) {
  if (txn == nullptr || !txn->open()) {
    return Status::InvalidArgument("AttachSession: transaction is not open");
  }
  if (sessions_.Current() != nullptr) {
    return Status::Busy(
        "AttachSession: a transaction is already active on this thread");
  }
  ODE_RETURN_IF_ERROR(engine_->AttachTxn(txn->id()));
  if (!sessions_.Bind(txn)) {
    // Can't happen (the engine attach would have failed first), but keep the
    // two layers consistent if it ever does.
    Status detached = engine_->DetachTxn();
    IgnoreStatus(detached, "attach_session_rollback");
    return Status::Busy("AttachSession: session bind raced");
  }
  return Status::OK();
}

Status Database::RunReadTransaction(
    const std::function<Status(Transaction&)>& body) {
  for (int attempt = 0;; attempt++) {
    Status s;
    {
      Result<std::unique_ptr<Transaction>> begun = BeginSnapshot();
      if (!begun.ok()) {
        s = begun.status();
        if (s.IsBusy() && sessions_.Current() != nullptr) return s;
      } else {
        std::unique_ptr<Transaction> txn = std::move(begun.value());
        s = body(*txn);
        if (s.ok()) {
          s = txn->Commit();
        } else {
          Status abort_status = txn->Abort();
          if (!abort_status.ok()) {
            ODE_LOG(kError) << "abort failed: " << abort_status.ToString();
          }
        }
      }
    }
    // Snapshot bodies never deadlock (no locks) but can race version GC
    // freeing a chain entry mid-walk; the store reports that as Busy.
    if (!s.IsBusy()) return s;
    if (attempt >= options_.max_txn_retries) return s;
    core_metrics_.deadlock_retries->Add();
    BackoffBeforeRetry(attempt);
  }
}

Status Database::RunTransaction(
    const std::function<Status(Transaction&)>& body) {
  for (int attempt = 0;; attempt++) {
    Status s;
    {
      Result<std::unique_ptr<Transaction>> begun = Begin();
      if (!begun.ok()) {
        s = begun.status();
        // This thread already has a transaction (nested RunTransaction):
        // retrying can never succeed, so surface the Busy immediately.
        if (s.IsBusy() && sessions_.Current() != nullptr) return s;
      } else {
        std::unique_ptr<Transaction> txn = std::move(begun.value());
        s = body(*txn);
        if (s.ok()) {
          s = txn->Commit();
        } else {
          Status abort_status = txn->Abort();
          if (!abort_status.ok()) {
            ODE_LOG(kError) << "abort failed: " << abort_status.ToString();
          }
        }
      }
    }
    if (!s.IsDeadlock() && !s.IsBusy()) return s;
    if (attempt >= options_.max_txn_retries) return s;
    core_metrics_.deadlock_retries->Add();
    BackoffBeforeRetry(attempt);
  }
}

Status Database::InTransaction(
    const std::function<Status(Transaction&)>& fn) {
  Transaction* mine = sessions_.Current();
  if (mine != nullptr) return fn(*mine);
  return RunTransaction(fn);
}

// --- Catalog helpers ------------------------------------------------------------

Result<ClusterId> Database::ClusterIdForName(
    const std::string& type_name) const {
  const CatalogData::ClusterEntry* entry =
      catalog_.FindClusterByType(type_name);
  if (entry == nullptr) {
    return Status::NotFound("no cluster for type " + type_name +
                            " (create it first, paper §2.5)");
  }
  return entry->id;
}

Status Database::SaveCatalog() { return Catalog::Save(engine_.get(), catalog_); }

Status Database::ReloadCatalog() {
  return Catalog::Load(engine_.get(), &catalog_);
}

Result<uint32_t> Database::EnsureTypeCode(const std::string& type_name) {
  if (const CatalogData::TypeEntry* entry = catalog_.FindType(type_name)) {
    return entry->code;
  }
  CatalogData::TypeEntry entry;
  entry.name = type_name;
  entry.code = catalog_.next_type_code++;
  catalog_.types.push_back(entry);
  ODE_RETURN_IF_ERROR(SaveCatalog());
  return entry.code;
}

Result<std::string> Database::TypeNameByCode(uint32_t code) const {
  const CatalogData::TypeEntry* entry = catalog_.FindTypeByCode(code);
  if (entry == nullptr) {
    return Status::Corruption("unknown type code " + std::to_string(code));
  }
  return entry->name;
}

Result<PageId> Database::TableRootOf(ClusterId cluster) const {
  const CatalogData::ClusterEntry* entry = catalog_.FindCluster(cluster);
  if (entry == nullptr) {
    return Status::NotFound("unknown cluster " + std::to_string(cluster));
  }
  return entry->table_root;
}

Result<uint64_t> Database::NextTriggerId() {
  ODE_ASSIGN_OR_RETURN(
      uint64_t id,
      engine_->ReadSuperU64(SuperblockLayout::kNextTriggerIdOffset));
  ODE_RETURN_IF_ERROR(
      engine_->WriteSuperU64(SuperblockLayout::kNextTriggerIdOffset, id + 1));
  return id;
}

// --- Indexes -----------------------------------------------------------------------

Status Database::DropIndex(const std::string& name) {
  return InTransaction(
      [&](Transaction& txn) { return txn.DropIndex(name); });
}

Status Database::CollectVersionGarbage(GcTotals* totals) {
  if (sessions_.Current() != nullptr) {
    return Status::Busy("cannot collect version garbage inside a transaction");
  }
  // Snapshot the cluster and index lists under S(schema) — every transaction
  // holds it for life, so a DDL writer's catalog mutation (under X(schema))
  // cannot race this read even when the GC daemon calls in from its own
  // thread. DDL that lands after the snapshot just turns the affected sweep
  // into a NotFound no-op.
  std::vector<ClusterId> clusters;
  std::vector<std::string> index_names;
  ODE_RETURN_IF_ERROR(RunTransaction([&](Transaction&) -> Status {
    clusters.clear();
    index_names.clear();
    for (const CatalogData::ClusterEntry& entry : catalog_.clusters) {
      clusters.push_back(entry.id);
    }
    for (const CatalogData::IndexEntry& entry : catalog_.indexes) {
      index_names.push_back(entry.name);
    }
    return Status::OK();
  }));
  GcTotals sum;
  for (ClusterId cluster : clusters) {
    ObjectStore::GcStats stats;
    bool swept = false;
    Status s = RunTransaction([&](Transaction& txn) -> Status {
      stats = ObjectStore::GcStats();  // Reset: RunTransaction may retry us.
      swept = false;
      // X(cluster) keeps writers out of the chains being unlinked; snapshot
      // readers take no locks and instead retry the Busy they see when a
      // walk lands on a freed entry.
      ODE_RETURN_IF_ERROR(
          txn.LockCluster(cluster, concur::LockMode::kExclusive));
      const CatalogData::ClusterEntry* entry = catalog_.FindCluster(cluster);
      if (entry == nullptr) return Status::OK();  // Dropped since the snapshot.
      const uint64_t watermark = engine_->SnapshotWatermark();
      ODE_RETURN_IF_ERROR(
          store_->CollectGarbage(entry->table_root, watermark, &stats));
      swept = true;
      return Status::OK();
    });
    if (!s.ok()) return s;
    sum.objects_reclaimed += stats.objects_reclaimed;
    sum.versions_reclaimed += stats.versions_reclaimed;
    sum.pages_reclaimed += stats.pages_reclaimed;
    if (swept) sum.clusters++;
  }
  // Index sweep: X(index) keeps writers and lock-based probes out while dead
  // entry versions are unlinked. Snapshot scans take no locks, which stays
  // safe because the sweep only removes versions behind the min-active-
  // snapshot watermark — no live snapshot can see them.
  for (const std::string& name : index_names) {
    uint64_t reclaimed = 0;
    bool swept = false;
    Status s = RunTransaction([&](Transaction& txn) -> Status {
      reclaimed = 0;
      swept = false;
      Status lock = txn.LockIndexExclusive(name);
      if (lock.IsNotFound()) return Status::OK();  // Dropped since snapshot.
      ODE_RETURN_IF_ERROR(lock);
      const uint64_t watermark = engine_->SnapshotWatermark();
      ODE_RETURN_IF_ERROR(indexes_->SweepIndex(name, watermark, &reclaimed));
      swept = true;
      return Status::OK();
    });
    if (!s.ok()) return s;
    sum.index_entries_reclaimed += reclaimed;
    if (swept) sum.indexes++;
  }
  core_metrics_.gc_objects_reclaimed->Add(sum.objects_reclaimed);
  core_metrics_.gc_versions_reclaimed->Add(sum.versions_reclaimed);
  core_metrics_.gc_index_entries_reclaimed->Add(sum.index_entries_reclaimed);
  core_metrics_.gc_pages_reclaimed->Add(sum.pages_reclaimed);
  if (totals != nullptr) *totals = sum;
  return Status::OK();
}

void Database::StartGcThread() {
  if (options_.gc_interval_ms <= 0) return;
  gc_thread_ = std::thread([this] { GcThreadMain(); });
}

void Database::StopGcThread() {
  if (!gc_thread_.joinable()) return;
  {
    MutexLock lock(gc_mu_);
    gc_stop_ = true;
  }
  gc_cv_.NotifyAll();
  gc_thread_.join();
}

void Database::GcThreadMain() {
  const auto interval = std::chrono::milliseconds(options_.gc_interval_ms);
  for (;;) {
    {
      MutexLock lock(gc_mu_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      // WaitUntil returning true is a wakeup before the deadline — either
      // Stop (checked by the loop condition) or spurious (wait again).
      while (!gc_stop_ && gc_cv_.WaitUntil(gc_mu_, deadline)) {
      }
      if (gc_stop_) return;
    }
    // Best effort, off the commit path: a pass that loses a lock race or
    // collides with a structure op just skips this tick.
    Status s = CollectVersionGarbage(nullptr);
    if (!s.ok() && !s.IsBusy() && !s.IsDeadlock()) {
      ODE_LOG(kWarn) << "background version GC failed: " << s.ToString();
    }
  }
}

Status Database::BackupTo(const std::string& path) {
  if (sessions_.Current() != nullptr) {
    return Status::Busy("cannot back up inside a transaction");
  }
  // After a checkpoint the WAL is empty and the page file holds every
  // committed byte.
  ODE_RETURN_IF_ERROR(engine_->Checkpoint());
  ODE_ASSIGN_OR_RETURN(
      uint32_t page_count,
      engine_->ReadSuperU32(SuperblockLayout::kPageCountOffset));
  std::unique_ptr<File> src;
  ODE_RETURN_IF_ERROR(File::OpenReadOnly(engine_->path(), &src));
  // Copy via a temp file + rename so a crash never leaves a torn backup.
  const std::string tmp = path + ".tmp";
  ODE_RETURN_IF_ERROR(env::RemoveFile(tmp));
  std::unique_ptr<File> dst;
  ODE_RETURN_IF_ERROR(File::Open(tmp, &dst));
  std::vector<char> buf(kPageSize);
  for (PageId p = 0; p < page_count; p++) {
    size_t n = 0;
    ODE_RETURN_IF_ERROR(src->ReadAtMost(static_cast<uint64_t>(p) * kPageSize,
                                        kPageSize, buf.data(), &n));
    if (n < kPageSize) {
      memset(buf.data() + n, 0, kPageSize - n);  // never-flushed tail page
    }
    ODE_RETURN_IF_ERROR(
        dst->Write(static_cast<uint64_t>(p) * kPageSize,
                   Slice(buf.data(), kPageSize)));
  }
  ODE_RETURN_IF_ERROR(dst->Sync());
  ODE_RETURN_IF_ERROR(env::RemoveFile(path + ".wal"));
  return env::RenameFile(tmp, path);
}

// --- Triggers -----------------------------------------------------------------------

Status Database::RunOneFiring(const Firing& firing) {
  // The action transaction sees this thread's depth = the firing's depth, so
  // firings it fires in turn carry depth + 1 (cascade accounting that works
  // on both the committing thread and the async workers).
  TriggerDepthScope scope(firing.depth);
  Status s = RunTransaction([&](Transaction& txn) {
    return firing.def->action(txn, firing.oid, firing.params);
  });
  if (!s.ok() && !s.IsDeadlock() && !s.IsBusy()) {
    ODE_LOG(kWarn) << "trigger action (id " << firing.trigger_id
                   << ") failed: " << s.ToString();
  }
  return s;
}

void Database::ExecuteFirings(std::vector<Firing> firings) {
  if (firings.empty()) return;
  const int depth = t_trigger_depth;
  if (depth >= options_.max_trigger_cascade_depth) {
    ODE_LOG(kWarn) << "trigger cascade depth limit ("
                   << options_.max_trigger_cascade_depth << ") reached; "
                   << firings.size() << " firing(s) dropped";
    return;
  }
  if (trigger_exec_ != nullptr) {
    // Weak coupling, asynchronously: enqueue each firing; executor workers
    // run it as an independent transaction (retrying Deadlock/Busy).
    for (Firing& firing : firings) {
      firing.depth = depth + 1;
      auto task = std::make_shared<Firing>(std::move(firing));
      bool accepted = trigger_exec_->Submit(
          [this, task]() { return RunOneFiring(*task); });
      if (!accepted) {
        core_metrics_.trigger_failures->Add();
        ODE_LOG(kWarn) << "trigger action (id " << task->trigger_id
                       << ") dropped: executor is shut down";
      }
    }
    return;
  }
  for (Firing& firing : firings) {
    firing.depth = depth + 1;
    // Weak coupling (§6): the firing ran as its own transaction and its
    // failure must not affect the already-committed triggering transaction
    // — but it must be *observable*. The async path counts failures in
    // TriggerExecutor::RunTask; this synchronous path used to drop them
    // with no metric at all.
    Status s = RunOneFiring(firing);
    if (!s.ok()) {
      core_metrics_.trigger_failures->Add();
      if (s.IsDeadlock() || s.IsBusy()) {
        // RunOneFiring logged non-retryable failures; exhausted-retry
        // Deadlock/Busy outcomes are logged here.
        ODE_LOG(kWarn) << "trigger action (id " << firing.trigger_id
                       << ") failed: " << s.ToString();
      }
    }
  }
}

Status Database::RunPendingTriggers() {
  int rounds = 0;
  while (true) {
    std::vector<Firing> batch;
    {
      MutexLock lock(pending_mu_);
      if (pending_firings_.empty()) break;
      if (++rounds > options_.max_trigger_cascade_depth) {
        ODE_LOG(kWarn) << "trigger cascade depth limit reached; "
                       << pending_firings_.size() << " firing(s) dropped";
        pending_firings_.clear();
        break;
      }
      batch.swap(pending_firings_);
    }
    ExecuteFirings(std::move(batch));
    DrainTriggers();  // cascades re-enter pending_ only in deferred mode
  }
  return Status::OK();
}

void Database::DrainTriggers() {
  if (trigger_exec_ != nullptr) trigger_exec_->Drain();
}

}  // namespace ode
