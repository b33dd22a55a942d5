#ifndef ODE_CORE_TRANSACTION_H_
#define ODE_CORE_TRANSACTION_H_

#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/ref.h"
#include "schema/type_registry.h"
#include "util/status.h"

namespace ode {

/// A transaction: the unit of atomicity, constraint checking and trigger
/// evaluation (paper §1, §5, §6). Obtain via Database::Begin() or
/// Database::RunTransaction().
///
/// Objects read or written are cached (deserialized) per transaction; dirty
/// objects are flushed, constraint-checked and index-maintained at Commit.
/// Abort rolls back every page the transaction touched, including object
/// creation, schema changes and index updates.
///
/// Concurrency (docs/CONCURRENCY.md): a transaction is bound to the thread
/// that began it. Isolation is strict two-phase locking: reads take shared
/// and writes exclusive locks at object granularity, scans lock the cluster,
/// and every transaction holds a shared schema lock (upgraded to exclusive
/// by DDL / trigger-activation changes) — all released at commit/abort. A
/// lock wait that forms a cycle fails with Status::Deadlock (this
/// transaction is the victim; Database::RunTransaction retries it).
///
/// Read-only snapshot transactions (Database::BeginSnapshot /
/// RunReadTransaction) skip object, cluster and index locks entirely:
/// every read resolves through the version chain to the newest version
/// committed at or before the transaction's snapshot sequence
/// (docs/CONCURRENCY.md "MVCC snapshot reads"). Writers never block them
/// and they never block writers; all mutating operations fail with
/// InvalidArgument.
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Commits: checks constraints (§5), flushes the write set, evaluates
  /// trigger conditions and schedules firings (§6), makes everything
  /// durable. On ConstraintViolation the transaction is aborted instead.
  Status Commit();

  /// Rolls everything back; scheduled firings are discarded (§6: "If the
  /// triggering transaction is aborted, the trigger actions generated by it
  /// are aborted").
  Status Abort();

  bool open() const { return open_; }
  Database& db() { return *db_; }

  /// True for read-only snapshot transactions (Database::BeginSnapshot).
  bool snapshot() const { return snapshot_; }

  /// The snapshot sequence reads resolve against (0 for ordinary
  /// transactions).
  uint64_t snapshot_seq() const { return snapshot_seq_; }

  // --- Persistent object operations (paper §2) ------------------------------

  /// The paper's `pnew T(args...)`: creates a persistent T in T's cluster.
  /// The cluster must exist (create it first — §2.5).
  template <typename T, typename... Args>
  Result<Ref<T>> New(Args&&... args);

  /// Read-only access to the object (any version). `walked` is for scans:
  /// the head a walk just read for `ref` (ForAll), which lets a snapshot
  /// read a version visible at its cut without looking the entry up again.
  template <typename T>
  Result<const T*> Read(const Ref<T>& ref,
                        const ObjectTable::Head* walked = nullptr);

  /// Mutable access; marks the object dirty. Only the current version is
  /// updatable (§4: old versions are read-only).
  template <typename T>
  Result<T*> Write(const Ref<T>& ref);

  /// The paper's `pdelete`. On a generic reference: deletes the object and
  /// all its versions, its index entries and trigger activations. On a
  /// specific-version reference: deletes just that version (§4, footnote
  /// 16 behavior — equivalent to DeleteVersion).
  Status Delete(const RefBase& ref);

  /// True when the object exists (head entry allocated).
  Result<bool> Exists(const RefBase& ref);

  // --- Raw (untyped) record operations -------------------------------------
  //
  // The network server path (src/server/): serve any database without the
  // application's classes registered in this process. Raw operations take
  // the same strict-2PL locks (and, for snapshot transactions, the same
  // lock-free version-chain reads) as their typed siblings, but move
  // serialized bytes instead of deserialized objects. Because the bytes are
  // opaque here, raw WRITES cannot run this process's constraint checks,
  // index maintenance or trigger evaluation — mutating a cluster that has
  // indexes is therefore rejected with NotSupported (reads are always fine).
  // See docs/SERVER.md "Raw records".

  /// One serialized record as stored.
  struct RawRecord {
    std::string bytes;
    uint32_t type_code = 0;
    /// The version the read resolved to (the head's version number for a
    /// kGenericVersion read).
    uint32_t vnum = 0;
  };

  /// Reads a record (kGenericVersion = current version). S-locks the object
  /// in an ordinary transaction; resolves through the version chain without
  /// locks in a snapshot transaction. `walked` is as for Read: the head a
  /// walk just read for `oid` (the wire Scan).
  Result<RawRecord> ReadRaw(Oid oid, uint32_t vnum = kGenericVersion,
                            const ObjectTable::Head* walked = nullptr);

  /// Replaces the current record's bytes (X-locks the object; the store
  /// retains the committed pre-image on the version chain for snapshot
  /// readers). NotSupported if the cluster has indexes.
  Status WriteRaw(Oid oid, const Slice& bytes);

  /// Creates an object from serialized bytes in an existing cluster, with
  /// the cluster's registered type code. NotSupported if the cluster has
  /// indexes.
  Result<Oid> InsertRaw(ClusterId cluster, const Slice& bytes);

  /// Deletes an object (all versions) plus its trigger activations.
  /// NotSupported if the cluster has indexes.
  Status DeleteRaw(Oid oid);

  /// CreateClusterByName without requiring the type in this process's
  /// TypeRegistry: remote clients create extents for types only they know.
  Status CreateClusterRaw(const std::string& type_name);

  // --- Versioning (paper §4) -------------------------------------------------

  /// `newversion(p)`: freezes the current state as a version; returns the
  /// new current version number.
  Result<uint32_t> NewVersion(const RefBase& ref);

  /// `delversion(p)` on a specific-version reference.
  Status DeleteVersion(const RefBase& ref);

  /// Current (head) version number of the object.
  Result<uint32_t> CurrentVnum(const RefBase& ref);

  /// Replaces the current state with a copy of version `vnum` (history is
  /// untouched). The typical design workflow pairs it with NewVersion:
  /// checkpoint, experiment, revert.
  Status RevertToVersion(const RefBase& ref, uint32_t vnum);

  /// The `is persistent T*` type predicate (§3.1.2): a typed reference if
  /// the object's dynamic type is (derived from) To, else a null ref.
  template <typename To>
  Result<Ref<To>> RefCast(const RefBase& ref);

  /// Dynamic (stored) type name of the object.
  Result<std::string> DynamicTypeOf(const RefBase& ref);

  // --- Schema operations -------------------------------------------------------

  /// `create(T)` (§2.5) — also available as Database::CreateCluster.
  template <typename T>
  Status CreateCluster() {
    return CreateClusterByName(TypeNameOf<T>());
  }

  /// Creates T's cluster if it does not exist yet.
  template <typename T>
  Status EnsureCluster() {
    if (db_->HasCluster<T>()) return Status::OK();
    return CreateClusterByName(TypeNameOf<T>());
  }

  Status CreateClusterByName(const std::string& type_name);

  /// Drops a cluster: every object (all versions), its indexes and trigger
  /// activations, the object table, and the catalog entry.
  template <typename T>
  Status DropCluster() {
    return DropClusterByName(TypeNameOf<T>());
  }

  Status DropClusterByName(const std::string& type_name);

  /// Creates + backfills an index inside this transaction.
  Status CreateIndexByName(const std::string& index_name,
                           const std::string& type_name,
                           IndexManager::Extractor extractor);

  Status DropIndex(const std::string& name);

  // --- Triggers (paper §6) -----------------------------------------------------

  /// Arms trigger `trigger_name` (a definition of the object's class or a
  /// base class) on the object: the paper's `tid = obj->T1(args)`. Returns
  /// the trigger id used for deactivation.
  template <typename T>
  Result<uint64_t> ActivateTrigger(const Ref<T>& ref,
                                   const std::string& trigger_name,
                                   std::vector<double> params = {},
                                   bool perpetual = false) {
    return ActivateTriggerOn(ref, trigger_name, std::move(params), perpetual);
  }

  Result<uint64_t> ActivateTriggerOn(const RefBase& ref,
                                     const std::string& trigger_name,
                                     std::vector<double> params,
                                     bool perpetual);

  /// Disarms a trigger by id (before it fires).
  Status DeactivateTrigger(uint64_t trigger_id);

  /// The paper's second deactivation form, `object-id->Ti(args)`: disarms
  /// every activation of `trigger_name` on the object. Returns how many
  /// were removed.
  Result<size_t> DeactivateTriggersOn(const RefBase& ref,
                                      const std::string& trigger_name);

  /// Number of active activations on an object (diagnostics).
  size_t ActiveTriggerCount(const RefBase& ref) const;

  // --- Scan support (used by ForAll, §3) ---------------------------------------

  /// The heads of `cluster` in entry range [lo, hi) with their entries, in
  /// one pass over the entry pages; returns the extent's end (`hi` past it
  /// is clamped, and an empty range just reads it). A locked transaction
  /// takes S(cluster) first, so only it can change the extent until it
  /// ends. A snapshot gets tombstoned heads too: its reads decide what it
  /// sees (an older cut may still see content behind a tombstone).
  Result<uint32_t> ScanHeads(ClusterId cluster, LocalOid lo, LocalOid hi,
                             std::vector<ObjectTable::Head>* heads);

  /// The same heads from index `start` on, one entry page at a time
  /// (ObjectStore::ForEachHead), for walks that need not hold the extent.
  Status ForEachHead(ClusterId cluster, LocalOid start,
                     const ObjectStore::HeadVisitor& visit);

  /// The objects this transaction created (New, InsertRaw) while a
  /// CreationLog was open, in creation order. A locked ForAll visits the
  /// ones its body creates after the extent, in this order (§3.2).
  const std::vector<Oid>& created() const { return created_; }

  /// RAII: while one is alive, New and InsertRaw log what they create in
  /// created(); the log empties when the last one closes. A locked ForAll
  /// holds one for its scan, so a transaction with no scan open logs nothing.
  class CreationLog {
   public:
    explicit CreationLog(Transaction& txn) : txn_(&txn) {
      txn_->creation_logs_open_++;
    }
    ~CreationLog() {
      if (--txn_->creation_logs_open_ == 0) txn_->created_.clear();
    }
    CreationLog(const CreationLog&) = delete;
    CreationLog& operator=(const CreationLog&) = delete;

   private:
    Transaction* txn_;
  };

  /// Shared-locks a named index (concur::IndexResource) before an index
  /// scan (ForAll::ViaIndex*), stabilizing its key set against concurrent
  /// maintenance. Unknown index names are a no-op — the scan itself reports
  /// the error. Snapshot transactions skip it (lock-free reads).
  Status LockIndexShared(const std::string& index_name);

  /// X-locks a named index (GC sweeps). Snapshot mode is rejected.
  Status LockIndexExclusive(const std::string& index_name);

  // --- Versioning navigation cache (used by version.h) -------------------

  /// Version number preceding / following `vnum` in the object's history.
  /// Backed by a per-transaction cache of the (sorted) version list, so
  /// vprev/vnext walks cost one chain read per object instead of one per
  /// hop. NotFound at the ends.
  Result<uint32_t> PrevVersionOf(const RefBase& ref, uint32_t vnum);
  Result<uint32_t> NextVersionOf(const RefBase& ref, uint32_t vnum);

  /// Cached sorted version list of the object (shared with the free
  /// ListVersions helper).
  Status CachedVersions(const RefBase& ref,
                        const std::vector<uint32_t>** vnums);

  // --- Internals ----------------------------------------------------------------

  using CacheKey = std::pair<uint64_t, uint32_t>;  // (oid.Pack(), vnum)

  /// One deserialized object in the transaction cache.
  struct Cached {
    void* obj = nullptr;
    const TypeInfo* type = nullptr;
    uint32_t type_code = 0;
    uint32_t resolved_vnum = 0;
    bool dirty = false;
    bool is_new = false;
    bool deleted = false;
    std::vector<std::pair<std::string, std::string>> old_index_keys;
    bool old_keys_captured = false;
    /// Position in the eviction recency list (meaningful iff in_lru; only
    /// maintained when DatabaseOptions::max_cached_objects bounds the cache).
    std::list<CacheKey>::iterator lru_pos;
    bool in_lru = false;

    ~Cached() {
      if (obj != nullptr && type != nullptr) type->destroy(obj);
    }
  };

  /// Number of deserialized objects currently cached (diagnostics/tests;
  /// bounded by DatabaseOptions::max_cached_objects when that is set).
  size_t cached_object_count() const { return cache_.size(); }

  /// Drops every cached object that carries no transaction state (plain
  /// reads: not dirty, new, deleted or key-captured). Pointers returned by
  /// earlier Read calls for them dangle afterwards. Parallel scan workers
  /// call it after each morsel, so a worker holds one morsel's objects at a
  /// time instead of its whole share of the scan.
  void ReleaseCachedReads();

  /// RAII guard that suspends object-cache eviction while alive. Used by
  /// code that must hold Read pointers to many objects at once (e.g. the
  /// ordered-materialization sort in ForAll); the cache may transiently
  /// exceed its bound while pinned.
  class CachePin {
   public:
    explicit CachePin(Transaction& txn) : txn_(&txn) { txn_->evict_pause_++; }
    ~CachePin() { txn_->evict_pause_--; }
    CachePin(const CachePin&) = delete;
    CachePin& operator=(const CachePin&) = delete;

   private:
    Transaction* txn_;
  };

  /// Loads (through the cache) the object version; rejects deleted objects.
  /// `walked` is Read's: a snapshot reads a generic `oid` through
  /// ObjectStore::ReadSnapshotHead with it. A locked transaction ignores
  /// it — 2PL takes S(object) before it trusts an entry.
  Status LoadObject(Oid oid, uint32_t vnum, Cached** out,
                    const ObjectTable::Head* walked = nullptr);

  /// Write path: loads the head version, captures pre-images for index
  /// maintenance, marks dirty.
  Status MarkWrite(Oid oid, Cached** out);

  TxnId id() const { return txn_id_; }

 private:
  friend class Database;

  explicit Transaction(Database* db);

  /// Second-phase initialization: begins the storage transaction.
  Status Start();

  /// NotSupported when `cluster` has indexes: raw mutations cannot maintain
  /// them (no key extractors in this process).
  Status RejectIfClusterIndexed(ClusterId cluster, const char* op) const;

  Status FlushObject(Oid oid, Cached& cached);
  Status CheckConstraints();
  Status MaintainIndexes();
  Status EvaluateTriggers(std::vector<Database::Firing>* fired);
  void DropFromCache(Oid oid);  // all versions of the object
  Status CloseOut(bool aborted);

  // --- Strict-2PL lock acquisition (held until CloseOut) ------------------
  Status LockObject(Oid oid, concur::LockMode mode);
  Status LockCluster(ClusterId cluster, concur::LockMode mode);
  /// Exclusive cluster lock for object creation (Transaction::New). Unlike
  /// LockCluster it records the cluster as creation-only: if nothing else
  /// in the transaction touches the cluster's extent, the lock is released
  /// at the commit publish point (before the group-commit durability wait)
  /// so concurrent inserters into the same cluster can batch one fsync.
  Status LockClusterForCreation(ClusterId cluster);
  /// Upgrades this transaction's schema lock to exclusive before a catalog
  /// mutation and marks the catalog dirty (abort must reload it).
  Status LockSchemaExclusive();
  /// X-locks every index on `cluster` (concur::IndexResource granularity).
  /// Index maintenance mutates only the index's own B-tree pages plus its
  /// root-pointer page — never the catalog — so writers touching an indexed
  /// cluster serialize per index instead of escalating to X(schema).
  Status LockIndexesForWrite(ClusterId cluster);
  /// S or X on one index by catalog entry; no-op in snapshot mode.
  Status LockIndex(const CatalogData::IndexEntry& entry,
                   concur::LockMode mode);

  // --- Bounded object cache (DatabaseOptions::max_cached_objects) ---------
  /// Moves a hit entry to the MRU end of the recency list.
  void TouchLru(Cached* cached);
  /// Unlinks an entry from the recency list before its cache slot dies.
  void ForgetLru(Cached* cached);
  /// Erases one cache entry (recency list included).
  void EraseCacheKey(const CacheKey& key);
  /// Evicts cold clean entries until the cache is back within its bound.
  /// Dirty/new/deleted entries and the most recent few reads are never
  /// evicted, so in-flight `Read` pointers (at most the last
  /// kProtectedRecentReads loads) stay valid.
  void MaybeEvictCache();

  /// LRU-end entries never considered for eviction: callers such as the
  /// join helpers hold up to two Read pointers across a subsequent load.
  static constexpr size_t kProtectedRecentReads = 4;
  /// Floor for a nonzero max_cached_objects (must exceed the protected
  /// window plus working headroom).
  static constexpr size_t kMinCacheLimit = 8;

  Database* db_;
  TxnId txn_id_ = 0;
  bool open_ = false;
  /// Read-only MVCC snapshot mode (Database::BeginSnapshot).
  bool snapshot_ = false;
  uint64_t snapshot_seq_ = 0;
  /// Second-phase init for snapshot transactions: Start() then mint the
  /// snapshot sequence from the engine.
  Status StartSnapshot();
  /// StartSnapshot joining an existing snapshot's sequence instead of
  /// minting a new one (parallel ForAll workers share the coordinator's
  /// cut; see Database::BeginSnapshotAt).
  Status StartSnapshotAt(uint64_t seq);
  /// Guard for mutating entry points; InvalidArgument in snapshot mode.
  Status RejectIfSnapshot(const char* op) const;
  /// A read at this snapshot's cut: ReadSnapshotHead when `walked` is the
  /// head of a generic `oid`, else ReadSnapshot.
  Status ReadAtCut(PageId root, Oid oid, uint32_t vnum,
                   const ObjectTable::Head* walked, std::string* bytes,
                   uint32_t* type_code, uint32_t* resolved_vnum);

  // --- Lock escalation (DatabaseOptions::lock_escalation_threshold) -------
  /// Object-lock acquisitions per cluster this transaction.
  std::map<ClusterId, size_t> object_lock_counts_;
  /// Clusters escalated to a cluster-wide lock, with the escalated mode.
  std::map<ClusterId, concur::LockMode> escalated_;

  // --- Publish-point release of creation-only cluster locks ---------------
  /// Clusters X-locked only to create objects (New). Any other cluster-lock
  /// use (scan, delete, DDL, escalation) moves the cluster to the sticky
  /// set and the lock is then held to the normal 2PL release point.
  std::set<ClusterId> creation_clusters_;
  std::set<ClusterId> sticky_clusters_;

  /// Sorted version lists per object (oid.Pack() → vnums) for
  /// PrevVersionOf/NextVersionOf; invalidated by version mutations.
  std::map<uint64_t, std::vector<uint32_t>> version_cache_;
  void InvalidateVersionCache(Oid oid) { version_cache_.erase(oid.Pack()); }
  /// True once this transaction mutated the in-memory catalog (under the
  /// exclusive schema lock); abort then reloads the catalog from disk.
  bool catalog_dirty_ = false;
  std::map<CacheKey, std::unique_ptr<Cached>> cache_;
  std::vector<Oid> created_;  ///< See created().
  size_t creation_logs_open_ = 0;  ///< Live CreationLog guards.
  /// Read-cache recency order (front = coldest); maintained only when
  /// cache_limit_ > 0.
  std::list<CacheKey> lru_;
  size_t cache_limit_ = 0;  ///< 0 = unbounded (clamped >= kMinCacheLimit).
  size_t evict_pause_ = 0;  ///< >0 while a CachePin suspends eviction.
};

// ---------------------------------------------------------------------------
// Template definitions.
// ---------------------------------------------------------------------------

template <typename T, typename... Args>
Result<Ref<T>> Transaction::New(Args&&... args) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("pnew"));
  const char* type_name = TypeNameOf<T>();
  ODE_ASSIGN_OR_RETURN(ClusterId cluster, db_->ClusterIdForName(type_name));
  // Creation changes the cluster extent: exclusive cluster lock (blocks
  // concurrent scans, which lock it shared). Creation-only locks are
  // released at the commit publish point so inserters can group-commit.
  ODE_RETURN_IF_ERROR(LockClusterForCreation(cluster));
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(cluster));

  const TypeInfo* info = TypeRegistry::Global().Find(type_name);
  if (info == nullptr) {
    return Status::NotSupported(std::string("type not registered: ") +
                                type_name);
  }
  auto obj = std::make_unique<T>(std::forward<Args>(args)...);

  const CatalogData::ClusterEntry* entry = db_->catalog().FindCluster(cluster);
  const CatalogData::TypeEntry* type_entry =
      db_->catalog().FindType(entry->type_name);
  std::string bytes;
  info->serialize(obj.get(), &bytes);
  LocalOid local;
  ODE_RETURN_IF_ERROR(
      db_->store().Insert(root, type_entry->code, Slice(bytes), &local));

  const Oid oid{cluster, local};
  if (creation_logs_open_ > 0) created_.push_back(oid);
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  auto cached = std::make_unique<Cached>();
  cached->obj = obj.release();
  cached->type = info;
  cached->type_code = type_entry->code;
  cached->resolved_vnum = 0;
  cached->is_new = true;
  cache_[{oid.Pack(), kGenericVersion}] = std::move(cached);
  return Ref<T>(db_, oid);
}

template <typename T>
Result<const T*> Transaction::Read(const Ref<T>& ref,
                                   const ObjectTable::Head* walked) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  if (ref.null()) return Status::InvalidArgument("null reference");
  Cached* cached = nullptr;
  ODE_RETURN_IF_ERROR(LoadObject(ref.oid(), ref.vnum(), &cached, walked));
  void* as_t = TypeRegistry::Global().Upcast(cached->obj, cached->type->name,
                                             TypeNameOf<T>());
  if (as_t == nullptr) {
    return Status::InvalidArgument("object " + ref.oid().ToString() +
                                   " is a " + cached->type->name + ", not a " +
                                   TypeNameOf<T>());
  }
  return static_cast<const T*>(as_t);
}

template <typename T>
Result<T*> Transaction::Write(const Ref<T>& ref) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("write"));
  if (ref.null()) return Status::InvalidArgument("null reference");
  if (ref.is_specific()) {
    return Status::InvalidArgument("old versions are read-only (paper §4)");
  }
  Cached* cached = nullptr;
  ODE_RETURN_IF_ERROR(MarkWrite(ref.oid(), &cached));
  void* as_t = TypeRegistry::Global().Upcast(cached->obj, cached->type->name,
                                             TypeNameOf<T>());
  if (as_t == nullptr) {
    return Status::InvalidArgument("object " + ref.oid().ToString() +
                                   " is a " + cached->type->name + ", not a " +
                                   TypeNameOf<T>());
  }
  return static_cast<T*>(as_t);
}

template <typename To>
Result<Ref<To>> Transaction::RefCast(const RefBase& ref) {
  if (ref.null()) return Ref<To>();
  ODE_ASSIGN_OR_RETURN(std::string dynamic_type, DynamicTypeOf(ref));
  if (!TypeRegistry::Global().IsDerivedFrom(dynamic_type, TypeNameOf<To>())) {
    return Ref<To>();  // null: not that type
  }
  return Ref<To>(db_, ref.oid(), ref.vnum());
}

}  // namespace ode

#endif  // ODE_CORE_TRANSACTION_H_
