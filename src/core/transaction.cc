#include "core/transaction.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"

namespace ode {

Transaction::Transaction(Database* db) : db_(db) {
  cache_limit_ = db->options().max_cached_objects;
  if (cache_limit_ > 0 && cache_limit_ < kMinCacheLimit) {
    cache_limit_ = kMinCacheLimit;
  }
}

Transaction::~Transaction() {
  if (open_) {
    Status s = Abort();
    if (!s.ok()) {
      ODE_LOG(kError) << "abort in ~Transaction failed: " << s.ToString();
    }
  }
}

Status Transaction::Start() {
  ODE_ASSIGN_OR_RETURN(TxnId id, db_->engine().BeginTxn());
  txn_id_ = id;
  open_ = true;
  db_->sessions_.Bind(this);
  // Every transaction reads the shared in-memory catalog, so it holds the
  // schema lock (shared) for its whole life; DDL upgrades it to exclusive.
  // Snapshot transactions keep this one lock too (docs/CONCURRENCY.md
  // "MVCC snapshot reads") — S(schema) never conflicts with data writers.
  Status locked = db_->engine().lock_manager().Acquire(  // ode-lint: allow(snapshot-lock-free)
      txn_id_, concur::kSchemaResource, concur::LockMode::kShared);
  if (!locked.ok()) {
    open_ = false;
    db_->sessions_.Unbind(this);
    Status aborted = db_->engine().AbortTxn(txn_id_);
    if (!aborted.ok()) {
      ODE_LOG(kError) << "abort after failed schema lock also failed: "
                      << aborted.ToString();
    }
    return locked;
  }
  return Status::OK();
}

Status Transaction::StartSnapshot() {
  ODE_RETURN_IF_ERROR(Start());
  // Mint the snapshot sequence at the group-commit serialization point.
  // The schema lock from Start() stays shared for catalog safety; object,
  // cluster and index locks are bypassed from here on.
  Result<uint64_t> seq = db_->engine().MarkSnapshot();
  if (!seq.ok()) {
    Status aborted = Abort();
    if (!aborted.ok()) {
      ODE_LOG(kError) << "abort after failed snapshot mint also failed: "
                      << aborted.ToString();
    }
    return seq.status();
  }
  snapshot_ = true;
  snapshot_seq_ = seq.value();
  return Status::OK();
}

Status Transaction::StartSnapshotAt(uint64_t seq) {
  ODE_ASSIGN_OR_RETURN(TxnId id, db_->engine().BeginTxn());
  txn_id_ = id;
  open_ = true;
  db_->sessions_.Bind(this);
  // Deliberately NO S(schema) acquire, unlike Start(): a join-at-seq
  // transaction only ever runs as a parallel-scan worker under a
  // coordinator snapshot transaction whose own S(schema) outlives it, so
  // the catalog cannot move. Acquiring here could even deadlock — the FIFO
  // lock queue would park this worker behind a waiting DDL X(schema) while
  // that DDL waits on the coordinator, which in turn waits on this worker.
  //
  // Join the coordinator's cut: the engine validates that `seq` is still at
  // or above the GC watermark (the coordinator's active snapshot pins it
  // there) and registers this transaction in the active-snapshot set too.
  Result<uint64_t> joined = db_->engine().MarkSnapshotAt(seq);
  if (!joined.ok()) {
    Status aborted = Abort();
    if (!aborted.ok()) {
      ODE_LOG(kError) << "abort after failed snapshot join also failed: "
                      << aborted.ToString();
    }
    return joined.status();
  }
  snapshot_ = true;
  snapshot_seq_ = joined.value();
  return Status::OK();
}

Status Transaction::RejectIfSnapshot(const char* op) const {
  if (!snapshot_) return Status::OK();
  return Status::InvalidArgument(
      std::string(op) + " is not allowed in a read-only snapshot transaction");
}

Status Transaction::CloseOut(bool aborted) {
  (void)aborted;
  cache_.clear();
  lru_.clear();
  version_cache_.clear();
  open_ = false;
  catalog_dirty_ = false;
  db_->sessions_.Unbind(this);
  db_->engine().ReleaseTxnLocks(txn_id_);
  return Status::OK();
}

// --- Lock acquisition --------------------------------------------------------

Status Transaction::LockObject(Oid oid, concur::LockMode mode) {
  if (snapshot_) return Status::OK();  // snapshot reads take no locks
  // Escalated cluster lock already covers the object?
  auto esc = escalated_.find(oid.cluster);
  if (esc != escalated_.end() &&
      (esc->second == concur::LockMode::kExclusive ||
       mode == concur::LockMode::kShared)) {
    return Status::OK();
  }
  const size_t threshold = db_->options().lock_escalation_threshold;
  if (threshold > 0 && ++object_lock_counts_[oid.cluster] >= threshold) {
    // Trade per-object locks for one cluster lock (covering mode). The
    // object locks already held stay until release as usual; new requests
    // in this cluster are absorbed by the cluster lock.
    ODE_RETURN_IF_ERROR(LockCluster(oid.cluster, mode));
    escalated_[oid.cluster] = mode;
    db_->core_metrics().lock_escalations->Add();
    return Status::OK();
  }
  return db_->engine().lock_manager().Acquire(
      txn_id_, concur::ObjectResource(oid.Pack()), mode);
}

Status Transaction::LockCluster(ClusterId cluster, concur::LockMode mode) {
  // Only reachable from mutating or locked-scan paths, all of which are
  // rejected or bypassed in snapshot mode before getting here; fail loudly
  // if a new call path forgets that invariant.
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("cluster locking"));
  ODE_RETURN_IF_ERROR(db_->engine().lock_manager().Acquire(
      txn_id_, concur::ClusterResource(cluster), mode));
  // Any cluster-lock use beyond pure object creation pins the lock to the
  // normal 2PL release point (scans and deletes rely on it for the rest of
  // the transaction).
  sticky_clusters_.insert(cluster);
  creation_clusters_.erase(cluster);
  // An escalated-mode upgrade (S cluster lock escalated, then X requested)
  // must be remembered as exclusive.
  auto esc = escalated_.find(cluster);
  if (esc != escalated_.end() && mode == concur::LockMode::kExclusive) {
    esc->second = concur::LockMode::kExclusive;
  }
  return Status::OK();
}

Status Transaction::LockClusterForCreation(ClusterId cluster) {
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("object creation"));
  ODE_RETURN_IF_ERROR(db_->engine().lock_manager().Acquire(
      txn_id_, concur::ClusterResource(cluster), concur::LockMode::kExclusive));
  if (sticky_clusters_.find(cluster) == sticky_clusters_.end()) {
    creation_clusters_.insert(cluster);
  }
  return Status::OK();
}

Status Transaction::LockSchemaExclusive() {
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("schema mutation"));
  ODE_RETURN_IF_ERROR(db_->engine().lock_manager().Acquire(
      txn_id_, concur::kSchemaResource, concur::LockMode::kExclusive));
  catalog_dirty_ = true;
  return Status::OK();
}

Status Transaction::LockIndex(const CatalogData::IndexEntry& entry,
                              concur::LockMode mode) {
  if (snapshot_) return Status::OK();  // snapshot reads are lock-free
  return db_->engine().lock_manager().Acquire(
      txn_id_, concur::IndexResource(entry.id), mode);
}

Status Transaction::LockIndexesForWrite(ClusterId cluster) {
  for (const auto& index : db_->catalog().indexes) {
    if (index.cluster != cluster) continue;
    ODE_RETURN_IF_ERROR(LockIndex(index, concur::LockMode::kExclusive));
  }
  return Status::OK();
}

Status Transaction::LockIndexShared(const std::string& index_name) {
  if (snapshot_) return Status::OK();  // snapshot scans read versioned entries
  const CatalogData::IndexEntry* entry = db_->catalog().FindIndex(index_name);
  if (entry == nullptr) return Status::OK();
  return LockIndex(*entry, concur::LockMode::kShared);
}

Status Transaction::LockIndexExclusive(const std::string& index_name) {
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("index maintenance"));
  const CatalogData::IndexEntry* entry = db_->catalog().FindIndex(index_name);
  if (entry == nullptr) return Status::NotFound("index " + index_name);
  return LockIndex(*entry, concur::LockMode::kExclusive);
}

// --- Object cache -----------------------------------------------------------

void Transaction::TouchLru(Cached* cached) {
  if (cache_limit_ == 0 || !cached->in_lru) return;
  lru_.splice(lru_.end(), lru_, cached->lru_pos);
}

void Transaction::ForgetLru(Cached* cached) {
  if (!cached->in_lru) return;
  lru_.erase(cached->lru_pos);
  cached->in_lru = false;
}

void Transaction::EraseCacheKey(const CacheKey& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return;
  ForgetLru(it->second.get());
  cache_.erase(it);
}

void Transaction::MaybeEvictCache() {
  if (cache_limit_ == 0 || evict_pause_ > 0) return;
  if (cache_.size() <= cache_limit_) return;
  // Walk from the cold end, but keep the last kProtectedRecentReads loads
  // untouched: callers (joins, Each) may still hold Read pointers to them.
  size_t examinable = lru_.size() > kProtectedRecentReads
                          ? lru_.size() - kProtectedRecentReads
                          : 0;
  auto it = lru_.begin();
  while (examinable-- > 0 && it != lru_.end() &&
         cache_.size() > cache_limit_) {
    auto found = cache_.find(*it);
    if (found == cache_.end()) {  // defensive: stale list entry
      it = lru_.erase(it);
      continue;
    }
    Cached& c = *found->second;
    if (c.dirty || c.is_new || c.deleted || c.old_keys_captured) {
      ++it;  // carries transaction state: not evictable
      continue;
    }
    c.in_lru = false;
    it = lru_.erase(it);
    cache_.erase(found);
    db_->core_metrics().cache_evictions->Add();
  }
}

void Transaction::ReleaseCachedReads() {
  for (auto it = cache_.begin(); it != cache_.end();) {
    Cached& c = *it->second;
    if (c.dirty || c.is_new || c.deleted || c.old_keys_captured) {
      ++it;
      continue;
    }
    ForgetLru(&c);
    it = cache_.erase(it);
  }
}

Status Transaction::ReadAtCut(PageId root, Oid oid, uint32_t vnum,
                              const ObjectTable::Head* walked,
                              std::string* bytes, uint32_t* type_code,
                              uint32_t* resolved_vnum) {
  // Resolve through the version chain to the newest version with
  // commit_seq <= snapshot_seq — no locks taken.
  if (walked != nullptr && walked->local == oid.local &&
      vnum == kGenericVersion) {
    ODE_RETURN_IF_ERROR(db_->store().ReadSnapshotHead(
        root, *walked, snapshot_seq_, bytes, type_code, resolved_vnum));
  } else {
    ODE_RETURN_IF_ERROR(db_->store().ReadSnapshot(
        root, oid.local, vnum, snapshot_seq_, bytes, type_code, resolved_vnum));
  }
  db_->core_metrics().snapshot_reads->Add();
  return Status::OK();
}

Status Transaction::LoadObject(Oid oid, uint32_t vnum, Cached** out,
                               const ObjectTable::Head* walked) {
  const CacheKey key{oid.Pack(), vnum};
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    if (it->second->deleted) {
      return Status::NotFound("object " + oid.ToString() + " was deleted");
    }
    TouchLru(it->second.get());
    *out = it->second.get();
    return Status::OK();
  }
  // A deleted head invalidates all version reads.
  auto head_it = cache_.find({oid.Pack(), kGenericVersion});
  if (head_it != cache_.end() && head_it->second->deleted) {
    return Status::NotFound("object " + oid.ToString() + " was deleted");
  }

  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));
  std::string bytes;
  uint32_t type_code = 0;
  uint32_t resolved = 0;
  if (snapshot_) {
    ODE_RETURN_IF_ERROR(ReadAtCut(root, oid, vnum, walked, &bytes, &type_code,
                                  &resolved));
  } else {
    // First touch of this object: shared lock before reading storage (2PL —
    // a cache hit above means the lock is already held).
    ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kShared));
    ODE_RETURN_IF_ERROR(db_->store().Read(root, oid.local, vnum, &bytes,
                                          &type_code, &resolved));
  }

  ODE_ASSIGN_OR_RETURN(std::string type_name, db_->TypeNameByCode(type_code));
  const TypeInfo* info = TypeRegistry::Global().Find(type_name);
  if (info == nullptr) {
    return Status::NotSupported("type not registered in this program: " +
                                type_name);
  }
  auto cached = std::make_unique<Cached>();
  cached->obj = info->construct();
  cached->type = info;
  cached->type_code = type_code;
  cached->resolved_vnum = resolved;
  Status s = info->deserialize(Slice(bytes), db_, cached->obj);
  if (!s.ok()) return s;
  Cached* raw = cached.get();
  cache_[key] = std::move(cached);
  if (cache_limit_ > 0) {
    raw->lru_pos = lru_.insert(lru_.end(), key);
    raw->in_lru = true;
    // The entry just inserted sits in the protected MRU window, so this
    // never invalidates the pointer we are about to return.
    MaybeEvictCache();
  }
  *out = raw;
  return Status::OK();
}

Status Transaction::MarkWrite(Oid oid, Cached** out) {
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("write"));
  // Exclusive object lock BEFORE the (possibly shared-locking) load, so a
  // write-after-read upgrades and a blind write never takes S first.
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  Cached* cached = nullptr;
  ODE_RETURN_IF_ERROR(LoadObject(oid, kGenericVersion, &cached));
  if (!cached->dirty && !cached->is_new && !cached->old_keys_captured) {
    ODE_RETURN_IF_ERROR(db_->indexes().CaptureKeys(oid.cluster, cached->obj,
                                                   &cached->old_index_keys));
    cached->old_keys_captured = true;
  }
  cached->dirty = true;
  *out = cached;
  return Status::OK();
}

void Transaction::DropFromCache(Oid oid) {
  auto it = cache_.lower_bound({oid.Pack(), 0});
  while (it != cache_.end() && it->first.first == oid.Pack()) {
    ForgetLru(it->second.get());
    it = cache_.erase(it);
  }
}

// --- Object operations --------------------------------------------------------

Status Transaction::Delete(const RefBase& ref) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("pdelete"));
  if (ref.null()) return Status::InvalidArgument("null reference");
  if (ref.is_specific()) {
    // Paper §4: "Given a version pointer, pdelete deletes the specified
    // version" (not the whole object).
    return DeleteVersion(ref);
  }
  const Oid oid = ref.oid();
  // Deletion shrinks the cluster extent: exclusive object AND cluster locks,
  // plus X on each of the cluster's indexes (tombstone entries are written).
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  ODE_RETURN_IF_ERROR(LockCluster(oid.cluster, concur::LockMode::kExclusive));
  ODE_RETURN_IF_ERROR(LockIndexesForWrite(oid.cluster));
  // Load for index-entry removal. The index holds entries for the COMMITTED
  // key state: if this transaction already mutated the object's keys (the
  // add entries for the new keys are only written at commit, which a delete
  // now skips), remove by the captured pre-mutation keys, not the cached
  // object's current state.
  Cached* cached = nullptr;
  ODE_RETURN_IF_ERROR(LoadObject(oid, kGenericVersion, &cached));
  if (cached->old_keys_captured) {
    for (const auto& [name, key] : cached->old_index_keys) {
      ODE_RETURN_IF_ERROR(db_->indexes().RemoveEntry(name, key, oid));
    }
  } else {
    ODE_RETURN_IF_ERROR(
        db_->indexes().OnErase(oid.cluster, oid, cached->obj));
  }

  // Remove persistent trigger activations on this object. Probe under our
  // shared schema lock; mutate only under the exclusive upgrade (re-running
  // the removal there, in case the list changed while we waited).
  auto& activations = db_->catalog().triggers;
  const bool any_activations = std::any_of(
      activations.begin(), activations.end(),
      [&](const CatalogData::TriggerActivation& a) {
        return a.cluster == oid.cluster && a.local == oid.local;
      });
  if (any_activations) {
    ODE_RETURN_IF_ERROR(LockSchemaExclusive());
    activations.erase(
        std::remove_if(activations.begin(), activations.end(),
                       [&](const CatalogData::TriggerActivation& a) {
                         return a.cluster == oid.cluster &&
                                a.local == oid.local;
                       }),
        activations.end());
    ODE_RETURN_IF_ERROR(db_->SaveCatalog());
  }

  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));
  ODE_RETURN_IF_ERROR(db_->store().Delete(root, oid.local));
  InvalidateVersionCache(oid);

  // Invalidate every cached version of the object.
  auto it = cache_.lower_bound({oid.Pack(), 0});
  while (it != cache_.end() && it->first.first == oid.Pack()) {
    it->second->deleted = true;
    it->second->dirty = false;
    it->second->is_new = false;
    ++it;
  }
  return Status::OK();
}

Result<bool> Transaction::Exists(const RefBase& ref) {
  if (ref.null()) return false;
  auto head_it = cache_.find({ref.oid().Pack(), kGenericVersion});
  if (head_it != cache_.end()) return !head_it->second->deleted;
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(ref.oid().cluster));
  ObjectTable::Entry entry;
  if (snapshot_) {
    Status s = db_->store().ResolveSnapshot(root, ref.oid().local,
                                            kGenericVersion, snapshot_seq_,
                                            &entry);
    if (s.IsNotFound()) return false;
    ODE_RETURN_IF_ERROR(s);
    return true;
  }
  ODE_RETURN_IF_ERROR(LockObject(ref.oid(), concur::LockMode::kShared));
  Status s = db_->store().GetInfo(root, ref.oid().local, &entry);
  if (s.IsNotFound()) return false;
  ODE_RETURN_IF_ERROR(s);
  return !entry.is_version();
}

// --- Raw (untyped) record operations ----------------------------------------

Status Transaction::RejectIfClusterIndexed(ClusterId cluster,
                                           const char* op) const {
  for (const CatalogData::IndexEntry& index : db_->catalog().indexes) {
    if (index.cluster == cluster) {
      return Status::NotSupported(
          std::string(op) + ": cluster " + std::to_string(cluster) +
          " has index '" + index.name +
          "' and raw mutations cannot maintain it (no key extractor in "
          "this process); use the typed API");
    }
  }
  return Status::OK();
}

Result<Transaction::RawRecord> Transaction::ReadRaw(
    Oid oid, uint32_t vnum, const ObjectTable::Head* walked) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  if (!oid.valid()) return Status::InvalidArgument("invalid object id");
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));
  RawRecord rec;
  if (snapshot_) {
    ODE_RETURN_IF_ERROR(ReadAtCut(root, oid, vnum, walked, &rec.bytes,
                                  &rec.type_code, &rec.vnum));
  } else {
    ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kShared));
    ODE_RETURN_IF_ERROR(db_->store().Read(root, oid.local, vnum, &rec.bytes,
                                          &rec.type_code, &rec.vnum));
  }
  return rec;
}

Status Transaction::WriteRaw(Oid oid, const Slice& bytes) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("raw write"));
  if (!oid.valid()) return Status::InvalidArgument("invalid object id");
  ODE_RETURN_IF_ERROR(RejectIfClusterIndexed(oid.cluster, "raw write"));
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));
  ODE_RETURN_IF_ERROR(db_->store().Update(root, oid.local, bytes));
  // A typed cache copy (same transaction mixing APIs) must not flush over
  // the raw bytes at commit, and vprev/vnext caches are stale now.
  DropFromCache(oid);
  InvalidateVersionCache(oid);
  return Status::OK();
}

Result<Oid> Transaction::InsertRaw(ClusterId cluster, const Slice& bytes) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("raw insert"));
  const CatalogData::ClusterEntry* entry = db_->catalog().FindCluster(cluster);
  if (entry == nullptr) {
    return Status::NotFound("no cluster " + std::to_string(cluster));
  }
  ODE_RETURN_IF_ERROR(RejectIfClusterIndexed(cluster, "raw insert"));
  ODE_RETURN_IF_ERROR(LockClusterForCreation(cluster));
  const CatalogData::TypeEntry* type_entry =
      db_->catalog().FindType(entry->type_name);
  if (type_entry == nullptr) {
    return Status::Corruption("cluster " + std::to_string(cluster) +
                              " type '" + entry->type_name + "' has no code");
  }
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(cluster));
  LocalOid local;
  ODE_RETURN_IF_ERROR(
      db_->store().Insert(root, type_entry->code, bytes, &local));
  const Oid oid{cluster, local};
  if (creation_logs_open_ > 0) created_.push_back(oid);
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  return oid;
}

Status Transaction::DeleteRaw(Oid oid) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("raw delete"));
  if (!oid.valid()) return Status::InvalidArgument("invalid object id");
  ODE_RETURN_IF_ERROR(RejectIfClusterIndexed(oid.cluster, "raw delete"));
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  ODE_RETURN_IF_ERROR(LockCluster(oid.cluster, concur::LockMode::kExclusive));
  // Persistent trigger activations die with the object, exactly as in the
  // typed Delete path.
  auto& activations = db_->catalog().triggers;
  const bool any_activations = std::any_of(
      activations.begin(), activations.end(),
      [&](const CatalogData::TriggerActivation& a) {
        return a.cluster == oid.cluster && a.local == oid.local;
      });
  if (any_activations) {
    ODE_RETURN_IF_ERROR(LockSchemaExclusive());
    activations.erase(
        std::remove_if(activations.begin(), activations.end(),
                       [&](const CatalogData::TriggerActivation& a) {
                         return a.cluster == oid.cluster &&
                                a.local == oid.local;
                       }),
        activations.end());
    ODE_RETURN_IF_ERROR(db_->SaveCatalog());
  }
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));
  ODE_RETURN_IF_ERROR(db_->store().Delete(root, oid.local));
  InvalidateVersionCache(oid);
  DropFromCache(oid);
  return Status::OK();
}

// --- Versioning ------------------------------------------------------------------

Result<uint32_t> Transaction::NewVersion(const RefBase& ref) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("newversion"));
  if (ref.is_specific()) {
    return Status::InvalidArgument("newversion takes a generic reference");
  }
  const Oid oid = ref.oid();
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  // Pending in-memory changes must reach the store before the snapshot.
  auto it = cache_.find({oid.Pack(), kGenericVersion});
  if (it != cache_.end()) {
    if (it->second->deleted) return Status::NotFound("object was deleted");
    if (it->second->dirty || it->second->is_new) {
      ODE_RETURN_IF_ERROR(FlushObject(oid, *it->second));
    }
  }
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));
  uint32_t new_vnum = 0;
  ODE_RETURN_IF_ERROR(db_->store().NewVersion(root, oid.local, &new_vnum));
  InvalidateVersionCache(oid);
  if (it != cache_.end()) it->second->resolved_vnum = new_vnum;
  return new_vnum;
}

Status Transaction::DeleteVersion(const RefBase& ref) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("delversion"));
  if (!ref.is_specific()) {
    return Status::InvalidArgument("delversion takes a version reference");
  }
  // delversion frees the version's storage physically (unlike pdelete's
  // tombstone): it cannot run while any snapshot might still resolve the
  // doomed version. BeginStructureOp checks the active-snapshot set and
  // registers the barrier under one critical section — a racing snapshot
  // begin gets a clean Busy instead of observing a mid-flight structure.
  // Busy here lets RunTransaction retry once readers drain.
  ODE_RETURN_IF_ERROR(db_->engine().BeginStructureOp());
  const Oid oid = ref.oid();
  ODE_RETURN_IF_ERROR(LockObject(oid, concur::LockMode::kExclusive));
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));

  ObjectTable::Entry head;
  ODE_RETURN_IF_ERROR(db_->store().GetInfo(root, oid.local, &head));
  const bool deletes_current = ref.vnum() == head.vnum;

  // Index pre-images: deleting the current version promotes older content,
  // which is an update as far as secondary indexes are concerned.
  std::vector<std::pair<std::string, std::string>> old_keys;
  if (deletes_current) {
    Cached* current = nullptr;
    ODE_RETURN_IF_ERROR(LoadObject(oid, kGenericVersion, &current));
    if (current->old_keys_captured) {
      old_keys = current->old_index_keys;
    } else {
      ODE_RETURN_IF_ERROR(
          db_->indexes().CaptureKeys(oid.cluster, current->obj, &old_keys));
    }
    if (current->dirty) {
      ODE_RETURN_IF_ERROR(FlushObject(oid, *current));
    }
  } else {
    auto head_it = cache_.find({oid.Pack(), kGenericVersion});
    if (head_it != cache_.end()) {
      if (head_it->second->deleted) return Status::NotFound("object deleted");
      if (head_it->second->dirty) {
        ODE_RETURN_IF_ERROR(FlushObject(oid, *head_it->second));
      }
    }
  }

  ODE_RETURN_IF_ERROR(db_->store().DeleteVersion(root, oid.local, ref.vnum()));
  InvalidateVersionCache(oid);
  EraseCacheKey({oid.Pack(), ref.vnum()});

  if (deletes_current) {
    // Reload the promoted state and mark it dirty carrying the pre-delete
    // index keys, so commit re-points the indexes at the promoted content.
    EraseCacheKey({oid.Pack(), kGenericVersion});
    Cached* promoted = nullptr;
    ODE_RETURN_IF_ERROR(LoadObject(oid, kGenericVersion, &promoted));
    promoted->dirty = true;
    promoted->old_index_keys = std::move(old_keys);
    promoted->old_keys_captured = true;
  }
  return Status::OK();
}

Status Transaction::RevertToVersion(const RefBase& ref, uint32_t vnum) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("revert"));
  if (ref.is_specific()) {
    return Status::InvalidArgument("revert takes a generic reference");
  }
  InvalidateVersionCache(ref.oid());
  // Write path: captures index pre-images and marks the object dirty, so
  // commit flushes the reverted state and fixes index entries.
  Cached* cached = nullptr;
  ODE_RETURN_IF_ERROR(MarkWrite(ref.oid(), &cached));
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(ref.oid().cluster));
  std::string bytes;
  uint32_t type_code = 0, resolved = 0;
  ODE_RETURN_IF_ERROR(db_->store().Read(root, ref.oid().local, vnum, &bytes,
                                        &type_code, &resolved));
  // Record the derivation edge: the current content now stems from `vnum`
  // (the version-tree extension, paper footnote 15).
  ODE_RETURN_IF_ERROR(db_->store().SetDerivation(root, ref.oid().local, vnum));
  // Deserialize the historical state into the cached (current) object.
  return cached->type->deserialize(Slice(bytes), db_, cached->obj);
}

Result<uint32_t> Transaction::CurrentVnum(const RefBase& ref) {
  auto it = cache_.find({ref.oid().Pack(), kGenericVersion});
  if (it != cache_.end() && !it->second->deleted) {
    return it->second->resolved_vnum;
  }
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(ref.oid().cluster));
  ObjectTable::Entry entry;
  if (snapshot_) {
    ODE_RETURN_IF_ERROR(db_->store().ResolveSnapshot(
        root, ref.oid().local, kGenericVersion, snapshot_seq_, &entry));
    return entry.vnum;
  }
  ODE_RETURN_IF_ERROR(LockObject(ref.oid(), concur::LockMode::kShared));
  ODE_RETURN_IF_ERROR(db_->store().GetInfo(root, ref.oid().local, &entry));
  return entry.vnum;
}

Result<std::string> Transaction::DynamicTypeOf(const RefBase& ref) {
  auto it = cache_.find({ref.oid().Pack(), kGenericVersion});
  if (it != cache_.end() && !it->second->deleted) {
    return it->second->type->name;
  }
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(ref.oid().cluster));
  ObjectTable::Entry entry;
  if (snapshot_) {
    ODE_RETURN_IF_ERROR(db_->store().ResolveSnapshot(
        root, ref.oid().local, kGenericVersion, snapshot_seq_, &entry));
  } else {
    ODE_RETURN_IF_ERROR(LockObject(ref.oid(), concur::LockMode::kShared));
    ODE_RETURN_IF_ERROR(db_->store().GetInfo(root, ref.oid().local, &entry));
  }
  return db_->TypeNameByCode(entry.type_code);
}

// --- Versioning navigation cache ---------------------------------------------

Status Transaction::CachedVersions(const RefBase& ref,
                                   const std::vector<uint32_t>** vnums) {
  const uint64_t key = ref.oid().Pack();
  auto it = version_cache_.find(key);
  if (it == version_cache_.end()) {
    ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(ref.oid().cluster));
    std::vector<uint32_t> listed;
    ODE_RETURN_IF_ERROR(
        db_->store().ListVersions(root, ref.oid().local, &listed));
    it = version_cache_.emplace(key, std::move(listed)).first;
  }
  *vnums = &it->second;
  return Status::OK();
}

Result<uint32_t> Transaction::PrevVersionOf(const RefBase& ref, uint32_t vnum) {
  const std::vector<uint32_t>* vnums = nullptr;
  ODE_RETURN_IF_ERROR(CachedVersions(ref, &vnums));
  // The list is ascending: the predecessor is the element before the first
  // one >= vnum.
  auto it = std::lower_bound(vnums->begin(), vnums->end(), vnum);
  if (it == vnums->begin()) return Status::NotFound("no previous version");
  return *(it - 1);
}

Result<uint32_t> Transaction::NextVersionOf(const RefBase& ref, uint32_t vnum) {
  const std::vector<uint32_t>* vnums = nullptr;
  ODE_RETURN_IF_ERROR(CachedVersions(ref, &vnums));
  auto it = std::upper_bound(vnums->begin(), vnums->end(), vnum);
  if (it == vnums->end()) return Status::NotFound("no next version");
  return *it;
}

// --- Schema ------------------------------------------------------------------------

Status Transaction::CreateClusterByName(const std::string& type_name) {
  if (TypeRegistry::Global().Find(type_name) == nullptr) {
    return Status::NotSupported("type not registered: " + type_name);
  }
  return CreateClusterRaw(type_name);
}

Status Transaction::CreateClusterRaw(const std::string& type_name) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("create cluster"));
  if (db_->catalog().FindClusterByType(type_name) != nullptr) {
    return Status::AlreadyExists("cluster for " + type_name);
  }
  ODE_RETURN_IF_ERROR(LockSchemaExclusive());
  if (db_->catalog().FindClusterByType(type_name) != nullptr) {
    return Status::AlreadyExists("cluster for " + type_name);  // lost a race
  }
  ODE_ASSIGN_OR_RETURN(uint32_t code, db_->EnsureTypeCode(type_name));
  (void)code;
  PageId root;
  ODE_RETURN_IF_ERROR(db_->store().CreateTable(&root));
  CatalogData::ClusterEntry entry;
  entry.id = db_->catalog().next_cluster_id++;
  entry.type_name = type_name;
  entry.table_root = root;
  db_->catalog().clusters.push_back(entry);
  return db_->SaveCatalog();
}

Status Transaction::DropClusterByName(const std::string& type_name) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("drop cluster"));
  // Dropping frees every object's storage physically, bypassing the
  // tombstone/GC protocol — it cannot run under active snapshot readers.
  // BeginStructureOp couples the snapshot-count check with registering the
  // barrier in one critical section, so a concurrently-beginning snapshot
  // either blocks this drop or gets Busy itself — never a torn structure.
  ODE_RETURN_IF_ERROR(db_->engine().BeginStructureOp());
  ODE_RETURN_IF_ERROR(LockSchemaExclusive());
  ODE_ASSIGN_OR_RETURN(ClusterId cluster, db_->ClusterIdForName(type_name));
  ODE_RETURN_IF_ERROR(LockCluster(cluster, concur::LockMode::kExclusive));
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(cluster));

  // Indexes on the cluster go wholesale (no per-object maintenance needed).
  std::vector<std::string> index_names;
  for (const auto& index : db_->catalog().indexes) {
    if (index.cluster == cluster) index_names.push_back(index.name);
  }
  for (const auto& name : index_names) {
    ODE_RETURN_IF_ERROR(db_->indexes().DropIndex(name));
  }

  // Trigger activations on the cluster's objects.
  auto& activations = db_->catalog().triggers;
  activations.erase(
      std::remove_if(activations.begin(), activations.end(),
                     [&](const CatalogData::TriggerActivation& a) {
                       return a.cluster == cluster;
                     }),
      activations.end());

  // Storage, then the catalog entry.
  ODE_RETURN_IF_ERROR(db_->store().DropTable(root));
  auto& clusters = db_->catalog().clusters;
  for (auto it = clusters.begin(); it != clusters.end(); ++it) {
    if (it->id == cluster) {
      clusters.erase(it);
      break;
    }
  }
  ODE_RETURN_IF_ERROR(db_->SaveCatalog());

  version_cache_.clear();
  // Invalidate cached objects of the dropped cluster.
  for (auto& [key, cached] : cache_) {
    if (Oid::Unpack(key.first).cluster == cluster) {
      cached->deleted = true;
      cached->dirty = false;
      cached->is_new = false;
    }
  }
  return Status::OK();
}

Status Transaction::CreateIndexByName(const std::string& index_name,
                                      const std::string& type_name,
                                      IndexManager::Extractor extractor) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("create index"));
  ODE_RETURN_IF_ERROR(LockSchemaExclusive());
  ODE_ASSIGN_OR_RETURN(ClusterId cluster, db_->ClusterIdForName(type_name));
  ODE_RETURN_IF_ERROR(LockCluster(cluster, concur::LockMode::kExclusive));
  ODE_RETURN_IF_ERROR(
      db_->indexes().CreateIndex(index_name, cluster, extractor));
  // Backfill existing objects.
  return ForEachHead(cluster, 0, [&](const ObjectTable::Head& head, bool*) {
    const Oid oid{cluster, head.local};
    Cached* cached = nullptr;
    ODE_RETURN_IF_ERROR(LoadObject(oid, kGenericVersion, &cached));
    return db_->indexes().AddEntry(index_name, extractor(cached->obj), oid);
  });
}

// --- Triggers ------------------------------------------------------------------------

Result<uint64_t> Transaction::ActivateTriggerOn(const RefBase& ref,
                                                const std::string& trigger_name,
                                                std::vector<double> params,
                                                bool perpetual) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("trigger activation"));
  ODE_ASSIGN_OR_RETURN(bool exists, Exists(ref));
  if (!exists) return Status::NotFound("object " + ref.oid().ToString());
  ODE_ASSIGN_OR_RETURN(std::string dynamic_type, DynamicTypeOf(ref));
  if (db_->triggers().Resolve(TypeRegistry::Global(), dynamic_type,
                              trigger_name) == nullptr) {
    return Status::NotFound("trigger definition '" + trigger_name +
                            "' for class " + dynamic_type);
  }
  ODE_RETURN_IF_ERROR(LockSchemaExclusive());
  ODE_ASSIGN_OR_RETURN(uint64_t id, db_->NextTriggerId());
  CatalogData::TriggerActivation activation;
  activation.trigger_id = id;
  activation.cluster = ref.oid().cluster;
  activation.local = ref.oid().local;
  activation.trigger_name = trigger_name;
  activation.perpetual = perpetual;
  activation.params = std::move(params);
  db_->catalog().triggers.push_back(std::move(activation));
  ODE_RETURN_IF_ERROR(db_->SaveCatalog());
  return id;
}

Status Transaction::DeactivateTrigger(uint64_t trigger_id) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("trigger deactivation"));
  ODE_RETURN_IF_ERROR(LockSchemaExclusive());
  auto& activations = db_->catalog().triggers;
  for (auto it = activations.begin(); it != activations.end(); ++it) {
    if (it->trigger_id == trigger_id) {
      activations.erase(it);
      return db_->SaveCatalog();
    }
  }
  return Status::NotFound("trigger " + std::to_string(trigger_id));
}

Result<size_t> Transaction::DeactivateTriggersOn(
    const RefBase& ref, const std::string& trigger_name) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("trigger deactivation"));
  ODE_RETURN_IF_ERROR(LockSchemaExclusive());
  auto& activations = db_->catalog().triggers;
  const size_t before = activations.size();
  activations.erase(
      std::remove_if(activations.begin(), activations.end(),
                     [&](const CatalogData::TriggerActivation& a) {
                       return a.cluster == ref.oid().cluster &&
                              a.local == ref.oid().local &&
                              a.trigger_name == trigger_name;
                     }),
      activations.end());
  const size_t removed = before - activations.size();
  if (removed > 0) {
    ODE_RETURN_IF_ERROR(db_->SaveCatalog());
  }
  return removed;
}

size_t Transaction::ActiveTriggerCount(const RefBase& ref) const {
  size_t count = 0;
  for (const auto& a : db_->catalog().triggers) {
    if (a.cluster == ref.oid().cluster && a.local == ref.oid().local) count++;
  }
  return count;
}

// --- Scan support -----------------------------------------------------------------------

Result<uint32_t> Transaction::ScanHeads(ClusterId cluster, LocalOid lo,
                                        LocalOid hi,
                                        std::vector<ObjectTable::Head>* heads) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(cluster));
  if (!snapshot_) {
    ODE_RETURN_IF_ERROR(LockCluster(cluster, concur::LockMode::kShared));
  }
  return db_->store().ScanHeads(root, lo, hi,
                                /*include_tombstones=*/snapshot_, heads);
}

Status Transaction::ForEachHead(ClusterId cluster, LocalOid start,
                                const ObjectStore::HeadVisitor& visit) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(cluster));
  if (!snapshot_) {
    ODE_RETURN_IF_ERROR(LockCluster(cluster, concur::LockMode::kShared));
  }
  return db_->store().ForEachHead(root, start,
                                  /*include_tombstones=*/snapshot_, visit);
}

Status Transaction::DropIndex(const std::string& name) {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  ODE_RETURN_IF_ERROR(RejectIfSnapshot("drop index"));
  ODE_RETURN_IF_ERROR(LockSchemaExclusive());
  return db_->indexes().DropIndex(name);
}

// --- Commit path -------------------------------------------------------------------------

Status Transaction::FlushObject(Oid oid, Cached& cached) {
  std::string bytes;
  cached.type->serialize(cached.obj, &bytes);
  ODE_ASSIGN_OR_RETURN(PageId root, db_->TableRootOf(oid.cluster));
  return db_->store().Update(root, oid.local, Slice(bytes));
}

Status Transaction::CheckConstraints() {
  const auto& registry = TypeRegistry::Global();
  for (auto& [key, cached] : cache_) {
    if (key.second != kGenericVersion) continue;
    if (cached->deleted || !(cached->dirty || cached->is_new)) continue;
    db_->core_metrics().constraint_checks->Add();
    Status s =
        db_->constraints().Check(registry, cached->type->name, cached->obj);
    if (!s.ok()) {
      db_->core_metrics().constraint_violations->Add();
      return s;
    }
  }
  return Status::OK();
}

Status Transaction::MaintainIndexes() {
  // Acquire all per-index X locks up front (deterministic acquisition
  // order before any tree mutation), then write the entries.
  for (auto& [key, cached] : cache_) {
    if (key.second != kGenericVersion || cached->deleted) continue;
    if (!cached->is_new && !cached->dirty) continue;
    ODE_RETURN_IF_ERROR(
        LockIndexesForWrite(Oid::Unpack(key.first).cluster));
  }
  for (auto& [key, cached] : cache_) {
    if (key.second != kGenericVersion || cached->deleted) continue;
    const Oid oid = Oid::Unpack(key.first);
    if (cached->is_new) {
      ODE_RETURN_IF_ERROR(
          db_->indexes().OnInsert(oid.cluster, oid, cached->obj));
    } else if (cached->dirty) {
      ODE_RETURN_IF_ERROR(db_->indexes().OnUpdate(
          oid.cluster, oid, cached->old_index_keys, cached->obj));
    }
  }
  return Status::OK();
}

Status Transaction::EvaluateTriggers(std::vector<Database::Firing>* fired) {
  fired->clear();
  auto& activations = db_->catalog().triggers;
  if (activations.empty()) return Status::OK();
  const auto& registry = TypeRegistry::Global();

  std::vector<uint64_t> deactivated;
  for (const auto& activation : activations) {
    const Oid oid{activation.cluster, activation.local};
    auto it = cache_.find({oid.Pack(), kGenericVersion});
    if (it == cache_.end()) continue;  // Object not touched this txn.
    Cached& cached = *it->second;
    if (cached.deleted || !(cached.dirty || cached.is_new)) continue;

    const TriggerRegistry::Definition* def = db_->triggers().Resolve(
        registry, cached.type->name, activation.trigger_name);
    if (def == nullptr) {
      ODE_LOG(kWarn) << "active trigger '" << activation.trigger_name
                     << "' has no definition in this program; skipping";
      continue;
    }
    void* as_def_type =
        registry.Upcast(cached.obj, cached.type->name, def->type_name);
    if (as_def_type == nullptr) continue;
    if (!def->condition(as_def_type, activation.params)) continue;

    fired->push_back(Database::Firing{def, activation.trigger_id, oid,
                                      activation.params});
    if (!activation.perpetual) {
      deactivated.push_back(activation.trigger_id);
    }
  }
  if (!deactivated.empty()) {
    // Once-only activations burn at fire time: a catalog mutation, so the
    // schema lock upgrades to exclusive first.
    ODE_RETURN_IF_ERROR(LockSchemaExclusive());
    activations.erase(
        std::remove_if(activations.begin(), activations.end(),
                       [&](const CatalogData::TriggerActivation& a) {
                         return std::find(deactivated.begin(),
                                          deactivated.end(),
                                          a.trigger_id) != deactivated.end();
                       }),
        activations.end());
    ODE_RETURN_IF_ERROR(db_->SaveCatalog());
  }
  return Status::OK();
}

Status Transaction::Commit() {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  const auto commit_start = std::chrono::steady_clock::now();
  if (snapshot_) {
    // Nothing written, nothing to flush or check; the engine commit is a
    // cheap no-shadow close and CloseOut drops the snapshot registration.
    Status committed = db_->engine().CommitTxn(txn_id_,
                                               /*release_locks=*/false);
    if (!committed.ok()) {
      Status aborted = Abort();
      if (!aborted.ok()) {
        ODE_LOG(kError) << "abort after failed snapshot commit also failed: "
                        << aborted.ToString();
      }
      return committed;
    }
    return CloseOut(/*aborted=*/false);
  }
  if (db_->options().check_constraints) {
    Status s = CheckConstraints();
    if (!s.ok()) {
      // §5: the violation aborts the transaction, and the *violation* is
      // what the caller must see — a secondary failure while rolling back
      // (e.g. an I/O error reloading a dirty catalog) must not mask it.
      // Propagating the abort status here used to do exactly that.
      Status aborted = Abort();
      if (!aborted.ok()) {
        ODE_LOG(kError) << "abort after constraint violation also failed: "
                        << aborted.ToString();
      }
      return s;
    }
  }
  // Flush the write set.
  for (auto& [key, cached] : cache_) {
    if (key.second != kGenericVersion || cached->deleted) continue;
    if (cached->dirty || cached->is_new) {
      ODE_RETURN_IF_ERROR(FlushObject(Oid::Unpack(key.first), *cached));
    }
  }
  ODE_RETURN_IF_ERROR(MaintainIndexes());
  std::vector<Database::Firing> fired;
  ODE_RETURN_IF_ERROR(EvaluateTriggers(&fired));

  // Keep our locks across the engine commit; CloseOut releases them after
  // the core layer is fully done (2PL release point). Cluster locks held
  // only for object creation are handed to the engine for release at the
  // publish point — before the group-commit durability wait — so
  // concurrent inserters into the same cluster can share one fsync.
  std::vector<concur::ResourceId> publish_release;
  for (ClusterId cluster : creation_clusters_) {
    publish_release.push_back(concur::ClusterResource(cluster));
  }
  Status committed = db_->engine().CommitTxn(
      txn_id_, /*release_locks=*/false,
      publish_release.empty() ? nullptr : &publish_release);
  if (!committed.ok()) {
    // The engine degraded the commit to a rollback (or refused it); the
    // in-memory catalog still reflects this transaction's writes, so abort
    // at this layer too to reload it. The commit error is what the caller
    // needs to see, not any secondary abort failure.
    Status aborted = Abort();
    if (!aborted.ok()) {
      ODE_LOG(kError) << "abort after failed commit also failed: "
                      << aborted.ToString();
    }
    return committed;
  }
  ODE_RETURN_IF_ERROR(CloseOut(/*aborted=*/false));
  db_->core_metrics().commit_us->Add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - commit_start)
          .count()));

  if (!fired.empty()) {
    db_->core_metrics().trigger_firings->Add(fired.size());
    if (db_->options().run_triggers_on_commit) {
      db_->ExecuteFirings(std::move(fired));
    } else {
      MutexLock lock(db_->pending_mu_);
      for (auto& f : fired) db_->pending_firings_.push_back(std::move(f));
    }
  }
  return Status::OK();
}

Status Transaction::Abort() {
  if (!open_) return Status::TransactionAborted("transaction is closed");
  const bool reload_catalog = catalog_dirty_;
  // A failed CommitTxn already rolled the engine back; only abort the
  // engine-level transaction if it is still ours. Locks stay held until
  // CloseOut — the catalog reload below must happen under them.
  if (db_->engine().in_txn() && db_->engine().active_txn() == txn_id_) {
    ODE_RETURN_IF_ERROR(db_->engine().AbortTxn(txn_id_,
                                               /*release_locks=*/false));
  }
  if (reload_catalog) {
    // We mutated the shared in-memory catalog (under the exclusive schema
    // lock, which we still hold — no one can observe the reload mid-way).
    ODE_RETURN_IF_ERROR(db_->ReloadCatalog());
  }
  return CloseOut(/*aborted=*/true);
}

}  // namespace ode
