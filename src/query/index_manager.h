#ifndef ODE_QUERY_INDEX_MANAGER_H_
#define ODE_QUERY_INDEX_MANAGER_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "objstore/object_id.h"
#include "query/btree.h"
#include "query/index_key.h"
#include "schema/catalog.h"
#include "storage/engine.h"
#include "util/status.h"

namespace ode {

/// Secondary indexes over clusters, giving `suchthat`/`by` queries an access
/// path besides the full cluster scan (the optimization §3 of the paper
/// anticipates: "iteration subsets and order ... can be used to advantage in
/// query optimization").
///
/// Index *structures* (B+trees) are persistent; key *extractors* are code,
/// re-registered by the application on re-open (RegisterExtractor). Entries
/// are VERSIONED, mirroring the v2 object-table format: a key insert writes
/// an entry stamped with the writer's publish sequence, a key removal writes
/// a tombstone entry at the remover's stamp, and scans resolve each
/// (user key, oid) group through "newest entry with commit_seq <= as_of" —
/// so a snapshot scan returns the key set as of its cut (see index_key.h and
/// docs/CONCURRENCY.md "MVCC snapshot reads"). Dead versions behind the
/// min-active-snapshot watermark are reclaimed by SweepIndex.
///
/// The catalog records only an index's immutable root-POINTER page; the
/// B-tree root id lives on that page and root splits rewrite it as an
/// ordinary shadowed page write. Index maintenance therefore never saves the
/// catalog, which is what lets writers hold per-index locks instead of
/// X(schema).
class IndexManager {
 public:
  /// Returns the encoded user key (index_key::From*) for an object. The
  /// pointer refers to an object of the indexed cluster's exact type.
  using Extractor = std::function<std::string(const void*)>;

  IndexManager(StorageEngine* engine, CatalogData* catalog,
               std::function<Status()> save_catalog)
      : engine_(engine),
        catalog_(catalog),
        save_catalog_(std::move(save_catalog)),
        m_probes_(engine->metrics().GetCounter("query.index.probes")),
        m_entries_added_(
            engine->metrics().GetCounter("query.index.entries_added")),
        m_entries_removed_(
            engine->metrics().GetCounter("query.index.entries_removed")) {}

  /// Creates the index structure (B-tree + root-pointer page) + catalog
  /// entry (inside the active transaction) and registers its extractor.
  /// Backfilling existing objects is the caller's job (it requires object
  /// deserialization).
  Status CreateIndex(const std::string& name, ClusterId cluster,
                     Extractor extractor);

  /// Removes the index structure, its root-pointer page and catalog entry.
  Status DropIndex(const std::string& name);

  /// Re-attaches code to a persisted index after re-opening a database.
  void RegisterExtractor(const std::string& name, Extractor extractor);
  bool HasExtractor(const std::string& name) const;

  // --- Write hooks (called by Transaction inside the txn) -----------------

  /// (index name, encoded user key) pairs for every index on `cluster`.
  /// Fails with NotSupported if an index on the cluster has no extractor
  /// attached (writing would silently corrupt it — re-attach with
  /// Database::AttachIndexExtractor after reopening a database).
  Status CaptureKeys(ClusterId cluster, const void* obj,
                     std::vector<std::pair<std::string, std::string>>* keys)
      const;

  /// Adds index entries for a new object.
  Status OnInsert(ClusterId cluster, Oid oid, const void* obj);

  /// Removes index entries for a deleted object (pass its pre-delete state).
  Status OnErase(ClusterId cluster, Oid oid, const void* obj);

  /// Replaces entries whose keys changed between `old_keys` (from
  /// CaptureKeys before mutation) and the object's current state.
  Status OnUpdate(ClusterId cluster, Oid oid,
                  const std::vector<std::pair<std::string, std::string>>&
                      old_keys,
                  const void* new_obj);

  // --- Queries -------------------------------------------------------------

  /// All oids whose encoded user key equals `user_key` as of publish
  /// sequence `as_of`, in oid order. The default bound sees every committed
  /// entry (locking readers); snapshot readers pass their snapshot sequence.
  Status ScanExact(const std::string& name, const std::string& user_key,
                   std::vector<Oid>* out,
                   uint64_t as_of = index_key::kSeeAllSeq) const;

  /// All oids with user key in [lo, hi) — hi empty means "to the end" —
  /// in key order, as of `as_of`.
  Status ScanRange(const std::string& name, const std::string& lo,
                   const std::string& hi, std::vector<Oid>* out,
                   uint64_t as_of = index_key::kSeeAllSeq) const;

  /// Lock-free index read for a snapshot at publish sequence `as_of`:
  /// ScanExact(lo) when `hi` is null, else ScanRange(lo, *hi). Versioned
  /// entries already resolve at the cut; the SyncedSeq check around each
  /// attempt guards only against a structurally torn walk (a publish
  /// splitting pages mid-traversal). Busy after kSnapshotScanAttempts such
  /// races — never a lock.
  Status ScanAtSnapshot(const std::string& name, const std::string& lo,
                        const std::string* hi, uint64_t as_of,
                        std::vector<Oid>* out) const;

  const CatalogData::IndexEntry* FindEntry(const std::string& name) const {
    return catalog_->FindIndex(name);
  }

  /// Count of VISIBLE entries as of `as_of` (diagnostics/tests): one per
  /// (user key, oid) group whose resolved version is a live add.
  Result<uint64_t> CountEntries(const std::string& name,
                                uint64_t as_of = index_key::kSeeAllSeq) const;

  /// Physical entry count including superseded versions and tombstones
  /// (GC diagnostics).
  Result<uint64_t> CountAllVersions(const std::string& name) const;

  /// Low-level entry maintenance (used for backfill). AddEntry writes a new
  /// version stamped at the caller's publish sequence; RemoveEntry writes a
  /// tombstone version (or physically drops this transaction's own
  /// uncommitted add — a same-txn insert+delete nets to nothing). Both
  /// acquire the writer token via WriteStampSeq.
  Status AddEntry(const std::string& name, const std::string& user_key,
                  Oid oid);
  Status RemoveEntry(const std::string& name, const std::string& user_key,
                     Oid oid);

  // --- Garbage collection ---------------------------------------------------

  /// Reclaims dead entry versions: in every (user key, oid) group, versions
  /// older than the newest one with commit_seq <= `watermark` are invisible
  /// to all present and future snapshots and are deleted — as is that
  /// resolved version itself when it is a tombstone (the group is then
  /// gone, matching object-tombstone purge). Caller must hold X on the
  /// index (Database::CollectVersionGarbage does). `reclaimed` (may be
  /// null) receives the number of deleted entries.
  Status SweepIndex(const std::string& name, uint64_t watermark,
                    uint64_t* reclaimed);

 private:
  /// Optimistic-validation attempts of ScanAtSnapshot.
  static constexpr int kSnapshotScanAttempts = 8;

  /// Reads the current B-tree root id from the index's root-pointer page
  /// (the calling transaction's shadow if it has one, else the committed
  /// image — snapshot readers thus see the root as of their cut).
  Status ReadRoot(const CatalogData::IndexEntry& entry, PageId* root) const;

  /// Records a new B-tree root on the pointer page (shadowed page write).
  Status SetRoot(const CatalogData::IndexEntry& entry, PageId root);

  /// Runs `fn` on the index's B+tree and persists a root change to the
  /// pointer page. Never touches the catalog.
  Status WithTree(const CatalogData::IndexEntry& entry,
                  const std::function<Status(BTree&)>& fn);

  StorageEngine* engine_;
  CatalogData* catalog_;
  std::function<Status()> save_catalog_;
  std::map<std::string, Extractor> extractors_;
  // Registry instruments (query.index.*, see docs/OBSERVABILITY.md).
  Counter* m_probes_;           ///< ScanExact/ScanRange calls
  Counter* m_entries_added_;    ///< AddEntry calls (insert/update/backfill)
  Counter* m_entries_removed_;  ///< RemoveEntry calls
};

}  // namespace ode

#endif  // ODE_QUERY_INDEX_MANAGER_H_
