#ifndef ODE_OBJSTORE_OBJECT_STORE_H_
#define ODE_OBJSTORE_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "objstore/object_id.h"
#include "objstore/object_table.h"
#include "storage/engine.h"
#include "util/slice.h"
#include "util/status.h"

namespace ode {

/// Stores serialized objects as records and implements the persistent-object
/// operations the ODE core builds on: pnew/pdelete (§2), and the linear
/// versioning operations (§4). One ObjectStore serves all clusters; each
/// cluster is identified by the root page of its object table.
///
/// Records up to kInlineRecordMax bytes live in slotted data pages; larger
/// records spill into overflow-page chains. The object table indirection
/// makes both representations and record moves invisible to object ids.
class ObjectStore {
 public:
  /// Records larger than this are stored in overflow chains.
  static constexpr size_t kInlineRecordMax = 2048;

  explicit ObjectStore(StorageEngine* engine) : engine_(engine) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Creates an empty object table for a new cluster.
  Status CreateTable(PageId* table_root);

  /// Deletes every object (all versions) and frees all table pages — the
  /// storage side of dropping a cluster.
  Status DropTable(PageId table_root);

  /// Inserts a new object; assigns its LocalOid. The object starts at
  /// version 0.
  Status Insert(PageId table_root, uint32_t type_code, const Slice& data,
                LocalOid* local);

  /// Reads an object's record. `vnum` selects a specific version or
  /// kGenericVersion for the current one. Returns the record bytes plus the
  /// entry's type code and the resolved version number.
  Status Read(PageId table_root, LocalOid local, uint32_t vnum,
              std::string* data, uint32_t* type_code,
              uint32_t* resolved_vnum) const;

  /// Snapshot-visible read (docs/CONCURRENCY.md "MVCC snapshot reads"):
  /// resolves through the version chain to the newest version with
  /// commit_seq <= snapshot_seq and reads its record. NotFound when the
  /// object was created after the snapshot or deleted at/before it. Takes
  /// no locks — safe against concurrent strict-2PL writers.
  Status ReadSnapshot(PageId table_root, LocalOid local, uint32_t vnum,
                      uint64_t snapshot_seq, std::string* data,
                      uint32_t* type_code, uint32_t* resolved_vnum) const;

  /// ReadSnapshot of the current version for a head a walk just read
  /// (ScanHeads, ForEachHead), in one fetch where it can: a head stamped at
  /// or below `snapshot_seq` is the version the cut sees, so its inline
  /// record is read straight from `head.entry`'s page and slot, and a
  /// tombstone there is NotFound. Anything else — a head stamped after the
  /// cut, an overflow record, a slot that fails to read — takes
  /// ReadSnapshot's chain walk.
  Status ReadSnapshotHead(PageId table_root, const ObjectTable::Head& head,
                          uint64_t snapshot_seq, std::string* data,
                          uint32_t* type_code, uint32_t* resolved_vnum) const;

  /// Visibility resolution only: the chain entry a snapshot at
  /// `snapshot_seq` sees for (`local`, `vnum`), without reading the record.
  Status ResolveSnapshot(PageId table_root, LocalOid local, uint32_t vnum,
                         uint64_t snapshot_seq,
                         ObjectTable::Entry* entry) const;

  /// Replaces the current version's record bytes. Old versions are
  /// read-only (paper §4). The previously committed record is retained on
  /// the version chain (kFlagRetained) so active snapshots keep resolving
  /// it; the version GC reclaims it once the watermark passes.
  Status Update(PageId table_root, LocalOid local, const Slice& data);

  /// Deletes the object and all of its versions (pdelete on a head, §4).
  /// The head becomes a tombstone and the chain is kept for older
  /// snapshots; physical reclamation happens in CollectGarbage once the
  /// watermark passes the deletion stamp.
  Status Delete(PageId table_root, LocalOid local);

  /// Version-GC tallies for one CollectGarbage pass.
  struct GcStats {
    uint64_t objects_reclaimed = 0;   ///< Tombstoned objects fully purged.
    uint64_t versions_reclaimed = 0;  ///< Retained pre-update images freed.
    uint64_t pages_reclaimed = 0;     ///< Vacated trailing entry/dir pages.
  };

  /// Reclaims MVCC debris invisible to every active and future snapshot:
  /// tombstoned objects whose deletion stamp is <= `watermark`, and
  /// retained pre-update images whose successor committed at or before it.
  /// Explicit newversion snapshots are permanent and never reclaimed. Runs
  /// inside the caller's transaction (the caller holds the cluster lock).
  Status CollectGarbage(PageId table_root, uint64_t watermark, GcStats* stats);

  /// Snapshots the current state as a frozen version and bumps the current
  /// version number (the paper's `newversion`, §4). Returns the new current
  /// version number.
  Status NewVersion(PageId table_root, LocalOid local, uint32_t* new_vnum);

  /// Deletes one specific version (`delversion`, §4). Deleting the current
  /// version promotes the previous one; deleting the only version is an
  /// error (use Delete).
  Status DeleteVersion(PageId table_root, LocalOid local, uint32_t vnum);

  /// Makes the current record a copy of version `vnum`'s record (without
  /// touching history). Combined with NewVersion this gives the
  /// checkpoint-and-revert workflow of versioned design objects.
  Status RevertToVersion(PageId table_root, LocalOid local, uint32_t vnum);

  /// Entry metadata (type code, current vnum, flags) without reading data.
  Status GetInfo(PageId table_root, LocalOid local,
                 ObjectTable::Entry* entry) const;

  /// Existing version numbers of the object, ascending (ends with the
  /// current version). Deleted versions are absent.
  Status ListVersions(PageId table_root, LocalOid local,
                      std::vector<uint32_t>* vnums) const;

  /// The version-derivation tree (footnote 15 of the paper; realized fully
  /// in its reference [4]): (vnum, parent_vnum) edges for every existing
  /// version plus the current one. Parent kNoParentVersion marks a root.
  Status ListVersionTree(
      PageId table_root, LocalOid local,
      std::vector<std::pair<uint32_t, uint32_t>>* edges) const;

  /// Records that the current content now derives from `parent_vnum`
  /// (used by revert/branch operations).
  Status SetDerivation(PageId table_root, LocalOid local,
                       uint32_t parent_vnum);

  /// First live (allocated, untombstoned) head with index >= `start`;
  /// *found=false past the end.
  Status NextHead(PageId table_root, LocalOid start, LocalOid* local,
                  bool* found) const;

  /// The heads in [lo, hi) with their entries, in one pass over the entry
  /// pages; returns the table's high-water mark (ObjectTable::ScanHeads).
  /// Snapshot scans pass `include_tombstones` and resolve visibility per
  /// object.
  Result<uint32_t> ScanHeads(PageId table_root, LocalOid lo, LocalOid hi,
                             bool include_tombstones,
                             std::vector<ObjectTable::Head>* out) const;

  /// Called per head by ForEachHead; setting *stop ends the walk.
  using HeadVisitor =
      std::function<Status(const ObjectTable::Head& head, bool* stop)>;

  /// Visits the heads from index `start` on, in index order, reading one
  /// entry page of them at a time (ScanHeads), so memory stays one page of
  /// heads whatever the table's size. The end is re-read with every page:
  /// `visit` may free or add entries.
  Status ForEachHead(PageId table_root, LocalOid start,
                     bool include_tombstones, const HeadVisitor& visit) const;

  /// High-water mark of entry indexes for the cluster.
  Result<uint32_t> NumEntries(PageId table_root) const;

  /// The cluster's object-table entry pages, in directory order. Parallel
  /// scans hand these to BufferPool::Prefetch so a cold scan loads the
  /// table with batched sequential reads instead of per-page demand misses.
  Status ListEntryPages(PageId table_root, std::vector<PageId>* pages) const;

  StorageEngine* engine() { return engine_; }

 private:
  /// Writes `data` as a record, inline or overflow; fills location fields
  /// (page/slot/kFlagOverflow) of `entry`.
  Status WriteRecord(ObjectTable* table, const Slice& data,
                     ObjectTable::Entry* entry);

  /// Frees the record referenced by `entry` (inline slot or overflow chain).
  /// No-op for record-less entries (tombstones).
  Status FreeRecord(ObjectTable* table, const ObjectTable::Entry& entry);

  /// Reads the raw record bytes referenced by `entry`.
  Status ReadRecord(const ObjectTable::Entry& entry, std::string* data) const;

  /// Physically frees the whole chain of head `local` — records and entries,
  /// including retained images and explicit versions. Used by DropTable and
  /// by the GC once a tombstone passes the watermark.
  Status PurgeObject(ObjectTable* table, LocalOid local);

  StorageEngine* engine_;
};

}  // namespace ode

#endif  // ODE_OBJSTORE_OBJECT_STORE_H_
