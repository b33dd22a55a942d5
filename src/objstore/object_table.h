#ifndef ODE_OBJSTORE_OBJECT_TABLE_H_
#define ODE_OBJSTORE_OBJECT_TABLE_H_

#include <cstdint>
#include <vector>

#include "objstore/object_id.h"
#include "storage/engine.h"
#include "util/status.h"

namespace ode {

/// One object table exists per cluster. It maps a LocalOid to the physical
/// location of the object's record plus identity metadata (type code,
/// version-chain links). The indirection lets records move between pages
/// without invalidating object ids — the paper's stable object identity.
///
/// Structure on disk:
///  * root/directory pages (PageType::kTableRoot), chained, listing entry
///    pages; the first root also carries allocation state;
///  * entry pages (PageType::kObjectTable) holding fixed 32-byte entries.
class ObjectTable {
 public:
  /// Entry flag bits.
  static constexpr uint16_t kFlagAllocated = 1 << 0;
  static constexpr uint16_t kFlagVersion = 1 << 1;   ///< Old version, not head.
  static constexpr uint16_t kFlagOverflow = 1 << 2;  ///< Record is a chain ref.
  /// Head of a deleted object: no record of its own, but the version chain
  /// behind it is kept until the GC watermark passes the deletion stamp so
  /// older snapshots still resolve the pre-delete content
  /// (docs/CONCURRENCY.md "MVCC snapshot reads").
  static constexpr uint16_t kFlagTombstone = 1 << 3;
  /// MVCC-retained pre-update image (always together with kFlagVersion).
  /// Invisible to the user-level version operations (vnum duplicates its
  /// successor's); reclaimed by the version GC, unlike the paper's explicit
  /// newversion snapshots which are permanent.
  static constexpr uint16_t kFlagRetained = 1 << 4;

  /// Sentinel parent version for "root of the derivation tree".
  static constexpr uint32_t kNoParentVersion = 0xFFFFFFFFu;
  /// Entries per entry page (a 4 KiB page: an 8-byte header, then 32-byte
  /// entries). Scans cut their ranges on these page boundaries.
  static constexpr uint32_t kEntriesPerPage = 127;

  /// Decoded object-table entry.
  struct Entry {
    PageId page = kInvalidPageId;  ///< Data page (or overflow first page).
    uint16_t slot = 0;
    uint16_t flags = 0;
    uint32_t type_code = 0;
    LocalOid prev_version = kInvalidLocalOid;
    uint32_t vnum = 0;
    /// Version this one's content derives from (the version-*tree* edge of
    /// the paper's footnote 15 / reference [4]); kNoParentVersion for v0.
    uint32_t parent_vnum = kNoParentVersion;
    /// Publish sequence of the commit that wrote this version (0 = pre-MVCC
    /// writer). A snapshot minted at S sees the newest chain entry with
    /// commit_seq <= S.
    uint64_t commit_seq = 0;

    bool allocated() const { return flags & kFlagAllocated; }
    bool is_version() const { return flags & kFlagVersion; }
    bool overflow() const { return flags & kFlagOverflow; }
    bool tombstone() const { return flags & kFlagTombstone; }
    bool retained() const { return flags & kFlagRetained; }
  };

  ObjectTable(StorageEngine* engine, PageId root) : engine_(engine), root_(root) {}

  /// Allocates a fresh table (one root page) within the active transaction.
  static Status Create(StorageEngine* engine, PageId* root);

  /// Frees all table pages. The caller must have freed all records first.
  Status Drop();

  /// Allocates an entry index (reusing freed indexes when available).
  Status AllocEntry(LocalOid* local);

  /// Returns `local` to the free-entry list.
  Status FreeEntry(LocalOid local);

  Status GetEntry(LocalOid local, Entry* entry) const;
  Status SetEntry(LocalOid local, const Entry& entry);

  /// High-water mark: every allocated entry index is < this value.
  Result<uint32_t> NumEntries() const;

  /// Finds the first entry index >= `start` that is an allocated head
  /// (allocated, not an old version). Sets *found=false past the end.
  /// Tombstoned heads are skipped unless `include_tombstones` — snapshot
  /// scans pass true and resolve per-object visibility themselves (an older
  /// snapshot may still see the pre-delete content behind a tombstone).
  Status NextHead(LocalOid start, LocalOid* local, bool* found,
                  bool include_tombstones = false) const;

  /// One head found by ScanHeads, with its decoded entry.
  struct Head {
    LocalOid local = kInvalidLocalOid;
    Entry entry;
  };

  /// Every head NextHead would return in [lo, hi), in index order, each
  /// with the entry GetEntry would decode — in one pass: one directory walk
  /// and one fetch per entry page, where a NextHead + GetEntry loop pays a
  /// directory walk and two entry-page fetches per head. `hi` is clamped to
  /// the high-water mark, which is returned (read from the same root fetch),
  /// so an empty range measures the table without walking it.
  Result<uint32_t> ScanHeads(LocalOid lo, LocalOid hi, bool include_tombstones,
                             std::vector<Head>* out) const;

  /// The page currently targeted for record inserts (kInvalidPageId if none
  /// yet); maintained by the ObjectStore.
  Result<PageId> GetCurrentDataPage() const;
  Status SetCurrentDataPage(PageId page);

  PageId root() const { return root_; }

  /// Collects the table's own pages: the root/directory chain and the entry
  /// pages it references (integrity checking).
  Status ListStructurePages(std::vector<PageId>* root_pages,
                            std::vector<PageId>* entry_pages) const;

  /// Head of the freed-entry-index list (kInvalidLocalOid when empty).
  Result<LocalOid> GetFreeEntryHead() const;

  /// Returns fully-vacated trailing entry pages (and emptied directory
  /// roots) to the storage allocator after a mass delete: lowers the
  /// high-water mark to the last allocated entry, drops free-list nodes
  /// that lived beyond it, then frees every entry page past the new mark.
  /// Only the contiguous tail can go — the directory is strictly dense, so
  /// interior pages with holes stay and serve reuse through the free list.
  /// `released` (optional) receives the number of pages handed back.
  Status ReleaseTrailingFreePages(uint32_t* released);

 private:
  /// The entry page that holds entry index `local`; NotFound past the
  /// directory's end. Read-only, so no snapshot read can reach a page
  /// allocation (or the writer token it takes) through it.
  Status LocateEntryPage(LocalOid local, PageId* page) const;

  /// Adds the entry page for `local`, the first index past the last entry
  /// page, chaining a new directory root when the last one is full
  /// (AllocEntry).
  Status AppendEntryPage(LocalOid local);

  StorageEngine* engine_;
  PageId root_;
};

}  // namespace ode

#endif  // ODE_OBJSTORE_OBJECT_TABLE_H_
