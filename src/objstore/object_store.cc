#include "objstore/object_store.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "storage/overflow.h"
#include "storage/slotted_page.h"

namespace ode {

namespace {

/// Lock-free snapshot walks can race a publishing commit (the walk spans
/// pages; installs are per-page atomic): a version-GC pass, or an update
/// whose head entry is installed before the retained image it links to.
/// Freed or not-yet-installed entries are detected by flag validation; the
/// walk waits out the install (StorageEngine::AwaitPublish) and retries from
/// the head. The bound converts a genuinely corrupt chain into an error
/// instead of a livelock.
constexpr int kSnapshotRetryLimit = 8;

/// Defensive ceiling on chain hops (a cycle would otherwise spin forever).
constexpr uint32_t kSnapshotChainLimit = 1u << 20;

}  // namespace

Status ObjectStore::CreateTable(PageId* table_root) {
  return ObjectTable::Create(engine_, table_root);
}

Status ObjectStore::DropTable(PageId table_root) {
  // Physically purge every head (frees records and version chains,
  // including tombstones and retained images — the core layer gates cluster
  // drops on "no active snapshots", so nothing can still need them).
  ObjectTable table(engine_, table_root);
  ODE_RETURN_IF_ERROR(ForEachHead(
      table_root, 0, /*include_tombstones=*/true,
      [&](const ObjectTable::Head& head, bool*) {
        return PurgeObject(&table, head.local);
      }));
  // The current insert page survives per-record deletion; release it.
  ODE_ASSIGN_OR_RETURN(PageId current, table.GetCurrentDataPage());
  if (current != kInvalidPageId) {
    ODE_RETURN_IF_ERROR(engine_->FreePage(current));
  }
  return table.Drop();
}

Status ObjectStore::WriteRecord(ObjectTable* table, const Slice& data,
                                ObjectTable::Entry* entry) {
  if (data.size() > kInlineRecordMax) {
    PageId first;
    ODE_RETURN_IF_ERROR(overflow::WriteChain(engine_, data, &first));
    entry->page = first;
    entry->slot = 0;
    entry->flags |= ObjectTable::kFlagOverflow;
    return Status::OK();
  }
  entry->flags &= static_cast<uint16_t>(~ObjectTable::kFlagOverflow);
  // Try the cluster's current insert page.
  ODE_ASSIGN_OR_RETURN(PageId current, table->GetCurrentDataPage());
  if (current != kInvalidPageId) {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageWrite(current, &handle));
    uint16_t slot;
    if (SlottedPage::Insert(handle.mutable_data(), data, &slot)) {
      entry->page = current;
      entry->slot = slot;
      return Status::OK();
    }
  }
  // Start a fresh data page.
  PageId fresh;
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->AllocPage(&fresh, &handle));
  SlottedPage::Init(handle.mutable_data(), PageType::kSlotted, 0);
  uint16_t slot;
  if (!SlottedPage::Insert(handle.mutable_data(), data, &slot)) {
    return Status::Corruption("record does not fit an empty page");
  }
  handle.Release();
  ODE_RETURN_IF_ERROR(table->SetCurrentDataPage(fresh));
  entry->page = fresh;
  entry->slot = slot;
  return Status::OK();
}

Status ObjectStore::FreeRecord(ObjectTable* table,
                               const ObjectTable::Entry& entry) {
  if (entry.page == kInvalidPageId) return Status::OK();  // Tombstone.
  if (entry.overflow()) {
    return overflow::FreeChain(engine_, entry.page);
  }
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageWrite(entry.page, &handle));
  SlottedPage::Delete(handle.mutable_data(), entry.slot);
  // Reclaim fully-empty pages (but keep the current insert target).
  if (SlottedPage::SlotCount(handle.data()) == 0) {
    ODE_ASSIGN_OR_RETURN(PageId current, table->GetCurrentDataPage());
    if (entry.page != current) {
      handle.Release();
      return engine_->FreePage(entry.page);
    }
  }
  return Status::OK();
}

Status ObjectStore::ReadRecord(const ObjectTable::Entry& entry,
                               std::string* data) const {
  if (entry.overflow()) {
    return overflow::ReadChain(engine_, entry.page, data);
  }
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageRead(entry.page, &handle));
  Slice record;
  if (!SlottedPage::Read(handle.data(), entry.slot, &record)) {
    return Status::Corruption("missing record at page " +
                              std::to_string(entry.page) + " slot " +
                              std::to_string(entry.slot));
  }
  data->assign(record.data(), record.size());
  return Status::OK();
}

Status ObjectStore::Insert(PageId table_root, uint32_t type_code,
                           const Slice& data, LocalOid* local) {
  ObjectTable table(engine_, table_root);
  ODE_ASSIGN_OR_RETURN(const uint64_t stamp, engine_->WriteStampSeq());
  ODE_RETURN_IF_ERROR(table.AllocEntry(local));
  ObjectTable::Entry entry;
  entry.flags = ObjectTable::kFlagAllocated;
  entry.type_code = type_code;
  entry.prev_version = kInvalidLocalOid;
  entry.vnum = 0;
  entry.commit_seq = stamp;
  Status s = WriteRecord(&table, data, &entry);
  if (!s.ok()) {
    // Best-effort cleanup of the just-allocated slot; the write error is the
    // one the caller must see, and the abort path reclaims the page anyway.
    IgnoreStatus(table.FreeEntry(*local), "insert-cleanup-free-entry");
    return s;
  }
  return table.SetEntry(*local, entry);
}

Status ObjectStore::Read(PageId table_root, LocalOid local, uint32_t vnum,
                         std::string* data, uint32_t* type_code,
                         uint32_t* resolved_vnum) const {
  ObjectTable table(engine_, table_root);
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &entry));
  if (!entry.allocated() || entry.is_version() || entry.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  if (vnum != kGenericVersion && vnum > entry.vnum) {
    return Status::NotFound("version " + std::to_string(vnum) +
                            " of object " + std::to_string(local));
  }
  // Walk the version chain to the requested version.
  LocalOid at = local;
  while (vnum != kGenericVersion && entry.vnum != vnum) {
    at = entry.prev_version;
    if (at == kInvalidLocalOid) {
      return Status::NotFound("version " + std::to_string(vnum) +
                              " of object " + std::to_string(local) +
                              " (deleted)");
    }
    ODE_RETURN_IF_ERROR(table.GetEntry(at, &entry));
    if (entry.vnum < vnum && vnum != kGenericVersion) {
      return Status::NotFound("version " + std::to_string(vnum) +
                              " of object " + std::to_string(local) +
                              " (deleted)");
    }
  }
  if (type_code != nullptr) *type_code = entry.type_code;
  if (resolved_vnum != nullptr) *resolved_vnum = entry.vnum;
  return ReadRecord(entry, data);
}

Status ObjectStore::Update(PageId table_root, LocalOid local,
                           const Slice& data) {
  ObjectTable table(engine_, table_root);
  ODE_ASSIGN_OR_RETURN(const uint64_t stamp, engine_->WriteStampSeq());
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &entry));
  if (!entry.allocated() || entry.is_version() || entry.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  if (entry.commit_seq != stamp) {
    // First update of a committed object in this transaction: retain the
    // committed image on the version chain (same vnum, kFlagRetained) so
    // active snapshots keep resolving it, and give the head a fresh record
    // under this transaction's stamp. The version GC reclaims the retained
    // image once the watermark passes the new stamp.
    LocalOid retained;
    ODE_RETURN_IF_ERROR(table.AllocEntry(&retained));
    ObjectTable::Entry image = entry;
    image.flags |= ObjectTable::kFlagVersion | ObjectTable::kFlagRetained;
    ODE_RETURN_IF_ERROR(table.SetEntry(retained, image));
    ObjectTable::Entry new_head = entry;
    new_head.prev_version = retained;
    new_head.commit_seq = stamp;
    ODE_RETURN_IF_ERROR(WriteRecord(&table, data, &new_head));
    return table.SetEntry(local, new_head);
  }
  // The head record was written by this transaction (nothing else can see
  // it): rewrite it in place / relocate as before MVCC.
  const bool was_overflow = entry.overflow();
  const bool now_overflow = data.size() > kInlineRecordMax;
  if (!was_overflow && !now_overflow) {
    // Try updating in place on the same page.
    const PageId old_page = entry.page;
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageWrite(old_page, &handle));
    if (SlottedPage::Update(handle.mutable_data(), entry.slot, data)) {
      return Status::OK();
    }
    // No room: the slot was freed by the failed update; relocate.
    const bool old_page_empty = SlottedPage::SlotCount(handle.data()) == 0;
    handle.Release();
    ODE_RETURN_IF_ERROR(WriteRecord(&table, data, &entry));
    ODE_RETURN_IF_ERROR(table.SetEntry(local, entry));
    // Reclaim the old page if the eviction emptied it (and nothing else
    // still uses it).
    if (old_page_empty && entry.page != old_page) {
      ODE_ASSIGN_OR_RETURN(PageId current, table.GetCurrentDataPage());
      if (old_page != current) {
        ODE_RETURN_IF_ERROR(engine_->FreePage(old_page));
      }
    }
    return Status::OK();
  }
  // Representation change or overflow rewrite: free old, write new.
  ODE_RETURN_IF_ERROR(FreeRecord(&table, entry));
  ODE_RETURN_IF_ERROR(WriteRecord(&table, data, &entry));
  return table.SetEntry(local, entry);
}

Status ObjectStore::Delete(PageId table_root, LocalOid local) {
  ObjectTable table(engine_, table_root);
  ODE_ASSIGN_OR_RETURN(const uint64_t stamp, engine_->WriteStampSeq());
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &entry));
  if (!entry.allocated() || entry.is_version() || entry.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  LocalOid committed = local;
  ObjectTable::Entry committed_entry = entry;
  if (entry.commit_seq == stamp) {
    // Chain entries written by this transaction were never visible to any
    // snapshot; free them physically. They form a prefix of the chain (new
    // entries are always linked in above committed ones).
    ODE_RETURN_IF_ERROR(FreeRecord(&table, entry));
    committed = entry.prev_version;
    while (committed != kInvalidLocalOid) {
      ODE_RETURN_IF_ERROR(table.GetEntry(committed, &committed_entry));
      if (committed_entry.commit_seq != stamp) break;
      ODE_RETURN_IF_ERROR(FreeRecord(&table, committed_entry));
      const LocalOid next = committed_entry.prev_version;
      ODE_RETURN_IF_ERROR(table.FreeEntry(committed));
      committed = next;
    }
    if (committed == kInvalidLocalOid) {
      // Entirely written by this transaction: plain physical delete.
      return table.FreeEntry(local);
    }
  } else {
    // Retain the committed head image as a chain entry the tombstone
    // points at.
    ODE_RETURN_IF_ERROR(table.AllocEntry(&committed));
    ObjectTable::Entry image = entry;
    image.flags |= ObjectTable::kFlagVersion | ObjectTable::kFlagRetained;
    ODE_RETURN_IF_ERROR(table.SetEntry(committed, image));
  }
  // Tombstone the head: no record, chain kept for older snapshots; the
  // version GC purges everything once the watermark passes `stamp`.
  ObjectTable::Entry tomb = entry;
  tomb.flags = static_cast<uint16_t>(
      (entry.flags & ~ObjectTable::kFlagOverflow) | ObjectTable::kFlagTombstone);
  tomb.page = kInvalidPageId;
  tomb.slot = 0;
  tomb.prev_version = committed;
  tomb.commit_seq = stamp;
  return table.SetEntry(local, tomb);
}

Status ObjectStore::NewVersion(PageId table_root, LocalOid local,
                               uint32_t* new_vnum) {
  ObjectTable table(engine_, table_root);
  ODE_ASSIGN_OR_RETURN(const uint64_t stamp, engine_->WriteStampSeq());
  ObjectTable::Entry head;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &head));
  if (!head.allocated() || head.is_version() || head.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  // Freeze the current record under a new (non-head) entry. It keeps the
  // head's commit stamp: its content became visible when that commit
  // published, not now.
  LocalOid frozen;
  ODE_RETURN_IF_ERROR(table.AllocEntry(&frozen));
  ObjectTable::Entry frozen_entry = head;
  frozen_entry.flags |= ObjectTable::kFlagVersion;
  ODE_RETURN_IF_ERROR(table.SetEntry(frozen, frozen_entry));
  // Give the head a fresh copy of the record for the new current version.
  std::string data;
  ODE_RETURN_IF_ERROR(ReadRecord(head, &data));
  ObjectTable::Entry new_head = head;
  new_head.prev_version = frozen;
  new_head.vnum = head.vnum + 1;
  new_head.commit_seq = stamp;
  // Derivation: the new current's content comes from the version just
  // frozen (the frozen entry keeps the parent it already had).
  new_head.parent_vnum = head.vnum;
  ODE_RETURN_IF_ERROR(WriteRecord(&table, data, &new_head));
  ODE_RETURN_IF_ERROR(table.SetEntry(local, new_head));
  if (new_vnum != nullptr) *new_vnum = new_head.vnum;
  return Status::OK();
}

Status ObjectStore::DeleteVersion(PageId table_root, LocalOid local,
                                  uint32_t vnum) {
  ObjectTable table(engine_, table_root);
  ObjectTable::Entry head;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &head));
  if (!head.allocated() || head.is_version() || head.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  if (vnum > head.vnum) {
    return Status::NotFound("version " + std::to_string(vnum));
  }
  if (vnum == head.vnum) {
    // Deleting the current version promotes the previous user version;
    // retained pre-update images of the deleted version go with it.
    LocalOid promote_local = head.prev_version;
    ObjectTable::Entry promote;
    std::vector<std::pair<LocalOid, ObjectTable::Entry>> images;
    while (promote_local != kInvalidLocalOid) {
      ODE_RETURN_IF_ERROR(table.GetEntry(promote_local, &promote));
      if (!promote.retained()) break;
      images.emplace_back(promote_local, promote);
      promote_local = promote.prev_version;
    }
    if (promote_local == kInvalidLocalOid) {
      return Status::InvalidArgument(
          "cannot delete the only version; use pdelete");
    }
    ODE_RETURN_IF_ERROR(FreeRecord(&table, head));
    for (const auto& [image_local, image] : images) {
      ODE_RETURN_IF_ERROR(FreeRecord(&table, image));
      ODE_RETURN_IF_ERROR(table.FreeEntry(image_local));
    }
    ObjectTable::Entry promoted = promote;
    promoted.flags &= static_cast<uint16_t>(~ObjectTable::kFlagVersion);
    ODE_RETURN_IF_ERROR(table.SetEntry(local, promoted));
    return table.FreeEntry(promote_local);
  }
  // Find the chain entry with `vnum` and its successor. Retained images
  // duplicate their version's vnum but always sit below the user entry, so
  // the first non-retained match is the one to unlink.
  LocalOid succ_local = local;
  ObjectTable::Entry succ = head;
  while (succ.prev_version != kInvalidLocalOid) {
    ObjectTable::Entry candidate;
    const LocalOid candidate_local = succ.prev_version;
    ODE_RETURN_IF_ERROR(table.GetEntry(candidate_local, &candidate));
    if (candidate.vnum == vnum && !candidate.retained()) {
      // Unlink candidate, then any retained images of the same version.
      succ.prev_version = candidate.prev_version;
      ODE_RETURN_IF_ERROR(table.SetEntry(succ_local, succ));
      ODE_RETURN_IF_ERROR(FreeRecord(&table, candidate));
      ODE_RETURN_IF_ERROR(table.FreeEntry(candidate_local));
      while (succ.prev_version != kInvalidLocalOid) {
        ObjectTable::Entry image;
        const LocalOid image_local = succ.prev_version;
        ODE_RETURN_IF_ERROR(table.GetEntry(image_local, &image));
        if (!image.retained() || image.vnum != vnum) break;
        succ.prev_version = image.prev_version;
        ODE_RETURN_IF_ERROR(table.SetEntry(succ_local, succ));
        ODE_RETURN_IF_ERROR(FreeRecord(&table, image));
        ODE_RETURN_IF_ERROR(table.FreeEntry(image_local));
      }
      return Status::OK();
    }
    if (candidate.vnum < vnum) break;  // Chain is descending; not found.
    succ_local = candidate_local;
    succ = candidate;
  }
  return Status::NotFound("version " + std::to_string(vnum) + " (deleted)");
}

Status ObjectStore::ListVersions(PageId table_root, LocalOid local,
                                 std::vector<uint32_t>* vnums) const {
  vnums->clear();
  ObjectTable table(engine_, table_root);
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &entry));
  if (!entry.allocated() || entry.is_version() || entry.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  while (true) {
    if (!entry.retained()) vnums->push_back(entry.vnum);
    if (entry.prev_version == kInvalidLocalOid) break;
    ODE_RETURN_IF_ERROR(table.GetEntry(entry.prev_version, &entry));
  }
  std::reverse(vnums->begin(), vnums->end());
  return Status::OK();
}

Status ObjectStore::RevertToVersion(PageId table_root, LocalOid local,
                                    uint32_t vnum) {
  std::string data;
  uint32_t type_code = 0, resolved = 0;
  ODE_RETURN_IF_ERROR(
      Read(table_root, local, vnum, &data, &type_code, &resolved));
  return Update(table_root, local, Slice(data));
}

Status ObjectStore::ListVersionTree(
    PageId table_root, LocalOid local,
    std::vector<std::pair<uint32_t, uint32_t>>* edges) const {
  edges->clear();
  ObjectTable table(engine_, table_root);
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &entry));
  if (!entry.allocated() || entry.is_version() || entry.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  while (true) {
    if (!entry.retained()) edges->emplace_back(entry.vnum, entry.parent_vnum);
    if (entry.prev_version == kInvalidLocalOid) break;
    ODE_RETURN_IF_ERROR(table.GetEntry(entry.prev_version, &entry));
  }
  std::reverse(edges->begin(), edges->end());
  return Status::OK();
}

Status ObjectStore::SetDerivation(PageId table_root, LocalOid local,
                                  uint32_t parent_vnum) {
  ObjectTable table(engine_, table_root);
  ObjectTable::Entry head;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &head));
  if (!head.allocated() || head.is_version() || head.tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  head.parent_vnum = parent_vnum;
  return table.SetEntry(local, head);
}

Status ObjectStore::GetInfo(PageId table_root, LocalOid local,
                            ObjectTable::Entry* entry) const {
  ObjectTable table(engine_, table_root);
  ODE_RETURN_IF_ERROR(table.GetEntry(local, entry));
  if (!entry->allocated() || entry->tombstone()) {
    return Status::NotFound("object " + std::to_string(local));
  }
  return Status::OK();
}

Status ObjectStore::NextHead(PageId table_root, LocalOid start,
                             LocalOid* local, bool* found) const {
  ObjectTable table(engine_, table_root);
  return table.NextHead(start, local, found);
}

Result<uint32_t> ObjectStore::ScanHeads(
    PageId table_root, LocalOid lo, LocalOid hi, bool include_tombstones,
    std::vector<ObjectTable::Head>* out) const {
  ObjectTable table(engine_, table_root);
  return table.ScanHeads(lo, hi, include_tombstones, out);
}

Status ObjectStore::ForEachHead(PageId table_root, LocalOid start,
                                bool include_tombstones,
                                const HeadVisitor& visit) const {
  constexpr uint64_t kPage = ObjectTable::kEntriesPerPage;
  ObjectTable table(engine_, table_root);
  std::vector<ObjectTable::Head> heads;
  bool stop = false;
  uint64_t end = kInvalidLocalOid;
  for (uint64_t lo = start, hi; lo < end && !stop; lo = hi) {
    hi = std::min<uint64_t>((lo / kPage + 1) * kPage, kInvalidLocalOid);
    ODE_ASSIGN_OR_RETURN(end, table.ScanHeads(static_cast<LocalOid>(lo),
                                              static_cast<LocalOid>(hi),
                                              include_tombstones, &heads));
    for (size_t i = 0; i < heads.size() && !stop; i++) {
      ODE_RETURN_IF_ERROR(visit(heads[i], &stop));
    }
  }
  return Status::OK();
}

Result<uint32_t> ObjectStore::NumEntries(PageId table_root) const {
  ObjectTable table(engine_, table_root);
  return table.NumEntries();
}

Status ObjectStore::ListEntryPages(PageId table_root,
                                   std::vector<PageId>* pages) const {
  ObjectTable table(engine_, table_root);
  std::vector<PageId> roots;
  return table.ListStructurePages(&roots, pages);
}

namespace {

/// One lock-free visibility walk (docs/CONCURRENCY.md "MVCC snapshot
/// reads"): newest chain entry with commit_seq <= snapshot_seq, then — for a
/// specific version — down to the first entry carrying that vnum (entries
/// below the visibility point all committed at or before the snapshot;
/// stamps are non-increasing down the chain). Returns Busy when the walk
/// steps onto a freed or not-yet-installed entry (a commit mid-publish); the
/// caller retries from the head.
Status ResolveSnapshotOnce(const ObjectTable& table, LocalOid local,
                           uint32_t vnum, uint64_t snapshot_seq,
                           ObjectTable::Entry* out) {
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(table.GetEntry(local, &entry));
  if (!entry.allocated() || entry.is_version()) {
    // Head purged (its tombstone passed the GC watermark, which is <= every
    // active snapshot) or the index was never a head: nothing visible.
    return Status::NotFound("object " + std::to_string(local));
  }
  uint32_t steps = 0;
  while (entry.commit_seq > snapshot_seq) {
    const LocalOid prev = entry.prev_version;
    if (prev == kInvalidLocalOid) {
      return Status::NotFound("object " + std::to_string(local) +
                              " (created after snapshot)");
    }
    ODE_RETURN_IF_ERROR(table.GetEntry(prev, &entry));
    if (!entry.allocated() || !entry.is_version()) {
      return Status::Busy("snapshot walk raced a version-GC publish");
    }
    if (++steps > kSnapshotChainLimit) {
      return Status::Corruption("version chain exceeds sanity limit");
    }
  }
  if (entry.tombstone()) {
    return Status::NotFound("object " + std::to_string(local) +
                            " (deleted before snapshot)");
  }
  if (vnum != kGenericVersion) {
    if (vnum > entry.vnum) {
      return Status::NotFound("version " + std::to_string(vnum) +
                              " of object " + std::to_string(local));
    }
    while (entry.vnum != vnum) {
      if (entry.vnum < vnum || entry.prev_version == kInvalidLocalOid) {
        return Status::NotFound("version " + std::to_string(vnum) +
                                " of object " + std::to_string(local) +
                                " (deleted)");
      }
      ODE_RETURN_IF_ERROR(table.GetEntry(entry.prev_version, &entry));
      if (!entry.allocated() || !entry.is_version()) {
        return Status::Busy("snapshot walk raced a version-GC publish");
      }
      if (++steps > kSnapshotChainLimit) {
        return Status::Corruption("version chain exceeds sanity limit");
      }
    }
  }
  *out = entry;
  return Status::OK();
}

}  // namespace

Status ObjectStore::ResolveSnapshot(PageId table_root, LocalOid local,
                                    uint32_t vnum, uint64_t snapshot_seq,
                                    ObjectTable::Entry* entry) const {
  ObjectTable table(engine_, table_root);
  Status s;
  for (int attempt = 0; attempt < kSnapshotRetryLimit; ++attempt) {
    if (attempt > 0) engine_->AwaitPublish();
    s = ResolveSnapshotOnce(table, local, vnum, snapshot_seq, entry);
    if (!s.IsBusy()) return s;
  }
  return s;
}

Status ObjectStore::ReadSnapshot(PageId table_root, LocalOid local,
                                 uint32_t vnum, uint64_t snapshot_seq,
                                 std::string* data, uint32_t* type_code,
                                 uint32_t* resolved_vnum) const {
  ObjectTable table(engine_, table_root);
  Status s;
  for (int attempt = 0; attempt < kSnapshotRetryLimit; ++attempt) {
    if (attempt > 0) engine_->AwaitPublish();
    ObjectTable::Entry entry;
    s = ResolveSnapshotOnce(table, local, vnum, snapshot_seq, &entry);
    if (s.IsBusy()) continue;
    if (!s.ok()) return s;
    s = ReadRecord(entry, data);
    if (s.ok()) {
      if (type_code != nullptr) *type_code = entry.type_code;
      if (resolved_vnum != nullptr) *resolved_vnum = entry.vnum;
      return Status::OK();
    }
    // A Corruption here can be the same GC race one page later (record
    // freed between resolving the entry and reading it); retry resolves
    // against the post-GC chain.
  }
  return s;
}

Status ObjectStore::ReadSnapshotHead(PageId table_root,
                                     const ObjectTable::Head& head,
                                     uint64_t snapshot_seq, std::string* data,
                                     uint32_t* type_code,
                                     uint32_t* resolved_vnum) const {
  const ObjectTable::Entry& entry = head.entry;
  // A head stamped at or below the cut is where ResolveSnapshotOnce stops
  // without a hop. The cut is minted from the durable horizon, so that
  // image is installed; and the GC watermark is at or below every active
  // cut, so nothing frees its record while this snapshot runs — a later
  // update or delete keeps it, at the same page and slot, as a retained
  // image. The walked entry can thus be read even if the head has moved on.
  if (entry.allocated() && !entry.is_version() &&
      entry.commit_seq <= snapshot_seq) {
    if (entry.tombstone()) {
      return Status::NotFound("object " + std::to_string(head.local) +
                              " (deleted before snapshot)");
    }
    if (!entry.overflow()) {
      Status s = ReadRecord(entry, data);
      if (s.ok()) {
        if (type_code != nullptr) *type_code = entry.type_code;
        if (resolved_vnum != nullptr) *resolved_vnum = entry.vnum;
        return Status::OK();
      }
      if (!s.IsCorruption()) return s;
    }
  }
  return ReadSnapshot(table_root, head.local, kGenericVersion, snapshot_seq,
                      data, type_code, resolved_vnum);
}

Status ObjectStore::PurgeObject(ObjectTable* table, LocalOid local) {
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(table->GetEntry(local, &entry));
  LocalOid at = local;
  while (true) {
    const LocalOid prev = entry.prev_version;
    ODE_RETURN_IF_ERROR(FreeRecord(table, entry));
    ODE_RETURN_IF_ERROR(table->FreeEntry(at));
    if (prev == kInvalidLocalOid) break;
    at = prev;
    ODE_RETURN_IF_ERROR(table->GetEntry(at, &entry));
  }
  return Status::OK();
}

Status ObjectStore::CollectGarbage(PageId table_root, uint64_t watermark,
                                   GcStats* stats) {
  ObjectTable table(engine_, table_root);
  ODE_RETURN_IF_ERROR(ForEachHead(
      table_root, 0, /*include_tombstones=*/true,
      [&](const ObjectTable::Head& head_at, bool*) -> Status {
        const LocalOid local = head_at.local;
        const ObjectTable::Entry& head = head_at.entry;
        if (head.tombstone() && head.commit_seq <= watermark) {
          // The deletion is visible to every active and future snapshot; the
          // whole object can go.
          ODE_RETURN_IF_ERROR(PurgeObject(&table, local));
          if (stats != nullptr) stats->objects_reclaimed++;
          return Status::OK();
        }
        // Reclaim retained images whose successor committed at or before the
        // watermark: every snapshot that could still run stops its visibility
        // walk at or above that successor (stamps are non-increasing down the
        // chain), so the image below it is unreachable.
        LocalOid succ_local = local;
        ObjectTable::Entry succ = head;
        while (succ.prev_version != kInvalidLocalOid) {
          const LocalOid cand_local = succ.prev_version;
          ObjectTable::Entry cand;
          ODE_RETURN_IF_ERROR(table.GetEntry(cand_local, &cand));
          if (cand.retained() && succ.commit_seq <= watermark) {
            succ.prev_version = cand.prev_version;
            ODE_RETURN_IF_ERROR(table.SetEntry(succ_local, succ));
            ODE_RETURN_IF_ERROR(FreeRecord(&table, cand));
            ODE_RETURN_IF_ERROR(table.FreeEntry(cand_local));
            if (stats != nullptr) stats->versions_reclaimed++;
          } else {
            succ_local = cand_local;
            succ = cand;
          }
        }
        return Status::OK();
      }));
  // A mass delete can leave whole trailing entry pages holding nothing but
  // freed slots; hand them back instead of carrying the slack forever.
  uint32_t released = 0;
  ODE_RETURN_IF_ERROR(table.ReleaseTrailingFreePages(&released));
  if (stats != nullptr) stats->pages_reclaimed += released;
  return Status::OK();
}

}  // namespace ode
