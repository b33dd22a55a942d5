#include "query/index_manager.h"

#include <cstring>

#include "util/coding.h"

namespace ode {

namespace {

// Root-pointer page layout:
//   [0]      page type (kIndexRoot)
//   [1..3]   pad
//   [4..7]   current B-tree root id (u32)
//   [8..15]  index id (u64, diagnostics)
constexpr uint32_t kBTreeRootOff = 4;
constexpr uint32_t kIndexIdOff = 8;

bool StartsWith(const Slice& s, const Slice& prefix) {
  return s.size() >= prefix.size() &&
         memcmp(s.data(), prefix.data(), prefix.size()) == 0;
}

// The (user key, oid) group prefix a versioned composite is built from.
std::string GroupKey(const std::string& user_key, Oid oid) {
  std::string key = user_key;
  index_key::AppendBigEndian64(&key, oid.Pack());
  return key;
}

}  // namespace

Status IndexManager::CreateIndex(const std::string& name, ClusterId cluster,
                                 Extractor extractor) {
  if (catalog_->FindIndex(name) != nullptr) {
    return Status::AlreadyExists("index " + name);
  }
  PageId root;
  ODE_RETURN_IF_ERROR(BTree::Create(engine_, &root));
  CatalogData::IndexEntry entry;
  entry.name = name;
  entry.cluster = cluster;
  entry.id = catalog_->next_index_id++;
  PageHandle pointer;
  ODE_RETURN_IF_ERROR(engine_->AllocPage(&entry.root_page, &pointer));
  char* data = pointer.mutable_data();
  memset(data, 0, kPageSize);
  data[0] = static_cast<char>(PageType::kIndexRoot);
  EncodeFixed32(data + kBTreeRootOff, root);
  EncodeFixed64(data + kIndexIdOff, entry.id);
  catalog_->indexes.push_back(entry);
  ODE_RETURN_IF_ERROR(save_catalog_());
  extractors_[name] = std::move(extractor);
  return Status::OK();
}

Status IndexManager::DropIndex(const std::string& name) {
  const CatalogData::IndexEntry* entry = catalog_->FindIndex(name);
  if (entry == nullptr) return Status::NotFound("index " + name);
  PageId root;
  ODE_RETURN_IF_ERROR(ReadRoot(*entry, &root));
  BTree tree(engine_, root);
  ODE_RETURN_IF_ERROR(tree.Drop());
  ODE_RETURN_IF_ERROR(engine_->FreePage(entry->root_page));
  auto& v = catalog_->indexes;
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (it->name == name) {
      v.erase(it);
      break;
    }
  }
  extractors_.erase(name);
  return save_catalog_();
}

void IndexManager::RegisterExtractor(const std::string& name,
                                     Extractor extractor) {
  extractors_[name] = std::move(extractor);
}

bool IndexManager::HasExtractor(const std::string& name) const {
  return extractors_.count(name) > 0;
}

Status IndexManager::CaptureKeys(
    ClusterId cluster, const void* obj,
    std::vector<std::pair<std::string, std::string>>* keys) const {
  keys->clear();
  for (const auto& entry : catalog_->indexes) {
    if (entry.cluster != cluster) continue;
    auto it = extractors_.find(entry.name);
    if (it == extractors_.end()) {
      return Status::NotSupported(
          "index '" + entry.name +
          "' has no extractor attached in this program; call "
          "AttachIndexExtractor before writing to its cluster");
    }
    keys->emplace_back(entry.name, it->second(obj));
  }
  return Status::OK();
}

Status IndexManager::ReadRoot(const CatalogData::IndexEntry& entry,
                              PageId* root) const {
  PageHandle pointer;
  ODE_RETURN_IF_ERROR(engine_->GetPageRead(entry.root_page, &pointer));
  if (pointer.data()[0] != static_cast<char>(PageType::kIndexRoot)) {
    return Status::Corruption("index '" + entry.name +
                              "' root-pointer page has wrong type");
  }
  *root = DecodeFixed32(pointer.data() + kBTreeRootOff);
  return Status::OK();
}

Status IndexManager::SetRoot(const CatalogData::IndexEntry& entry,
                             PageId root) {
  PageHandle pointer;
  ODE_RETURN_IF_ERROR(engine_->GetPageWrite(entry.root_page, &pointer));
  EncodeFixed32(pointer.mutable_data() + kBTreeRootOff, root);
  return Status::OK();
}

Status IndexManager::WithTree(const CatalogData::IndexEntry& entry,
                              const std::function<Status(BTree&)>& fn) {
  PageId root;
  ODE_RETURN_IF_ERROR(ReadRoot(entry, &root));
  BTree tree(engine_, root);
  ODE_RETURN_IF_ERROR(fn(tree));
  if (tree.root() != root) {
    // A root split: record the new root on the pointer page — an ordinary
    // shadowed write inside this transaction, NOT a catalog save.
    ODE_RETURN_IF_ERROR(SetRoot(entry, tree.root()));
  }
  return Status::OK();
}

Status IndexManager::AddEntry(const std::string& name,
                              const std::string& user_key, Oid oid) {
  const CatalogData::IndexEntry* entry = catalog_->FindIndex(name);
  if (entry == nullptr) return Status::NotFound("index " + name);
  m_entries_added_->Add();
  ODE_ASSIGN_OR_RETURN(const uint64_t stamp, engine_->WriteStampSeq());
  const std::string composite = index_key::Compose(user_key, oid, stamp);
  const uint64_t value = index_key::MakeValue(oid, /*tombstone=*/false);
  return WithTree(*entry, [&](BTree& tree) {
    Status s = tree.Insert(Slice(composite), value);
    if (s.IsAlreadyExists()) {
      // This transaction already wrote a version at its own stamp (a
      // remove-then-re-add of the same key, or a repeated backfill):
      // overwrite it — last write wins within one publish.
      bool deleted = false;
      ODE_RETURN_IF_ERROR(tree.Delete(Slice(composite), &deleted));
      s = tree.Insert(Slice(composite), value);
    }
    return s;
  });
}

Status IndexManager::RemoveEntry(const std::string& name,
                                 const std::string& user_key, Oid oid) {
  const CatalogData::IndexEntry* entry = catalog_->FindIndex(name);
  if (entry == nullptr) return Status::NotFound("index " + name);
  m_entries_removed_->Add();
  ODE_ASSIGN_OR_RETURN(const uint64_t stamp, engine_->WriteStampSeq());
  const std::string group = GroupKey(user_key, oid);
  return WithTree(*entry, [&](BTree& tree) {
    // Resolve the group's newest version. Committed entries are stamped
    // below our reserved publish sequence; an entry AT our stamp is our
    // own uncommitted write (other transactions' writes live in their
    // private shadows, invisible here).
    BTree::Iterator it;
    ODE_RETURN_IF_ERROR(tree.SeekGE(Slice(group), &it));
    if (!it.Valid() || !StartsWith(it.key(), Slice(group))) {
      return Status::OK();  // no such entry — removal is idempotent
    }
    if (index_key::IsTombstoneValue(it.value())) {
      return Status::OK();  // already logically removed
    }
    const std::string newest(it.key().data(), it.key().size());
    it = BTree::Iterator();  // drop the leaf pin before mutating
    if (index_key::SeqOf(Slice(newest)) == stamp) {
      // Our own uncommitted add: a same-transaction insert+delete nets to
      // nothing — drop it physically instead of pairing it with a
      // tombstone no snapshot could ever see.
      bool deleted = false;
      return tree.Delete(Slice(newest), &deleted);
    }
    // The newest version is a committed add: supersede it with a tombstone
    // stamped at our publish sequence. Snapshots cut before the stamp keep
    // resolving the old add; later readers see the key as gone.
    return tree.Insert(Slice(index_key::Compose(user_key, oid, stamp)),
                       index_key::MakeValue(oid, /*tombstone=*/true));
  });
}

Status IndexManager::OnInsert(ClusterId cluster, Oid oid, const void* obj) {
  std::vector<std::pair<std::string, std::string>> keys;
  ODE_RETURN_IF_ERROR(CaptureKeys(cluster, obj, &keys));
  for (const auto& [name, key] : keys) {
    ODE_RETURN_IF_ERROR(AddEntry(name, key, oid));
  }
  return Status::OK();
}

Status IndexManager::OnErase(ClusterId cluster, Oid oid, const void* obj) {
  std::vector<std::pair<std::string, std::string>> keys;
  ODE_RETURN_IF_ERROR(CaptureKeys(cluster, obj, &keys));
  for (const auto& [name, key] : keys) {
    ODE_RETURN_IF_ERROR(RemoveEntry(name, key, oid));
  }
  return Status::OK();
}

Status IndexManager::OnUpdate(
    ClusterId cluster, Oid oid,
    const std::vector<std::pair<std::string, std::string>>& old_keys,
    const void* new_obj) {
  std::vector<std::pair<std::string, std::string>> new_keys;
  ODE_RETURN_IF_ERROR(CaptureKeys(cluster, new_obj, &new_keys));
  // Both lists follow catalog order; diff pairwise by index name.
  for (const auto& [name, old_key] : old_keys) {
    std::string new_key;
    bool still_indexed = false;
    for (const auto& [nname, nkey] : new_keys) {
      if (nname == name) {
        new_key = nkey;
        still_indexed = true;
        break;
      }
    }
    if (still_indexed && new_key == old_key) continue;
    ODE_RETURN_IF_ERROR(RemoveEntry(name, old_key, oid));
    if (still_indexed) {
      ODE_RETURN_IF_ERROR(AddEntry(name, new_key, oid));
    }
  }
  // Indexes created after the old capture: insert fresh keys.
  for (const auto& [nname, nkey] : new_keys) {
    bool had_old = false;
    for (const auto& [name, unused] : old_keys) {
      (void)unused;
      if (name == nname) {
        had_old = true;
        break;
      }
    }
    if (!had_old) {
      ODE_RETURN_IF_ERROR(AddEntry(nname, nkey, oid));
    }
  }
  return Status::OK();
}

Status IndexManager::ScanExact(const std::string& name,
                               const std::string& user_key,
                               std::vector<Oid>* out, uint64_t as_of) const {
  return ScanRange(name, user_key, user_key + std::string(1, '\x01'), out,
                   as_of);
}

Status IndexManager::ScanAtSnapshot(const std::string& name,
                                    const std::string& lo,
                                    const std::string* hi, uint64_t as_of,
                                    std::vector<Oid>* out) const {
  // Equal SyncedSeq before and after proves no publish moved the tree
  // under the walk (which could mix old and new page images and tear it);
  // a retry re-reads the same versioned entries and converges to the
  // identical answer for the cut. GC cannot remove an entry the snapshot
  // resolves: the watermark is at most its sequence.
  if (catalog_->FindIndex(name) == nullptr) {
    return Status::NotFound("index " + name);
  }
  for (int attempt = 0; attempt < kSnapshotScanAttempts; ++attempt) {
    const uint64_t before = engine_->SyncedSeq();
    Status s = hi == nullptr ? ScanExact(name, lo, out, as_of)
                             : ScanRange(name, lo, *hi, out, as_of);
    if (s.ok() && engine_->SyncedSeq() == before) return Status::OK();
  }
  return Status::Busy("snapshot scan of index " + name +
                      " kept racing commits");
}

Status IndexManager::ScanRange(const std::string& name, const std::string& lo,
                               const std::string& hi, std::vector<Oid>* out,
                               uint64_t as_of) const {
  m_probes_->Add();
  out->clear();
  const CatalogData::IndexEntry* entry = catalog_->FindIndex(name);
  if (entry == nullptr) return Status::NotFound("index " + name);
  PageId root;
  ODE_RETURN_IF_ERROR(ReadRoot(*entry, &root));
  BTree tree(engine_, root);
  BTree::Iterator it;
  ODE_RETURN_IF_ERROR(tree.SeekGE(Slice(lo), &it));
  // Versions of one (user key, oid) group are adjacent, newest first. Each
  // group resolves to its newest version with commit_seq <= as_of: emit the
  // oid if that version is a live add, emit nothing if it is a tombstone,
  // and skip every older (superseded) version.
  std::string resolved_group;
  bool have_group = false;
  while (it.Valid()) {
    const Slice composite = it.key();
    const Slice prefix = index_key::UserKeyPrefix(composite);
    if (!hi.empty() && prefix.compare(Slice(hi)) >= 0) break;
    const Slice group = index_key::GroupPrefix(composite);
    if (have_group && group.compare(Slice(resolved_group)) == 0) {
      ODE_RETURN_IF_ERROR(it.Next());
      continue;
    }
    if (index_key::SeqOf(composite) > as_of) {
      // Too new for this cut; an older version of the group may still be
      // visible, so do not mark the group resolved yet.
      ODE_RETURN_IF_ERROR(it.Next());
      continue;
    }
    resolved_group.assign(group.data(), group.size());
    have_group = true;
    if (!index_key::IsTombstoneValue(it.value())) {
      out->push_back(index_key::OidSuffix(composite));
    }
    ODE_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

Result<uint64_t> IndexManager::CountEntries(const std::string& name,
                                            uint64_t as_of) const {
  std::vector<Oid> oids;
  ODE_RETURN_IF_ERROR(ScanRange(name, "", "", &oids, as_of));
  return static_cast<uint64_t>(oids.size());
}

Result<uint64_t> IndexManager::CountAllVersions(const std::string& name) const {
  const CatalogData::IndexEntry* entry = catalog_->FindIndex(name);
  if (entry == nullptr) return Status::NotFound("index " + name);
  PageId root;
  ODE_RETURN_IF_ERROR(ReadRoot(*entry, &root));
  BTree tree(engine_, root);
  return tree.CountAll();
}

Status IndexManager::SweepIndex(const std::string& name, uint64_t watermark,
                                uint64_t* reclaimed) {
  const CatalogData::IndexEntry* entry = catalog_->FindIndex(name);
  if (entry == nullptr) return Status::NotFound("index " + name);
  PageId root;
  ODE_RETURN_IF_ERROR(ReadRoot(*entry, &root));
  BTree tree(engine_, root);
  // Every active or future snapshot has seq >= watermark and resolves each
  // group to its newest version with commit_seq <= its seq — which is at or
  // above the version resolving at the watermark. Versions OLDER than the
  // watermark-resolved one are therefore unreachable; the resolved one
  // itself dies too when it is a tombstone (the group then resolves to
  // nothing, exactly what a tombstone means).
  std::vector<std::string> doomed;
  {
    BTree::Iterator it;
    ODE_RETURN_IF_ERROR(tree.SeekFirst(&it));
    std::string group;
    bool have_group = false;
    bool group_resolved = false;
    while (it.Valid()) {
      const Slice composite = it.key();
      const Slice g = index_key::GroupPrefix(composite);
      if (!have_group || g.compare(Slice(group)) != 0) {
        group.assign(g.data(), g.size());
        have_group = true;
        group_resolved = false;
      }
      if (group_resolved) {
        doomed.emplace_back(composite.data(), composite.size());
      } else if (index_key::SeqOf(composite) <= watermark) {
        group_resolved = true;
        if (index_key::IsTombstoneValue(it.value())) {
          doomed.emplace_back(composite.data(), composite.size());
        }
      }
      ODE_RETURN_IF_ERROR(it.Next());
    }
  }
  ODE_RETURN_IF_ERROR(WithTree(*entry, [&](BTree& t) {
    for (const std::string& key : doomed) {
      bool deleted = false;
      ODE_RETURN_IF_ERROR(t.Delete(Slice(key), &deleted));
    }
    return Status::OK();
  }));
  if (reclaimed != nullptr) *reclaimed = doomed.size();
  return Status::OK();
}

}  // namespace ode
