#include "objstore/object_table.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/coding.h"

namespace ode {

namespace {

// Root page layout:
//   [0]      page type
//   [1..3]   pad
//   [4..7]   num_entries u32     (first root only)
//   [8..11]  free_entry_head u32 (first root only)
//   [12..15] current_data_page u32 (first root only)
//   [16..19] dir_count u32       (entry-page ids stored in THIS root page)
//   [20..23] next_root u32
//   [24..]   entry-page ids (u32 each)
constexpr uint32_t kNumEntriesOff = 4;
constexpr uint32_t kFreeHeadOff = 8;
constexpr uint32_t kCurrentDataOff = 12;
constexpr uint32_t kDirCountOff = 16;
constexpr uint32_t kNextRootOff = 20;
constexpr uint32_t kDirStartOff = 24;
constexpr uint32_t kDirCap = (kPageSize - kDirStartOff) / 4;  // ids per root

// Entry page layout: [0] type, [1..7] pad, entries from byte 8.
constexpr uint32_t kEntryStart = 8;
constexpr uint32_t kEntrySize = 32;
constexpr uint32_t kEntriesPerPage = ObjectTable::kEntriesPerPage;
static_assert(kEntriesPerPage == (kPageSize - kEntryStart) / kEntrySize,
              "entry page layout");

void EncodeEntry(char* dst, const ObjectTable::Entry& e) {
  EncodeFixed32(dst + 0, e.page);
  EncodeFixed16(dst + 4, e.slot);
  EncodeFixed16(dst + 6, e.flags);
  EncodeFixed32(dst + 8, e.type_code);
  EncodeFixed32(dst + 12, e.prev_version);
  EncodeFixed32(dst + 16, e.vnum);
  EncodeFixed32(dst + 20, e.parent_vnum);
  EncodeFixed64(dst + 24, e.commit_seq);
}

void DecodeEntry(const char* src, ObjectTable::Entry* e) {
  e->page = DecodeFixed32(src + 0);
  e->slot = DecodeFixed16(src + 4);
  e->flags = DecodeFixed16(src + 6);
  e->type_code = DecodeFixed32(src + 8);
  e->prev_version = DecodeFixed32(src + 12);
  e->vnum = DecodeFixed32(src + 16);
  e->parent_vnum = DecodeFixed32(src + 20);
  e->commit_seq = DecodeFixed64(src + 24);
}

void InitRootPage(char* buf) {
  memset(buf, 0, kPageSize);
  buf[0] = static_cast<char>(PageType::kTableRoot);
  EncodeFixed32(buf + kNumEntriesOff, 0);
  EncodeFixed32(buf + kFreeHeadOff, kInvalidLocalOid);
  EncodeFixed32(buf + kCurrentDataOff, kInvalidPageId);
  EncodeFixed32(buf + kDirCountOff, 0);
  EncodeFixed32(buf + kNextRootOff, kInvalidPageId);
}

}  // namespace

Status ObjectTable::Create(StorageEngine* engine, PageId* root) {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine->AllocPage(root, &handle));
  InitRootPage(handle.mutable_data());
  return Status::OK();
}

Status ObjectTable::Drop() {
  // Free all entry pages, then the root chain.
  PageId root = root_;
  while (root != kInvalidPageId) {
    uint32_t dir_count;
    PageId next;
    std::vector<PageId> entry_pages;
    {
      PageHandle handle;
      ODE_RETURN_IF_ERROR(engine_->GetPageRead(root, &handle));
      dir_count = DecodeFixed32(handle.data() + kDirCountOff);
      next = DecodeFixed32(handle.data() + kNextRootOff);
      for (uint32_t i = 0; i < dir_count; i++) {
        entry_pages.push_back(
            DecodeFixed32(handle.data() + kDirStartOff + 4 * i));
      }
    }
    for (PageId p : entry_pages) {
      ODE_RETURN_IF_ERROR(engine_->FreePage(p));
    }
    ODE_RETURN_IF_ERROR(engine_->FreePage(root));
    root = next;
  }
  return Status::OK();
}

Status ObjectTable::LocateEntryPage(LocalOid local, PageId* page) const {
  const uint32_t page_index = local / kEntriesPerPage;
  uint32_t roots_to_skip = page_index / kDirCap;
  const uint32_t dir_slot = page_index % kDirCap;
  // The fetch that reaches the directory page owning dir_slot also reads
  // its dir_count and the slot.
  for (PageId root = root_;; roots_to_skip--) {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(root, &handle));
    if (roots_to_skip == 0) {
      if (dir_slot >= DecodeFixed32(handle.data() + kDirCountOff)) {
        return Status::NotFound("object-table entry out of range");
      }
      *page = DecodeFixed32(handle.data() + kDirStartOff + 4 * dir_slot);
      return Status::OK();
    }
    root = DecodeFixed32(handle.data() + kNextRootOff);
    if (root == kInvalidPageId) {
      return Status::NotFound("object-table page out of range");
    }
  }
}

Status ObjectTable::AppendEntryPage(LocalOid local) {
  const uint32_t page_index = local / kEntriesPerPage;
  const uint32_t dir_slot = page_index % kDirCap;
  PageId root = root_;
  for (uint32_t roots_to_skip = page_index / kDirCap; roots_to_skip > 0;
       roots_to_skip--) {
    PageId next;
    {
      PageHandle handle;
      ODE_RETURN_IF_ERROR(engine_->GetPageRead(root, &handle));
      next = DecodeFixed32(handle.data() + kNextRootOff);
    }
    if (next == kInvalidPageId) {
      PageHandle fresh;
      ODE_RETURN_IF_ERROR(engine_->AllocPage(&next, &fresh));
      InitRootPage(fresh.mutable_data());
      fresh.Release();
      PageHandle handle;
      ODE_RETURN_IF_ERROR(engine_->GetPageWrite(root, &handle));
      EncodeFixed32(handle.mutable_data() + kNextRootOff, next);
    }
    root = next;
  }
  PageId entry_page;
  {
    PageHandle fresh;
    ODE_RETURN_IF_ERROR(engine_->AllocPage(&entry_page, &fresh));
    memset(fresh.mutable_data(), 0, kPageSize);
    fresh.mutable_data()[0] = static_cast<char>(PageType::kObjectTable);
  }
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageWrite(root, &handle));
  const uint32_t dir_count = DecodeFixed32(handle.data() + kDirCountOff);
  if (dir_slot != dir_count) {
    return Status::Corruption("non-contiguous object-table directory");
  }
  EncodeFixed32(handle.mutable_data() + kDirStartOff + 4 * dir_slot,
                entry_page);
  EncodeFixed32(handle.mutable_data() + kDirCountOff, dir_count + 1);
  return Status::OK();
}

Status ObjectTable::AllocEntry(LocalOid* local) {
  // Try the free list first.
  uint32_t free_head;
  {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
    free_head = DecodeFixed32(handle.data() + kFreeHeadOff);
  }
  if (free_head != kInvalidLocalOid) {
    Entry entry;
    ODE_RETURN_IF_ERROR(GetEntry(free_head, &entry));
    // For freed entries, `page` stores the next free index.
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageWrite(root_, &handle));
    EncodeFixed32(handle.mutable_data() + kFreeHeadOff, entry.page);
    *local = free_head;
    return Status::OK();
  }
  // Extend the high-water mark.
  uint32_t num;
  {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
    num = DecodeFixed32(handle.data() + kNumEntriesOff);
  }
  // The first entry of a new entry page appends that page.
  PageId entry_page;
  Status located = LocateEntryPage(num, &entry_page);
  if (located.IsNotFound()) located = AppendEntryPage(num);
  ODE_RETURN_IF_ERROR(located);
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageWrite(root_, &handle));
  EncodeFixed32(handle.mutable_data() + kNumEntriesOff, num + 1);
  *local = num;
  return Status::OK();
}

Status ObjectTable::FreeEntry(LocalOid local) {
  uint32_t free_head;
  {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
    free_head = DecodeFixed32(handle.data() + kFreeHeadOff);
  }
  Entry entry;  // zeroed: flags=0 marks it unallocated
  entry.page = free_head;
  entry.slot = 0;
  entry.flags = 0;
  entry.prev_version = kInvalidLocalOid;
  entry.parent_vnum = kNoParentVersion;
  ODE_RETURN_IF_ERROR(SetEntry(local, entry));
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageWrite(root_, &handle));
  EncodeFixed32(handle.mutable_data() + kFreeHeadOff, local);
  return Status::OK();
}

Status ObjectTable::GetEntry(LocalOid local, Entry* entry) const {
  PageId page;
  ODE_RETURN_IF_ERROR(LocateEntryPage(local, &page));
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageRead(page, &handle));
  const uint32_t offset = kEntryStart + (local % kEntriesPerPage) * kEntrySize;
  DecodeEntry(handle.data() + offset, entry);
  return Status::OK();
}

Status ObjectTable::SetEntry(LocalOid local, const Entry& entry) {
  PageId page;
  ODE_RETURN_IF_ERROR(LocateEntryPage(local, &page));
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageWrite(page, &handle));
  const uint32_t offset = kEntryStart + (local % kEntriesPerPage) * kEntrySize;
  EncodeEntry(handle.mutable_data() + offset, entry);
  return Status::OK();
}

Result<uint32_t> ObjectTable::NumEntries() const {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
  return DecodeFixed32(handle.data() + kNumEntriesOff);
}

Status ObjectTable::NextHead(LocalOid start, LocalOid* local, bool* found,
                             bool include_tombstones) const {
  ODE_ASSIGN_OR_RETURN(uint32_t num, NumEntries());
  for (LocalOid i = start; i < num; i++) {
    // Scan one entry page at a time to amortize the directory walk.
    PageId page;
    ODE_RETURN_IF_ERROR(LocateEntryPage(i, &page));
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(page, &handle));
    const uint32_t first_on_page = (i / kEntriesPerPage) * kEntriesPerPage;
    const uint32_t end_on_page =
        std::min<uint32_t>(first_on_page + kEntriesPerPage, num);
    for (LocalOid j = i; j < end_on_page; j++) {
      const uint32_t offset =
          kEntryStart + (j % kEntriesPerPage) * kEntrySize;
      const uint16_t flags = DecodeFixed16(handle.data() + offset + 6);
      if ((flags & kFlagAllocated) && !(flags & kFlagVersion) &&
          (include_tombstones || !(flags & kFlagTombstone))) {
        *local = j;
        *found = true;
        return Status::OK();
      }
    }
    i = end_on_page - 1;  // Loop ++ moves to the next page's first entry.
  }
  *found = false;
  return Status::OK();
}

Result<uint32_t> ObjectTable::ScanHeads(LocalOid lo, LocalOid hi,
                                       bool include_tombstones,
                                       std::vector<Head>* out) const {
  out->clear();
  uint32_t num_entries = 0;
  // Walk the root chain once, collecting the entry pages that cover
  // [lo, hi); the first root also carries the high-water mark.
  std::vector<PageId> pages;
  const uint32_t first_page = lo / kEntriesPerPage;
  uint32_t last_page = 0;
  uint32_t base = 0;  // page index of the current root's first dir slot
  for (PageId root = root_; root != kInvalidPageId; base += kDirCap) {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(root, &handle));
    if (root == root_) {
      num_entries = DecodeFixed32(handle.data() + kNumEntriesOff);
      hi = std::min<LocalOid>(hi, num_entries);
      if (lo >= hi) return num_entries;
      last_page = (hi - 1) / kEntriesPerPage;
    }
    const uint32_t dir_count = DecodeFixed32(handle.data() + kDirCountOff);
    for (uint32_t p = std::max(first_page, base);
         p <= last_page && p - base < kDirCap; p++) {
      if (p - base >= dir_count) {
        return Status::NotFound("object-table entry out of range");
      }
      pages.push_back(DecodeFixed32(handle.data() + kDirStartOff +
                                    4 * (p - base)));
    }
    if (base + kDirCap > last_page) break;
    root = DecodeFixed32(handle.data() + kNextRootOff);
  }
  if (pages.size() != last_page - first_page + 1) {
    return Status::NotFound("object-table page out of range");
  }
  for (uint32_t k = 0; k < pages.size(); k++) {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(pages[k], &handle));
    const uint32_t page_first = (first_page + k) * kEntriesPerPage;
    const uint32_t end = std::min<uint32_t>(page_first + kEntriesPerPage, hi);
    for (LocalOid j = std::max<LocalOid>(lo, page_first); j < end; j++) {
      const char* src =
          handle.data() + kEntryStart + (j - page_first) * kEntrySize;
      const uint16_t flags = DecodeFixed16(src + 6);
      if ((flags & kFlagAllocated) && !(flags & kFlagVersion) &&
          (include_tombstones || !(flags & kFlagTombstone))) {
        Head head;
        head.local = j;
        DecodeEntry(src, &head.entry);
        out->push_back(head);
      }
    }
  }
  return num_entries;
}

Status ObjectTable::ListStructurePages(std::vector<PageId>* root_pages,
                                       std::vector<PageId>* entry_pages) const {
  root_pages->clear();
  entry_pages->clear();
  PageId root = root_;
  while (root != kInvalidPageId) {
    root_pages->push_back(root);
    if (root_pages->size() > 1u << 20) {
      return Status::Corruption("object-table root chain cycle suspected");
    }
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(root, &handle));
    const uint32_t dir_count = DecodeFixed32(handle.data() + kDirCountOff);
    for (uint32_t i = 0; i < dir_count && i < kDirCap; i++) {
      entry_pages->push_back(
          DecodeFixed32(handle.data() + kDirStartOff + 4 * i));
    }
    root = DecodeFixed32(handle.data() + kNextRootOff);
  }
  return Status::OK();
}

Status ObjectTable::ReleaseTrailingFreePages(uint32_t* released) {
  if (released != nullptr) *released = 0;
  uint32_t num;
  {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
    num = DecodeFixed32(handle.data() + kNumEntriesOff);
  }
  if (num == 0) return Status::OK();
  // New high-water mark: one past the last allocated entry.
  uint32_t new_num = 0;
  for (uint32_t i = num; i > 0; i--) {
    Entry entry;
    ODE_RETURN_IF_ERROR(GetEntry(i - 1, &entry));
    if (entry.allocated()) {
      new_num = i;
      break;
    }
  }
  const uint32_t old_pages = (num + kEntriesPerPage - 1) / kEntriesPerPage;
  const uint32_t new_pages = (new_num + kEntriesPerPage - 1) / kEntriesPerPage;
  if (new_pages == old_pages) {
    // No whole trailing page vacated; the free list keeps recycling the
    // interior slack in place.
    return Status::OK();
  }
  // 1. Filter the free list down to indices below the new mark BEFORE any
  //    page goes away — nodes on doomed pages would otherwise dangle.
  //    Indices in [new_num, num) need no list at all: they sit past the
  //    high-water mark and come back through plain extension.
  std::vector<LocalOid> kept;
  {
    LocalOid cur;
    {
      PageHandle handle;
      ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
      cur = DecodeFixed32(handle.data() + kFreeHeadOff);
    }
    uint32_t walked = 0;
    while (cur != kInvalidLocalOid) {
      if (++walked > num) {
        return Status::Corruption("object-table free-list cycle suspected");
      }
      Entry entry;
      ODE_RETURN_IF_ERROR(GetEntry(cur, &entry));
      if (cur < new_num) kept.push_back(cur);
      cur = entry.page;  // For freed entries, `page` is the next free index.
    }
  }
  for (size_t i = 0; i < kept.size(); i++) {
    Entry entry;
    ODE_RETURN_IF_ERROR(GetEntry(kept[i], &entry));
    entry.page = (i + 1 < kept.size()) ? kept[i + 1] : kInvalidLocalOid;
    ODE_RETURN_IF_ERROR(SetEntry(kept[i], entry));
  }
  {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageWrite(root_, &handle));
    EncodeFixed32(handle.mutable_data() + kFreeHeadOff,
                  kept.empty() ? kInvalidLocalOid : kept.front());
    EncodeFixed32(handle.mutable_data() + kNumEntriesOff, new_num);
  }
  // 2. Free the trailing entry pages, shrinking each root's directory.
  std::vector<PageId> roots;
  {
    PageId root = root_;
    while (root != kInvalidPageId) {
      roots.push_back(root);
      if (roots.size() > 1u << 20) {
        return Status::Corruption("object-table root chain cycle suspected");
      }
      PageHandle handle;
      ODE_RETURN_IF_ERROR(engine_->GetPageRead(root, &handle));
      root = DecodeFixed32(handle.data() + kNextRootOff);
    }
  }
  uint32_t freed = 0;
  for (size_t k = 0; k < roots.size(); k++) {
    const uint64_t first_page = static_cast<uint64_t>(k) * kDirCap;
    const uint32_t keep =
        first_page >= new_pages
            ? 0
            : std::min<uint32_t>(kDirCap,
                                 static_cast<uint32_t>(new_pages - first_page));
    uint32_t dir_count;
    std::vector<PageId> doomed;
    {
      PageHandle handle;
      ODE_RETURN_IF_ERROR(engine_->GetPageRead(roots[k], &handle));
      dir_count = DecodeFixed32(handle.data() + kDirCountOff);
      for (uint32_t i = keep; i < dir_count && i < kDirCap; i++) {
        doomed.push_back(DecodeFixed32(handle.data() + kDirStartOff + 4 * i));
      }
    }
    if (doomed.empty() && dir_count <= keep) continue;
    for (PageId p : doomed) {
      ODE_RETURN_IF_ERROR(engine_->FreePage(p));
      freed++;
    }
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageWrite(roots[k], &handle));
    EncodeFixed32(handle.mutable_data() + kDirCountOff, keep);
  }
  // 3. Unchain and free directory roots that went fully empty (the first
  //    root always stays — it carries the allocation state).
  const size_t last_keep =
      new_pages == 0 ? 0 : (new_pages - 1) / kDirCap;
  if (last_keep + 1 < roots.size()) {
    PageHandle handle;
    ODE_RETURN_IF_ERROR(engine_->GetPageWrite(roots[last_keep], &handle));
    EncodeFixed32(handle.mutable_data() + kNextRootOff, kInvalidPageId);
    handle.Release();
    for (size_t k = last_keep + 1; k < roots.size(); k++) {
      ODE_RETURN_IF_ERROR(engine_->FreePage(roots[k]));
      freed++;
    }
  }
  if (released != nullptr) *released = freed;
  return Status::OK();
}

Result<LocalOid> ObjectTable::GetFreeEntryHead() const {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
  return DecodeFixed32(handle.data() + kFreeHeadOff);
}

Result<PageId> ObjectTable::GetCurrentDataPage() const {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageRead(root_, &handle));
  return DecodeFixed32(handle.data() + kCurrentDataOff);
}

Status ObjectTable::SetCurrentDataPage(PageId page) {
  PageHandle handle;
  ODE_RETURN_IF_ERROR(engine_->GetPageWrite(root_, &handle));
  EncodeFixed32(handle.mutable_data() + kCurrentDataOff, page);
  return Status::OK();
}

}  // namespace ode
