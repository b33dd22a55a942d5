#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/logging.h"

namespace ode {

namespace {

std::shared_ptr<char[]> NewPageBuffer() {
  return std::shared_ptr<char[]>(new char[kPageSize]());
}

/// Largest power of two <= max(1, n).
size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity_pages,
                       MetricsRegistry* metrics, size_t shards)
    : pager_(pager), capacity_(capacity_pages == 0 ? 1 : capacity_pages) {
  // Shard count: a power of two, never more than the capacity (a shard that
  // could cache nothing would turn every access to it into a miss+grow).
  size_t n = FloorPow2(shards == 0 ? 1 : shards);
  if (n > capacity_) n = FloorPow2(capacity_);
  if (n > 64) n = 64;
  unsigned log2 = 0;
  for (size_t p = n; p > 1; p /= 2) log2++;
  shard_shift_ = 64 - log2;  // n==1 => shift 64; ShardOf special-cases it.
  shards_.reserve(n);
  // Distribute capacity exactly: base slice per shard plus one extra for the
  // first (capacity mod n) shards, so the sum equals capacity_ and tests
  // that bound total residency keep holding for small pools.
  const size_t base = capacity_ / n;
  const size_t extra = capacity_ % n;
  for (size_t i = 0; i < n; i++) {
    auto s = std::make_unique<Shard>();
    s->capacity = base + (i < extra ? 1 : 0);
    shards_.push_back(std::move(s));
  }
  MetricsRegistry& m =
      metrics != nullptr ? *metrics : MetricsRegistry::Global();
  m_hits_ = m.GetCounter("storage.pool.hits");
  m_misses_ = m.GetCounter("storage.pool.misses");
  m_evictions_ = m.GetCounter("storage.pool.evictions");
  m_flushes_ = m.GetCounter("storage.pool.flushes");
  m_grows_ = m.GetCounter("storage.pool.grows");
  m_read_errors_ = m.GetCounter("storage.pool.read_errors");
  m_prefetch_loads_ = m.GetCounter("storage.pool.prefetch_loads");
  m_prefetch_hits_ = m.GetCounter("storage.pool.prefetch_hits");
  m_frames_ = m.GetGauge("storage.pool.frames");
}

BufferPool::~BufferPool() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    m_frames_->Sub(static_cast<int64_t>(shard->frames.size()));
  }
}

Status BufferPool::FetchLocked(Shard& shard, PageId id, Frame** frame) {
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    m_hits_->Add();
    Frame* f = it->second.get();
    if (f->prefetched) {
      // First demand touch of a read-ahead frame: the prefetch paid off.
      f->prefetched = false;
      m_prefetch_hits_->Add();
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, f->lru_pos);  // to MRU
    *frame = f;
    return Status::OK();
  }
  m_misses_->Add();
  ODE_RETURN_IF_ERROR(EnsureRoom(shard));
  auto f = std::make_unique<Frame>();
  f->id = id;
  f->data = NewPageBuffer();
  // Read before the frame is linked into frames/lru: a failed read must
  // not leave a half-initialized frame behind.
  Status read = pager_->ReadPage(id, f->data.get());
  if (!read.ok()) {
    m_read_errors_->Add();
    return read;
  }
  shard.lru.push_front(id);
  f->lru_pos = shard.lru.begin();
  Frame* raw = f.get();
  shard.frames.emplace(id, std::move(f));
  m_frames_->Add();
  *frame = raw;
  return Status::OK();
}

Status BufferPool::FetchHandle(PageId id, PageHandle* handle) {
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  Frame* f = nullptr;
  ODE_RETURN_IF_ERROR(FetchLocked(shard, id, &f));
  PageHandle h;
  h.owner_ = f->data;  // shared: survives Install()'s buffer swap / eviction
  h.data_ = h.owner_.get();
  h.id_ = id;
  *handle = std::move(h);
  return Status::OK();
}

void BufferPool::Install(PageId id, const char* data) {
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(id);
  Frame* f;
  if (it != shard.frames.end()) {
    f = it->second.get();
    shard.lru.splice(shard.lru.begin(), shard.lru, f->lru_pos);
  } else {
    // The commit behind this Install is already durable in the WAL; if
    // evicting to make room fails to flush, the shard grows instead — the
    // WAL protects us.
    if (shard.frames.size() >= shard.capacity) {
      Status s = EvictOne(shard);
      if (!s.ok()) {
        ODE_LOG(kWarn) << "pool: eviction flush failed during Install ("
                       << s.ToString() << "); growing instead";
        m_grows_->Add();
      }
    }
    auto owned = std::make_unique<Frame>();
    owned->id = id;
    f = owned.get();
    shard.lru.push_front(id);
    f->lru_pos = shard.lru.begin();
    shard.frames.emplace(id, std::move(owned));
    m_frames_->Add();
  }
  // Fresh buffer rather than memcpy into the old one: outstanding
  // PageHandles keep the old image alive and never see a torn write.
  auto buf = NewPageBuffer();
  std::memcpy(buf.get(), data, kPageSize);
  f->data = std::move(buf);
  f->dirty = true;
}

Status BufferPool::Prefetch(const PageId* ids, size_t count) {
  // Pass 1: drop the ids already resident.
  std::vector<PageId> missing;
  missing.reserve(count);
  for (size_t i = 0; i < count; i++) {
    Shard& shard = ShardOf(ids[i]);
    MutexLock lock(shard.mu);
    if (shard.frames.find(ids[i]) == shard.frames.end()) {
      missing.push_back(ids[i]);
    }
  }
  if (missing.empty()) return Status::OK();
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  // Pass 2: read each contiguous run with one batched call, outside every
  // shard mutex; pass 3 installs the clean frames.
  size_t i = 0;
  while (i < missing.size()) {
    size_t j = i + 1;
    while (j < missing.size() && missing[j] == missing[j - 1] + 1) j++;
    const uint32_t run = static_cast<uint32_t>(j - i);
    std::vector<std::shared_ptr<char[]>> bufs(run);
    std::vector<char*> raw(run);
    for (uint32_t k = 0; k < run; k++) {
      bufs[k] = NewPageBuffer();
      raw[k] = bufs[k].get();
    }
    Status read = pager_->ReadPages(missing[i], run, raw.data());
    if (!read.ok()) {
      m_read_errors_->Add();
      return read;
    }
    for (uint32_t k = 0; k < run; k++) {
      const PageId id = missing[i + k];
      Shard& shard = ShardOf(id);
      MutexLock lock(shard.mu);
      if (shard.frames.find(id) != shard.frames.end()) continue;
      Status room = EnsureRoom(shard);
      if (!room.ok()) continue;  // eviction flush failed; demand path retries
      auto f = std::make_unique<Frame>();
      f->id = id;
      f->data = std::move(bufs[k]);
      f->prefetched = true;
      shard.lru.push_front(id);
      f->lru_pos = shard.lru.begin();
      shard.frames.emplace(id, std::move(f));
      m_frames_->Add();
      m_prefetch_loads_->Add();
    }
    i = j;
  }
  return Status::OK();
}

Status BufferPool::EvictOne(Shard& shard) {
  // The cold end of the recency list is the victim.
  assert(!shard.lru.empty());
  auto found = shard.frames.find(shard.lru.back());
  assert(found != shard.frames.end());
  Frame* f = found->second.get();
  ODE_RETURN_IF_ERROR(FlushFrameLocked(shard, f));
  m_evictions_->Add();
  RemoveFrame(shard, f);
  return Status::OK();
}

void BufferPool::RemoveFrame(Shard& shard, Frame* frame) {
  shard.lru.erase(frame->lru_pos);
  shard.frames.erase(frame->id);
  m_frames_->Sub();
}

Status BufferPool::EnsureRoom(Shard& shard) {
  if (shard.frames.size() < shard.capacity) return Status::OK();
  return EvictOne(shard);
}

Status BufferPool::ShrinkToCapacity() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    while (shard->frames.size() > shard->capacity) {
      ODE_RETURN_IF_ERROR(EvictOne(*shard));
    }
  }
  return Status::OK();
}

Status BufferPool::FlushFrameLocked(Shard& shard, Frame* frame) {
  (void)shard;
  if (!frame->dirty) return Status::OK();
  ODE_RETURN_IF_ERROR(pager_->WritePage(frame->id, frame->data.get()));
  frame->dirty = false;
  m_flushes_->Add();
  return Status::OK();
}

Status BufferPool::FlushAll(size_t* flushed) {
  size_t n = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto& [id, f] : shard->frames) {
      if (f->dirty) {
        ODE_RETURN_IF_ERROR(FlushFrameLocked(*shard, f.get()));
        n++;
      }
    }
  }
  if (flushed != nullptr) *flushed = n;
  return Status::OK();
}

void BufferPool::Evict(PageId id) {
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) return;
  if (it->second->dirty) return;
  RemoveFrame(shard, it->second.get());
}

size_t BufferPool::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    n += shard->frames.size();
  }
  return n;
}

}  // namespace ode
