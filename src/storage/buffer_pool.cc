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

/// FetchHandle calls by this thread (BufferPool::ThreadFetches).
thread_local uint64_t t_fetches = 0;

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
    if (!f->referenced) f->referenced = true;
    *frame = f;
    return Status::OK();
  }
  m_misses_->Add();
  ODE_RETURN_IF_ERROR(EnsureRoom(shard));
  auto f = std::make_unique<Frame>();
  f->id = id;
  f->data = NewPageBuffer();
  // Read before the frame is linked into frames/clock: a failed read must
  // not leave a half-initialized frame behind.
  Status read = pager_->ReadPage(id, f->data.get());
  if (!read.ok()) {
    m_read_errors_->Add();
    return read;
  }
  shard.clock.push_front(f.get());
  f->clock_pos = shard.clock.begin();
  Frame* raw = f.get();
  shard.frames.emplace(id, std::move(f));
  m_frames_->Add();
  *frame = raw;
  return Status::OK();
}

uint64_t BufferPool::ThreadFetches() { return t_fetches; }

Status BufferPool::FetchHandle(PageId id, PageHandle* handle) {
  t_fetches++;
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
    f->referenced = true;
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
        grown_.store(true, std::memory_order_relaxed);
      }
    }
    auto owned = std::make_unique<Frame>();
    owned->id = id;
    f = owned.get();
    shard.clock.push_front(f);
    f->clock_pos = shard.clock.begin();
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
  // Pass 1: drop the ids already resident, noting each missing id's shard
  // flush count.
  struct Missing {
    PageId id;
    uint64_t flushes;
  };
  std::vector<Missing> missing;
  missing.reserve(count);
  for (size_t i = 0; i < count; i++) {
    Shard& shard = ShardOf(ids[i]);
    MutexLock lock(shard.mu);
    if (shard.frames.find(ids[i]) == shard.frames.end()) {
      missing.push_back(Missing{ids[i], shard.flushes});
    }
  }
  if (missing.empty()) return Status::OK();
  auto by_id = [](const Missing& a, const Missing& b) { return a.id < b.id; };
  std::sort(missing.begin(), missing.end(), by_id);
  missing.erase(std::unique(missing.begin(), missing.end(),
                            [](const Missing& a, const Missing& b) {
                              return a.id == b.id;
                            }),
                missing.end());
  // Pass 2: read each contiguous run with one batched call, outside every
  // shard latch; pass 3 installs the clean frames.
  size_t i = 0;
  while (i < missing.size()) {
    size_t j = i + 1;
    while (j < missing.size() && missing[j].id == missing[j - 1].id + 1) j++;
    const uint32_t run = static_cast<uint32_t>(j - i);
    std::vector<std::shared_ptr<char[]>> bufs(run);
    std::vector<char*> raw(run);
    for (uint32_t k = 0; k < run; k++) {
      bufs[k] = NewPageBuffer();
      raw[k] = bufs[k].get();
    }
    Status read = pager_->ReadPages(missing[i].id, run, raw.data());
    if (!read.ok()) {
      m_read_errors_->Add();
      return read;
    }
    for (uint32_t k = 0; k < run; k++) {
      const PageId id = missing[i + k].id;
      Shard& shard = ShardOf(id);
      MutexLock lock(shard.mu);
      if (shard.frames.find(id) != shard.frames.end()) continue;
      // A flush in this shard since pass 1 may have written a newer image
      // of `id` (Installed, then evicted) after, or during, the read above:
      // the bytes read could be stale, so leave the page to a demand fetch.
      if (shard.flushes != missing[i + k].flushes) continue;
      Status room = EnsureRoom(shard);
      if (!room.ok()) continue;  // eviction flush failed; demand path retries
      auto f = std::make_unique<Frame>();
      f->id = id;
      f->data = std::move(bufs[k]);
      f->prefetched = true;
      shard.clock.push_front(f.get());
      f->clock_pos = shard.clock.begin();
      shard.frames.emplace(id, std::move(f));
      m_frames_->Add();
      m_prefetch_loads_->Add();
    }
    i = j;
  }
  return Status::OK();
}

Status BufferPool::EvictOne(Shard& shard) {
  // Second chance: a frame referenced since the hand last passed it has its
  // bit cleared and goes back to the front. Nothing sets bits while the
  // latch is held, so the sweep ends within one pass over the ring.
  assert(!shard.clock.empty());
  Frame* f = shard.clock.back();
  while (f->referenced) {
    f->referenced = false;
    shard.clock.splice(shard.clock.begin(), shard.clock, f->clock_pos);
    f = shard.clock.back();
  }
  ODE_RETURN_IF_ERROR(FlushFrameLocked(shard, f));
  m_evictions_->Add();
  RemoveFrame(shard, f);
  return Status::OK();
}

void BufferPool::RemoveFrame(Shard& shard, Frame* frame) {
  shard.clock.erase(frame->clock_pos);
  shard.frames.erase(frame->id);
  m_frames_->Sub();
}

Status BufferPool::EnsureRoom(Shard& shard) {
  if (shard.frames.size() < shard.capacity) return Status::OK();
  return EvictOne(shard);
}

Status BufferPool::ShrinkToCapacity() {
  // Only Install() grows a shard past its capacity, and it raises grown_
  // when it does; a grow racing this sweep raises it again for the next.
  if (!grown_.exchange(false, std::memory_order_relaxed)) return Status::OK();
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    while (shard->frames.size() > shard->capacity) {
      Status s = EvictOne(*shard);
      if (!s.ok()) {
        grown_.store(true, std::memory_order_relaxed);  // retry next commit
        return s;
      }
    }
  }
  return Status::OK();
}

Status BufferPool::FlushFrameLocked(Shard& shard, Frame* frame) {
  if (!frame->dirty) return Status::OK();
  shard.flushes++;
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
