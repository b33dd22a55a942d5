#ifndef ODE_STORAGE_BUFFER_POOL_H_
#define ODE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/pager.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"

namespace ode {

/// A fixed-capacity (growable under pressure) page cache over the Pager with
/// CLOCK (second-chance) eviction: a hit only sets its frame's reference
/// bit, and the eviction sweep gives every referenced frame one more round
/// before it becomes a victim.
///
/// Concurrency contract (see docs/CONCURRENCY.md): the pool caches ONLY
/// committed page images. Transactions never mutate pool frames in place —
/// they write private shadow copies owned by the StorageEngine's per-txn
/// state, and at commit the engine publishes each shadow atomically with
/// Install(). Readers obtained through FetchHandle() keep the frame's buffer
/// alive via shared ownership, so a concurrent Install() of a newer image
/// can swap the frame's buffer without pulling bytes out from under anyone.
///
/// Sharding (docs/CONCURRENCY.md "Buffer-pool sharding"): the pool is
/// partitioned into 2^k shards keyed by a Fibonacci hash of the page id.
/// Each shard owns its own latch, frame map, clock ring and slice of the
/// capacity, so concurrent readers of unrelated pages never contend on one
/// lock. Replacement is therefore per-shard (approximate globally — the
/// standard trade, same as the lock manager's 16-way shard split); capacity
/// and the `storage.pool.*` stats aggregate across shards. A hit writes
/// nothing shared beyond its shard latch: no list splice (the reference bit
/// is set only when clear) and a striped hit counter.
class BufferPool {
 public:
  /// `metrics` receives the `storage.pool.*` counters (docs/OBSERVABILITY.md);
  /// nullptr means the global registry. `shards` is rounded down to a power
  /// of two and clamped to [1, capacity] (a shard with zero capacity could
  /// never cache anything); the default keeps the historic single-mutex
  /// behavior for direct constructions — the engine passes
  /// EngineOptions::buffer_pool_shards.
  BufferPool(Pager* pager, size_t capacity_pages,
             MetricsRegistry* metrics = nullptr, size_t shards = 1);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Drops this pool's resident frames from the shared storage.pool.frames
  /// gauge (the gauge is kept by +/- deltas now that shards update it
  /// concurrently).
  ~BufferPool();

  /// Fetches the committed image of `id` into `*handle` (loading from the
  /// pager on a miss). The handle shares ownership of the buffer: it stays
  /// readable even if a later Install() replaces the frame's image or the
  /// frame is evicted.
  Status FetchHandle(PageId id, class PageHandle* handle);

  /// FetchHandle calls (hits and misses, over every pool) made by the
  /// calling thread so far. ForAll takes deltas of it around a scan to
  /// report query.pool_fetches_per_row.
  static uint64_t ThreadFetches();

  /// Publishes a committed page image: the frame (created on demand) gets a
  /// fresh buffer holding `data`, marked dirty, swapped in atomically under
  /// the shard latch. Never fails: if the shard is full and evicting its
  /// victim fails to flush, it grows instead (the commit this image belongs
  /// to is already durable in the WAL — failure is not an option here) and
  /// the next ShrinkToCapacity() gives the slack back.
  void Install(PageId id, const char* data);

  /// Read-ahead for cold scans: loads the not-yet-resident pages among `ids`
  /// with batched sequential reads (Pager::ReadPages over each contiguous
  /// run, issued OUTSIDE the shard mutexes — demand misses serialize the
  /// read under the shard latch, which is exactly what this path avoids)
  /// and installs them as CLEAN frames. Ids already cached, or cached by a
  /// racing fetch between the read and the install, keep their frame (it is
  /// at least as new as what was read). Ids whose shard wrote a frame back
  /// during the read are not installed: the write-back may have put a newer
  /// image on disk than the one read. Never overwrites committed state:
  /// prefetched frames are clean, so they can never be flushed over a newer
  /// Install()ed image.
  Status Prefetch(const PageId* ids, size_t count);

  /// Writes back every dirty frame; clears their dirty flags. `flushed`
  /// (optional) reports how many frames were written — the fuzzy
  /// checkpointer uses it to size its write-behind metrics.
  Status FlushAll(size_t* flushed = nullptr);

  /// Drops a clean frame from the pool if cached (Vacuum drops the truncated
  /// tail this way).
  void Evict(PageId id);

  /// Evicts frames (flushing dirty ones) until every shard is back within
  /// its capacity. The engine calls it after every write commit; it takes
  /// no shard latch unless an Install() has grown a shard since the last
  /// successful shrink.
  Status ShrinkToCapacity();

  size_t capacity() const { return capacity_; }
  size_t size() const;
  /// Number of shards actually in use (after rounding/clamping).
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    bool dirty = false;      ///< Frame content differs from the db file.
    /// Loaded by Prefetch and not yet touched by a demand fetch; the first
    /// fetch counts as a prefetch hit (storage.pool.prefetch_hits) and
    /// clears the flag.
    bool prefetched = false;
    /// CLOCK reference bit: set by a hit (only when clear, so repeated hits
    /// leave the frame's line alone), cleared by the eviction sweep.
    bool referenced = false;
    std::list<Frame*>::iterator clock_pos;  ///< Position in the clock ring.
    /// Shared so outstanding PageHandles keep a swapped-out image alive.
    std::shared_ptr<char[]> data;
  };

  struct Shard {
    /// Guards frames, clock, and frame fields. Held for a map probe and a
    /// few stores, so it spins before sleeping (see AdaptiveMutex).
    mutable AdaptiveMutex mu;
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames GUARDED_BY(mu);
    /// Clock ring: new frames and second chances enter at the front; the
    /// sweep's hand looks at the back.
    std::list<Frame*> clock GUARDED_BY(mu);
    /// Frame write-backs started in this shard; Prefetch compares it across
    /// its unlatched read to detect a write-back that may have raced it.
    uint64_t flushes GUARDED_BY(mu) = 0;
    size_t capacity = 0;  ///< This shard's slice of the total (immutable).
  };

  Shard& ShardOf(PageId id) {
    // Fibonacci hash: page ids are small sequential ints, so multiply by
    // the 64-bit golden ratio and keep the top bits for an even spread.
    // (shift >= 64 means one shard; shifting by 64 would be UB.)
    if (shard_shift_ >= 64) return *shards_[0];
    return *shards_[(id * 0x9E3779B97F4A7C15ull) >> shard_shift_];
  }

  /// Makes room for one more frame if the shard is at capacity.
  Status EnsureRoom(Shard& shard) REQUIRES(shard.mu);

  /// Evicts the first frame the clock sweep finds with its reference bit
  /// clear (flushing it if dirty); set bits are cleared on the way and
  /// their frames move to the front. The shard must not be empty.
  Status EvictOne(Shard& shard) REQUIRES(shard.mu);

  Status FlushFrameLocked(Shard& shard, Frame* frame) REQUIRES(shard.mu);
  void RemoveFrame(Shard& shard, Frame* frame) REQUIRES(shard.mu);
  Status FetchLocked(Shard& shard, PageId id, Frame** frame)
      REQUIRES(shard.mu);

  Pager* pager_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< Power-of-two count.
  unsigned shard_shift_;  ///< 64 - log2(shards_.size()); selector shift.
  /// Set when Install() grew a shard past its capacity; ShrinkToCapacity()
  /// sweeps the shards only while it is set.
  std::atomic<bool> grown_{false};
  // storage.pool.* instruments (docs/OBSERVABILITY.md).
  Counter* m_hits_;
  Counter* m_misses_;  ///< Demand reads (not prefetch loads).
  Counter* m_evictions_;
  Counter* m_flushes_;
  Counter* m_grows_;  ///< Installs that grew a full shard (flush failed).
  Counter* m_read_errors_;  ///< Page reads that failed (no frame cached).
  Counter* m_prefetch_loads_;  ///< storage.pool.prefetch_loads
  Counter* m_prefetch_hits_;   ///< storage.pool.prefetch_hits
  Gauge* m_frames_;  ///< storage.pool.frames: current resident frame count
};

/// A readable (and for transaction shadow pages, writable) view of one page.
///
/// Three flavors share this one type so callers are agnostic:
///  - FetchHandle(): shares ownership of a committed pool buffer (owner_
///    set) — safe across concurrent Install/eviction.
///  - Borrowed(): a non-owning view of a transaction's private shadow page
///    (only data_/id_ set) — lifetime bounded by the transaction.
///  - Shared(): shares ownership of an engine-provided buffer (pending
///    group-commit images) — same lifetime guarantees as FetchHandle().
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle() { Release(); }

  /// A non-owning view (transaction shadow pages). The caller guarantees
  /// `data` outlives the handle.
  static PageHandle Borrowed(PageId id, char* data) {
    PageHandle h;
    h.id_ = id;
    h.data_ = data;
    return h;
  }

  /// A shared-ownership view of a buffer that is not (or not yet) a pool
  /// frame — e.g. a committed-but-unsynced group-commit image. The handle
  /// keeps the buffer alive on its own.
  static PageHandle Shared(PageId id, std::shared_ptr<char[]> data) {
    PageHandle h;
    h.id_ = id;
    h.owner_ = std::move(data);
    h.data_ = h.owner_.get();
    return h;
  }

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept { MoveFrom(other); }
  PageHandle& operator=(PageHandle&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }

  bool valid() const { return data_ != nullptr; }
  PageId id() const { return id_; }
  const char* data() const { return data_; }
  char* mutable_data() { return data_; }

  void Release() {
    owner_.reset();
    data_ = nullptr;
    id_ = kInvalidPageId;
  }

 private:
  friend class BufferPool;

  void MoveFrom(PageHandle& other) {
    owner_ = std::move(other.owner_);
    data_ = other.data_;
    id_ = other.id_;
    other.data_ = nullptr;
    other.id_ = kInvalidPageId;
  }

  std::shared_ptr<char[]> owner_;  ///< Shared-buffer modes.
  char* data_ = nullptr;
  PageId id_ = kInvalidPageId;
};

}  // namespace ode

#endif  // ODE_STORAGE_BUFFER_POOL_H_
