#ifndef ODE_CORE_FORALL_H_
#define ODE_CORE_FORALL_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/transaction.h"

namespace ode {

/// The paper's set/cluster iteration facility (§3):
///
///     forall (p in person) suchthat (p->age > 30) by (p->name) { ... }
///
/// becomes
///
///     ForAll<Person>(txn)
///         .SuchThat([](const Person& p) { return p.age > 30; })
///         .By<std::string>([](const Person& p) { return p.name; })
///         .Do([&](Ref<Person> p) { ...; return Status::OK(); });
///
/// Features mapped from the paper:
///  * `suchthat` — predicate filters (several calls AND together);
///  * `by` — ordered iteration, ascending by default, Descending() flips;
///  * `forall (p in person*)` — WithDerived() also iterates the clusters of
///    all derived classes (§3.1.1), yielding base-typed refs;
///  * iteration covers objects *inserted during the iteration* (§3.2, the
///    fixpoint-query facility) when no `by` ordering is requested: a locked
///    scan keeps re-checking the extent until a full pass finds nothing
///    new (a snapshot's extent is frozen, so its morsel scan makes one
///    pass);
///  * ViaIndex* — an index access path replacing the full scan (the query
///    optimization §3 anticipates).
template <typename T>
class ForAll {
 public:
  /// Post-execution counters: what the last Do/Each/Collect/Count actually
  /// did, as opposed to Describe()/Explain() which predicts the plan.
  /// Also mirrored into the engine registry (query.* — see
  /// docs/OBSERVABILITY.md).
  struct ExecStats {
    std::string access_path;      ///< scan | index-exact | index-range | oid-list
    size_t clusters = 0;          ///< clusters visited (scan path)
    size_t rounds = 0;            ///< worklist passes (scan path, §3.2)
    size_t index_candidates = 0;  ///< oids yielded by the index / oid list
    size_t rows_scanned = 0;      ///< objects deserialized and tested
    size_t rows_returned = 0;     ///< objects passing every predicate
    size_t workers = 0;           ///< pool workers used (0 = caller's thread)
    /// Buffer-pool fetches (hits and misses) made by the loop itself, on
    /// the coordinator and every worker; Do/Each bodies are not counted.
    size_t pool_fetches = 0;

    std::string ToString() const {
      std::string out = access_path;
      if (clusters > 0) out += " clusters=" + std::to_string(clusters);
      if (rounds > 0) out += " rounds=" + std::to_string(rounds);
      if (workers > 0) out += " workers=" + std::to_string(workers);
      if (access_path != "scan") {
        out += " candidates=" + std::to_string(index_candidates);
      }
      out += " rows_scanned=" + std::to_string(rows_scanned);
      out += " rows_returned=" + std::to_string(rows_returned);
      out += " pool_fetches=" + std::to_string(pool_fetches);
      return out;
    }
  };

  explicit ForAll(Transaction& txn) : txn_(&txn) {}

  /// Also iterate every cluster whose type derives from T (§3.1.1).
  ForAll& WithDerived() {
    with_derived_ = true;
    return *this;
  }

  /// Filter; multiple SuchThat calls conjoin.
  ForAll& SuchThat(std::function<bool(const T&)> pred) {
    preds_.push_back(std::move(pred));
    return *this;
  }

  /// Ordered iteration by a key (ascending). K needs operator<.
  template <typename K>
  ForAll& By(std::function<K(const T&)> key) {
    less_ = [key = std::move(key)](const T& a, const T& b) {
      return key(a) < key(b);
    };
    return *this;
  }

  ForAll& Descending() {
    descending_ = true;
    return *this;
  }

  /// Iterate only objects whose index key equals `user_key`.
  ForAll& ViaIndexExact(std::string index, std::string user_key) {
    index_ = std::move(index);
    index_lo_ = std::move(user_key);
    index_mode_ = IndexMode::kExact;
    return *this;
  }

  /// Iterate only objects with index key in [lo, hi); empty hi = unbounded.
  ForAll& ViaIndexRange(std::string index, std::string lo, std::string hi) {
    index_ = std::move(index);
    index_lo_ = std::move(lo);
    index_hi_ = std::move(hi);
    index_mode_ = IndexMode::kRange;
    return *this;
  }

  /// Iterate over an explicit list of objects (used by set iteration).
  ForAll& OverOids(std::vector<Oid> oids) {
    explicit_oids_ = std::move(oids);
    use_explicit_ = true;
    return *this;
  }

  /// Requests the morsel scan on `workers` query-pool threads (0 = the
  /// whole pool). Honored only where it preserves the inline scan's
  /// semantics exactly: a snapshot transaction on the plain scan path
  /// (docs/CONCURRENCY.md "Parallel query execution"). Anything else — a
  /// lock-based transaction, an index/oid-list access path, no pool — runs
  /// on the caller's thread and counts query.parallel.fallbacks.
  /// When the pool cannot admit the whole worker set the execution fails
  /// with Busy (RunReadTransaction retries it) rather than degrading
  /// silently. SuchThat predicates run concurrently on pool threads and
  /// must not touch shared mutable state; Do/Each bodies stay serial on
  /// the coordinator.
  ForAll& Parallel(size_t workers = 0) {
    parallel_ = true;
    parallel_workers_ = workers;
    return *this;
  }

  /// True when the next execution will run its morsels on pool workers.
  bool WillRunParallel() const {
    QueryPool* pool = txn_->db().query_pool();
    return parallel_ && SnapshotScan() && pool != nullptr &&
           pool->thread_count() > 0;
  }

  /// Folds every matching object through `step(acc, ref, obj)` into
  /// accumulator slots returned in scan order. A snapshot transaction on the
  /// plain scan path gets one slot per morsel — page-aligned cuts of each
  /// cluster's entry range, folded on pool workers when WillRunParallel()
  /// and inline otherwise — so the slots, and any ordered merge of them,
  /// are the same at every width. Every other path folds left to right into
  /// a single slot. Collect() concatenates the slots, the aggregate helpers
  /// merge them. The `obj` pointer is only valid during the `step` call.
  /// Busy when the pool cannot admit the job.
  template <typename A>
  Result<std::vector<A>> Fold(
      const std::function<Status(A&, Ref<T>, const T&)>& step) {
    if (SnapshotScan()) return ScanSnapshot(step);
    std::vector<A> slots(1);
    ODE_RETURN_IF_ERROR(Stream([&](Ref<T> ref) -> Status {
      ODE_ASSIGN_OR_RETURN(const T* obj, txn_->Read(ref));
      return step(slots[0], ref, *obj);
    }));
    return slots;
  }

  /// Runs `body` for each matching object. Stops on the first error.
  Status Do(const std::function<Status(Ref<T>)>& body) {
    if (less_) {
      std::vector<Ref<T>> refs;
      ODE_RETURN_IF_ERROR(CollectInto(&refs, /*sorted=*/true));
      for (const auto& ref : refs) {
        ODE_RETURN_IF_ERROR(body(ref));
      }
      return Status::OK();
    }
    return Stream(body);
  }

  /// Convenience: body with the loaded object, no Status plumbing.
  Status Each(const std::function<void(Ref<T>, const T&)>& body) {
    return Do([&](Ref<T> ref) -> Status {
      ODE_ASSIGN_OR_RETURN(const T* obj, txn_->Read(ref));
      body(ref, *obj);
      return Status::OK();
    });
  }

  /// Materializes matching refs (ordered if By was given).
  Result<std::vector<Ref<T>>> Collect() {
    std::vector<Ref<T>> refs;
    ODE_RETURN_IF_ERROR(CollectInto(&refs, static_cast<bool>(less_)));
    return refs;
  }

  /// Human-readable description of the access path this loop would use —
  /// a tiny EXPLAIN for tests and debugging.
  std::string Describe() const {
    std::string out;
    if (use_explicit_) {
      out = "oid-list(" + std::to_string(explicit_oids_.size()) + ")";
    } else if (index_mode_ == IndexMode::kExact) {
      out = "index-exact(" + index_ + ")";
    } else if (index_mode_ == IndexMode::kRange) {
      out = "index-range(" + index_ + ")";
    } else {
      out = std::string("scan(") + TypeNameOf<T>() +
            (with_derived_ ? "*" : "") + ")";
    }
    if (!preds_.empty()) {
      out += " filter(x" + std::to_string(preds_.size()) + ")";
    }
    if (less_) {
      out += descending_ ? " order-by(desc)" : " order-by(asc)";
    }
    return out;
  }

  /// EXPLAIN: Describe()'s plan, followed once the loop has run by what the
  /// last execution did (exec_stats().ToString()).
  std::string Explain() const {
    if (!executed_) return Describe();
    return Describe() + " | " + stats_.ToString();
  }

  /// Counters from the most recent execution (Do/Each/Collect/Count).
  const ExecStats& exec_stats() const { return stats_; }

  Result<size_t> Count() {
    size_t n = 0;
    ODE_RETURN_IF_ERROR(Stream([&](Ref<T>) {
      n++;
      return Status::OK();
    }));
    return n;
  }

 private:
  enum class IndexMode { kNone, kExact, kRange };

  /// Entries per morsel: four 127-entry object-table pages. Page-aligned
  /// cuts mean no entry page is ever split between workers, and four pages
  /// is fine-grained enough that the shared cursor balances skewed
  /// predicates across the pool.
  static constexpr uint32_t kMorselEntries = 4 * 127;

  /// Entry range [lo, hi) of one cluster's object table.
  struct Morsel {
    ClusterId cluster;
    LocalOid lo;
    LocalOid hi;
  };

  /// A snapshot transaction on the plain scan path: its extent is frozen,
  /// so the morsel scan covers it in one pass.
  bool SnapshotScan() const {
    return txn_->snapshot() && !use_explicit_ &&
           index_mode_ == IndexMode::kNone;
  }

  /// Starts an execution: fresh counters, and a Parallel() request the
  /// loop cannot honor counted as a fallback.
  void BeginExecution() {
    stats_ = ExecStats{};
    executed_ = true;
    if (parallel_ && !WillRunParallel()) {
      txn_->db().core_metrics().parallel_fallbacks->Add();
    }
  }

  /// The snapshot scan: cuts every cluster's entry range into morsels and
  /// folds each into its own slot — on pool workers that each join this
  /// transaction's cut when WillRunParallel(), else inline in this
  /// transaction.
  template <typename A>
  Result<std::vector<A>> ScanSnapshot(
      const std::function<Status(A&, Ref<T>, const T&)>& step) {
    BeginExecution();
    stats_.access_path = "scan";
    stats_.rounds = 1;
    const uint64_t fetches_at_start = BufferPool::ThreadFetches();
    Database& db = txn_->db();
    std::vector<ClusterId> clusters;
    ODE_RETURN_IF_ERROR(ResolveClusters(&clusters));
    stats_.clusters = clusters.size();
    std::vector<Morsel> morsels;
    for (ClusterId cluster : clusters) {
      ODE_ASSIGN_OR_RETURN(PageId root, db.TableRootOf(cluster));
      // Read-ahead the cluster's object-table entry pages in one batched
      // pass; morsel walks then hit warm frames instead of serializing on
      // demand misses (prefetch is advisory — failures just leave the
      // demand path to surface real errors).
      std::vector<PageId> entry_pages;
      Status listed = db.store().ListEntryPages(root, &entry_pages);
      if (listed.ok() && !entry_pages.empty()) {
        IgnoreStatus(
            db.engine().buffer_pool().Prefetch(entry_pages.data(),
                                               entry_pages.size()),
            "parallel_scan_prefetch");
      }
      ODE_ASSIGN_OR_RETURN(uint32_t entries, db.store().NumEntries(root));
      for (uint32_t lo = 0; lo < entries; lo += kMorselEntries) {
        const uint32_t hi = std::min<uint32_t>(lo + kMorselEntries, entries);
        morsels.push_back(Morsel{cluster, lo, hi});
      }
    }
    std::vector<A> slots(morsels.size());
    if (!WillRunParallel()) {
      for (size_t i = 0; i < morsels.size(); i++) {
        ODE_RETURN_IF_ERROR(
            ScanMorsel(*txn_, morsels[i], &slots[i], &stats_, step));
      }
    } else if (!morsels.empty()) {
      QueryPool* pool = db.query_pool();
      size_t workers =
          parallel_workers_ == 0 ? pool->thread_count() : parallel_workers_;
      workers = std::min({workers, pool->thread_count(), morsels.size()});
      const uint64_t seq = txn_->snapshot_seq();
      std::atomic<size_t> cursor{0};
      std::vector<ExecStats> partials(workers);
      ODE_RETURN_IF_ERROR(pool->Run(workers, [&](size_t w) -> Status {
        const uint64_t worker_fetches_at_start = BufferPool::ThreadFetches();
        // A fresh snapshot transaction per worker, joined at the
        // coordinator's cut: pool threads have no transaction bound, and
        // every read below resolves exactly as the coordinator's would.
        ODE_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> wt,
                             db.BeginSnapshotAt(seq));
        Status ws;
        for (;;) {
          const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= morsels.size()) break;
          ws = ScanMorsel(*wt, morsels[i], &slots[i], &partials[w], step);
          if (!ws.ok()) break;
          // The morsel is folded: drop its objects, so a worker caches one
          // morsel's objects at a time instead of its whole share.
          wt->ReleaseCachedReads();
        }
        Status closed = ws.ok() ? wt->Commit() : wt->Abort();
        partials[w].pool_fetches =
            BufferPool::ThreadFetches() - worker_fetches_at_start;
        return ws.ok() ? closed : ws;
      }));
      for (const ExecStats& p : partials) {
        stats_.rows_scanned += p.rows_scanned;
        stats_.rows_returned += p.rows_returned;
        stats_.pool_fetches += p.pool_fetches;
      }
      stats_.workers = workers;
      const Database::CoreMetrics& m = db.core_metrics();
      m.parallel_scans->Add();
      m.parallel_morsels->Add(morsels.size());
    }
    stats_.pool_fetches += BufferPool::ThreadFetches() - fetches_at_start;
    FlushStats();
    return slots;
  }

  /// One pass over `morsel` inside snapshot transaction `st` (the caller's,
  /// or a worker's joined at its cut): walks the morsel's entry pages once
  /// for its heads and their entries, prefetches the record pages they
  /// point at in one batch, then reads, filters and folds the
  /// snapshot-visible objects into `acc`.
  template <typename A>
  Status ScanMorsel(Transaction& st, const Morsel& morsel, A* acc,
                    ExecStats* partial,
                    const std::function<Status(A&, Ref<T>, const T&)>& step) {
    Database& db = txn_->db();
    ODE_ASSIGN_OR_RETURN(PageId root, db.TableRootOf(morsel.cluster));
    // Tombstoned heads come along: whether an object is visible at the cut
    // is the read's decision below.
    std::vector<ObjectTable::Head> heads;
    ODE_RETURN_IF_ERROR(db.store().ScanHeads(
        root, morsel.lo, morsel.hi, /*include_tombstones=*/true, &heads));
    if (heads.empty()) return Status::OK();
    // Read-ahead the record pages the head entries point at, each run of
    // heads on one page listed once (a snapshot may resolve some objects to
    // older versions on other pages; those fall back to demand reads).
    // Advisory, like the entry-page prefetch.
    std::vector<PageId> data_pages;
    for (const ObjectTable::Head& head : heads) {
      const ObjectTable::Entry& entry = head.entry;
      if (entry.page == kInvalidPageId || entry.overflow() ||
          entry.tombstone()) {
        continue;
      }
      if (data_pages.empty() || data_pages.back() != entry.page) {
        data_pages.push_back(entry.page);
      }
    }
    if (!data_pages.empty()) {
      IgnoreStatus(db.engine().buffer_pool().Prefetch(data_pages.data(),
                                                      data_pages.size()),
                   "parallel_scan_prefetch");
    }
    for (const ObjectTable::Head& head : heads) {
      Ref<T> ref(&db, Oid{morsel.cluster, head.local});
      Result<const T*> read = st.Read(ref);
      if (!read.ok()) {
        // A head whose newest state visible at the cut is "not yet
        // created" or "deleted" resolves NotFound: not a match.
        if (read.status().IsNotFound()) continue;
        return read.status();
      }
      partial->rows_scanned++;
      if (!Matches(*read.value())) continue;
      partial->rows_returned++;
      ODE_RETURN_IF_ERROR(step(*acc, ref, *read.value()));
    }
    return Status::OK();
  }

  bool Matches(const T& obj) const {
    for (const auto& pred : preds_) {
      if (!pred(obj)) return false;
    }
    return true;
  }

  /// Clusters to iterate: T's own and, with WithDerived, every existing
  /// cluster of a derived type.
  Status ResolveClusters(std::vector<ClusterId>* out) const {
    Database& db = txn_->db();
    if (!with_derived_) {
      ODE_ASSIGN_OR_RETURN(ClusterId id, db.ClusterOf<T>());
      out->push_back(id);
      return Status::OK();
    }
    const auto names =
        TypeRegistry::Global().SelfAndDerived(TypeNameOf<T>());
    for (const auto& name : names) {
      const auto* entry = db.catalog().FindClusterByType(name);
      if (entry != nullptr) out->push_back(entry->id);
    }
    if (out->empty()) {
      return Status::NotFound(std::string("no cluster for type ") +
                              TypeNameOf<T>());
    }
    return Status::OK();
  }

  /// Runs `body` for each matching object. A snapshot scan collects the
  /// matching refs through the morsel scan first, then runs the body on
  /// them in scan order (a snapshot body cannot insert, so nothing is
  /// missed). Every other path streams: index and oid-list paths over
  /// their resolved oids, and the locked scan as a worklist — clusters are
  /// re-scanned past their previous high-water marks until a full round
  /// adds nothing, so objects created by `body` are visited too (§3.2).
  Status Stream(const std::function<Status(Ref<T>)>& body) {
    if (SnapshotScan()) {
      ODE_ASSIGN_OR_RETURN(
          std::vector<std::vector<Ref<T>>> slots,
          ScanSnapshot<std::vector<Ref<T>>>(
              [](std::vector<Ref<T>>& acc, Ref<T> ref, const T&) -> Status {
                acc.push_back(ref);
                return Status::OK();
              }));
      for (const auto& slot : slots) {
        for (const Ref<T>& ref : slot) {
          ODE_RETURN_IF_ERROR(body(ref));
        }
      }
      return Status::OK();
    }
    BeginExecution();
    const uint64_t fetches_at_start = BufferPool::ThreadFetches();
    uint64_t body_fetches = 0;
    // Runs the body with its own page fetches kept out of pool_fetches.
    auto run_body = [&](Ref<T> ref) -> Status {
      const uint64_t before = BufferPool::ThreadFetches();
      Status s = body(ref);
      body_fetches += BufferPool::ThreadFetches() - before;
      return s;
    };
    auto fetches_so_far = [&]() -> size_t {
      return BufferPool::ThreadFetches() - fetches_at_start - body_fetches;
    };
    if (use_explicit_ || index_mode_ != IndexMode::kNone) {
      stats_.access_path = use_explicit_               ? "oid-list"
                           : index_mode_ == IndexMode::kExact ? "index-exact"
                                                              : "index-range";
      std::vector<Oid> oids;
      ODE_RETURN_IF_ERROR(ResolveOidList(&oids));
      stats_.index_candidates = oids.size();
      for (const Oid& oid : oids) {
        Ref<T> ref(&txn_->db(), oid);
        Result<const T*> read = txn_->Read(ref);
        if (!read.ok()) {
          // Versioned index entries resolve at the snapshot's cut, so every
          // oid the scan emits should also resolve as an object read at the
          // same cut. Keep the lenient skip as defense in depth (e.g. an
          // index caught mid-backfill by a crash).
          if (txn_->snapshot() && read.status().IsNotFound()) continue;
          return read.status();
        }
        const T* obj = read.value();
        stats_.rows_scanned++;
        if (!Matches(*obj)) continue;
        stats_.rows_returned++;
        ODE_RETURN_IF_ERROR(run_body(ref));
      }
      stats_.pool_fetches = fetches_so_far();
      FlushStats();
      return Status::OK();
    }
    stats_.access_path = "scan";
    std::vector<ClusterId> clusters;
    ODE_RETURN_IF_ERROR(ResolveClusters(&clusters));
    stats_.clusters = clusters.size();
    std::vector<LocalOid> high_water(clusters.size(), 0);
    bool progressed = true;
    while (progressed) {
      progressed = false;
      stats_.rounds++;
      for (size_t i = 0; i < clusters.size(); i++) {
        while (true) {
          LocalOid local;
          bool found = false;
          ODE_RETURN_IF_ERROR(
              txn_->NextInCluster(clusters[i], high_water[i], &local, &found));
          if (!found) break;
          high_water[i] = local + 1;
          progressed = true;
          Ref<T> ref(&txn_->db(), Oid{clusters[i], local});
          ODE_ASSIGN_OR_RETURN(const T* obj, txn_->Read(ref));
          stats_.rows_scanned++;
          if (!Matches(*obj)) continue;
          stats_.rows_returned++;
          ODE_RETURN_IF_ERROR(run_body(ref));
        }
      }
    }
    stats_.pool_fetches = fetches_so_far();
    FlushStats();
    return Status::OK();
  }

  /// Mirrors the finished execution's counters into the engine registry.
  void FlushStats() {
    const Database::CoreMetrics& m = txn_->db().core_metrics();
    if (stats_.access_path == "scan") {
      m.scans->Add();
    } else if (stats_.access_path == "oid-list") {
      m.oid_list_scans->Add();
    } else {
      m.index_scans->Add();
    }
    m.rows_scanned->Add(stats_.rows_scanned);
    m.rows_returned->Add(stats_.rows_returned);
    if (stats_.rows_scanned > 0) {
      m.pool_fetches_per_row->Add(static_cast<double>(stats_.pool_fetches) /
                                  static_cast<double>(stats_.rows_scanned));
    }
  }

  Status ResolveOidList(std::vector<Oid>* oids) const {
    if (use_explicit_) {
      *oids = explicit_oids_;
      return Status::OK();
    }
    IndexManager& indexes = txn_->db().indexes();
    if (txn_->snapshot()) {
      // Versioned entries resolve at the cut, so the oid set is the key set
      // as of the snapshot regardless of concurrent key mutations.
      return indexes.ScanAtSnapshot(
          index_, index_lo_,
          index_mode_ == IndexMode::kExact ? nullptr : &index_hi_,
          txn_->snapshot_seq(), oids);
    }
    // Shared-lock the index before reading its B-tree, so concurrent
    // maintenance (which takes X per index) cannot mutate the tree under
    // the scan.
    ODE_RETURN_IF_ERROR(txn_->LockIndexShared(index_));
    if (index_mode_ == IndexMode::kExact) {
      return indexes.ScanExact(index_, index_lo_, oids);
    }
    return indexes.ScanRange(index_, index_lo_, index_hi_, oids);
  }

  Status CollectInto(std::vector<Ref<T>>* refs, bool sorted) {
    ODE_RETURN_IF_ERROR(Stream([&](Ref<T> ref) {
      refs->push_back(ref);
      return Status::OK();
    }));
    if (sorted && less_) {
      // Objects are in the transaction cache; load pointers for comparison.
      // Pin the cache: with max_cached_objects set, an eviction mid-loop
      // would invalidate earlier pointers in `keyed`.
      Transaction::CachePin pin(*txn_);
      std::vector<std::pair<Ref<T>, const T*>> keyed;
      keyed.reserve(refs->size());
      for (const auto& ref : *refs) {
        ODE_ASSIGN_OR_RETURN(const T* obj, txn_->Read(ref));
        keyed.emplace_back(ref, obj);
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [this](const auto& a, const auto& b) {
                         return less_(*a.second, *b.second);
                       });
      if (descending_) std::reverse(keyed.begin(), keyed.end());
      refs->clear();
      for (const auto& [ref, obj] : keyed) refs->push_back(ref);
    }
    return Status::OK();
  }

  // A ForAll is a stack-lived builder created and consumed inside one
  // transaction body; the pointer never crosses Commit().
  Transaction* txn_;  // ode-lint: allow(txn-ptr-member)
  bool with_derived_ = false;
  bool descending_ = false;
  bool parallel_ = false;         ///< Parallel() was requested.
  size_t parallel_workers_ = 0;   ///< Requested width (0 = whole pool).
  std::vector<std::function<bool(const T&)>> preds_;
  std::function<bool(const T&, const T&)> less_;
  IndexMode index_mode_ = IndexMode::kNone;
  std::string index_, index_lo_, index_hi_;
  bool use_explicit_ = false;
  std::vector<Oid> explicit_oids_;
  ExecStats stats_;
  bool executed_ = false;  ///< An execution has run; stats_ holds its counters.
};

}  // namespace ode

#endif  // ODE_CORE_FORALL_H_
