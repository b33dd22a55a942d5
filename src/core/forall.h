#ifndef ODE_CORE_FORALL_H_
#define ODE_CORE_FORALL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
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
///    fixpoint-query facility) when no `by` ordering is requested: after
///    the extent, a locked scan visits what its body created, in creation
///    order, until the body creates nothing more (a snapshot cannot
///    insert);
///  * ViaIndex* — an index access path replacing the full scan (the query
///    optimization §3 anticipates).
///
/// Every plain scan, locked or snapshot, walks the object table in
/// ScanMorsel: page-aligned morsels, one Transaction::ScanHeads call each,
/// inline or (a snapshot under Parallel()) on query-pool workers.
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
    size_t rounds = 0;            ///< scan passes: extent (+ §3.2 inserts)
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
    return parallel_ && txn_->snapshot() && ScanPath() && pool != nullptr &&
           pool->thread_count() > 0;
  }

  /// Folds every matching object through `step(acc, ref, obj)` into
  /// accumulator slots returned in scan order. The plain scan path gets one
  /// slot per morsel — page-aligned cuts of each cluster's entry range,
  /// folded on pool workers when WillRunParallel() and inline otherwise —
  /// so the slots, and any ordered merge of them, are the same at every
  /// width; a locked scan adds a last slot for the objects created during
  /// the scan (§3.2). Index and oid-list paths fold left to right into a
  /// single slot. The aggregate helpers merge the slots. The `obj` pointer
  /// is only valid during the `step` call. Busy when the pool cannot admit
  /// the job.
  template <typename A>
  Result<std::vector<A>> Fold(
      const std::function<Status(A&, Ref<T>, const T&)>& step) {
    BeginExecution();
    const uint64_t fetches_at_start = BufferPool::ThreadFetches();
    Result<std::vector<A>> slots = ScanPath() ? Scan(step) : ScanOids(step);
    if (!slots.ok()) return slots;
    // Workers' fetches are already in; Do/Each bodies' are kept out.
    stats_.pool_fetches +=
        BufferPool::ThreadFetches() - fetches_at_start - body_fetches_;
    FlushStats();
    return slots;
  }

  /// Runs `body` for each matching object. Stops on the first error.
  Status Do(const std::function<Status(Ref<T>)>& body) {
    return Visit([&](Ref<T> ref, const T&) { return body(ref); });
  }

  /// Convenience: body with the loaded object, no Status plumbing.
  Status Each(const std::function<void(Ref<T>, const T&)>& body) {
    return Visit([&](Ref<T> ref, const T& obj) {
      body(ref, obj);
      return Status::OK();
    });
  }

  /// Materializes matching refs (ordered if By was given).
  Result<std::vector<Ref<T>>> Collect() {
    ODE_ASSIGN_OR_RETURN(
        std::vector<std::vector<Ref<T>>> slots,
        Fold<std::vector<Ref<T>>>(
            [](std::vector<Ref<T>>& acc, Ref<T> ref, const T&) -> Status {
              acc.push_back(ref);
              return Status::OK();
            }));
    std::vector<Ref<T>> refs;
    for (const std::vector<Ref<T>>& slot : slots) {
      refs.insert(refs.end(), slot.begin(), slot.end());
    }
    if (less_) ODE_RETURN_IF_ERROR(SortRefs(&refs));
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
    ODE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                         Fold<size_t>([](size_t& n, Ref<T>, const T&) {
                           n++;
                           return Status::OK();
                         }));
    size_t n = 0;
    for (size_t c : counts) n += c;
    return n;
  }

 private:
  enum class IndexMode { kNone, kExact, kRange };

  /// Entries per morsel: four object-table entry pages. Page-aligned cuts
  /// mean no entry page is ever split between workers, and four pages is
  /// fine-grained enough that the shared cursor balances skewed predicates
  /// across the pool.
  static constexpr uint32_t kMorselEntries = 4 * ObjectTable::kEntriesPerPage;

  /// Entry range [lo, hi) of one cluster's object table.
  struct Morsel {
    ClusterId cluster;
    LocalOid lo;
    LocalOid hi;
  };

  /// The plain scan path: no index and no explicit oid list.
  bool ScanPath() const {
    return !use_explicit_ && index_mode_ == IndexMode::kNone;
  }

  /// An accumulator-free slot, for folds that only run a body.
  struct Unit {};

  /// Starts an execution: fresh counters, and a Parallel() request the
  /// loop cannot honor counted as a fallback.
  void BeginExecution() {
    stats_ = ExecStats{};
    body_fetches_ = 0;
    executed_ = true;
    if (parallel_ && !WillRunParallel()) {
      txn_->db().core_metrics().parallel_fallbacks->Add();
    }
  }

  /// The plain scan: cuts every cluster's entry range into morsels and
  /// folds each into its own slot — on pool workers that each join this
  /// transaction's cut when WillRunParallel(), else inline in this
  /// transaction. A locked scan then folds what its body created into one
  /// last slot (§3.2).
  template <typename A>
  Result<std::vector<A>> Scan(
      const std::function<Status(A&, Ref<T>, const T&)>& step) {
    stats_.access_path = "scan";
    stats_.rounds = 1;
    Database& db = txn_->db();
    std::vector<ClusterId> clusters;
    ODE_RETURN_IF_ERROR(ResolveClusters(&clusters));
    stats_.clusters = clusters.size();
    std::vector<Morsel> morsels;
    std::vector<ObjectTable::Head> none;
    for (ClusterId cluster : clusters) {
      // The empty range walks nothing: it takes a locked scan's S(cluster)
      // before the extent's end is read, so no other transaction moves it.
      ODE_ASSIGN_OR_RETURN(uint32_t entries,
                           txn_->ScanHeads(cluster, 0, 0, &none));
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
      for (uint32_t lo = 0; lo < entries; lo += kMorselEntries) {
        const uint32_t hi = std::min<uint32_t>(lo + kMorselEntries, entries);
        morsels.push_back(Morsel{cluster, lo, hi});
      }
    }
    const bool locked = !txn_->snapshot();
    std::vector<A> slots(morsels.size() + (locked ? 1 : 0));
    // A locked body's creations since the scan began, created[first..]: the
    // extent pass skips them wherever they land — past the planned end, in
    // a freed entry already passed or in a morsel not yet walked — and the
    // insert pass visits them after it, in creation order. Deleting its own
    // object frees the entry for the body's next New, so an oid can recur
    // in the log; only its latest creation is visited. (A snapshot cannot
    // create, so its log stays empty.)
    Transaction::CreationLog log(*txn_);
    const std::vector<Oid>& created = txn_->created();
    const size_t first = created.size();
    size_t indexed = first;  // created[first, indexed) is in `latest`
    std::unordered_map<uint64_t, size_t> latest;  // oid -> last log index
    auto latest_of = [&](Oid oid) -> size_t {
      for (; indexed < created.size(); indexed++) {
        latest[created[indexed].Pack()] = indexed;
      }
      auto it = latest.find(oid.Pack());
      return it == latest.end() ? SIZE_MAX : it->second;
    };
    auto made_in_scan = [&](Oid oid) {
      return created.size() > first && latest_of(oid) != SIZE_MAX;
    };
    if (!WillRunParallel()) {
      for (size_t i = 0; i < morsels.size(); i++) {
        ODE_RETURN_IF_ERROR(ScanMorsel(*txn_, morsels[i], made_in_scan,
                                       &slots[i], &stats_, step));
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
          ws = ScanMorsel(*wt, morsels[i], [](Oid) { return false; },
                          &slots[i], &partials[w], step);
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
    for (size_t i = first; locked && i < created.size(); i++) {
      const Oid oid = created[i];  // a copy: the body may grow the log
      if (latest_of(oid) != i ||
          std::find(clusters.begin(), clusters.end(), oid.cluster) ==
              clusters.end()) {
        continue;
      }
      stats_.rounds = 2;
      ODE_RETURN_IF_ERROR(VisitObject(*txn_, oid, /*walked=*/nullptr,
                                      /*skip_missing=*/true, &slots.back(),
                                      &stats_, step));
    }
    return slots;
  }

  /// One pass over `morsel` inside transaction `st` (the caller's, or a
  /// worker's joined at its cut): walks the morsel's entry pages once for
  /// its heads and their entries, prefetches the record pages they point at
  /// in one batch, then reads, filters and folds the objects into `acc`,
  /// passing over those `skip` names. Each read is handed its walked head,
  /// so a snapshot reads a head visible at its cut with one fetch.
  template <typename A, typename Skip>
  Status ScanMorsel(Transaction& st, const Morsel& morsel, Skip&& skip,
                    A* acc, ExecStats* partial,
                    const std::function<Status(A&, Ref<T>, const T&)>& step) {
    std::vector<ObjectTable::Head> heads;
    ODE_RETURN_IF_ERROR(
        st.ScanHeads(morsel.cluster, morsel.lo, morsel.hi, &heads).status());
    if (heads.empty()) return Status::OK();
    // Read-ahead the record pages the head entries point at, each run of
    // heads on one page listed once (a snapshot may resolve some objects to
    // older versions on other pages; those fall back to demand reads).
    // Advisory, like the entry-page prefetch.
    Database& db = txn_->db();
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
      const Oid oid{morsel.cluster, head.local};
      if (skip(oid)) continue;
      // Missing: invisible at a snapshot's cut, or deleted by the body.
      ODE_RETURN_IF_ERROR(VisitObject(st, oid, &head, /*skip_missing=*/true,
                                      acc, partial, step));
    }
    return Status::OK();
  }

  /// Reads `oid` in `st` (`walked`: its head from a scan walk, or null),
  /// and folds it into `acc` if it matches. `skip_missing` makes a NotFound
  /// read no match rather than an error.
  template <typename A>
  Status VisitObject(Transaction& st, Oid oid, const ObjectTable::Head* walked,
                     bool skip_missing, A* acc, ExecStats* partial,
                     const std::function<Status(A&, Ref<T>, const T&)>& step) {
    Ref<T> ref(&st.db(), oid);
    Result<const T*> read = st.Read(ref, walked);
    if (!read.ok()) {
      if (skip_missing && read.status().IsNotFound()) return Status::OK();
      return read.status();
    }
    partial->rows_scanned++;
    if (!Matches(*read.value())) return Status::OK();
    partial->rows_returned++;
    return step(*acc, ref, *read.value());
  }

  /// The index and oid-list paths: folds the resolved oids left to right
  /// into one slot.
  template <typename A>
  Result<std::vector<A>> ScanOids(
      const std::function<Status(A&, Ref<T>, const T&)>& step) {
    stats_.access_path = use_explicit_                      ? "oid-list"
                         : index_mode_ == IndexMode::kExact ? "index-exact"
                                                            : "index-range";
    std::vector<Oid> oids;
    ODE_RETURN_IF_ERROR(ResolveOidList(&oids));
    stats_.index_candidates = oids.size();
    std::vector<A> slots(1);
    for (const Oid& oid : oids) {
      // Versioned index entries resolve at the snapshot's cut, so every oid
      // the scan emits should also resolve as an object read at the same
      // cut. A snapshot keeps the lenient skip as defense in depth (e.g. an
      // index caught mid-backfill by a crash).
      ODE_RETURN_IF_ERROR(VisitObject(*txn_, oid, /*walked=*/nullptr,
                                      /*skip_missing=*/txn_->snapshot(),
                                      &slots[0], &stats_, step));
    }
    return slots;
  }

  /// Runs `visit` on each matching object in iteration order. Unordered
  /// loops stream: the body runs inside the scan, so a locked scan visits
  /// what its body creates too (§3.2). An ordered loop sorts first, and a
  /// Parallel() one folds on workers while bodies stay on this thread, so
  /// both collect the refs and run the bodies afterwards.
  Status Visit(const std::function<Status(Ref<T>, const T&)>& visit) {
    if (less_ || WillRunParallel()) {
      ODE_ASSIGN_OR_RETURN(std::vector<Ref<T>> refs, Collect());
      for (const Ref<T>& ref : refs) {
        ODE_ASSIGN_OR_RETURN(const T* obj, txn_->Read(ref));
        ODE_RETURN_IF_ERROR(visit(ref, *obj));
      }
      return Status::OK();
    }
    return Fold<Unit>([&](Unit&, Ref<T> ref, const T& obj) -> Status {
             const uint64_t before = BufferPool::ThreadFetches();
             Status s = visit(ref, obj);
             body_fetches_ += BufferPool::ThreadFetches() - before;
             return s;
           })
        .status();
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

  /// Orders `refs` by By()'s key (stable, so ties keep scan order).
  Status SortRefs(std::vector<Ref<T>>* refs) {
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
  uint64_t body_fetches_ = 0;  ///< Pool fetches by Do/Each bodies this run.
  bool executed_ = false;  ///< An execution has run; stats_ holds its counters.
};

}  // namespace ode

#endif  // ODE_CORE_FORALL_H_
