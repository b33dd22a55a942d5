#ifndef ODE_QUERY_JOIN_H_
#define ODE_QUERY_JOIN_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/forall.h"
#include "core/transaction.h"
#include "query/index_key.h"

namespace ode {

/// Join helpers for the paper's multi-variable `forall` queries (§3):
///
///   forall (a in A, b in B) suchthat (theta(a, b)) { body }
///
/// NestedLoopJoin is the literal translation; IndexJoin and HashJoin are the
/// access-path refinements §3 anticipates when the predicate is an equality.
/// All stream pairs to `body` and stop on the first error.
///
/// Pointer discipline: a `const T*` from Transaction::Read is only guaranteed
/// valid until the next Read/Write on the same transaction when
/// DatabaseOptions::max_cached_objects bounds the object cache. The joins
/// below therefore never hold a left-row pointer across inner-loop reads —
/// they either re-read per pair (nested loop) or extract the probe key
/// before any further read (index/hash).

/// Per-join execution counters, mirrored into the engine registry
/// (query.join.* — see docs/OBSERVABILITY.md).
struct JoinStats {
  std::string strategy;   ///< nested-loop | index | hash
  size_t left_rows = 0;   ///< outer rows visited
  size_t right_rows = 0;  ///< inner rows read (nested-loop: |A|x|B| reads;
                          ///< index: candidates probed; hash: build rows)
  size_t pairs = 0;       ///< matching pairs handed to `body`

  std::string ToString() const {
    return strategy + " left_rows=" + std::to_string(left_rows) +
           " right_rows=" + std::to_string(right_rows) +
           " pairs=" + std::to_string(pairs);
  }
};

/// theta-join by nested loops: body(a, b) for every pair that satisfies the
/// predicate. O(|A| * |B|) object reads.
///
/// `parallel_outer` > 0 runs the OUTER scan's morsels on that many
/// query-pool workers (0 = on the caller's thread; honored only under the
/// usual eligibility — snapshot transaction, plain scan — and run on the
/// caller's thread otherwise). The per-pair work stays serial on the
/// coordinator. Same for IndexJoin and HashJoin below (HashJoin also
/// parallelizes its build-side scan).
template <typename L, typename R>
Status NestedLoopJoin(
    Transaction& txn, const std::function<bool(const L&, const R&)>& theta,
    const std::function<Status(Ref<L>, Ref<R>)>& body,
    JoinStats* stats = nullptr, size_t parallel_outer = 0) {
  const Database::CoreMetrics& m = txn.db().core_metrics();
  m.join_nested_loop->Add();
  JoinStats local;
  local.strategy = "nested-loop";
  ForAll<L> outer(txn);
  if (parallel_outer > 0) outer.Parallel(parallel_outer);
  Status s = outer.Do([&](Ref<L> left) -> Status {
    local.left_rows++;
    return ForAll<R>(txn).Do([&](Ref<R> right) -> Status {
      local.right_rows++;
      // Right first, then left: the two most recent loads are both inside
      // the eviction-protected MRU window while `theta` runs. Holding the
      // left pointer across the whole inner loop (the old code) dangles as
      // soon as the bounded cache evicts it.
      ODE_ASSIGN_OR_RETURN(const R* r, txn.Read(right));
      ODE_ASSIGN_OR_RETURN(const L* l, txn.Read(left));
      if (theta(*l, *r)) {
        local.pairs++;
        return body(left, right);
      }
      return Status::OK();
    });
  });
  m.join_pairs->Add(local.pairs);
  if (stats != nullptr) *stats = local;
  return s;
}

/// Equality join through a persistent index on the right side: for each left
/// object, `left_key` produces the encoded user key probed against
/// `right_index` (an index over R's cluster). O(|A| log |B|).
template <typename L, typename R>
Status IndexJoin(Transaction& txn, const std::string& right_index,
                 const std::function<std::string(const L&)>& left_key,
                 const std::function<Status(Ref<L>, Ref<R>)>& body,
                 JoinStats* stats = nullptr, size_t parallel_outer = 0) {
  IndexManager& indexes = txn.db().indexes();
  const Database::CoreMetrics& m = txn.db().core_metrics();
  m.join_index->Add();
  JoinStats local;
  local.strategy = "index";
  ForAll<L> outer(txn);
  if (parallel_outer > 0) outer.Parallel(parallel_outer);
  Status s = outer.Do([&](Ref<L> left) -> Status {
    local.left_rows++;
    // Extract the probe key while the pointer is fresh; `body` may read
    // arbitrarily many objects and evict the left row from the cache.
    std::string key;
    {
      ODE_ASSIGN_OR_RETURN(const L* l, txn.Read(left));
      key = left_key(*l);
    }
    std::vector<Oid> matches;
    if (txn.snapshot()) {
      // Lock-free probe over versioned entries, resolved at the snapshot's
      // cut (same visibility rule as the object reads).
      ODE_RETURN_IF_ERROR(indexes.ScanAtSnapshot(
          right_index, key, /*hi=*/nullptr, txn.snapshot_seq(), &matches));
    } else {
      ODE_RETURN_IF_ERROR(txn.LockIndexShared(right_index));
      ODE_RETURN_IF_ERROR(indexes.ScanExact(right_index, key, &matches));
    }
    local.right_rows += matches.size();
    for (const Oid& oid : matches) {
      Ref<R> right(&txn.db(), oid);
      if (txn.snapshot()) {
        // Entry visibility and object visibility resolve at the same cut;
        // this re-check is defense in depth, not a correctness crutch.
        ODE_ASSIGN_OR_RETURN(const bool visible, txn.Exists(right));
        if (!visible) continue;
      }
      local.pairs++;
      ODE_RETURN_IF_ERROR(body(left, right));
    }
    return Status::OK();
  });
  m.join_pairs->Add(local.pairs);
  if (stats != nullptr) *stats = local;
  return s;
}

/// Equality join by building a transient hash table over the right side:
/// one scan of each cluster, O(|A| + |B|) object reads plus hashing. The
/// right-side key and left-side probe key must use the same encoding.
template <typename L, typename R>
Status HashJoin(Transaction& txn,
                const std::function<std::string(const L&)>& left_key,
                const std::function<std::string(const R&)>& right_key,
                const std::function<Status(Ref<L>, Ref<R>)>& body,
                JoinStats* stats = nullptr, size_t parallel_outer = 0) {
  const Database::CoreMetrics& m = txn.db().core_metrics();
  m.join_hash->Add();
  JoinStats local;
  local.strategy = "hash";
  std::unordered_map<std::string, std::vector<Ref<R>>> table;
  ForAll<R> builder(txn);
  if (parallel_outer > 0) builder.Parallel(parallel_outer);
  Status build = builder.Do([&](Ref<R> right) -> Status {
    local.right_rows++;
    ODE_ASSIGN_OR_RETURN(const R* r, txn.Read(right));
    table[right_key(*r)].push_back(right);
    return Status::OK();
  });
  if (!build.ok()) {
    if (stats != nullptr) *stats = local;
    return build;
  }
  ForAll<L> prober(txn);
  if (parallel_outer > 0) prober.Parallel(parallel_outer);
  Status s = prober.Do([&](Ref<L> left) -> Status {
    local.left_rows++;
    // Key extracted immediately; the matches are Refs (re-read by `body`),
    // never raw pointers, so eviction cannot invalidate them.
    std::string key;
    {
      ODE_ASSIGN_OR_RETURN(const L* l, txn.Read(left));
      key = left_key(*l);
    }
    auto it = table.find(key);
    if (it == table.end()) return Status::OK();
    for (const Ref<R>& right : it->second) {
      local.pairs++;
      ODE_RETURN_IF_ERROR(body(left, right));
    }
    return Status::OK();
  });
  m.join_pairs->Add(local.pairs);
  if (stats != nullptr) *stats = local;
  return s;
}

}  // namespace ode

#endif  // ODE_QUERY_JOIN_H_
