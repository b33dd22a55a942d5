#ifndef ODE_QUERY_AGGREGATE_H_
#define ODE_QUERY_AGGREGATE_H_

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/forall.h"

namespace ode {

/// Aggregation over ForAll iterations. The paper's income query (§3.1.2)
/// computes running sums and counts inside the loop body; these helpers
/// package the common aggregates so queries read declaratively:
///
///   ODE_ASSIGN_OR_RETURN(double avg,
///       Avg<Person>(ForAll<Person>(txn).WithDerived(), txn,
///                   [](const Person& p) { return p.income(); }));
///
/// Each helper consumes the ForAll (applying its suchthat/hierarchy/index
/// configuration) in one pass: ForAll::Fold folds the matching objects into
/// accumulator slots, and the helper merges the slots in ascending order.
///
/// The plain scan path folds one slot per morsel, inline or, for a
/// snapshot under Parallel(), on query-pool workers (see
/// ForAll::WillRunParallel); the morsel plan does not depend on the width,
/// so snapshot aggregates agree bit for bit at every width, floating-point
/// sums included. Index/oid-list paths fold left to right in one slot.
/// `value`/`key` may run concurrently on pool threads and must not touch
/// shared mutable state. The `txn` parameter is unused (the loop
/// carries its transaction); it stays for call-site compatibility.

/// Sum of `value` over the matching objects.
template <typename T>
Result<double> Sum(ForAll<T> loop, Transaction& /*txn*/,
                   std::function<double(const T&)> value) {
  ODE_ASSIGN_OR_RETURN(std::vector<double> partials,
                       loop.template Fold<double>(
                           [&value](double& acc, Ref<T>, const T& obj) {
                             acc += value(obj);
                             return Status::OK();
                           }));
  double sum = 0;
  for (double p : partials) sum += p;
  return sum;
}

/// Average of `value`; NotFound when no object matches.
template <typename T>
Result<double> Avg(ForAll<T> loop, Transaction& /*txn*/,
                   std::function<double(const T&)> value) {
  using SumCount = std::pair<double, size_t>;
  Result<std::vector<SumCount>> partials = loop.template Fold<SumCount>(
      [&value](SumCount& acc, Ref<T>, const T& obj) {
        acc.first += value(obj);
        acc.second++;
        return Status::OK();
      });
  if (!partials.ok()) return partials.status();
  double sum = 0;
  size_t n = 0;
  for (const SumCount& p : partials.value()) {
    sum += p.first;
    n += p.second;
  }
  if (n == 0) return Status::NotFound("Avg over an empty extent");
  return sum / static_cast<double>(n);
}

namespace internal_aggregate {

/// The matching object whose key wins `better(candidate, best)` — strict,
/// in both the fold and the ascending slot merge, so ties resolve to the
/// earliest object in scan order. A null ref when nothing matches.
template <typename T, typename K, typename Better>
Result<Ref<T>> BestBy(ForAll<T>& loop, const std::function<K(const T&)>& key,
                      Better better) {
  using Best = std::pair<std::optional<K>, Ref<T>>;
  Result<std::vector<Best>> partials = loop.template Fold<Best>(
      [&key, &better](Best& acc, Ref<T> ref, const T& obj) {
        K k = key(obj);
        if (!acc.first.has_value() || better(k, *acc.first)) {
          acc.first = std::move(k);
          acc.second = ref;
        }
        return Status::OK();
      });
  if (!partials.ok()) return partials.status();
  Best best;
  for (Best& p : partials.value()) {
    if (!p.first.has_value()) continue;
    if (!best.first.has_value() || better(*p.first, *best.first)) {
      best = std::move(p);
    }
  }
  return best.second;
}

}  // namespace internal_aggregate

/// The object minimizing `key`; a null ref when nothing matches.
template <typename T, typename K>
Result<Ref<T>> MinBy(ForAll<T> loop, Transaction& /*txn*/,
                     std::function<K(const T&)> key) {
  return internal_aggregate::BestBy<T, K>(
      loop, key, [](const K& a, const K& b) { return a < b; });
}

/// The object maximizing `key`; a null ref when nothing matches.
template <typename T, typename K>
Result<Ref<T>> MaxBy(ForAll<T> loop, Transaction& /*txn*/,
                     std::function<K(const T&)> key) {
  return internal_aggregate::BestBy<T, K>(
      loop, key, [](const K& a, const K& b) { return b < a; });
}

/// Per-group aggregate: groups matching objects by `group`, folding each
/// group with `fold(accumulator, object)`. Returns group -> accumulator.
/// The fold itself stays serial even under Parallel() — opaque accumulators
/// have no merge operation — but the scan+filter still runs wide through
/// ForAll's morsel collect.
template <typename T, typename G, typename A>
Result<std::map<G, A>> GroupBy(ForAll<T> loop, Transaction& txn,
                               std::function<G(const T&)> group,
                               std::function<void(A&, const T&)> fold) {
  std::map<G, A> groups;
  ODE_RETURN_IF_ERROR(loop.Do([&](Ref<T> ref) -> Status {
    ODE_ASSIGN_OR_RETURN(const T* obj, txn.Read(ref));
    fold(groups[group(*obj)], *obj);
    return Status::OK();
  }));
  return groups;
}

}  // namespace ode

#endif  // ODE_QUERY_AGGREGATE_H_
