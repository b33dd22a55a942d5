#ifndef ODE_UTIL_METRICS_H_
#define ODE_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/mutex.h"

namespace ode {

/// A monotonically increasing event count. Increments are relaxed atomic
/// adds into one of kStripes cache-line-sized stripes, picked per thread, so
/// threads counting the same event (every pool hit, every snapshot read of
/// a parallel scan) do not bounce one shared line between cores; value()
/// sums the stripes and is exact once the adders are done. Handed out by a
/// MetricsRegistry, which owns the storage; holders keep the raw pointer for
/// the registry's lifetime.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    stripes_[ThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Stripe& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  /// This thread's stripe: threads take stripes round-robin on first use.
  /// (Constant-initialized, so reading it needs no TLS init guard.)
  static size_t ThreadStripe() {
    thread_local size_t stripe = kStripes;
    if (stripe == kStripes) [[unlikely]] stripe = NextStripe();
    return stripe;
  }
  static size_t NextStripe();

  Stripe stripes_[kStripes];
};

/// A point-in-time level (pool frames, cache residents, WAL bytes). Same
/// cost model as Counter; may go down.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// The engine-wide metric surface: named counters, gauges and bounded
/// histograms (see histogram.h for the reservoir bound). Subsystems resolve
/// their instruments once (at construction) and increment through the
/// returned pointers; readers take a consistent-enough Snapshot and render
/// it as text (ode_shell `.stats`) or JSON (bench trajectory files).
///
/// Naming convention: dotted lowercase paths grouped by subsystem —
/// `storage.pool.hits`, `txn.commit_us`, `query.rows_scanned`. The full
/// catalog lives in docs/OBSERVABILITY.md.
///
/// One registry usually serves the whole process (Global()); tests that
/// assert exact counts create their own and pass it via
/// EngineOptions::metrics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide default registry.
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument. The pointer stays valid for the
  /// registry's lifetime; creating is the slow path (mutex + map), so
  /// resolve once and cache the pointer on hot paths.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          size_t max_samples = Histogram::kDefaultMaxSamples);

  /// A point-in-time copy of every registered instrument.
  struct Snapshot {
    struct HistogramRow {
      std::string name;
      uint64_t count = 0;
      double mean = 0, p50 = 0, p95 = 0, p99 = 0, min = 0, max = 0;
    };
    std::vector<std::pair<std::string, uint64_t>> counters;  // sorted by name
    std::vector<std::pair<std::string, int64_t>> gauges;     // sorted by name
    std::vector<HistogramRow> histograms;                    // sorted by name

    /// Counter value by exact name; 0 when absent.
    uint64_t counter(const std::string& name) const;
    /// Gauge value by exact name; 0 when absent.
    int64_t gauge(const std::string& name) const;

    /// Aligned `name value` lines, one instrument per line.
    std::string RenderText() const;
    /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
    std::string RenderJson() const;
  };

  Snapshot TakeSnapshot() const;

  /// Zeroes every instrument (bench warm-up / test isolation). Instrument
  /// pointers stay valid.
  void Reset();

 private:
  // mu_ guards the maps, not the instrument values (those are atomic or
  // internally locked; handed-out pointers are read without the mutex).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace ode

#endif  // ODE_UTIL_METRICS_H_
