#include "util/metrics.h"

#include <cstdio>

namespace ode {

namespace {

/// Minimal JSON string escaping for metric names (which are plain dotted
/// identifiers in practice, but render defensively).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

size_t Counter::NextStripe() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         size_t max_samples) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(max_samples);
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  MutexLock lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    Snapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.mean = h->mean();
    row.p50 = h->Percentile(50);
    row.p95 = h->Percentile(95);
    row.p99 = h->Percentile(99);
    row.min = h->min();
    row.max = h->max();
    snap.histograms.push_back(std::move(row));
  }
  return snap;  // maps iterate sorted, so every section is name-ordered
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Clear();
}

uint64_t MetricsRegistry::Snapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t MetricsRegistry::Snapshot::gauge(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

std::string MetricsRegistry::Snapshot::RenderText() const {
  size_t width = 0;
  for (const auto& [name, v] : counters) width = std::max(width, name.size());
  for (const auto& [name, v] : gauges) width = std::max(width, name.size());
  for (const auto& row : histograms) width = std::max(width, row.name.size());

  std::string out;
  char buf[256];
  for (const auto& [name, v] : counters) {
    snprintf(buf, sizeof(buf), "%-*s %llu\n", static_cast<int>(width),
             name.c_str(), static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : gauges) {
    snprintf(buf, sizeof(buf), "%-*s %lld\n", static_cast<int>(width),
             name.c_str(), static_cast<long long>(v));
    out += buf;
  }
  for (const auto& row : histograms) {
    snprintf(buf, sizeof(buf),
             "%-*s n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
             static_cast<int>(width), row.name.c_str(),
             static_cast<unsigned long long>(row.count), row.mean, row.p50,
             row.p95, row.p99, row.max);
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::Snapshot::RenderJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& row : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(row.name) + "\":{\"count\":" +
           std::to_string(row.count) + ",\"mean\":" + JsonNumber(row.mean) +
           ",\"p50\":" + JsonNumber(row.p50) + ",\"p95\":" +
           JsonNumber(row.p95) + ",\"p99\":" + JsonNumber(row.p99) +
           ",\"min\":" + JsonNumber(row.min) + ",\"max\":" +
           JsonNumber(row.max) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace ode
