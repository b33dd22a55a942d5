#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace odebench {
namespace trace {
namespace {

struct Buffer {
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  ///< Indices of the open spans, innermost last.
  uint64_t txn = 0;           ///< Current sampled transaction, 0 if none.
  uint64_t txn_seq = 0;
  uint64_t dropped = 0;
  uint16_t thread = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_sample_every{1};

// Buffers outlive their threads so Analyze/WriteSpans can read them after
// the workload's threads have been joined.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& Mine() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    mine = g_buffers.back().get();
    mine->thread = static_cast<uint16_t>(g_buffers.size() - 1);
    mine->spans.reserve(kBufferSpans);
  }
  return *mine;
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Open(Buffer& b, Name name) {
  if (b.spans.size() >= kBufferSpans) {
    b.dropped++;
    return false;
  }
  SpanRecord r;
  r.txn = b.txn;
  r.parent = b.open.empty() ? -1 : b.open.back();
  r.thread = b.thread;
  r.name = name;
  b.open.push_back(static_cast<int32_t>(b.spans.size()));
  b.spans.push_back(r);
  b.spans.back().start_ns = NowNs();
  return true;
}

void Close(Buffer& b) {
  const int64_t now = NowNs();
  b.spans[b.open.back()].end_ns = now;
  b.open.pop_back();
}

/// Each span's duration minus the time its children cover. Children nest
/// inside their parent on one thread and do not overlap, so the covered time
/// is the sum of their durations.
std::vector<int64_t> SelfNs(const Buffer& b) {
  std::vector<int64_t> self(b.spans.size(), 0);
  for (size_t i = 0; i < b.spans.size(); i++) {
    const SpanRecord& s = b.spans[i];
    if (s.end_ns == 0) continue;
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  for (int64_t& v : self) v = std::max<int64_t>(v, 0);
  return self;
}

}  // namespace

const char* NameOf(Name name) {
  switch (name) {
    case Name::kTxn: return "txn";
    case Name::kCoreBegin: return "core.begin";
    case Name::kCoreRead: return "core.read";
    case Name::kCoreWrite: return "core.write";
    case Name::kCoreNew: return "core.new";
    case Name::kCoreCommit: return "core.commit";
    case Name::kQueryScan: return "query.scan";
    case Name::kQueryIndexProbe: return "query.index_probe";
    case Name::kServerRoundTrip: return "server.round_trip";
    case Name::kCount: break;
  }
  return "?";
}

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
void SetSampleEvery(uint32_t k) {
  g_sample_every.store(std::max<uint32_t>(k, 1), std::memory_order_relaxed);
}

TxnScope::TxnScope() {
  if (!Enabled()) return;
  Buffer& b = Mine();
  const uint64_t seq = b.txn_seq++;
  if (seq % g_sample_every.load(std::memory_order_relaxed) != 0) return;
  b.txn = (static_cast<uint64_t>(b.thread) << 40) | (seq + 1);
  recording_ = Open(b, Name::kTxn);
  if (!recording_) b.txn = 0;
}

TxnScope::~TxnScope() {
  if (!recording_) return;
  Buffer& b = Mine();
  Close(b);
  b.txn = 0;
}

Span::Span(Name name) {
  if (!Enabled()) return;
  Buffer& b = Mine();
  if (b.txn == 0) return;
  recording_ = Open(b, name);
}

Span::~Span() {
  if (recording_) Close(Mine());
}

Analysis Analyze() {
  Analysis out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) {
    out.dropped += b->dropped;
    const std::vector<int64_t> self = SelfNs(*b);
    for (size_t i = 0; i < b->spans.size(); i++) {
      const SpanRecord& s = b->spans[i];
      if (s.end_ns == 0) continue;  // never closed
      NameStats& st = out.by_name[static_cast<int>(s.name)];
      st.duration_us.push_back((s.end_ns - s.start_ns) / 1000.0);
      st.self_us.push_back(self[i] / 1000.0);
      out.spans++;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "thread\ttxn\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) {
    const std::vector<int64_t> self = SelfNs(*b);
    for (size_t i = 0; i < b->spans.size(); i++) {
      const SpanRecord& s = b->spans[i];
      if (s.end_ns == 0) continue;
      fprintf(f, "%u\t%llu\t%zu\t%d\t%s\t%lld\t%lld\t%lld\n", s.thread,
              static_cast<unsigned long long>(s.txn), i, s.parent,
              NameOf(s.name), static_cast<long long>(s.start_ns),
              static_cast<long long>(s.end_ns),
              static_cast<long long>(self[i]));
    }
  }
  return fclose(f) == 0;
}

}  // namespace trace
}  // namespace odebench
