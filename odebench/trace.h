#ifndef ODEBENCH_TRACE_H_
#define ODEBENCH_TRACE_H_

// In-memory spans around the benchmark's own calls into the engine's public
// functions (nothing inside src/ is instrumented). A span records its name,
// start, end, the span that caused it, and an id shared by every span of
// one logical transaction. Spans go to per-thread buffers and are written
// out once, at exit; self time is a span's duration minus the part its
// children cover.
//
// Recording is off unless SetEnabled(true), and then only for every k-th
// transaction (SetSampleEvery) so the buffers stay bounded. With recording
// off a Span costs one relaxed atomic load.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace odebench {
namespace trace {

/// Spans each thread can hold (32 B each, so 2 MiB per thread).
inline constexpr size_t kBufferSpans = 64 * 1024;

enum class Name : uint8_t {
  kTxn,             ///< One logical transaction, retries included (root).
  kCoreBegin,       ///< Database::Begin / BeginSnapshot
  kCoreRead,        ///< Transaction::Read
  kCoreWrite,       ///< Transaction::Write
  kCoreNew,         ///< Transaction::New
  kCoreCommit,      ///< Transaction::Commit
  kQueryScan,       ///< ForAll Sum / Count over a cluster
  kQueryIndexProbe, ///< ForAll ViaIndexExact
  kServerRoundTrip, ///< One server::Client request/reply
  kCount,
};

const char* NameOf(Name name);

void SetEnabled(bool on);
/// Record every k-th transaction of each thread (k >= 1).
void SetSampleEvery(uint32_t k);

/// Brackets one logical transaction on the calling thread and opens its
/// root span when the transaction is sampled.
class TxnScope {
 public:
  TxnScope();
  ~TxnScope();
  TxnScope(const TxnScope&) = delete;
  TxnScope& operator=(const TxnScope&) = delete;

 private:
  bool recording_ = false;
};

/// A child span inside the current TxnScope.
class Span {
 public:
  explicit Span(Name name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool recording_ = false;
};

struct SpanRecord {
  uint64_t txn = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index in the same thread's buffer, -1 for roots.
  uint16_t thread = 0;
  Name name = Name::kTxn;
};

/// Per-name totals over every recorded span.
struct NameStats {
  std::vector<double> duration_us;
  std::vector<double> self_us;
};

struct Analysis {
  NameStats by_name[static_cast<int>(Name::kCount)];
  uint64_t spans = 0;
  uint64_t dropped = 0;  ///< Spans not recorded because a buffer was full.
};

/// Self times for every recorded span. Call after the recording threads
/// have stopped.
Analysis Analyze();

/// Writes every recorded span as tab-separated text (one header line).
bool WriteSpans(const std::string& path);

}  // namespace trace
}  // namespace odebench

#endif  // ODEBENCH_TRACE_H_
