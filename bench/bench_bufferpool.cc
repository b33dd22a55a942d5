// E2 — Buffer-pool behavior: repeated scans vs pool size (the storage
// substrate the paper's uniform persistent access presumes).
//
// Table: pool size (as % of data) -> scan time and hit rate.

#include <vector>

#include "bench_models.h"
#include "bench_util.h"
#include "util/random.h"

namespace {

using odebench::Blob;
using namespace ode;
using namespace ode::bench;

constexpr int kObjects = 4000;
constexpr size_t kPayload = 1024;  // ~2 objects per 4 KiB page

void RunForPool(size_t pool_pages) {
  auto db = OpenFresh("bufferpool", Wal::SyncMode::kNoSync, pool_pages);
  Check(db->CreateCluster<Blob>());
  Random rng(11);
  std::vector<Ref<Blob>> refs;
  Check(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < kObjects; i++) {
      ODE_ASSIGN_OR_RETURN(Ref<Blob> ref,
                           txn.New<Blob>(i, rng.NextString(kPayload)));
      refs.push_back(ref);
    }
    return Status::OK();
  }));
  // One cold scan to settle the pool, then measured warm scans.
  uint64_t checksum = 0;
  auto scan = [&] {
    Check(db->RunTransaction([&](Transaction& txn) -> Status {
      for (const auto& ref : refs) {
        ODE_ASSIGN_OR_RETURN(const Blob* blob, txn.Read(ref));
        checksum += blob->id();
      }
      return Status::OK();
    }));
  };
  scan();
  // The registry outlives this database, so measure deltas over the scans.
  const auto before = db->engine().metrics().TakeSnapshot();
  const double warm_ms = TimeMs([&] {
    for (int round = 0; round < 3; round++) scan();
  });
  const auto after = db->engine().metrics().TakeSnapshot();
  auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  const uint64_t hits = delta("storage.pool.hits");
  const uint64_t misses = delta("storage.pool.misses");
  const uint64_t evictions = delta("storage.pool.evictions");
  const double hit_rate =
      100.0 * hits / static_cast<double>(hits + misses);
  const size_t data_pages = kObjects * kPayload / kPageSize;
  Row("%6zu (%3zu%%) | %9.1f | %6.1f%% | %9llu", pool_pages,
      100 * pool_pages / data_pages, warm_ms / 3, hit_rate,
      static_cast<unsigned long long>(evictions));
  (void)checksum;
}

}  // namespace

int main() {
  JsonReport report("bench_bufferpool");
  Header("E2", "buffer pool: warm scan cost vs pool size");
  Note("4000 objects x 1 KiB (~1000 data pages); 3 warm scans averaged");
  Row("%13s | %9s | %7s | %9s", "pool pages", "scan ms", "hits", "evictions");
  for (size_t pool : {64, 256, 1024, 4096}) {
    RunForPool(pool);
  }
  Note("expected shape: once the pool covers the working set (~100%),");
  Note("evictions vanish and the scan settles at in-memory speed.");
  report.Emit();
  return 0;
}
