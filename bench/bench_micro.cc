// Google-benchmark micro suite for the hot substrate paths: coding, CRC,
// slotted pages, B+tree, serialization, object store.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_models.h"
#include "objstore/object_store.h"
#include "query/btree.h"
#include "serial/archive.h"
#include "storage/slotted_page.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/random.h"

namespace {

using namespace ode;

void BM_VarintEncodeDecode(benchmark::State& state) {
  Random rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.Next() >> rng.Uniform(64);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    for (uint64_t v : values) PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t out;
    while (GetVarint64(&in, &out)) benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncodeDecode);

void BM_Crc32c(benchmark::State& state) {
  const std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

// The table-driven reference; BM_Crc32c runs the hardware path on SSE4.2
// CPUs, so the pair shows what the dispatch saves per WAL byte.
void BM_Crc32cPortable(benchmark::State& state) {
  const std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c::ExtendPortable(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(4096)->Arg(65536);

void BM_SlottedPageInsert(benchmark::State& state) {
  char page[kPageSize];
  const std::string rec(state.range(0), 'r');
  for (auto _ : state) {
    SlottedPage::Init(page, PageType::kSlotted, 0);
    uint16_t slot;
    while (SlottedPage::Insert(page, Slice(rec), &slot)) {
    }
  }
}
BENCHMARK(BM_SlottedPageInsert)->Arg(32)->Arg(256)->Arg(1024);

void BM_Serialization(benchmark::State& state) {
  odebench::Person person("a person with a name", 42, 123456.0);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    WriteArchive writer(&buf);
    writer(person);
    odebench::Person out;
    ReadArchive reader(Slice(buf), nullptr);
    reader(out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Serialization);

struct EngineFixture {
  EngineFixture() {
    (void)env::RemoveFile("/tmp/ode_bench_micro.db");
    (void)env::RemoveFile("/tmp/ode_bench_micro.db.wal");
    EngineOptions options;
    options.wal_sync = Wal::SyncMode::kNoSync;
    options.checkpoint_wal_bytes = 1ull << 40;
    Status s = StorageEngine::Open("/tmp/ode_bench_micro.db", options, &engine);
    if (!s.ok()) abort();
  }
  std::unique_ptr<StorageEngine> engine;
};

void BM_BTreeInsert(benchmark::State& state) {
  EngineFixture fx;
  auto txn = fx.engine->BeginTxn();
  PageId root;
  (void)BTree::Create(fx.engine.get(), &root);
  BTree tree(fx.engine.get(), root);
  Random rng(7);
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(rng.Next());
    Status s = tree.Insert(Slice(key), i++);
    benchmark::DoNotOptimize(s);
  }
  (void)fx.engine->CommitTxn(txn.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  EngineFixture fx;
  auto txn = fx.engine->BeginTxn();
  PageId root;
  (void)BTree::Create(fx.engine.get(), &root);
  BTree tree(fx.engine.get(), root);
  const int n = 10000;
  for (int i = 0; i < n; i++) {
    (void)tree.Insert(Slice("key" + std::to_string(i)), i);
  }
  Random rng(9);
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(rng.Uniform(n));
    uint64_t value;
    bool found;
    (void)tree.Get(Slice(key), &value, &found);
    benchmark::DoNotOptimize(found);
  }
  (void)fx.engine->CommitTxn(txn.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_ObjectStoreInsert(benchmark::State& state) {
  EngineFixture fx;
  ObjectStore store(fx.engine.get());
  auto txn = fx.engine->BeginTxn();
  PageId root;
  (void)store.CreateTable(&root);
  const std::string payload(state.range(0), 'p');
  for (auto _ : state) {
    LocalOid oid;
    Status s = store.Insert(root, 1, Slice(payload), &oid);
    benchmark::DoNotOptimize(s);
  }
  (void)fx.engine->CommitTxn(txn.value());
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_ObjectStoreInsert)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

// Expanded BENCHMARK_MAIN so the binary can append the machine-readable
// registry block after the benchmark tables (see bench_util.h JsonReport —
// not used directly here because this binary is google-benchmark driven).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  printf(
      "BENCH_JSON {\"bench\":\"bench_micro\",\"metrics\":{},\"registry\":%s}\n",
      MetricsRegistry::Global().TakeSnapshot().RenderJson().c_str());
  return 0;
}
