// E11 — Durability substrate: commit throughput under WAL sync modes and
// crash-recovery time vs log size. (The paper presumes transactional
// persistence; this measures what it costs here.)

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_models.h"
#include "bench_util.h"
#include "util/histogram.h"
#include "util/random.h"

namespace {

using odebench::Blob;
using namespace ode;
using namespace ode::bench;

double CommitThroughput(Wal::SyncMode mode, int txns, Histogram* lat) {
  auto db = OpenFresh(mode == Wal::SyncMode::kSyncEveryCommit ? "wal_sync"
                                                              : "wal_nosync",
                      mode);
  Check(db->CreateCluster<Blob>());
  Random rng(1);
  const std::string payload = rng.NextString(200);
  const double ms = TimeMs([&] {
    for (int i = 0; i < txns; i++) {
      Timer t;
      Check(db->RunTransaction([&](Transaction& txn) -> Status {
        return txn.New<Blob>(i, payload).status();
      }));
      lat->Add(t.ElapsedUs());
    }
  });
  return txns / ms * 1000;
}

/// `threads` sessions committing durable single-object UPDATE transactions
/// against one database; returns commit/s and reports the commits-per-fsync
/// ratio the group-commit batcher achieved (docs/STORAGE.md "Group
/// commit"). Updates rather than creations: object creation X-locks the
/// whole cluster (extent change), which 2PL holds across the durability
/// wait — creations serialize and can never share an fsync. Each session
/// updates its own object, so the only shared resources are the writer
/// token (handed over at publish) and the batched fsync itself.
double GroupCommitThroughput(int threads, int txns_per_thread, double* cpf) {
  auto db = OpenFresh("wal_group_commit", Wal::SyncMode::kSyncEveryCommit);
  Check(db->CreateCluster<Blob>());
  Random rng(1);
  const std::string payload = rng.NextString(200);
  std::vector<Ref<Blob>> refs;
  Check(db->RunTransaction([&](Transaction& txn) -> Status {
    for (int t = 0; t < threads; t++) {
      ODE_ASSIGN_OR_RETURN(Ref<Blob> ref, txn.New<Blob>(t, payload));
      refs.push_back(ref);
    }
    return Status::OK();
  }));
  auto& registry = MetricsRegistry::Global();
  Counter* gc_fsyncs = registry.GetCounter("storage.wal.group_commit.fsyncs");
  Counter* gc_commits =
      registry.GetCounter("storage.wal.group_commit.commits");
  const uint64_t fsyncs0 = gc_fsyncs->value();
  const uint64_t commits0 = gc_commits->value();
  std::atomic<int> failures{0};
  const double ms = TimeMs([&] {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
      workers.emplace_back([&, t] {
        Random payload_rng(t + 1);
        for (int i = 0; i < txns_per_thread; i++) {
          const std::string update = payload_rng.NextString(200);
          Status s = db->RunTransaction([&](Transaction& txn) -> Status {
            ODE_ASSIGN_OR_RETURN(Blob * blob, txn.Write(refs[t]));
            blob->set_payload(update);
            return Status::OK();
          });
          if (!s.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
  });
  if (failures.load() > 0) {
    fprintf(stderr, "bench error: %d durable commits failed\n",
            failures.load());
    exit(1);
  }
  const uint64_t fsyncs = gc_fsyncs->value() - fsyncs0;
  const uint64_t commits = gc_commits->value() - commits0;
  *cpf = fsyncs > 0 ? static_cast<double>(commits) / fsyncs : 0;
  return threads * txns_per_thread / ms * 1000;
}

/// Per-commit latency of `txns` single-object updates against `db`,
/// recorded into `lat`.
void UpdateLoop(Database* db, const Ref<Blob>& target, int txns,
                Histogram* lat) {
  Random rng(99);
  for (int i = 0; i < txns; i++) {
    const std::string update = rng.NextString(600);
    Timer t;
    Check(db->RunTransaction([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(Blob * blob, txn.Write(target));
      blob->set_payload(update);
      return Status::OK();
    }));
    lat->Add(t.ElapsedUs());
  }
}

/// Checkpoint-under-load: the same sustained update stream, once with
/// checkpoints disabled (steady state) and once with the background fuzzy
/// checkpointer repeatedly truncating a small-threshold WAL underneath it
/// (docs/STORAGE.md "Fuzzy checkpoints"). Asserts the fuzzy path's whole
/// point: p99 commit latency stays flat (within 1.5x of steady state plus
/// a small absolute allowance for scheduler noise) while the WAL provably
/// truncates under the write stream.
void CheckpointUnderLoad(JsonReport* report) {
  constexpr int kTxns = 1500;
  Histogram steady, under_ckpt;
  {
    auto db = OpenFresh("wal_ckpt_steady", Wal::SyncMode::kNoSync);
    Check(db->CreateCluster<Blob>());
    Random rng(1);
    Ref<Blob> target;
    Check(db->RunTransaction([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(target, txn.New<Blob>(0, rng.NextString(600)));
      return Status::OK();
    }));
    UpdateLoop(db.get(), target, kTxns, &steady);
  }
  uint64_t checkpoints = 0;
  uint64_t final_wal_bytes = 0;
  {
    const std::string dir = "/tmp/ode_bench_wal_ckpt_load";
    (void)env::RemoveDirRecursively(dir);
    Check(env::CreateDir(dir));
    DatabaseOptions options;
    options.engine.wal_sync = Wal::SyncMode::kNoSync;
    options.engine.background_checkpoint = true;
    options.engine.checkpoint_wal_bytes = 256 << 10;
    std::unique_ptr<Database> db;
    Check(Database::Open(dir + "/bench.db", options, &db));
    // The registry is shared with the steady-state run; count this run only.
    Counter* ckpt_counter =
        db->engine().metrics().GetCounter("storage.engine.checkpoints");
    const uint64_t checkpoints_before = ckpt_counter->value();
    Check(db->CreateCluster<Blob>());
    Random rng(1);
    Ref<Blob> target;
    Check(db->RunTransaction([&](Transaction& txn) -> Status {
      ODE_ASSIGN_OR_RETURN(target, txn.New<Blob>(0, rng.NextString(600)));
      return Status::OK();
    }));
    UpdateLoop(db.get(), target, kTxns, &under_ckpt);
    checkpoints = ckpt_counter->value() - checkpoints_before;
    final_wal_bytes = db->engine().wal().size_bytes();
  }

  const double p99_steady = steady.Percentile(99);
  const double p99_load = under_ckpt.Percentile(99);
  Row("%16s | %s", "steady state", steady.Summary().c_str());
  Row("%16s | %s", "under checkpoint", under_ckpt.Summary().c_str());
  Row("%16s | checkpoints=%llu final_wal_kib=%llu", "truncation",
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(final_wal_bytes >> 10));
  report->Record("ckpt_p99_steady_us", p99_steady);
  report->Record("ckpt_p99_load_us", p99_load);
  report->Record("ckpt_count_under_load", static_cast<double>(checkpoints));
  if (checkpoints == 0) {
    Fail(Status::IOError(
        "background checkpointer never fired under sustained writes"));
  }
  // ~1500 commits x ~600 B payloads re-dirty pages well past the 256 KiB
  // threshold several times over; a WAL that kept growing would mean the
  // truncation half of the checkpoint is broken.
  if (final_wal_bytes > (4u << 20)) {
    Fail(Status::IOError("WAL did not truncate under sustained writes"));
  }
  if (p99_load > p99_steady * 1.5 + 2000.0) {
    fprintf(stderr,
            "bench error: checkpoint-under-load p99 %.1fus exceeds 1.5x "
            "steady-state p99 %.1fus\n",
            p99_load, p99_steady);
    exit(1);
  }
}

}  // namespace

int main() {
  JsonReport report("bench_wal");
  Header("E11", "WAL: commit throughput and recovery time");
  Row("%22s | %10s | %s", "sync mode", "commit/s", "latency us");
  {
    Histogram lat;
    const double rate =
        CommitThroughput(Wal::SyncMode::kSyncEveryCommit, 200, &lat);
    Row("%22s | %10.0f | %s", "fsync every commit", rate,
        lat.Summary().c_str());
  }
  {
    Histogram lat;
    const double rate = CommitThroughput(Wal::SyncMode::kNoSync, 2000, &lat);
    Row("%22s | %10.0f | %s", "no fsync (OS cache)", rate,
        lat.Summary().c_str());
  }

  Note("");
  Note("group commit: N sessions share batch fsyncs (one leader syncs for");
  Note("everyone who published since the last fsync)");
  Row("%8s | %10s | %12s | %14s", "threads", "commit/s", "speedup",
      "commits/fsync");
  double gc_base = 0;
  for (int threads : {1, 2, 4, 8}) {
    double cpf = 0;
    const double rate = GroupCommitThroughput(threads, 100, &cpf);
    if (threads == 1) gc_base = rate;
    Row("%8d | %10.0f | %11.2fx | %14.2f", threads, rate, rate / gc_base,
        cpf);
    report.Record("group_commit_tps_" + std::to_string(threads) + "t", rate);
    report.Record("group_commit_cpf_" + std::to_string(threads) + "t", cpf);
  }

  Note("");
  Note("recovery: crash after N committed txns, measure re-open time");
  Row("%8s | %12s | %12s | %12s", "txns", "wal MiB", "recover ms",
      "txns/s replay");
  for (int txns : {100, 500, 2000}) {
    const std::string dir = "/tmp/ode_bench_walrec";
    (void)env::RemoveDirRecursively(dir);
    Check(env::CreateDir(dir));
    DatabaseOptions options;
    options.engine.wal_sync = Wal::SyncMode::kNoSync;
    options.engine.checkpoint_wal_bytes = 1ull << 40;  // never checkpoint
    double wal_bytes = 0;
    {
      std::unique_ptr<Database> db;
      Check(Database::Open(dir + "/bench.db", options, &db));
      Check(db->CreateCluster<Blob>());
      Random rng(txns);
      for (int i = 0; i < txns; i++) {
        Check(db->RunTransaction([&](Transaction& txn) -> Status {
          return txn.New<Blob>(i, rng.NextString(300)).status();
        }));
      }
      wal_bytes = static_cast<double>(db->engine().wal().size_bytes());
      db->SimulateCrash();
    }
    double recover_ms = 0;
    {
      std::unique_ptr<Database> db;
      recover_ms = TimeMs([&] {
        Check(Database::Open(dir + "/bench.db", options, &db));
      });
      // Sanity: the data survived.
      Check(db->RunTransaction([&](Transaction& txn) -> Status {
        auto count = ForAll<Blob>(txn).Count();
        ODE_RETURN_IF_ERROR(count.status());
        if (count.value() != static_cast<size_t>(txns)) {
          return Status::Corruption("lost objects in recovery");
        }
        return Status::OK();
      }));
    }
    Row("%8d | %12.1f | %12.1f | %12.0f", txns, wal_bytes / (1 << 20),
        recover_ms, txns / recover_ms * 1000);
  }
  Note("expected shape: fsync-per-commit is bounded by device sync latency");
  Note("(orders of magnitude under no-sync); recovery time grows linearly");
  Note("with log volume (redo-only replay of committed page images).");

  Note("");
  Note("fuzzy checkpoint under load: background checkpointer truncates the");
  Note("WAL while commits stream; p99 commit latency must stay flat");
  Row("%16s | %s", "phase", "latency us");
  CheckpointUnderLoad(&report);
  report.Emit();
  return 0;
}
