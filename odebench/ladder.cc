#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>

#include "concur/lock_manager.h"
#include "models.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace odebench {

using ode::Database;
using ode::LocalOid;
using ode::Result;
using ode::Status;
using ode::Transaction;
using Clock = std::chrono::steady_clock;

// --- SharedSnapshot ---------------------------------------------------------

SharedSnapshot::SharedSnapshot(Database* db) : db_(db) {
  holder_ = std::thread([this] {
    Result<std::unique_ptr<Transaction>> snap = db_->BeginSnapshot();
    {
      ode::MutexLock lock(mu_);
      if (snap.ok()) {
        seq_ = snap.value()->snapshot_seq();
      } else {
        status_ = snap.status();
      }
      ready_ = true;
      cv_.NotifyAll();
      while (!stop_) cv_.Wait(mu_);
    }
    if (snap.ok()) {
      ode::IgnoreStatus(snap.value()->Commit(), "odebench_snapshot_holder");
    }
  });
  ode::MutexLock lock(mu_);
  while (!ready_) cv_.Wait(mu_);
}

SharedSnapshot::~SharedSnapshot() {
  {
    ode::MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  holder_.join();
}

Status SharedSnapshot::Run(
    const std::function<Status(Transaction&)>& body) {
  if (!status_.ok()) return status_;
  ODE_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> txn,
                       db_->BeginSnapshotAt(seq_));
  Status s = body(*txn);
  Status closed = s.ok() ? txn->Commit() : txn->Abort();
  return s.ok() ? closed : s;
}

// --- Rung helpers -----------------------------------------------------------

namespace {

constexpr int kReps = 3;             ///< Each threaded rung: median of 3.
constexpr int kCoreOps = 1000;       ///< Calls per core/query/server rung.

double Elapsed(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `op(thread, i)` for i in [0, ops) on each of `threads` threads and
/// returns nanoseconds per operation as one thread sees it (wall time over
/// the per-thread count), the median of kReps repetitions. A thread that
/// sees an error stops and reports it through `error`.
double TimeRung(int threads, int ops,
                const std::function<Status(int, int)>& op,
                std::string* error) {
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; rep++) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    ode::Mutex err_mu;
    Status first_error;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; t++) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < ops; i++) {
          Status s = op(t, i);
          if (!s.ok()) {
            ode::MutexLock lock(err_mu);
            if (first_error.ok()) first_error = s;
            return;
          }
        }
      });
    }
    while (ready.load() < threads) std::this_thread::yield();
    const Clock::time_point t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    reps.push_back(Elapsed(t0) * 1e9 / ops);
    if (!first_error.ok()) {
      *error = first_error.ToString();
      break;
    }
  }
  return Percentile(reps, 0.5);
}

double Us(Clock::time_point t0) { return Elapsed(t0) * 1e6; }

/// Times `call` inside a fresh locked transaction kCoreOps times.
Status TimeInTxn(Database* db, int n,
                 const std::function<Status(Transaction&, int)>& call,
                 std::vector<double>* call_us, std::vector<double>* begin_us,
                 std::vector<double>* commit_us) {
  for (int i = 0; i < n; i++) {
    Clock::time_point t0 = Clock::now();
    ODE_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> txn, db->Begin());
    if (begin_us != nullptr) begin_us->push_back(Us(t0));
    t0 = Clock::now();
    Status s = call(*txn, i);
    if (call_us != nullptr) call_us->push_back(Us(t0));
    if (!s.ok()) {
      ode::IgnoreStatus(txn->Abort(), "odebench_ladder_abort");
      return s;
    }
    t0 = Clock::now();
    ODE_RETURN_IF_ERROR(txn->Commit());
    if (commit_us != nullptr) commit_us->push_back(Us(t0));
  }
  return Status::OK();
}

class Climber {
 public:
  explicit Climber(const LadderHooks& h) : h_(h), db_(h.db) {}

  LadderResult Climb() {
    db_->metrics().Reset();
    Step("storage", [&] { return Storage(); });
    Step("objstore", [&] { return ObjStore(); });
    Step("concur", [&] { return Concur(); });
    Step("query.scan", [&] { return Scans(); });
    Step("core", [&] { return Core(); });
    // A no-sync workload never fsyncs a commit: time some under
    // kSyncEveryCommit. Checkpoints are forced on every workload, since a
    // window may end before the WAL reaches its threshold.
    if (db_->engine().wal().sync_mode() == ode::Wal::SyncMode::kNoSync) {
      Step("fsync", [&] { return Fsync(); });
    }
    Step("checkpoint", [&] { return Checkpoints(); });
    Step("server", [&] { return Server(); });
    out_.registry = db_->metrics().TakeSnapshot();
    return std::move(out_);
  }

 private:
  void Step(const char* what, const std::function<Status()>& rung) {
    Status s = rung();
    if (!s.ok()) {
      out_.errors.push_back(std::string("ladder rung ") + what + ": " +
                            s.ToString());
    }
  }

  void Put(const std::string& name, double value, uint64_t samples) {
    out_.values[name] = value;
    out_.samples[name] = samples;
  }

  /// Times a rung at 1 thread and at h_.threads; `base` + "_1t" / "_nt".
  Status Scaled(const std::string& base, int ops,
                const std::function<Status(int, int)>& op) {
    std::string error;
    const double one = TimeRung(1, ops, op, &error);
    if (error.empty()) {
      Put(base + "_1t", one, static_cast<uint64_t>(ops) * kReps);
      const double many = TimeRung(h_.threads, ops, op, &error);
      Put(base + "_nt", many,
          static_cast<uint64_t>(ops) * kReps * h_.threads);
    }
    return error.empty() ? Status::OK() : Status::Corruption(error);
  }

  Status Storage() {
    ODE_ASSIGN_OR_RETURN(ode::PageId root, db_->TableRootOf(h_.cluster));
    // Resident pages the workload touches: the cluster's entry pages and
    // the data pages of its hot objects, capped at half the pool.
    std::vector<ode::PageId> pages;
    ODE_RETURN_IF_ERROR(db_->store().ListEntryPages(root, &pages));
    std::set<ode::PageId> seen(pages.begin(), pages.end());
    for (LocalOid local : h_.hot) {
      ode::ObjectTable::Entry entry;
      ODE_RETURN_IF_ERROR(db_->store().GetInfo(root, local, &entry));
      if (entry.page != ode::kInvalidPageId && seen.insert(entry.page).second) {
        pages.push_back(entry.page);
      }
    }
    ode::BufferPool& pool = db_->engine().buffer_pool();
    pages.resize(std::min(pages.size(), pool.capacity() / 2));
    if (pages.empty()) return Status::NotFound("no pages to fetch");
    for (ode::PageId id : pages) {  // make them resident
      ode::PageHandle h;
      ODE_RETURN_IF_ERROR(pool.FetchHandle(id, &h));
    }
    return Scaled("storage.pool.fetch_ns", 200000, [&](int t, int i) {
      ode::PageHandle h;
      return pool.FetchHandle(pages[(i + t * 7919) % pages.size()], &h);
    });
  }

  Status ObjStore() {
    ODE_ASSIGN_OR_RETURN(ode::PageId root, db_->TableRootOf(h_.cluster));
    SharedSnapshot snap(db_);
    ODE_RETURN_IF_ERROR(snap.status());
    const uint64_t seq = snap.seq();
    const ode::ObjectStore& store = db_->store();
    ODE_RETURN_IF_ERROR(
        Scaled("objstore.read_snapshot_ns", 50000, [&](int t, int i) {
          std::string data;
          return store.ReadSnapshot(root,
                                    h_.hot[(i + t * 7919) % h_.hot.size()],
                                    ode::kGenericVersion, seq, &data, nullptr,
                                    nullptr);
        }));

    // NextHead walk over (up to) the first 50k heads of the cluster.
    uint64_t heads = 0;
    Clock::time_point t0 = Clock::now();
    LocalOid at = 0;
    for (; heads < 50000; heads++) {
      LocalOid local = 0;
      bool found = false;
      ODE_RETURN_IF_ERROR(store.NextHead(root, at, &local, &found));
      if (!found) break;
      at = local + 1;
    }
    if (heads > 0) {
      Put("objstore.next_head_ns", Elapsed(t0) * 1e9 / heads, heads);
    }

    // Record decode, on the stored bytes of the hot objects.
    std::vector<std::string> records;
    for (LocalOid local : h_.hot) {
      std::string data;
      ODE_RETURN_IF_ERROR(store.ReadSnapshot(root, local, ode::kGenericVersion,
                                             seq, &data, nullptr, nullptr));
      records.push_back(std::move(data));
    }
    constexpr int kDecodes = 50000;
    t0 = Clock::now();
    for (int i = 0; i < kDecodes; i++) {
      if (!h_.decode(records[i % records.size()])) {
        return Status::Corruption("stored record does not decode");
      }
    }
    Put("serial.decode_ns", Elapsed(t0) * 1e9 / kDecodes, kDecodes);
    return Status::OK();
  }

  Status Concur() {
    // A private lock manager, so the rung measures the lock table alone.
    ode::MetricsRegistry private_metrics;
    ode::concur::LockManager locks(&private_metrics);
    std::vector<ode::concur::ResourceId> res;
    for (LocalOid local : h_.hot) {
      res.push_back(ode::concur::ObjectResource(
          ode::Oid{h_.cluster, local}.Pack()));
    }
    constexpr int kLocksPerTxn = 8;
    std::string error;
    auto txn = [&](int t, int i) -> Status {
      const ode::concur::TxnId id =
          (static_cast<uint64_t>(t + 1) << 40) | static_cast<uint64_t>(i + 1);
      for (int k = 0; k < kLocksPerTxn; k++) {
        ODE_RETURN_IF_ERROR(locks.Acquire(
            id, res[(i * kLocksPerTxn + k + t * 7919) % res.size()],
            ode::concur::LockMode::kShared));
      }
      locks.ReleaseAll(id);
      return Status::OK();
    };
    constexpr int kTxns = 20000;
    const double one = TimeRung(1, kTxns, txn, &error) / kLocksPerTxn;
    if (!error.empty()) return Status::Corruption(error);
    const double many = TimeRung(h_.threads, kTxns, txn, &error) / kLocksPerTxn;
    if (!error.empty()) return Status::Corruption(error);
    Put("concur.lock_ns_1t", one, uint64_t{kTxns} * kReps * kLocksPerTxn);
    Put("concur.lock_ns_nt", many,
        uint64_t{kTxns} * kReps * kLocksPerTxn * h_.threads);
    return Status::OK();
  }

  Status Scans() {
    SharedSnapshot snap(db_);
    ODE_RETURN_IF_ERROR(snap.status());
    const std::pair<const char*, size_t> widths[] = {
        {"query.scan_ms_serial", 0},
        {"query.scan_ms_par1", 1},
        {"query.scan_ms_parN", static_cast<size_t>(h_.threads)}};
    double serial_sum = 0;
    for (const auto& [name, workers] : widths) {
      std::vector<double> ms;
      for (int rep = 0; rep < kReps; rep++) {
        double sum = 0;
        const Clock::time_point t0 = Clock::now();
        ODE_RETURN_IF_ERROR(snap.Run([&](Transaction& txn) -> Status {
          ODE_ASSIGN_OR_RETURN(sum, h_.sum(txn, workers));
          return Status::OK();
        }));
        ms.push_back(Elapsed(t0) * 1e3);
        if (workers == 0 && rep == 0) serial_sum = sum;
        if (std::memcmp(&sum, &serial_sum, sizeof(double)) != 0) {
          return Status::Corruption(std::string(name) +
                                    " differs from the serial scan");
        }
      }
      Put(name, Percentile(ms, 0.5), kReps);
    }
    return Status::OK();
  }

  Status EnsureSideCluster() {
    if (db_->HasCluster<LadderRow>()) return Status::OK();
    ODE_RETURN_IF_ERROR(db_->CreateCluster<LadderRow>());
    ODE_RETURN_IF_ERROR(db_->CreateIndex<LadderRow>(
        "odebench_ladder_key", [](const LadderRow& r) {
          return ode::index_key::FromInt64(static_cast<int64_t>(r.key()));
        }));
    return db_->RunTransaction([&](Transaction& txn) -> Status {
      for (int i = 0; i < kCoreOps; i++) {
        ODE_RETURN_IF_ERROR(txn.New<LadderRow>(i, i).status());
      }
      return Status::OK();
    });
  }

  Status Core() {
    auto& ops = out_.op_us;
    ODE_RETURN_IF_ERROR(TimeInTxn(
        db_, kCoreOps,
        [&](Transaction& txn, int i) {
          return h_.read(txn, h_.hot[i % h_.hot.size()]);
        },
        &ops["core.read"], &ops["core.begin"], nullptr));
    ODE_RETURN_IF_ERROR(TimeInTxn(
        db_, kCoreOps,
        [&](Transaction& txn, int i) {
          return h_.write(txn, h_.hot[i % h_.hot.size()]);
        },
        &ops["core.write"], nullptr, &ops["core.commit"]));
    ODE_RETURN_IF_ERROR(EnsureSideCluster());
    ODE_RETURN_IF_ERROR(TimeInTxn(
        db_, kCoreOps,
        [&](Transaction& txn, int i) {
          return txn.New<LadderRow>(kCoreOps + i, kCoreOps + i).status();
        },
        &ops["core.new"], nullptr, &ops["core.commit"]));
    // Index probes, each in its own snapshot.
    std::vector<double>& probe_us = ops["query.index_probe"];
    for (int i = 0; i < kCoreOps; i++) {
      size_t n = 0;
      ODE_RETURN_IF_ERROR(db_->RunReadTransaction([&](Transaction& txn) {
        const Clock::time_point t0 = Clock::now();
        Result<size_t> r = ode::ForAll<LadderRow>(txn)
                               .ViaIndexExact("odebench_ladder_key",
                                              ode::index_key::FromInt64(i))
                               .Count();
        probe_us.push_back(Us(t0));
        if (!r.ok()) return r.status();
        n = r.value();
        return Status::OK();
      }));
      if (n != 1) return Status::Corruption("index probe found the wrong rows");
    }
    return Status::OK();
  }

  /// Commits under kSyncEveryCommit on a database the workload runs
  /// without syncing, for the group-commit fsync-wait histogram.
  Status Fsync() {
    ode::Wal& wal = db_->engine().wal();
    const ode::Wal::SyncMode was = wal.sync_mode();
    wal.set_sync_mode(ode::Wal::SyncMode::kSyncEveryCommit);
    Status s = TimeInTxn(
        db_, 200,
        [&](Transaction& txn, int i) {
          return h_.write(txn, h_.hot[i % h_.hot.size()]);
        },
        nullptr, nullptr, nullptr);
    wal.set_sync_mode(was);
    return s;
  }

  /// Forced fuzzy checkpoints, each after a few commits, for the
  /// critical-section histogram.
  Status Checkpoints() {
    for (int round = 0; round < 10; round++) {
      ODE_RETURN_IF_ERROR(TimeInTxn(
          db_, 20,
          [&](Transaction& txn, int i) {
            return h_.write(txn, h_.hot[(round * 20 + i) % h_.hot.size()]);
          },
          nullptr, nullptr, nullptr));
      ODE_RETURN_IF_ERROR(db_->engine().FuzzyCheckpoint());
    }
    return Status::OK();
  }

  Status Server() {
    std::unique_ptr<ode::server::Server> own;
    ode::server::Server* srv = h_.server;
    if (srv == nullptr) {
      ode::server::ServerOptions opts;
      opts.worker_threads = h_.threads;
      ODE_RETURN_IF_ERROR(ode::server::Server::Start(db_, opts, &own));
      srv = own.get();
    }
    const int port = srv->port();
    auto pings = [&](int conns, std::vector<double>* us) -> Status {
      std::vector<std::vector<double>> per(conns);
      std::vector<Status> status(conns);
      std::vector<std::thread> pool;
      for (int c = 0; c < conns; c++) {
        pool.emplace_back([&, c] {
          ode::server::Client client;
          status[c] = client.Connect("127.0.0.1", port);
          for (int i = 0; i < kCoreOps && status[c].ok(); i++) {
            const Clock::time_point t0 = Clock::now();
            status[c] = client.Ping();
            per[c].push_back(Us(t0));
          }
        });
      }
      for (auto& th : pool) th.join();
      for (int c = 0; c < conns; c++) {
        ODE_RETURN_IF_ERROR(status[c]);
        us->insert(us->end(), per[c].begin(), per[c].end());
      }
      return Status::OK();
    };
    std::vector<double> one, many;
    ODE_RETURN_IF_ERROR(pings(1, &one));
    ODE_RETURN_IF_ERROR(pings(h_.threads, &many));
    Put("server.ping_us_1c", Percentile(one, 0.5), one.size());
    Put("server.ping_us_nc", Percentile(many, 0.5), many.size());

    ode::server::Client client;
    ODE_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
    std::vector<double>& reads = out_.op_us["server.round_trip"];
    for (int i = 0; i < kCoreOps; i++) {
      const Clock::time_point t0 = Clock::now();
      Result<ode::server::ReadResp> r =
          client.Read(h_.cluster, h_.hot[i % h_.hot.size()]);
      reads.push_back(Us(t0));
      if (!r.ok()) return r.status();
      if (!h_.decode(r.value().bytes)) {
        return Status::Corruption("record read over the wire does not decode");
      }
    }
    client.Close();
    if (own != nullptr) ODE_RETURN_IF_ERROR(own->Shutdown());
    return Status::OK();
  }

  const LadderHooks& h_;
  Database* db_;
  LadderResult out_;
};

}  // namespace

LadderResult RunLadder(const LadderHooks& hooks) {
  return Climber(hooks).Climb();
}

}  // namespace odebench
