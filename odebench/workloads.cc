#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "checks.h"
#include "core/ode.h"
#include "ladder.h"
#include "models.h"
#include "query/aggregate.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"

namespace odebench {

using ode::Database;
using ode::Oid;
using ode::Ref;
using ode::Result;
using ode::Status;
using ode::Transaction;
using Clock = std::chrono::steady_clock;
using trace::Name;

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

namespace {

constexpr int kMaxAttempts = 64;       ///< Per logical transaction.
/// wire_mix's closed-loop sessions; oltp_zipf runs one. More sessions add
/// little throughput: oltp_zipf's locked transactions and wire_mix's round
/// trips queue on each other (2 oltp_zipf sessions ran 0-40% more
/// transactions than 1 at twice the latency, 4 about 10% more than 2).
/// Each session that waits for another puts a vCPU to sleep, and on a
/// shared host every wake-up and every descheduled lock holder follows the
/// neighbours: with 4 sessions, ten-run spreads of oltp_zipf's txn_p99_us
/// reached 1.9, and with 2 still 0.59 while the host's steal ran at 6-16%.
constexpr int kWireSessions = 2;
constexpr double kWarmupSeconds = 2.0;
constexpr int kSpaceSampleMs = 100;
constexpr size_t kPadBytes = 180;  ///< Account pad and Item payload (~200 B).
constexpr size_t kNameBytes = 48;      ///< Person name (the E15 shape).
constexpr int kPopulateBatch = 2000;
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;  ///< Past this, stop at kMinSetups.
/// Span metrics need this many spans; below it the ladder rung stands in.
constexpr size_t kMinSpanSamples = 20;
constexpr size_t kSpansPerTxnBound = 16;
const char* const kItemIndex = "item_key";

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sub-windows are whole seconds of a slice; a stretched end-to-end
/// window (below) lasts at most 2 x --seconds.
constexpr size_t kMaxSubWindows = 128;
/// Latencies kept per sub-window and client: a uniform reservoir, so the
/// benchmark's own memory (which peak_rss_mib sees) stays bounded however
/// many transactions a window completes.
constexpr size_t kReservoir = 4096;

/// A uniform sample of at most kReservoir latencies (Vitter's algorithm R).
struct Reservoir {
  std::vector<float> us;
  uint64_t seen = 0;

  void Add(double v, uint64_t* rng) {
    seen++;
    if (us.size() < kReservoir) {
      us.push_back(static_cast<float>(v));
      return;
    }
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    const uint64_t slot = *rng % seen;
    if (slot < kReservoir) us[slot] = static_cast<float>(v);
  }
};

/// What one client did in one second of a slice.
struct SubWindow {
  double txns = 0;  ///< Committed transactions, prorated by run time inside.
  double rows = 0;  ///< Their rows, prorated likewise.
  Reservoir txn_us;    ///< Latencies of transactions that ended inside.
  Reservoir query_us;  ///< The read-only ones among them.
};

/// One client's counts over the measured slices of one kind.
struct Tally {
  std::vector<SubWindow> windows = std::vector<SubWindow>(kMaxSubWindows);
  uint64_t attempted = 0, committed = 0, failed = 0, retries = 0;
  uint64_t rows = 0, write_commits = 0, user_bytes = 0, scans = 0;
  uint64_t over_100ms = 0;  ///< Committed after stalling past 100 ms.

  /// Adds `o`'s counts (the sub-windows stay per client).
  void Merge(const Tally& o) {
    attempted += o.attempted;
    committed += o.committed;
    failed += o.failed;
    retries += o.retries;
    rows += o.rows;
    write_commits += o.write_commits;
    user_bytes += o.user_bytes;
    scans += o.scans;
    over_100ms += o.over_100ms;
  }
};

// --- Steady estimates --------------------------------------------------------
//
// The end-to-end figures come from the calm 1-second sub-windows of the
// measured window: those in which the hypervisor gave at most kCalmSteal of
// the machine's CPU time to other tenants ("steal" in /proc/stat). The
// window runs --seconds and then stretches, a second at a time up to
// kMaxStretch x --seconds, until half of --seconds were calm; if they never
// were, the least-stolen sub-windows stand in for them. On a shared host,
// steal comes in bursts of tens of seconds and can halve a lock-heavy
// workload's throughput (a descheduled vCPU stalls every thread waiting on
// the lock it holds); figures from the calm sub-windows measure the
// program, not the neighbours. odebench-detail reports the window's steal.

constexpr double kCalmSteal = 0.01;
constexpr double kMaxStretch = 2;

/// Cumulative CPU ticks of the whole machine, from /proc/stat.
struct CpuTicks {
  double t = 0;  ///< Seconds after the window began.
  uint64_t steal = 0;
  uint64_t total = 0;
};

bool ReadCpuTicks(CpuTicks* out) {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already counted in user and nice.
  uint64_t v = 0;
  out->total = 0;
  for (int i = 0; i < 8 && in >> v; i++) {
    out->total += v;
    if (i == 7) out->steal = v;
  }
  return out->total > 0;
}

/// Share of the machine's CPU time stolen between two readings.
double StealShare(const CpuTicks& lo, const CpuTicks& hi) {
  return hi.total > lo.total ? static_cast<double>(hi.steal - lo.steal) /
                                   static_cast<double>(hi.total - lo.total)
                             : 0;
}

class SteadyWindow {
 public:
  /// `tallies` are the clients' tallies of one untraced slice of `secs`;
  /// the figures use every calm sub-window, and at least `need`.
  SteadyWindow(double secs, size_t need, const std::vector<CpuTicks>& cpu,
               std::vector<const Tally*> tallies)
      : secs_(secs),
        k_(std::clamp<size_t>(static_cast<size_t>(std::lround(secs)), 1,
                              kMaxSubWindows)),
        cpu_(cpu),
        tallies_(std::move(tallies)) {
    std::vector<std::pair<double, size_t>> by_steal;
    for (size_t i = 0; i < k_; i++) {
      by_steal.emplace_back(StealBetween(i, i + 1.0), i);
    }
    std::sort(by_steal.begin(), by_steal.end());
    for (const auto& [steal, i] : by_steal) {
      if (steal > kCalmSteal && calm_.size() >= need) break;
      calm_.push_back(i);
    }
  }

  /// Committed transactions (or their rows) per second in the calm
  /// sub-windows. A transaction counts in each sub-window in proportion to
  /// the share of its run time that fell there, so a 400 ms scan
  /// straddling a boundary counts in part on each side.
  double Rate(bool rows) const {
    double work = 0;
    for (const Tally* t : tallies_) {
      for (size_t i : calm_) {
        work += rows ? t->windows[i].rows : t->windows[i].txns;
      }
    }
    return work / static_cast<double>(calm_.size());
  }

  /// The p-th latency percentile (us) of the transactions (or only the
  /// read-only ones) that ended in calm sub-windows: the median over
  /// groups of consecutive calm sub-windows, each group holding ten
  /// transactions beyond p, of the group's percentile. One bad second then
  /// moves the figure little, and a p99 over few transactions is taken over
  /// the whole calm window. Each reservoir sample stands for seen/kept
  /// transactions. `*count` gets how many transactions there were.
  double Latency(double p, bool queries_only, uint64_t* count) const {
    const double need = 10 / (1 - p);
    std::vector<size_t> calm = calm_;
    std::sort(calm.begin(), calm.end());
    std::vector<std::vector<std::pair<float, double>>> groups(1);
    std::vector<double> seen(1, 0);
    *count = 0;
    for (size_t i : calm) {
      if (seen.back() >= need) {
        groups.emplace_back();
        seen.push_back(0);
      }
      for (const Tally* t : tallies_) {
        const Reservoir& r =
            queries_only ? t->windows[i].query_us : t->windows[i].txn_us;
        if (r.us.empty()) continue;
        const double w =
            static_cast<double>(r.seen) / static_cast<double>(r.us.size());
        for (float v : r.us) groups.back().emplace_back(v, w);
        seen.back() += static_cast<double>(r.seen);
        *count += r.seen;
      }
    }
    if (groups.size() > 1 && seen.back() < need) {  // fold a short tail
      groups[groups.size() - 2].insert(groups[groups.size() - 2].end(),
                                       groups.back().begin(),
                                       groups.back().end());
      groups.pop_back();
    }
    std::vector<double> per_group;
    for (auto& g : groups) {
      if (g.empty()) continue;
      std::sort(g.begin(), g.end());
      double total = 0, below = 0;
      for (const auto& [v, w] : g) total += w;
      size_t at = 0;
      while (at + 1 < g.size() && (below += g[at].second) < p * total) at++;
      per_group.push_back(g[at].first);
    }
    return Percentile(per_group, 0.5);
  }

  /// Share of the machine's CPU time stolen over the whole window.
  double Steal() const { return StealBetween(0, secs_); }
  size_t CalmSeconds() const { return calm_.size(); }

 private:
  double StealBetween(double a, double b) const {
    auto at = [&](double t) {
      for (const CpuTicks& c : cpu_) {
        if (c.t >= t) return c;
      }
      return cpu_.empty() ? CpuTicks{} : cpu_.back();
    };
    return StealShare(at(a), at(b));
  }

  double secs_;
  size_t k_;  ///< 1-second sub-windows in the window.
  const std::vector<CpuTicks>& cpu_;
  std::vector<const Tally*> tallies_;
  std::vector<size_t> calm_;
};

struct OpResult {
  Status status;
  bool read_only = false;
  bool scan = false;
  uint64_t rows = 0;
  uint64_t user_bytes = 0;  ///< Encoded bytes of the objects written.
  uint64_t retries = 0;
};

struct ClientState {
  ClientState(int i, Role r, OpStream s) : index(i), role(r), ops(s) {}
  int index;
  Role role;
  OpStream ops;
  Tally tally[2];  ///< [0] untraced slices, [1] traced slices.
  std::vector<AckedItem> acks;
  std::unique_ptr<ode::server::Client> conn;
  std::vector<std::string> errors;  ///< Failed output checks.
  std::vector<std::string> failures;  ///< First failed operations.
  uint64_t seq = 0;  ///< durable_commit: unique keys and ids.
  uint64_t rng = 0x9E3779B97F4A7C15ull;  ///< Reservoir sampling only.
};

class Bench {
 public:
  explicit Bench(const RunConfig& cfg) : cfg_(cfg) {}

  RunReport Run();

 private:
  // --- Set-up ---------------------------------------------------------------
  ode::DatabaseOptions Options();
  Status Open(const std::string& path);
  Status Setup(const std::string& dir);
  template <typename T, typename Make>
  Status Populate(uint32_t n, Make make);
  size_t RecordBytes() const;
  uint64_t LiveUserBytes() const;

  // --- Clients --------------------------------------------------------------
  void ClientMain(ClientState* c);
  void UpdaterMain(ClientState* c);
  int SliceOf(int s0, int s1) const;
  void Record(ClientState* c, int s0, const OpResult& r,
              Clock::time_point start);
  OpResult Execute(ClientState* c, const Op& op);
  Status RunTxn(ClientState* c, bool snapshot, OpResult* r,
                const std::function<Status(Transaction&)>& body);
  Status RunWireTxn(ClientState* c, bool snapshot, OpResult* r,
                    const std::function<Status(ode::server::Client&)>& body);
  void Backoff(ClientState* c, int attempt);
  template <typename T>
  Ref<T> RefOf(uint32_t key) const {
    return Ref<T>(db_.get(), oids_[key]);
  }
  OpResult OltpRead(ClientState* c, const Op& op);
  OpResult Transfer(ClientState* c, const Op& op);
  OpResult Scan(ClientState* c, const Op& op);
  OpResult IncomeMoves(ClientState* c, const Op& op);
  OpResult Update(ClientState* c, const Op& op);
  OpResult Insert(ClientState* c);
  OpResult SnapshotRead(ClientState* c, const Op& op);
  OpResult WireRead(ClientState* c, const Op& op);
  OpResult WireTransfer(ClientState* c, const Op& op);

  // --- Checks, ladder, report -----------------------------------------------
  void CheckAfterWindow(RunReport* rep);
  void CheckDurability(RunReport* rep);
  LadderResult Ladder();
  void EndToEndMetrics(RunReport* rep, const Tally& t, double secs);
  void LayerMetrics(RunReport* rep, const Tally& all, const Tally& u,
                    const Tally& tr, double secs_u, double secs_t,
                    const ode::MetricsRegistry::Snapshot& win);
  bool Traced(int slice) const { return cfg_.trace && slice % 2 == 1; }
  /// Closed-loop sessions (scan_snapshot: its one scanner).
  int Sessions() const {
    switch (cfg_.workload) {
      case Workload::kOltpZipf:
      case Workload::kScanSnapshot:
        return 1;
      case Workload::kWireMix:
        return std::min(cfg_.clients, kWireSessions);
      case Workload::kDurableCommit:
        break;
    }
    return cfg_.clients;
  }
  /// Calm seconds an end-to-end window needs: half of --seconds.
  size_t CalmNeeded() const {
    return static_cast<size_t>(std::ceil(cfg_.seconds / 2));
  }

  RunConfig cfg_;
  std::string db_path_;
  ode::MetricsRegistry registry_;  // outlives db_
  std::unique_ptr<Database> db_;
  std::unique_ptr<ode::server::Server> server_;
  ode::ClusterId cluster_ = ode::kInvalidClusterId;
  std::vector<Oid> oids_;  ///< Object of each key, by key.
  std::unique_ptr<Zipf> zipf_;
  std::vector<std::unique_ptr<ClientState>> clients_;

  std::atomic<int> slice_{-1};  ///< -1 warm-up, then measured slices.
  int num_slices_ = 1;
  /// Written before slice_ announces the slice, so clients that see the
  /// slice also see its start.
  Clock::time_point slice_start_[4];
  std::atomic<uint64_t> inserted_{0};
  std::atomic<uint64_t> ops_done_{0};
  std::vector<double> setup_s_;
  std::vector<double> space_amp_;
  std::vector<CpuTicks> cpu_;  ///< Sampled through the first slice.
  ScanAnswer scan_truth_;  ///< scan_snapshot: the one right answer.
  std::string pad_;
};

// --- Set-up ------------------------------------------------------------------

ode::DatabaseOptions Bench::Options() {
  ode::DatabaseOptions o;
  o.engine.metrics = &registry_;
  o.engine.query_threads = static_cast<size_t>(cfg_.clients);
  // Commits never pay for a checkpoint inline: the background checkpointer
  // runs on every workload. The no-sync workloads checkpoint at 64 MiB of
  // WAL so that fsync stays off their request path; durable_commit keeps
  // the default 8 MiB, so its checkpoints cycle many times per run.
  o.engine.background_checkpoint = true;
  o.engine.checkpoint_wal_bytes = 64ull << 20;
  o.engine.wal_sync = ode::Wal::SyncMode::kNoSync;
  o.engine.buffer_pool_pages = 4096;  // 16 MiB
  switch (cfg_.workload) {
    case Workload::kOltpZipf:
      break;
    case Workload::kScanSnapshot:
      o.engine.buffer_pool_pages = 16384;  // holds every Person
      break;
    case Workload::kDurableCommit:
      o.engine.wal_sync = ode::Wal::SyncMode::kSyncEveryCommit;
      o.engine.group_commit_window_us = 0;
      o.engine.checkpoint_wal_bytes = ode::EngineOptions().checkpoint_wal_bytes;
      break;
    case Workload::kWireMix:
      // A served database wants a bounded lock wait (E13's setting): Busy
      // is retryable on the wire.
      o.engine.lock_wait_timeout_ms = 250;
      break;
  }
  return o;
}

Status Bench::Open(const std::string& path) {
  db_path_ = path;
  ODE_RETURN_IF_ERROR(Database::Open(path, Options(), &db_));
  if (cfg_.workload == Workload::kDurableCommit) {
    db_->AttachIndexExtractor<Item>(kItemIndex, [](const Item& it) {
      return ode::index_key::FromInt64(static_cast<int64_t>(it.key()));
    });
  }
  return Status::OK();
}

template <typename T, typename Make>
Status Bench::Populate(uint32_t n, Make make) {
  if (!db_->HasCluster<T>()) ODE_RETURN_IF_ERROR(db_->CreateCluster<T>());
  ODE_ASSIGN_OR_RETURN(cluster_, db_->ClusterOf<T>());
  oids_.clear();
  oids_.reserve(n);
  for (uint32_t start = 0; start < n; start += kPopulateBatch) {
    ODE_RETURN_IF_ERROR(db_->RunTransaction([&](Transaction& txn) -> Status {
      const uint32_t end = std::min<uint32_t>(n, start + kPopulateBatch);
      for (uint32_t i = start; i < end; i++) {
        ODE_ASSIGN_OR_RETURN(Ref<T> ref, make(txn, i));
        oids_.push_back(ref.oid());
      }
      return Status::OK();
    }));
  }
  return Status::OK();
}

Status Bench::Setup(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  server_.reset();
  db_.reset();
  ODE_RETURN_IF_ERROR(Open(dir + "/bench.db"));
  ode::Random rng(cfg_.seed);
  switch (cfg_.workload) {
    case Workload::kOltpZipf:
    case Workload::kWireMix: {
      const uint32_t n = cfg_.workload == Workload::kOltpZipf ? kOltpAccounts
                                                              : kWireAccounts;
      ODE_RETURN_IF_ERROR(Populate<Account>(n, [&](Transaction& txn,
                                                   uint32_t i) {
        return txn.New<Account>(i, kSeedBalance, pad_);
      }));
      if (cfg_.workload == Workload::kWireMix) {
        ode::server::ServerOptions opts;
        // Each connection has at most one request in flight, so n workers
        // always suffice; pinning the pool keeps the thread count (and so
        // peak RSS) from following scheduling noise.
        opts.worker_threads = Sessions();
        opts.max_worker_threads = Sessions();
        opts.queue_capacity = 256;
        ODE_RETURN_IF_ERROR(
            ode::server::Server::Start(db_.get(), opts, &server_));
      }
      break;
    }
    case Workload::kScanSnapshot:
      ODE_RETURN_IF_ERROR(Populate<Person>(kScanPersons, [&](Transaction& txn,
                                                             uint32_t i) {
        return txn.New<Person>(rng.NextString(kNameBytes),
                               static_cast<int>(i % 97),
                               static_cast<double>(i % 1000));
      }));
      break;
    case Workload::kDurableCommit:
      ODE_RETURN_IF_ERROR(db_->CreateCluster<Item>());
      ODE_RETURN_IF_ERROR(
          db_->CreateIndex<Item>(kItemIndex, [](const Item& it) {
            return ode::index_key::FromInt64(static_cast<int64_t>(it.key()));
          }));
      ODE_RETURN_IF_ERROR(Populate<Item>(kDurableItems, [&](Transaction& txn,
                                                            uint32_t i) {
        return txn.New<Item>(i, i, 0, pad_);
      }));
      break;
  }
  return Status::OK();
}

size_t Bench::RecordBytes() const {
  switch (cfg_.workload) {
    case Workload::kOltpZipf:
    case Workload::kWireMix:
      return EncodedSize(Account(0, kSeedBalance, pad_));
    case Workload::kScanSnapshot:
      return EncodedSize(Person(std::string(kNameBytes, 'a'), 0, 0));
    case Workload::kDurableCommit:
      return EncodedSize(Item(0, 0, 0, pad_));
  }
  return 0;
}

uint64_t Bench::LiveUserBytes() const {
  uint64_t objects = 0;
  switch (cfg_.workload) {
    case Workload::kOltpZipf: objects = kOltpAccounts; break;
    case Workload::kScanSnapshot: objects = kScanPersons; break;
    case Workload::kDurableCommit:
      objects = kDurableItems + inserted_.load();
      break;
    case Workload::kWireMix: objects = kWireAccounts; break;
  }
  return objects * RecordBytes();
}

// --- Clients -----------------------------------------------------------------

void Bench::Backoff(ClientState* c, int attempt) {
  const uint64_t cap_us =
      std::min<uint64_t>(2000, 20ull << std::min(attempt, 7));
  std::this_thread::sleep_for(
      std::chrono::microseconds(1 + c->ops.Uniform(cap_us)));
}

Status Bench::RunTxn(ClientState* c, bool snapshot, OpResult* r,
                     const std::function<Status(Transaction&)>& body) {
  for (int attempt = 0;; attempt++) {
    Status s;
    {
      Result<std::unique_ptr<Transaction>> begun = [&] {
        trace::Span span(Name::kCoreBegin);
        return snapshot ? db_->BeginSnapshot() : db_->Begin();
      }();
      if (!begun.ok()) {
        s = begun.status();
      } else {
        std::unique_ptr<Transaction> txn = begun.TakeValue();
        s = body(*txn);
        if (s.ok()) {
          trace::Span span(Name::kCoreCommit);
          s = txn->Commit();
        } else {
          ode::IgnoreStatus(txn->Abort(), "odebench_txn_abort");
        }
      }
    }
    if (!(s.IsDeadlock() || s.IsBusy()) || attempt + 1 >= kMaxAttempts) {
      return s;
    }
    r->retries++;
    Backoff(c, attempt);
  }
}

Status Bench::RunWireTxn(
    ClientState* c, bool snapshot, OpResult* r,
    const std::function<Status(ode::server::Client&)>& body) {
  ode::server::Client& conn = *c->conn;
  for (int attempt = 0;; attempt++) {
    Status s;
    {
      trace::Span span(Name::kServerRoundTrip);
      s = snapshot ? conn.BeginSnapshot() : conn.Begin();
    }
    if (s.ok()) s = body(conn);
    if (s.ok()) {
      trace::Span span(Name::kServerRoundTrip);
      s = conn.Commit();
    }
    if (s.ok()) return s;
    {
      trace::Span span(Name::kServerRoundTrip);
      ode::IgnoreStatus(conn.Abort(), "odebench_wire_abort");
    }
    if (!(s.IsBusy() || s.IsDeadlock() || s.IsTransactionAborted()) ||
        attempt + 1 >= kMaxAttempts) {
      return s;
    }
    r->retries++;
    Backoff(c, attempt);
  }
}

OpResult Bench::OltpRead(ClientState* c, const Op& op) {
  OpResult r;
  r.read_only = true;
  r.rows = op.nkeys;
  r.status = RunTxn(c, false, &r, [&](Transaction& txn) -> Status {
    for (int i = 0; i < op.nkeys; i++) {
      Result<const Account*> a = [&] {
        trace::Span span(Name::kCoreRead);
        return txn.Read(RefOf<Account>(op.keys[i]));
      }();
      if (!a.ok()) return a.status();
      std::string bad = CheckReadIdentity(op.keys[i], a.value()->id());
      if (!bad.empty()) c->errors.push_back(bad);
    }
    return Status::OK();
  });
  return r;
}

OpResult Bench::Transfer(ClientState* c, const Op& op) {
  OpResult r;
  r.rows = 2;
  r.user_bytes = 2 * RecordBytes();
  // Lock in key order so transfers never deadlock each other.
  const uint32_t lo = std::min(op.keys[0], op.keys[1]);
  const uint32_t hi = std::max(op.keys[0], op.keys[1]);
  r.status = RunTxn(c, false, &r, [&](Transaction& txn) -> Status {
    Account* acct[2] = {nullptr, nullptr};
    for (int i = 0; i < 2; i++) {
      Result<Account*> w = [&] {
        trace::Span span(Name::kCoreWrite);
        return txn.Write(RefOf<Account>(i == 0 ? lo : hi));
      }();
      if (!w.ok()) return w.status();
      acct[i] = w.value();
    }
    Account* from = op.keys[0] == lo ? acct[0] : acct[1];
    Account* to = from == acct[0] ? acct[1] : acct[0];
    from->set_balance(from->balance() - op.amount);
    to->set_balance(to->balance() + op.amount);
    return Status::OK();
  });
  return r;
}

OpResult Bench::Scan(ClientState* c, const Op& op) {
  OpResult r;
  r.read_only = true;
  r.scan = true;
  r.rows = kScanPersons;
  const size_t width = static_cast<size_t>(cfg_.clients);
  ScanAnswer got, want;
  r.status = RunTxn(c, true, &r, [&](Transaction& txn) -> Status {
    trace::Span span(Name::kQueryScan);
    ode::ForAll<Person> loop(txn);
    if (op.kind == OpKind::kScanSum) {
      loop.Parallel(width);
      ODE_ASSIGN_OR_RETURN(got.sum,
                           ode::Sum<Person>(std::move(loop), txn,
                                            [](const Person& p) {
                                              return p.income();
                                            }));
      want.sum = scan_truth_.sum;
    } else {
      loop.SuchThat([](const Person& p) { return p.age() % 7 == 0; })
          .Parallel(width);
      ODE_ASSIGN_OR_RETURN(got.count, loop.Count());
      want.count = scan_truth_.count;
    }
    return Status::OK();
  });
  if (r.status.ok()) {
    std::string bad = CheckScanAnswer(got, want);
    if (!bad.empty()) c->errors.push_back(bad);
  }
  return r;
}

OpResult Bench::IncomeMoves(ClientState* c, const Op& op) {
  OpResult r;
  r.rows = op.nkeys;
  r.user_bytes = op.nkeys * RecordBytes();
  r.status = RunTxn(c, false, &r, [&](Transaction& txn) -> Status {
    for (int p = 0; p < kUpdaterPairs; p++) {
      Person* who[2] = {nullptr, nullptr};
      for (int i = 0; i < 2; i++) {
        Result<Person*> w = [&] {
          trace::Span span(Name::kCoreWrite);
          return txn.Write(RefOf<Person>(op.keys[2 * p + i]));
        }();
        if (!w.ok()) return w.status();
        who[i] = w.value();
      }
      // Moving income keeps the total, so every scan has one right answer.
      who[0]->set_income(who[0]->income() - static_cast<double>(op.amount));
      who[1]->set_income(who[1]->income() + static_cast<double>(op.amount));
    }
    return Status::OK();
  });
  return r;
}

OpResult Bench::Update(ClientState* c, const Op& op) {
  OpResult r;
  r.rows = 1;
  r.user_bytes = RecordBytes();
  AckedItem ack;
  const uint64_t key = (static_cast<uint64_t>(c->index + 1) << 40) | ++c->seq;
  r.status = RunTxn(c, false, &r, [&](Transaction& txn) -> Status {
    Result<Item*> w = [&] {
      trace::Span span(Name::kCoreWrite);
      return txn.Write(RefOf<Item>(op.keys[0]));
    }();
    if (!w.ok()) return w.status();
    w.value()->Rekey(key);
    ack = AckedItem{oids_[op.keys[0]], w.value()->id(), w.value()->version(),
                    key};
    return Status::OK();
  });
  if (r.status.ok()) c->acks.push_back(ack);
  return r;
}

OpResult Bench::Insert(ClientState* c) {
  OpResult r;
  r.rows = 1;
  r.user_bytes = RecordBytes();
  const uint64_t id = (static_cast<uint64_t>(c->index + 1) << 40) | ++c->seq;
  Oid oid;
  r.status = RunTxn(c, false, &r, [&](Transaction& txn) -> Status {
    Result<Ref<Item>> ref = [&] {
      trace::Span span(Name::kCoreNew);
      return txn.New<Item>(id, id, 0, pad_);
    }();
    if (!ref.ok()) return ref.status();
    oid = ref.value().oid();
    return Status::OK();
  });
  if (r.status.ok()) {
    c->acks.push_back(AckedItem{oid, id, 0, id});
    inserted_.fetch_add(1);
  }
  return r;
}

OpResult Bench::SnapshotRead(ClientState* c, const Op& op) {
  OpResult r;
  r.read_only = true;
  r.rows = op.nkeys + 1;
  r.status = RunTxn(c, true, &r, [&](Transaction& txn) -> Status {
    uint64_t probe_key = 0;
    for (int i = 0; i < op.nkeys; i++) {
      Result<const Item*> it = [&] {
        trace::Span span(Name::kCoreRead);
        return txn.Read(RefOf<Item>(op.keys[i]));
      }();
      if (!it.ok()) return it.status();
      std::string bad = CheckReadIdentity(op.keys[i], it.value()->id());
      if (!bad.empty()) c->errors.push_back(bad);
      if (i == 0) probe_key = it.value()->key();
    }
    Result<std::vector<Ref<Item>>> hits = [&] {
      trace::Span span(Name::kQueryIndexProbe);
      return ode::ForAll<Item>(txn)
          .ViaIndexExact(kItemIndex,
                         ode::index_key::FromInt64(
                             static_cast<int64_t>(probe_key)))
          .Collect();
    }();
    if (!hits.ok()) return hits.status();
    std::vector<Oid> got;
    for (const Ref<Item>& h : hits.value()) got.push_back(h.oid());
    std::string bad = CheckIndexProbe(probe_key, oids_[op.keys[0]], got);
    if (!bad.empty()) c->errors.push_back(bad);
    return Status::OK();
  });
  return r;
}

OpResult Bench::WireRead(ClientState* c, const Op& op) {
  OpResult r;
  r.read_only = true;
  r.rows = op.nkeys;
  r.status = RunWireTxn(c, true, &r, [&](ode::server::Client& conn) {
    for (int i = 0; i < op.nkeys; i++) {
      Result<Account> a = [&] {
        trace::Span span(Name::kServerRoundTrip);
        return conn.ReadAs<Account>(cluster_, oids_[op.keys[i]].local);
      }();
      if (!a.ok()) return a.status();
      std::string bad = CheckReadIdentity(op.keys[i], a.value().id());
      if (!bad.empty()) c->errors.push_back(bad);
    }
    return Status::OK();
  });
  return r;
}

OpResult Bench::WireTransfer(ClientState* c, const Op& op) {
  OpResult r;
  r.rows = 2;
  r.user_bytes = 2 * RecordBytes();
  const uint32_t lo = std::min(op.keys[0], op.keys[1]);
  const uint32_t hi = std::max(op.keys[0], op.keys[1]);
  r.status = RunWireTxn(c, false, &r, [&](ode::server::Client& conn) {
    for (uint32_t key : {lo, hi}) {
      const uint32_t local = oids_[key].local;
      Result<Account> a = [&] {
        trace::Span span(Name::kServerRoundTrip);
        return conn.ReadAs<Account>(cluster_, local);
      }();
      if (!a.ok()) return a.status();
      Account acct = a.TakeValue();
      acct.set_balance(acct.balance() +
                       (key == op.keys[0] ? -op.amount : op.amount));
      trace::Span span(Name::kServerRoundTrip);
      ODE_RETURN_IF_ERROR(conn.WriteAs(cluster_, local, acct));
    }
    return Status::OK();
  });
  return r;
}

OpResult Bench::Execute(ClientState* c, const Op& op) {
  switch (op.kind) {
    case OpKind::kRead: return OltpRead(c, op);
    case OpKind::kTransfer:
      return cfg_.workload == Workload::kWireMix ? WireTransfer(c, op)
                                                 : Transfer(c, op);
    case OpKind::kScanSum:
    case OpKind::kScanCount: return Scan(c, op);
    case OpKind::kIncomeMoves: return IncomeMoves(c, op);
    case OpKind::kUpdate: return Update(c, op);
    case OpKind::kInsert: return Insert(c);
    case OpKind::kSnapshotRead:
      return cfg_.workload == Workload::kWireMix ? WireRead(c, op)
                                                 : SnapshotRead(c, op);
  }
  OpResult r;
  r.status = Status::InvalidArgument("unknown op");
  return r;
}

/// The measured slice that an operation which began in slice s0 (-1: the
/// warm-up) and ended in slice s1 counts in, or -1. It counts in the slice
/// it ended in; one that began in the warm-up or ended after the window
/// counts in the first or last slice. One that spans two measured slices
/// counts in neither, keeping the untraced and traced tallies apart.
int Bench::SliceOf(int s0, int s1) const {
  if (s0 == s1 && s0 >= 0 && s0 < num_slices_) return s0;
  if (s0 == -1 && s1 == 0) return 0;
  if (s0 == num_slices_ - 1 && s1 == num_slices_) return s0;
  return -1;
}

void Bench::Record(ClientState* c, int s0, const OpResult& r,
                   Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  const int slice = SliceOf(s0, slice_.load());
  if (slice < 0) return;
  Tally& t = c->tally[Traced(slice) ? 1 : 0];
  t.attempted++;
  t.retries += r.retries;
  if (!r.status.ok()) {
    t.failed++;
    if (c->failures.size() < 5) c->failures.push_back(r.status.ToString());
    return;
  }
  t.committed++;
  auto secs = [&](Clock::time_point at) {
    return std::chrono::duration<double>(at - slice_start_[slice]).count();
  };
  const double start_s = secs(start), end_s = secs(end);
  const double us = (end_s - start_s) * 1e6;
  if (us > 1e5) t.over_100ms++;
  // Prorate the transaction over the seconds it ran in; one that began in
  // the warm-up counts only its part inside the slice.
  const double dur = end_s - start_s;
  for (double i = std::max(0.0, std::floor(start_s));
       i <= end_s && i < kMaxSubWindows; i++) {
    const double share =
        dur > 0 ? (std::min(end_s, i + 1) - std::max(start_s, i)) / dur : 1;
    SubWindow& w = t.windows[static_cast<size_t>(i)];
    w.txns += share;
    w.rows += share * static_cast<double>(r.rows);
  }
  if (end_s >= 0 && end_s < kMaxSubWindows) {
    SubWindow& w = t.windows[static_cast<size_t>(end_s)];
    w.txn_us.Add(us, &c->rng);
    if (r.read_only) w.query_us.Add(us, &c->rng);
  }
  if (r.scan) t.scans++;
  if (r.user_bytes > 0) t.write_commits++;
  t.rows += r.rows;
  t.user_bytes += r.user_bytes;
}

void Bench::ClientMain(ClientState* c) {
  if (cfg_.workload == Workload::kWireMix) {
    c->conn = std::make_unique<ode::server::Client>();
    Status s = c->conn->Connect("127.0.0.1", server_->port());
    if (!s.ok()) {
      c->errors.push_back("connect: " + s.ToString());
      return;
    }
  }
  for (;;) {
    const int s0 = slice_.load();
    if (s0 >= num_slices_) break;
    const Op op = c->ops.Next();
    const Clock::time_point t0 = Clock::now();
    OpResult r;
    {
      trace::TxnScope scope;
      r = Execute(c, op);
    }
    ops_done_.fetch_add(1, std::memory_order_relaxed);
    Record(c, s0, r, t0);
  }
  if (c->conn != nullptr) c->conn->Close();
}

void Bench::UpdaterMain(ClientState* c) {
  // Open loop: each update is due kUpdaterPeriodMs after the previous one
  // and is timed from when it was due, so a stall shows in later updates.
  Clock::time_point due = Clock::now();
  for (;;) {
    std::this_thread::sleep_until(due);
    const int s0 = slice_.load();
    if (s0 >= num_slices_) break;
    const Op op = c->ops.Next();
    OpResult r;
    {
      trace::TxnScope scope;
      r = Execute(c, op);
    }
    Record(c, s0, r, due);
    due += std::chrono::milliseconds(kUpdaterPeriodMs);
  }
}

// --- Checks ------------------------------------------------------------------

void Bench::CheckAfterWindow(RunReport* rep) {
  switch (cfg_.workload) {
    case Workload::kOltpZipf:
    case Workload::kWireMix: {
      uint64_t rows = 0;
      int64_t total = 0;
      Status s = db_->RunReadTransaction([&](Transaction& txn) {
        rows = 0;
        total = 0;
        return ode::ForAll<Account>(txn).Each(
            [&](Ref<Account>, const Account& a) {
              rows++;
              total += a.balance();
            });
      });
      if (!s.ok()) {
        rep->Fail("invariant scan failed: " + s.ToString());
        break;
      }
      const uint64_t n = oids_.size();
      std::string bad = CheckTransferSum(
          rows, total, n, static_cast<int64_t>(n) * kSeedBalance);
      if (!bad.empty()) rep->Fail(bad);
      break;
    }
    case Workload::kScanSnapshot: {
      // Serial and Parallel(n) on one snapshot, in fresh transactions.
      SharedSnapshot snap(db_.get());
      ScanAnswer serial, parallel;
      for (size_t width : {size_t{0}, static_cast<size_t>(cfg_.clients)}) {
        ScanAnswer& a = width == 0 ? serial : parallel;
        Status s = snap.Run([&](Transaction& txn) -> Status {
          ode::ForAll<Person> loop(txn);
          if (width > 0) loop.Parallel(width);
          ODE_ASSIGN_OR_RETURN(
              a.sum, ode::Sum<Person>(std::move(loop), txn,
                                      [](const Person& p) {
                                        return p.income();
                                      }));
          return Status::OK();
        });
        if (s.ok()) {
          s = snap.Run([&](Transaction& txn) -> Status {
            ode::ForAll<Person> loop(txn);
            loop.SuchThat([](const Person& p) { return p.age() % 7 == 0; });
            if (width > 0) loop.Parallel(width);
            ODE_ASSIGN_OR_RETURN(a.count, loop.Count());
            return Status::OK();
          });
        }
        if (!s.ok()) rep->Fail("identity scan failed: " + s.ToString());
      }
      std::string bad = CheckScanIdentity("Parallel(" +
                                              std::to_string(cfg_.clients) +
                                              ")",
                                          serial, parallel);
      if (!bad.empty()) rep->Fail(bad);
      bad = CheckScanAnswer(serial, scan_truth_);
      if (!bad.empty()) rep->Fail(bad);
      break;
    }
    case Workload::kDurableCommit:
      break;  // CheckDurability, after the ladder
  }
}

void Bench::CheckDurability(RunReport* rep) {
  std::vector<std::vector<AckedItem>> per_client;
  for (const auto& c : clients_) per_client.push_back(c->acks);
  const std::vector<AckedItem> acked = MergeAcks(per_client);
  db_->SimulateCrash();
  db_.reset();
  Status s = Open(db_path_);
  if (!s.ok()) {
    rep->Fail("reopen after crash failed: " + s.ToString());
    return;
  }
  std::string bad;
  s = db_->RunReadTransaction([&](Transaction& txn) -> Status {
    bad = CheckDurable(acked, [&](const AckedItem& a) {
      RecoveredItem got;
      Result<const Item*> it = txn.Read(Ref<Item>(db_.get(), a.oid));
      if (it.ok()) {
        got = RecoveredItem{true, it.value()->id(), it.value()->version(),
                            it.value()->key()};
      }
      return got;
    });
    return Status::OK();
  });
  if (!s.ok()) rep->Fail("recovery check failed: " + s.ToString());
  if (!bad.empty()) rep->Fail(bad);
  rep->samples["durable.acked_objects"] = acked.size();
}

// --- Ladder ------------------------------------------------------------------

/// Typed ladder hooks for class T; `value` is what the scan rungs add up.
/// ForAll's parallel Sum reassociates the additions, so `value` must keep
/// every partial sum exact for the bit-identity check to hold.
template <typename T>
void TypedHooks(LadderHooks* h, Database* db, double (*value)(const T&)) {
  h->decode = [db](const std::string& bytes) {
    T obj;
    ode::ReadArchive ar(ode::Slice(bytes), db);
    ar(obj);
    return ar.ok() && ar.remaining().empty();
  };
  h->read = [db, c = h->cluster](Transaction& txn, ode::LocalOid local) {
    return txn.Read(Ref<T>(db, Oid{c, local})).status();
  };
  h->write = [db, c = h->cluster](Transaction& txn, ode::LocalOid local) {
    return txn.Write(Ref<T>(db, Oid{c, local})).status();
  };
  h->sum = [value](Transaction& txn, size_t workers) -> Result<double> {
    ode::ForAll<T> loop(txn);
    if (workers > 0) loop.Parallel(workers);
    return ode::Sum<T>(std::move(loop), txn, value);
  };
}

LadderResult Bench::Ladder() {
  LadderHooks h;
  h.db = db_.get();
  h.cluster = cluster_;
  h.threads = cfg_.clients;
  h.server = server_.get();
  // The hot set: distinct keys from 4096 Zipf draws (uniform draws for
  // scan_snapshot, whose scans touch every row alike).
  ode::Random rng(cfg_.seed ^ 0x1adde5ull);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 4096; i++) {
    keys.push_back(zipf_ != nullptr
                       ? static_cast<uint32_t>(zipf_->Next(rng))
                       : static_cast<uint32_t>(rng.Uniform(oids_.size())));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint32_t k : keys) h.hot.push_back(oids_[k].local);
  switch (cfg_.workload) {
    case Workload::kOltpZipf:
    case Workload::kWireMix:
      TypedHooks<Account>(&h, db_.get(), [](const Account& a) {
        return static_cast<double>(a.balance());
      });
      break;
    case Workload::kScanSnapshot:
      TypedHooks<Person>(&h, db_.get(),
                         [](const Person& p) { return p.income(); });
      break;
    case Workload::kDurableCommit:
      // Small integers, so every partial sum is exact and the parallel
      // merge (which reassociates the additions) must match bit for bit.
      TypedHooks<Item>(&h, db_.get(), [](const Item& it) {
        return static_cast<double>(it.version());
      });
      break;
  }
  return RunLadder(h);
}

// --- Report ------------------------------------------------------------------

const ode::MetricsRegistry::Snapshot::HistogramRow* FindHist(
    const ode::MetricsRegistry::Snapshot& s, const std::string& name) {
  for (const auto& row : s.histograms) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void Bench::EndToEndMetrics(RunReport* rep, const Tally& t, double secs) {
  auto add = [&](const char* name, double v, const char* unit,
                 uint64_t samples) {
    rep->metrics.push_back(Metric{name, v, unit});
    if (samples > 0) rep->samples[name] = samples;
  };
  std::vector<const Tally*> tallies;
  for (const auto& c : clients_) tallies.push_back(&c->tally[0]);
  const SteadyWindow window(secs, CalmNeeded(), cpu_, tallies);
  uint64_t n_txn = 0, n_query = 0;
  const double p50 = window.Latency(0.50, false, &n_txn);
  const double p99 = window.Latency(0.99, false, &n_txn);
  const double q50 = window.Latency(0.50, true, &n_query);
  const double q90 = window.Latency(0.90, true, &n_query);
  add("txn_per_s", window.Rate(false), "1/s", t.committed);
  add("txn_p50_us", p50, "us", n_txn);
  add("txn_p99_us", p99, "us", n_txn);
  add("ok_frac", Ratio(t.committed, t.attempted), "ratio", t.attempted);
  add("rows_per_s",
      window.Rate(true),
      "1/s", t.rows);
  add("query_p50_ms", q50 / 1e3, "ms", n_query);
  add("query_p90_ms", q90 / 1e3, "ms", n_query);
  std::vector<double> setup = setup_s_;
  add("setup_s", Percentile(setup, 0.5), "s", setup.size());
  rep->steal_pct = 100 * window.Steal();
  rep->samples["calm_subwindow_s"] = window.CalmSeconds();
  // Transactions that stalled for more than 100 ms (a lock-wait timeout, a
  // checkpoint): few, but each one idles a closed-loop client.
  rep->samples["txn_over_100ms"] = t.over_100ms;
  double rss_kib = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) rss_kib = std::stod(line.substr(6));
  }
  add("peak_rss_mib", rss_kib / 1024.0, "MiB", 0);
  double amp = 0;
  for (double a : space_amp_) amp += a;
  add("space_amp", Ratio(amp, space_amp_.size()), "ratio", space_amp_.size());
}

void Bench::LayerMetrics(RunReport* rep, const Tally& all, const Tally& u,
                         const Tally& tr, double secs_u, double secs_t,
                         const ode::MetricsRegistry::Snapshot& win) {
  const trace::Analysis spans = trace::Analyze();
  const LadderResult lad = Ladder();
  for (const std::string& e : lad.errors) rep->Fail(e);
  auto add = [&](const std::string& name, double v, const char* unit,
                 const char* source, uint64_t samples) {
    rep->metrics.push_back(Metric{name, v, unit});
    rep->sources[name] = source;
    if (samples > 0) rep->samples[name] = samples;
  };
  auto c = [&](const char* name) {
    return static_cast<double>(win.counter(name));
  };
  const double txns = static_cast<double>(all.committed);
  const double hits = c("storage.pool.hits"), misses = c("storage.pool.misses");

  add("storage.pool.hit_ratio", Ratio(hits, hits + misses), "ratio", "window",
      0);
  add("storage.pool.evictions_per_txn",
      Ratio(c("storage.pool.evictions"), txns), "count/txn", "window", 0);
  add("storage.pager.reads_per_txn", Ratio(c("storage.pager.reads"), txns),
      "count/txn", "window", 0);
  add("storage.pool.fetches_per_row", Ratio(hits + misses, all.rows),
      "count/row", "window", 0);
  for (const char* rung : {"storage.pool.fetch_ns_1t",
                           "storage.pool.fetch_ns_nt"}) {
    add(rung, lad.values.count(rung) ? lad.values.at(rung) : 0, "ns",
        "ladder", lad.samples.count(rung) ? lad.samples.at(rung) : 0);
  }

  // Group-commit figures: the window's when it fsynced, else the ladder's
  // durable-commit rung.
  const bool window_fsyncs = c("storage.wal.group_commit.fsyncs") > 0;
  const ode::MetricsRegistry::Snapshot& sync_src =
      window_fsyncs ? win : lad.registry;
  const char* sync_from = window_fsyncs ? "window" : "ladder";
  add("storage.wal.commits_per_fsync",
      Ratio(static_cast<double>(
                sync_src.counter("storage.wal.group_commit.commits")),
            static_cast<double>(
                sync_src.counter("storage.wal.group_commit.fsyncs"))),
      "count/fsync", sync_from, 0);
  add("storage.wal.bytes_per_commit",
      Ratio(c("storage.wal.appended_bytes"), all.write_commits), "B/commit",
      "window", all.write_commits);
  add("storage.write_bytes_per_user_byte",
      Ratio(c("storage.wal.appended_bytes") +
                4096.0 * c("storage.pager.writes"),
            all.user_bytes),
      "ratio", "window", 0);
  const auto* wait = FindHist(sync_src, "storage.wal.group_commit.wait_us");
  add("storage.wal.fsync_wait_us_p50", wait ? wait->p50 : 0, "us", sync_from,
      wait ? wait->count : 0);
  add("storage.wal.fsync_wait_us_p99", wait ? wait->p99 : 0, "us", sync_from,
      wait ? wait->count : 0);
  add("storage.checkpoint.count", c("storage.checkpoint.fuzzy"), "count",
      "window", 0);
  const auto* crit_win = FindHist(win, "storage.checkpoint.critical_us");
  const bool crit_window = crit_win != nullptr && crit_win->count > 0;
  const auto* crit =
      crit_window ? crit_win
                  : FindHist(lad.registry, "storage.checkpoint.critical_us");
  add("storage.checkpoint.critical_us_p99", crit ? crit->p99 : 0, "us",
      crit_window ? "window" : "ladder", crit ? crit->count : 0);

  for (const char* rung : {"objstore.read_snapshot_ns_1t",
                           "objstore.read_snapshot_ns_nt",
                           "objstore.next_head_ns", "serial.decode_ns"}) {
    add(rung, lad.values.count(rung) ? lad.values.at(rung) : 0, "ns",
        "ladder", lad.samples.count(rung) ? lad.samples.at(rung) : 0);
  }

  // Span metrics: spans when the workload makes the call, else the
  // ladder's rung for the same call on the same database.
  auto span_metric = [&](const std::string& metric, Name name, double p,
                         double scale, const char* unit) {
    std::vector<double> v = spans.by_name[static_cast<int>(name)].duration_us;
    const char* source = "spans";
    if (v.size() < kMinSpanSamples) {
      auto it = lad.op_us.find(trace::NameOf(name));
      v = it != lad.op_us.end() ? it->second : std::vector<double>{};
      source = "ladder";
    }
    const size_t n = v.size();
    add(metric, Percentile(v, p) * scale, unit, source, n);
  };
  span_metric("core.begin_us", Name::kCoreBegin, 0.5, 1, "us");
  span_metric("core.read_us", Name::kCoreRead, 0.5, 1, "us");
  span_metric("core.write_us", Name::kCoreWrite, 0.5, 1, "us");
  span_metric("core.new_us", Name::kCoreNew, 0.5, 1, "us");
  span_metric("core.commit_us_p50", Name::kCoreCommit, 0.5, 1, "us");
  span_metric("core.commit_us_p99", Name::kCoreCommit, 0.99, 1, "us");
  add("core.retries_per_txn", Ratio(all.retries, txns), "count/txn", "window",
      0);

  for (const char* rung : {"concur.lock_ns_1t", "concur.lock_ns_nt"}) {
    add(rung, lad.values.count(rung) ? lad.values.at(rung) : 0, "ns",
        "ladder", lad.samples.count(rung) ? lad.samples.at(rung) : 0);
  }
  add("concur.lock_waits_per_txn", Ratio(c("concur.lock.waits"), txns),
      "count/txn", "window", 0);

  for (const char* rung : {"query.scan_ms_serial", "query.scan_ms_par1",
                           "query.scan_ms_parN"}) {
    add(rung, lad.values.count(rung) ? lad.values.at(rung) : 0, "ms",
        "ladder", lad.samples.count(rung) ? lad.samples.at(rung) : 0);
  }
  add("query.parallel.fallbacks_per_scan",
      Ratio(c("query.parallel.fallbacks"), all.scans), "count/scan", "window",
      all.scans);
  span_metric("query.index_probe_us", Name::kQueryIndexProbe, 0.5, 1, "us");

  span_metric("server.round_trip_us_p50", Name::kServerRoundTrip, 0.5, 1,
              "us");
  const auto* req_win = FindHist(win, "server.request_us");
  const bool req_window = req_win != nullptr && req_win->count > 0;
  const auto* req =
      req_window ? req_win : FindHist(lad.registry, "server.request_us");
  add("server.request_us_p50", req ? req->p50 : 0, "us",
      req_window ? "window" : "ladder", req ? req->count : 0);
  for (const char* rung : {"server.ping_us_1c", "server.ping_us_nc"}) {
    add(rung, lad.values.count(rung) ? lad.values.at(rung) : 0, "us",
        "ladder", lad.samples.count(rung) ? lad.samples.at(rung) : 0);
  }
  add("server.busy_rejections_per_txn",
      Ratio(c("server.busy_rejections"), txns), "count/txn", "window", 0);

  // Tracing overhead: closed-loop throughput with spans off vs on, from
  // the alternating untraced and traced slices of this run.
  const double rate_u = Ratio(u.committed, secs_u);
  const double rate_t = Ratio(tr.committed, secs_t);
  add("trace.overhead_frac", Ratio(rate_u - rate_t, rate_u), "ratio",
      "window", 0);
  rep->samples["trace.spans"] = spans.spans;
  rep->samples["trace.dropped"] = spans.dropped;
}

RunReport Bench::Run() {
  RunReport rep;
  pad_ = std::string(kPadBytes, 'p');
  {
    ode::Random rng(cfg_.seed ^ 0x9adull);
    pad_ = rng.NextString(kPadBytes);
  }
  switch (cfg_.workload) {
    case Workload::kOltpZipf:
      zipf_ = std::make_unique<Zipf>(kOltpAccounts, 0.99);
      break;
    case Workload::kDurableCommit:
      zipf_ = std::make_unique<Zipf>(kDurableItems, 0.99);
      break;
    case Workload::kWireMix:
      zipf_ = std::make_unique<Zipf>(kWireAccounts, 0.99);
      break;
    case Workload::kScanSnapshot:
      for (uint32_t i = 0; i < kScanPersons; i++) {
        scan_truth_.sum += static_cast<double>(i % 1000);
        if ((i % 97) % 7 == 0) scan_truth_.count++;
      }
      break;
  }

  // Set up several times (at least kMinSetups, more while they are quick);
  // setup_s is the median, and the last database is the one measured.
  double setup_total = 0;
  for (int i = 0;; i++) {
    const std::string dir = cfg_.data_dir + "/setup" + std::to_string(i);
    const Clock::time_point t0 = Clock::now();
    Status s = Setup(dir);
    setup_s_.push_back(SecondsSince(t0));
    setup_total += setup_s_.back();
    if (!s.ok()) {
      rep.Fail("setup failed: " + s.ToString());
      return rep;
    }
    const bool more = i + 1 < kMinSetups ||
                      (i + 1 < kMaxSetups && setup_total < kSetupBudgetS);
    if (!more) break;
    server_.reset();
    s = db_->Close();
    db_.reset();
    if (!s.ok()) {
      rep.Fail("close failed: " + s.ToString());
      return rep;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  // Clients: Sessions() closed loops, and scan_snapshot's open-loop
  // updater.
  const int main_clients = Sessions();
  for (int i = 0; i < main_clients; i++) {
    clients_.push_back(std::make_unique<ClientState>(
        i, Role::kMain,
        OpStream(cfg_.workload, cfg_.seed, i, Role::kMain, zipf_.get())));
  }
  if (cfg_.workload == Workload::kScanSnapshot) {
    clients_.push_back(std::make_unique<ClientState>(
        main_clients, Role::kUpdater,
        OpStream(cfg_.workload, cfg_.seed, 0, Role::kUpdater, nullptr)));
  }
  // A traced run alternates untraced and traced slices (U T U T) over the
  // same --seconds, so the tracing overhead is measured under one load.
  num_slices_ = cfg_.trace ? 4 : 1;
  const double slice_s = cfg_.seconds / num_slices_;
  std::vector<std::thread> threads;
  const Clock::time_point clients_start = Clock::now();
  for (auto& c : clients_) {
    ClientState* cs = c.get();
    threads.emplace_back([this, cs] {
      if (cs->role == Role::kUpdater) {
        UpdaterMain(cs);
      } else {
        ClientMain(cs);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  registry_.Reset();
  double secs[2] = {0, 0};
  for (int s = 0; s < num_slices_; s++) {
    if (Traced(s)) {
      // Sample transactions so each thread's spans fit its buffer.
      const double rate = ops_done_.load() / SecondsSince(clients_start);
      const double per_thread = rate / clients_.size() * cfg_.seconds / 2 *
                                kSpansPerTxnBound;
      trace::SetSampleEvery(static_cast<uint32_t>(
          std::ceil(per_thread / trace::kBufferSpans)));
    }
    trace::SetEnabled(Traced(s));
    const Clock::time_point t0 = Clock::now();
    slice_start_[s] = t0;
    slice_.store(s);
    // An end-to-end window runs whole seconds and, until CalmNeeded() of
    // them were calm, stretches one second at a time up to
    // kMaxStretch x --seconds, so a steal burst leaves it enough calm
    // seconds to measure.
    CpuTicks ticks, second_start;
    if (s == 0 && ReadCpuTicks(&ticks)) cpu_.push_back(ticks);
    second_start = ticks;
    size_t seconds = 0, calm = 0;
    for (double until = slice_s;;) {
      const double at = SecondsSince(t0);
      if (at >= until) {
        const bool stretch = !cfg_.trace && !cpu_.empty() &&
                             calm < CalmNeeded() &&
                             at + 1 <= kMaxStretch * slice_s;
        if (!stretch) break;
        until += 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kSpaceSampleMs));
      if (s == 0 && ReadCpuTicks(&ticks)) {
        ticks.t = SecondsSince(t0);
        cpu_.push_back(ticks);
        if (ticks.t >= seconds + 1) {
          seconds++;
          if (StealShare(second_start, ticks) <= kCalmSteal) calm++;
          second_start = ticks;
        }
      }
      std::error_code ec;
      const double bytes =
          static_cast<double>(std::filesystem::file_size(db_path_, ec)) +
          static_cast<double>(
              std::filesystem::file_size(db_path_ + ".wal", ec));
      space_amp_.push_back(bytes / static_cast<double>(LiveUserBytes()));
    }
    secs[Traced(s) ? 1 : 0] += SecondsSince(t0);
  }
  slice_.store(num_slices_);
  trace::SetEnabled(false);
  const ode::MetricsRegistry::Snapshot window = registry_.TakeSnapshot();
  for (auto& t : threads) t.join();

  Tally all, by_kind[2];
  for (const auto& c : clients_) {
    for (int k = 0; k < 2; k++) by_kind[k].Merge(c->tally[k]);
    for (const std::string& e : c->errors) rep.Fail(e);
    for (const std::string& f : c->failures) {
      if (rep.failures.size() < 10) rep.failures.push_back(f);
    }
  }
  all.Merge(by_kind[0]);
  all.Merge(by_kind[1]);
  rep.attempted = all.attempted;
  rep.failed = all.failed;

  CheckAfterWindow(&rep);
  if (cfg_.trace) {
    LayerMetrics(&rep, all, by_kind[0], by_kind[1], secs[0], secs[1], window);
    if (!cfg_.out_dir.empty()) {
      const std::string path = cfg_.out_dir + "/spans-" +
                               WorkloadName(cfg_.workload) + ".tsv";
      if (!trace::WriteSpans(path)) rep.Fail("cannot write " + path);
    }
  } else {
    EndToEndMetrics(&rep, by_kind[0], secs[0]);
  }
  server_.reset();
  if (cfg_.workload == Workload::kDurableCommit) CheckDurability(&rep);
  if (db_ != nullptr) {
    Status s = db_->Close();
    if (!s.ok()) rep.Fail("close failed: " + s.ToString());
    db_.reset();
  }
  return rep;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kOltpZipf, Workload::kScanSnapshot,
                     Workload::kDurableCommit, Workload::kWireMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kOltpZipf: return "oltp_zipf";
    case Workload::kScanSnapshot: return "scan_snapshot";
    case Workload::kDurableCommit: return "durable_commit";
    case Workload::kWireMix: return "wire_mix";
  }
  return "?";
}

RunReport RunWorkload(const RunConfig& config) {
  return Bench(config).Run();
}

}  // namespace odebench
