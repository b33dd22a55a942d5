#ifndef ODEBENCH_LADDER_H_
#define ODEBENCH_LADDER_H_

// The layer ladder: direct calls into lower-layer public APIs on the
// workload's own warm data, each rung timed at 1 thread and at `threads`
// threads where that is meaningful, so a step that fails to scale shows as
// the first rung whose many-thread time rises. A traced run climbs it after
// the measured window. Rungs, bottom up:
//
//   storage.pool.fetch      BufferPool::FetchHandle on resident pages
//   objstore.read_snapshot  ObjectStore::ReadSnapshot of hot objects
//   objstore.next_head      ObjectStore::NextHead over the cluster
//   serial.decode           ReadArchive decode of one stored record
//   concur.lock             LockManager Acquire x8 + ReleaseAll (private)
//   core.*                  Begin / Read / Write / New / Commit
//   query.scan              serial, Parallel(1), Parallel(n) on one snapshot
//   query.index_probe       ForAll ViaIndexExact
//   server.ping / read      server::Client round trips, in-process server
//
// plus a durable-commit rung on no-sync workloads and forced checkpoints,
// for the fsync-wait and checkpoint histograms a window may not fill.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ode.h"
#include "util/mutex.h"

namespace ode {
namespace server {
class Server;
}  // namespace server
}  // namespace ode

namespace odebench {

/// Holds one snapshot open on a helper thread, so that other threads can
/// run any number of fresh transactions at exactly its cut through
/// Database::BeginSnapshotAt (whose contract needs the minting transaction
/// open throughout). A fresh transaction per scan keeps a later scan from
/// riding an earlier one's object cache.
class SharedSnapshot {
 public:
  explicit SharedSnapshot(ode::Database* db);
  ~SharedSnapshot();
  SharedSnapshot(const SharedSnapshot&) = delete;
  SharedSnapshot& operator=(const SharedSnapshot&) = delete;

  const ode::Status& status() const { return status_; }
  uint64_t seq() const { return seq_; }

  /// Runs `body` in a fresh transaction at this snapshot's cut.
  ode::Status Run(const std::function<ode::Status(ode::Transaction&)>& body);

 private:
  ode::Database* db_;
  ode::Status status_;
  uint64_t seq_ = 0;
  ode::Mutex mu_;
  ode::CondVar cv_;
  bool ready_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread holder_;
};

/// What the ladder needs to know about the workload's class and data.
struct LadderHooks {
  ode::Database* db = nullptr;
  ode::ClusterId cluster = ode::kInvalidClusterId;
  std::vector<ode::LocalOid> hot;  ///< Distinct Zipf-hot objects.
  int threads = 4;
  /// Decodes one stored record of the workload's class.
  std::function<bool(const std::string& bytes)> decode;
  /// Transaction::Read / Transaction::Write of one object of the class.
  std::function<ode::Status(ode::Transaction&, ode::LocalOid)> read;
  std::function<ode::Status(ode::Transaction&, ode::LocalOid)> write;
  /// Sum over the class's cluster: serial when workers == 0, else
  /// ForAll::Parallel(workers).
  std::function<ode::Result<double>(ode::Transaction&, size_t workers)> sum;
  ode::server::Server* server = nullptr;  ///< The workload's, if it has one.
};

struct LadderResult {
  std::map<std::string, double> values;      ///< Rung figures by metric name.
  std::map<std::string, uint64_t> samples;   ///< Operations behind each.
  /// Per-call latencies (us) by span name, for span metrics whose call the
  /// workload itself never makes.
  std::map<std::string, std::vector<double>> op_us;
  /// Registry after the durable, checkpoint and server rungs.
  ode::MetricsRegistry::Snapshot registry;
  std::vector<std::string> errors;
};

LadderResult RunLadder(const LadderHooks& hooks);

}  // namespace odebench

#endif  // ODEBENCH_LADDER_H_
