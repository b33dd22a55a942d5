#ifndef ODEBENCH_GENERATOR_H_
#define ODEBENCH_GENERATOR_H_

// Seeded input generation. Every client of every workload draws its
// operations from its own OpStream, a pure function of (workload, seed,
// client index): the same seed replays the same operation sequence, and the
// database under test only ever sees the generated inputs.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/random.h"

namespace odebench {

enum class Workload { kOltpZipf, kScanSnapshot, kDurableCommit, kWireMix };

/// Parses a workload name; false if unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Dataset shapes (README.md "Workloads").
inline constexpr uint32_t kOltpAccounts = 200000;
inline constexpr uint32_t kScanPersons = 100000;
inline constexpr uint32_t kDurableItems = 20000;
inline constexpr uint32_t kWireAccounts = 10000;
inline constexpr int64_t kSeedBalance = 1000;
inline constexpr int kOltpReadsPerTxn = 8;
inline constexpr int kSnapshotReads = 4;
/// scan_snapshot's updater: every kUpdaterPeriodMs it moves income between
/// kUpdaterPairs pairs of Persons, so 1% of the Persons change per second.
inline constexpr int kUpdaterPeriodMs = 10;
inline constexpr int kUpdaterPairs = 5;

/// YCSB's Zipfian generator (Gray et al., SIGMOD 1994) over [0, n), with the
/// ranks scattered over the key space by a fixed bijection so the hot keys
/// do not share pages just because they were inserted together. The scatter
/// does not depend on the seed: every seed sees the same hot set and page
/// layout, and draws its own request sequence over it.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; i++) zetan += 1.0 / std::pow(i, theta);
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }

  /// A rank in [0, n): 0 is the hottest.
  uint64_t NextRank(ode::Random& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return 1;
    const uint64_t r = static_cast<uint64_t>(
        n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

  /// The key a rank maps to. 2654435761 is a prime that divides none of
  /// the dataset sizes, so rank -> key is a bijection.
  uint64_t KeyOfRank(uint64_t rank) const {
    return (rank * 2654435761ull) % n_;
  }

  uint64_t Next(ode::Random& rng) const { return KeyOfRank(NextRank(rng)); }

 private:
  uint64_t n_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_theta_ = 0;
};

enum class OpKind : uint8_t {
  kRead,          ///< Locked read of `nkeys` objects (oltp_zipf).
  kTransfer,      ///< Move `amount` from keys[0] to keys[1].
  kScanSum,       ///< Parallel Sum over every Person.
  kScanCount,     ///< Parallel filtered Count over every Person.
  kIncomeMoves,   ///< scan_snapshot updater: kUpdaterPairs income moves.
  kUpdate,        ///< Rewrite the indexed key of keys[0] (durable_commit).
  kInsert,        ///< Insert one Item (durable_commit).
  kSnapshotRead,  ///< Snapshot read of `nkeys` objects.
};

struct Op {
  OpKind kind = OpKind::kRead;
  uint8_t nkeys = 0;
  std::array<uint32_t, 2 * kUpdaterPairs> keys{};
  int64_t amount = 0;

  bool operator==(const Op& o) const {
    return kind == o.kind && nkeys == o.nkeys && keys == o.keys &&
           amount == o.amount;
  }
};

/// Role of a client within a workload (scan_snapshot has two roles).
enum class Role { kMain, kUpdater };

/// One client's operation sequence.
class OpStream {
 public:
  OpStream(Workload w, uint64_t seed, int client, Role role, const Zipf* zipf)
      : w_(w),
        role_(role),
        zipf_(zipf),
        rng_(seed * 0x9E3779B97F4A7C15ull ^
             (static_cast<uint64_t>(w) << 48) ^
             (static_cast<uint64_t>(client + 1) << 32) ^
             (role == Role::kUpdater ? 0x5bd1e995ull : 0)) {}

  Op Next() {
    Op op;
    switch (w_) {
      case Workload::kOltpZipf:
        if (rng_.PercentTrue(90)) {
          op.kind = OpKind::kRead;
          op.nkeys = kOltpReadsPerTxn;
          for (int i = 0; i < kOltpReadsPerTxn; i++) op.keys[i] = Key();
        } else {
          Pair(&op);
          op.kind = OpKind::kTransfer;
        }
        break;
      case Workload::kScanSnapshot:
        if (role_ == Role::kUpdater) {
          op.kind = OpKind::kIncomeMoves;
          op.nkeys = 2 * kUpdaterPairs;
          for (int i = 0; i < 2 * kUpdaterPairs; i++) {
            op.keys[i] = static_cast<uint32_t>(rng_.Uniform(kScanPersons));
          }
          op.amount = 1 + static_cast<int64_t>(rng_.Uniform(50));
        } else {
          op.kind = (scans_++ % 2 == 0) ? OpKind::kScanSum : OpKind::kScanCount;
        }
        break;
      case Workload::kDurableCommit: {
        const uint64_t pick = rng_.Uniform(100);
        if (pick < 60) {
          op.kind = OpKind::kUpdate;
          op.nkeys = 1;
          op.keys[0] = Key();
        } else if (pick < 80) {
          op.kind = OpKind::kInsert;
        } else {
          op.kind = OpKind::kSnapshotRead;
          op.nkeys = kSnapshotReads;
          for (int i = 0; i < kSnapshotReads; i++) op.keys[i] = Key();
        }
        break;
      }
      case Workload::kWireMix:
        if (rng_.PercentTrue(90)) {
          op.kind = OpKind::kSnapshotRead;
          op.nkeys = kSnapshotReads;
          for (int i = 0; i < kSnapshotReads; i++) op.keys[i] = Key();
        } else {
          Pair(&op);
          op.kind = OpKind::kTransfer;
        }
        break;
    }
    return op;
  }

  /// Uniform draw from this client's stream (backoff jitter, payloads).
  uint64_t Uniform(uint64_t n) { return rng_.Uniform(n); }

 private:
  uint32_t Key() { return static_cast<uint32_t>(zipf_->Next(rng_)); }

  /// Two distinct Zipf keys for a transfer, and a positive amount.
  void Pair(Op* op) {
    op->nkeys = 2;
    op->keys[0] = Key();
    do {
      op->keys[1] = Key();
    } while (op->keys[1] == op->keys[0]);
    op->amount = 1 + static_cast<int64_t>(rng_.Uniform(100));
  }

  Workload w_;
  Role role_;
  const Zipf* zipf_;
  ode::Random rng_;
  uint64_t scans_ = 0;
};

}  // namespace odebench

#endif  // ODEBENCH_GENERATOR_H_
