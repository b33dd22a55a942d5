// ode_analyzer self-test fixture: seeded lock-order violations.
//
// Fixture config documents the order Engine::alpha_mu_ -> Engine::beta_mu_.
// Seeded findings:
//   * InvertedPath acquires beta before alpha  -> documented-order inversion
//   * ForwardPath + InvertedPath together      -> 2-cycle {alpha, beta}
//   * Pool::Outer -> Pool::Inner               -> self-acquisition via the
//     call-graph may_acquire propagation
//   * Sharded::Fetch -> Sharded::Evict         -> the same, on an
//     AdaptiveMutex member reached through a receiver (Shard::latch)
#include <cstdint>

namespace fix {

class Mutex {};
class AdaptiveMutex {};
template <typename M>
class MutexLock {
 public:
  explicit MutexLock(M& mu) : mu_(mu) {}
  M& mu_;
};

class Engine {
 public:
  void ForwardPath() {
    MutexLock a(alpha_mu_);
    MutexLock b(beta_mu_);  // matches the documented order
  }
  void InvertedPath() {
    MutexLock b(beta_mu_);
    MutexLock a(alpha_mu_);  // SEEDED: inversion of alpha -> beta
  }

 private:
  Mutex alpha_mu_;
  Mutex beta_mu_;
};

class Pool {
 public:
  void Outer() {
    MutexLock l(mu_);
    Inner();  // SEEDED: Inner re-acquires mu_ while Outer holds it
  }
  void Inner() { MutexLock l(mu_); }

 private:
  Mutex mu_;
};

struct Shard {
  AdaptiveMutex latch;
};

class Sharded {
 public:
  void Fetch(Shard* shard) {
    MutexLock l(shard->latch);
    Evict(shard);  // SEEDED: Evict re-acquires the latch Fetch holds
  }
  void Evict(Shard* shard) { MutexLock l(shard->latch); }
};

}  // namespace fix
