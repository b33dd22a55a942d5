// odebench's own tests: every output check must reject a wrong answer (and
// accept the right one), and the input generator must be a pure function of
// (workload, seed, client). Exits non-zero on the first failed expectation.
//
//   .bench_build/odebench/odebench_selftest

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <vector>

#include "checks.h"
#include "generator.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "FAIL: %s\n", what);
    g_failures++;
  }
}

bool Passes(const std::string& verdict) { return verdict.empty(); }

using odebench::AckedItem;
using odebench::RecoveredItem;
using odebench::ScanAnswer;

void TransferSum() {
  Expect(Passes(odebench::CheckTransferSum(10, 10000, 10, 10000)),
         "transfer sum accepts the opening total");
  Expect(!Passes(odebench::CheckTransferSum(10, 10001, 10, 10000)),
         "transfer sum rejects money created by a lost update");
  Expect(!Passes(odebench::CheckTransferSum(9, 10000, 10, 10000)),
         "transfer sum rejects a missing account");
}

void ScanIdentity() {
  const ScanAnswer serial{123456.0, 42};
  Expect(Passes(odebench::CheckScanIdentity("p", serial, serial)),
         "scan identity accepts an identical answer");
  ScanAnswer last_bit = serial;
  last_bit.sum = std::nextafter(serial.sum, 1e300);
  Expect(!Passes(odebench::CheckScanIdentity("p", serial, last_bit)),
         "scan identity rejects a sum one ulp off");
  ScanAnswer neg_zero{-0.0, 0}, pos_zero{0.0, 0};
  Expect(!Passes(odebench::CheckScanIdentity("p", pos_zero, neg_zero)),
         "scan identity rejects -0.0 for 0.0");
  ScanAnswer count = serial;
  count.count++;
  Expect(!Passes(odebench::CheckScanIdentity("p", serial, count)),
         "scan identity rejects a different count");
}

void ScanAnswerCheck() {
  const ScanAnswer want{499500.0, 7};
  Expect(Passes(odebench::CheckScanAnswer(want, want)),
         "scan answer accepts the right answer");
  Expect(!Passes(odebench::CheckScanAnswer({499499.0, 7}, want)),
         "scan answer rejects a torn snapshot sum");
  Expect(!Passes(odebench::CheckScanAnswer({499500.0, 8}, want)),
         "scan answer rejects a wrong count");
}

void ReadAndProbe() {
  Expect(Passes(odebench::CheckReadIdentity(7, 7)), "read identity accepts");
  Expect(!Passes(odebench::CheckReadIdentity(7, 8)),
         "read identity rejects another object");
  const ode::Oid a{1, 5}, b{1, 6};
  Expect(Passes(odebench::CheckIndexProbe(9, a, {a})), "probe accepts");
  Expect(!Passes(odebench::CheckIndexProbe(9, a, {})),
         "probe rejects a missing entry");
  Expect(!Passes(odebench::CheckIndexProbe(9, a, {b})),
         "probe rejects another object");
  Expect(!Passes(odebench::CheckIndexProbe(9, a, {a, b})),
         "probe rejects a stale duplicate");
}

void Durability() {
  const ode::Oid x{3, 1}, y{3, 2};
  // Two clients acknowledged writes to x; the later version must win.
  const std::vector<AckedItem> acked = odebench::MergeAcks(
      {{AckedItem{x, 1, 1, 100}, AckedItem{y, 2, 0, 2}},
       {AckedItem{x, 1, 2, 200}}});
  Expect(acked.size() == 2 && acked[0].version == 2 && acked[0].key == 200,
         "merge keeps the highest acknowledged version");
  auto with = [](RecoveredItem rx, RecoveredItem ry) {
    return [rx, ry](const AckedItem& a) { return a.oid.local == 1 ? rx : ry; };
  };
  const RecoveredItem good_x{true, 1, 2, 200}, good_y{true, 2, 0, 2};
  Expect(Passes(odebench::CheckDurable(acked, with(good_x, good_y))),
         "durability accepts the acknowledged state");
  Expect(Passes(odebench::CheckDurable(acked, with({true, 1, 3, 300}, good_y))),
         "durability accepts a newer, unacknowledged version");
  Expect(!Passes(odebench::CheckDurable(acked,
                                        with({true, 1, 1, 100}, good_y))),
         "durability rejects a lost acknowledged update");
  Expect(!Passes(odebench::CheckDurable(acked, with(good_x, {}))),
         "durability rejects a lost acknowledged insert");
  Expect(!Passes(odebench::CheckDurable(acked,
                                        with({true, 1, 2, 999}, good_y))),
         "durability rejects a wrong key at the acknowledged version");
  Expect(!Passes(odebench::CheckDurable(acked,
                                        with({true, 9, 2, 200}, good_y))),
         "durability rejects another item under the oid");
}

void Determinism() {
  using odebench::OpStream;
  using odebench::Role;
  using odebench::Workload;
  const odebench::Zipf zipf(odebench::kOltpAccounts, 0.99);
  for (Workload w : {Workload::kOltpZipf, Workload::kScanSnapshot,
                     Workload::kDurableCommit, Workload::kWireMix}) {
    for (Role role : {Role::kMain, Role::kUpdater}) {
      OpStream a(w, 7, 1, role, &zipf), b(w, 7, 1, role, &zipf);
      OpStream other_seed(w, 8, 1, role, &zipf);
      OpStream other_client(w, 7, 2, role, &zipf);
      bool same = true, seed_differs = false, client_differs = false;
      for (int i = 0; i < 10000; i++) {
        const odebench::Op op = a.Next();
        same = same && op == b.Next();
        seed_differs = seed_differs || !(op == other_seed.Next());
        client_differs = client_differs || !(op == other_client.Next());
      }
      Expect(same, "one seed replays one operation sequence");
      // scan_snapshot's scanner alternates Sum and Count for every seed.
      const bool fixed = w == Workload::kScanSnapshot && role == Role::kMain;
      Expect(fixed || seed_differs, "another seed gives other operations");
      Expect(fixed || client_differs, "clients draw different operations");
    }
  }
  // The Zipf key map is a bijection and skewed: rank 0 is drawn most.
  const odebench::Zipf small(1000, 0.99);
  std::vector<int> seen(1000, 0), hits(1000, 0);
  for (uint64_t r = 0; r < 1000; r++) seen[small.KeyOfRank(r)]++;
  bool bijection = true;
  for (int s : seen) bijection = bijection && s == 1;
  Expect(bijection, "rank -> key is a bijection");
  ode::Random rng(1);
  for (int i = 0; i < 100000; i++) hits[small.NextRank(rng)]++;
  Expect(hits[0] > hits[1] && hits[1] > hits[100] && hits[0] > 10000,
         "Zipf(0.99) favours low ranks");
}

}  // namespace

int main() {
  TransferSum();
  ScanIdentity();
  ScanAnswerCheck();
  ReadAndProbe();
  Durability();
  Determinism();
  if (g_failures > 0) {
    fprintf(stderr, "odebench_selftest: %d failed\n", g_failures);
    return 1;
  }
  printf("odebench_selftest: all checks reject wrong answers; generator is "
         "deterministic\n");
  return 0;
}
