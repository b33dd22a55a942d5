// Crash-consistency harness (docs/STORAGE.md "Failure semantics").
//
// Strategy: build a base database once, then sweep a deterministic victim
// transaction, killing the engine at every injected fault point — the Nth
// mutating syscall (write/sync/truncate) since open, for N = 1, 2, 3, ...
// until the workload runs fault-free. After each kill the database is
// reopened with a clean environment, recovery runs, and the harness checks:
//
//   * structural invariants hold (VerifyDatabase: catalog, free list,
//     object tables, B+trees, page ownership);
//   * atomicity: the database matches either the pre-transaction model or
//     the post-transaction model, never a mixture (a sentinel object the
//     victim always updates tells the two apart);
//   * a commit that reported success is durable.
//
// The sweep is repeated with torn writes (a prefix of the payload reaches
// the file before the "crash"), which exercises the torn-tail path of
// recovery instead of the clean-missing-record path.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/ode.h"
#include "core/verify.h"
#include "test_models.h"
#include "test_util.h"
#include "util/env.h"
#include "util/random.h"

namespace ode {
namespace {

using odetest::Person;
using testing::TempDir;

constexpr uint64_t kVictimSeed = 0xC0FFEE;
constexpr int kBaseObjects = 48;
constexpr int kVictimOps = 220;
constexpr double kSentinelCommitted = 123456.0;

/// Expected head state of one object.
struct ObjState {
  std::string name;
  int age = 0;
  double income = 0;
  uint32_t vnum = 0;
};

/// Oid.Pack() -> expected state. Absence means the object must not exist.
using Model = std::map<uint64_t, ObjState>;

uint32_t VnumOf(Transaction& txn, const RefBase& ref) {
  Result<uint32_t> vnum = txn.CurrentVnum(ref);
  EXPECT_TRUE(vnum.ok()) << vnum.status().ToString();
  return vnum.ok() ? vnum.value() : 0;
}

/// Phase A: populate `path` with kBaseObjects persons and close cleanly
/// (checkpointed, WAL empty), recording the expected state in *model and
/// every oid ever allocated in *ever. *sentinel is an object the victim
/// transaction always updates and never deletes.
void BuildBase(const std::string& path, Model* model, std::set<uint64_t>* ever,
               Oid* sentinel) {
  std::unique_ptr<Database> db;
  ASSERT_OK(Database::Open(path, DatabaseOptions(), &db));
  ASSERT_OK(db->CreateCluster<Person>());
  Random rng(7);
  auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
  for (int i = 0; i < kBaseObjects; i++) {
    std::string name = rng.NextString(80);
    auto ref = ASSERT_OK_AND_UNWRAP(txn->New<Person>(name, 20 + i, 10.0 * i));
    (*model)[ref.oid().Pack()] =
        ObjState{name, 20 + i, 10.0 * i, VnumOf(*txn, ref)};
    ever->insert(ref.oid().Pack());
    if (i == 0) *sentinel = ref.oid();
  }
  ASSERT_OK(txn->Commit());
  ASSERT_OK(db->Close());
}

/// The victim transaction: a fixed-seed mix of pnew / update / pdelete /
/// newversion, then a sentinel update, then Commit. Applies every op to
/// *model as it goes, so on success *model is the expected database state.
/// Deterministic: given the same starting database, every sweep iteration
/// issues the identical op (and thus syscall) sequence.
Status RunVictim(Database* db, const Oid& sentinel, Model* model,
                 std::set<uint64_t>* ever) {
  Result<std::unique_ptr<Transaction>> begun = db->Begin();
  if (!begun.ok()) return begun.status();
  std::unique_ptr<Transaction> txn = begun.TakeValue();

  std::vector<Oid> live;
  for (const auto& [packed, state] : *model) live.push_back(Oid::Unpack(packed));

  Random rng(kVictimSeed);
  Status failed;
  auto fail = [&](const Status& s) {
    failed = s;
    return false;
  };
  for (int i = 0; i < kVictimOps; i++) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 55 || live.size() < 8) {
      // pnew: ~2.5 KiB payload so each object dirties its own data page(s)
      // and the commit has many distinct fault points.
      std::string name = rng.NextString(2200 + rng.Uniform(800));
      const int age = static_cast<int>(rng.Uniform(90));
      const double income = static_cast<double>(rng.Uniform(100000));
      Result<Ref<Person>> ref = txn->New<Person>(name, age, income);
      if (!ref.ok() && !fail(ref.status())) break;
      const Oid oid = ref.value().oid();
      (*model)[oid.Pack()] =
          ObjState{std::move(name), age, income, VnumOf(*txn, ref.value())};
      ever->insert(oid.Pack());
      live.push_back(oid);
    } else if (dice < 75) {
      // update (resizing the record exercises relocation).
      const Oid oid = live[rng.Uniform(live.size())];
      std::string name = rng.NextString(1500 + rng.Uniform(1500));
      const double income = static_cast<double>(rng.Uniform(1000000));
      Result<Person*> obj = txn->Write(Ref<Person>(db, oid));
      if (!obj.ok() && !fail(obj.status())) break;
      obj.value()->set_name(name);
      obj.value()->set_income(income);
      ObjState& state = (*model)[oid.Pack()];
      state.name = std::move(name);
      state.income = income;
    } else if (dice < 85) {
      // pdelete (never the sentinel).
      const size_t idx = rng.Uniform(live.size());
      const Oid oid = live[idx];
      if (oid == sentinel) continue;
      Status s = txn->Delete(Ref<Person>(db, oid));
      if (!s.ok() && !fail(s)) break;
      model->erase(oid.Pack());
      live.erase(live.begin() + idx);
    } else {
      // newversion.
      const Oid oid = live[rng.Uniform(live.size())];
      Result<uint32_t> vnum = txn->NewVersion(Ref<Person>(db, oid));
      if (!vnum.ok() && !fail(vnum.status())) break;
      (*model)[oid.Pack()].vnum = vnum.value();
    }
  }
  if (!failed.ok()) {
    (void)txn->Abort();
    return failed;
  }
  // Sentinel update: tells a recovered database which model to expect.
  Result<Person*> s = txn->Write(Ref<Person>(db, sentinel));
  if (!s.ok()) {
    (void)txn->Abort();
    return s.status();
  }
  s.value()->set_income(kSentinelCommitted);
  (*model)[sentinel.Pack()].income = kSentinelCommitted;
  return txn->Commit();
}

/// True when the sentinel carries the victim transaction's update.
bool SentinelCommitted(Database* db, const Oid& sentinel) {
  auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
  const Person* p = ASSERT_OK_AND_UNWRAP(txn->Read(Ref<Person>(db, sentinel)));
  const bool committed = p->income() == kSentinelCommitted;
  EXPECT_OK(txn->Abort());
  return committed;
}

/// Asserts the database holds exactly `model`: every modelled object exists
/// with the expected content and version number; every other oid ever
/// allocated does not exist.
void CheckMatchesModel(Database* db, const Model& model,
                       const std::set<uint64_t>& ever) {
  auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
  for (uint64_t packed : ever) {
    Ref<Person> ref(db, Oid::Unpack(packed));
    const bool exists = ASSERT_OK_AND_UNWRAP(txn->Exists(ref));
    auto it = model.find(packed);
    if (it == model.end()) {
      EXPECT_FALSE(exists) << "uncommitted or deleted object "
                           << Oid::Unpack(packed).ToString() << " resurfaced";
      continue;
    }
    ASSERT_TRUE(exists) << "committed object "
                        << Oid::Unpack(packed).ToString() << " lost";
    const Person* p = ASSERT_OK_AND_UNWRAP(txn->Read(ref));
    EXPECT_EQ(p->name(), it->second.name);
    EXPECT_EQ(p->age(), it->second.age);
    EXPECT_DOUBLE_EQ(p->income(), it->second.income);
    EXPECT_EQ(ASSERT_OK_AND_UNWRAP(txn->CurrentVnum(ref)), it->second.vnum);
  }
  ASSERT_OK(txn->Abort());
}

void CopyDatabase(const TempDir& dir, const std::string& from,
                  const std::string& to) {
  ASSERT_OK(env::CopyFile(dir.file(from), dir.file(to)));
  ASSERT_OK(env::CopyFile(dir.file(from + ".wal"), dir.file(to + ".wal")));
}

/// Sweeps fault points k = 1, 1+stride, 1+2*stride, ... until the victim
/// runs without the fault firing. Returns the number of fault points hit.
int RunSweep(bool torn, uint64_t stride) {
  TempDir dir;
  Model base_model;
  std::set<uint64_t> base_ever;
  Oid sentinel;
  BuildBase(dir.file("base.db"), &base_model, &base_ever, &sentinel);
  if (::testing::Test::HasFatalFailure()) return -1;

  int points = 0;
  for (uint64_t k = 1;; k += stride) {
    SCOPED_TRACE("fault point " + std::to_string(k) +
                 (torn ? " (torn)" : ""));
    CopyDatabase(dir, "base.db", "work.db");
    if (::testing::Test::HasFatalFailure()) return -1;

    FaultInjectionEnv fenv;
    fenv.FailNthMutatingOp(k, torn);
    DatabaseOptions injected;
    injected.engine.env = &fenv;
    std::unique_ptr<Database> db;
    Status open = Database::Open(dir.file("work.db"), injected, &db);
    EXPECT_OK(open);
    if (!open.ok()) return -1;

    Model model = base_model;
    std::set<uint64_t> ever = base_ever;
    Status commit = RunVictim(db.get(), sentinel, &model, &ever);
    const bool fired = fenv.fault_fired();
    db->SimulateCrash();
    db.reset();
    if (!fired) {
      // The fault point lies beyond the workload: the sweep is complete,
      // and this fault-free run must have committed cleanly.
      EXPECT_OK(commit);
      break;
    }
    points++;

    // Reopen with the real environment: recovery must make the database
    // structurally sound and exactly equal to one of the two models.
    std::unique_ptr<Database> recovered;
    Status reopen =
        Database::Open(dir.file("work.db"), DatabaseOptions(), &recovered);
    EXPECT_OK(reopen);
    if (!reopen.ok()) return -1;
    VerifyReport report;
    EXPECT_OK(VerifyDatabase(*recovered, &report));
    EXPECT_TRUE(report.ok()) << report.ToString();

    const bool committed = SentinelCommitted(recovered.get(), sentinel);
    if (::testing::Test::HasFatalFailure()) return -1;
    if (commit.ok()) {
      EXPECT_TRUE(committed) << "commit reported success but was lost";
    }
    const Model& expected = committed ? model : base_model;
    CheckMatchesModel(recovered.get(), expected, ever);
    if (::testing::Test::HasFatalFailure()) return -1;
    EXPECT_OK(recovered->Close());
  }
  return points;
}

TEST(CrashHarness, SweepEveryFaultPoint) {
  const int points = RunSweep(/*torn=*/false, /*stride=*/1);
  ASSERT_GE(points, 0);
  // The acceptance bar: the workload must expose a substantial number of
  // distinct kill sites (every WAL page-image append, the commit record,
  // the commit sync).
  EXPECT_GE(points, 100) << "victim workload dirties too few pages";
}

TEST(CrashHarness, SweepTornWrites) {
  // Same sweep with torn writes: a prefix of each failed write reaches the
  // file, so recovery sees half-written records instead of cleanly missing
  // ones. Strided to keep runtime down; the full-density sweep above
  // already covers every site.
  const int points = RunSweep(/*torn=*/true, /*stride=*/7);
  ASSERT_GE(points, 0);
  EXPECT_GE(points, 10);
}

// A commit that fails with a *transient* I/O error (device recovers
// immediately) must degrade to an abort and leave the database usable: the
// next transaction starts, commits, and persists.
TEST(CrashHarness, FailedCommitThenNextTransactionSucceeds) {
  TempDir dir;
  FaultInjectionEnv fenv;
  MetricsRegistry metrics;  // exact failure count below
  DatabaseOptions options;
  options.engine.env = &fenv;
  options.engine.metrics = &metrics;
  std::unique_ptr<Database> db;
  ASSERT_OK(Database::Open(dir.file("t.db"), options, &db));
  ASSERT_OK(db->CreateCluster<Person>());

  Oid first, second, third;
  {
    auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
    first = ASSERT_OK_AND_UNWRAP(txn->New<Person>("first", 1, 1.0)).oid();
    ASSERT_OK(txn->Commit());
  }
  {
    FaultInjectionEnv::FaultSpec spec;
    spec.kind = FaultInjectionEnv::OpKind::kWrite;
    spec.nth = 1;
    spec.transient = true;
    spec.path_substring = ".wal";
    fenv.ArmFault(spec);
    auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
    second = ASSERT_OK_AND_UNWRAP(txn->New<Person>("second", 2, 2.0)).oid();
    Status s = txn->Commit();
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(fenv.fault_fired());
  }
  EXPECT_EQ(metrics.GetCounter("storage.engine.commit_failures")->value(), 1u);
  {
    // The device is back up (transient fault): business as usual.
    auto txn = ASSERT_OK_AND_UNWRAP(db->Begin());
    third = ASSERT_OK_AND_UNWRAP(txn->New<Person>("third", 3, 3.0)).oid();
    ASSERT_OK(txn->Commit());
  }
  ASSERT_OK(db->Close());
  db.reset();

  std::unique_ptr<Database> reopened;
  ASSERT_OK(Database::Open(dir.file("t.db"), DatabaseOptions(), &reopened));
  VerifyReport report;
  ASSERT_OK(VerifyDatabase(*reopened, &report));
  EXPECT_TRUE(report.ok()) << report.ToString();
  auto txn = ASSERT_OK_AND_UNWRAP(reopened->Begin());
  EXPECT_TRUE(ASSERT_OK_AND_UNWRAP(txn->Exists(Ref<Person>(reopened.get(), first))));
  EXPECT_TRUE(ASSERT_OK_AND_UNWRAP(txn->Exists(Ref<Person>(reopened.get(), third))));
  // The rollback returned "second"'s object-table entry to the free list, so
  // the next allocation recycles the same oid — proof the aborted insert left
  // no trace.
  EXPECT_EQ(second.Pack(), third.Pack());
  const Person* p =
      ASSERT_OK_AND_UNWRAP(txn->Read(Ref<Person>(reopened.get(), third)));
  EXPECT_EQ(p->name(), "third");
  ASSERT_OK(txn->Abort());
  ASSERT_OK(reopened->Close());
}

}  // namespace
}  // namespace ode
