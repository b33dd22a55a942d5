// Tests for Transaction object semantics: pnew/read/write/pdelete (§2),
// read-your-writes, rollback, RefCast (§3.1.2).

#include <gtest/gtest.h>

#include <string>

#include "core/forall.h"
#include "test_models.h"
#include "test_util.h"
#include "util/env.h"

namespace ode {
namespace {

using odetest::Employee;
using odetest::Faculty;
using odetest::Person;
using odetest::Student;
using odetest::TA;
using testing::TestDb;

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_->CreateCluster<Person>());
    ASSERT_OK(db_->CreateCluster<Student>());
    ASSERT_OK(db_->CreateCluster<Faculty>());
    ASSERT_OK(db_->CreateCluster<TA>());
  }

  TestDb db_;
};

TEST_F(TransactionTest, NewReadRoundTrip) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("ann", 31, 800.0));
    // Visible within the same transaction (read-your-writes).
    ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(ref));
    EXPECT_EQ(p->name(), "ann");
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(ref));
    EXPECT_EQ(p->name(), "ann");
    EXPECT_EQ(p->age(), 31);
    EXPECT_EQ(p->income(), 800.0);
    return Status::OK();
  }));
}

TEST_F(TransactionTest, WritePersistsAtCommit) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("bob", 20, 100.0));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(Person * p, txn.Write(ref));
    p->set_age(21);
    ODE_ASSIGN_OR_RETURN(const Person* reread, txn.Read(ref));
    EXPECT_EQ(reread->age(), 21);  // same cached object
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(ref));
    EXPECT_EQ(p->age(), 21);
    return Status::OK();
  }));
}

TEST_F(TransactionTest, AbortDiscardsWrites) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("carol", 40, 500.0));
    return Status::OK();
  }));
  Status s = db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(Person * p, txn.Write(ref));
    p->set_age(99);
    return Status::IOError("deliberate");
  });
  EXPECT_TRUE(s.IsIOError());
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(ref));
    EXPECT_EQ(p->age(), 40);
    return Status::OK();
  }));
}

TEST_F(TransactionTest, DeleteHidesObjectImmediately) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("dan", 50, 100.0));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_RETURN_IF_ERROR(txn.Delete(ref));
    EXPECT_TRUE(txn.Read(ref).status().IsNotFound());
    ODE_ASSIGN_OR_RETURN(bool exists, txn.Exists(ref));
    EXPECT_FALSE(exists);
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    EXPECT_TRUE(txn.Read(ref).status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(TransactionTest, DeleteRollsBackOnAbort) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("eve", 28, 300.0));
    return Status::OK();
  }));
  Status s = db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_RETURN_IF_ERROR(txn.Delete(ref));
    return Status::IOError("changed my mind");
  });
  EXPECT_TRUE(s.IsIOError());
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(ref));
    EXPECT_EQ(p->name(), "eve");
    return Status::OK();
  }));
}

TEST_F(TransactionTest, NewThenDeleteInSameTxn) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(Ref<Person> p, txn.New<Person>("tmp", 1, 1.0));
    ODE_RETURN_IF_ERROR(txn.Delete(p));
    EXPECT_TRUE(txn.Read(p).status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(TransactionTest, DoubleDeleteFails) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("f", 2, 2.0));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_RETURN_IF_ERROR(txn.Delete(ref));
    EXPECT_TRUE(txn.Delete(ref).IsNotFound());
    return Status::OK();
  }));
}

TEST_F(TransactionTest, NullRefRejected) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    Ref<Person> null_ref;
    EXPECT_TRUE(txn.Read(null_ref).status().IsInvalidArgument());
    EXPECT_TRUE(txn.Write(null_ref).status().IsInvalidArgument());
    EXPECT_TRUE(txn.Delete(null_ref).IsInvalidArgument());
    return Status::OK();
  }));
}

TEST_F(TransactionTest, DanglingRefReadIsNotFound) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("gone", 3, 3.0));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction(
      [&](Transaction& txn) -> Status { return txn.Delete(ref); }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    EXPECT_TRUE(txn.Read(ref).status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(TransactionTest, RefCastImplementsIsPersistent) {
  Ref<Person> as_person;
  Ref<Student> student;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(student, txn.New<Student>("stu", 20, 50.0, 3.5));
    ODE_ASSIGN_OR_RETURN(Ref<Person> plain,
                         txn.New<Person>("plain", 30, 100.0));
    // Student object through a Person-typed ref.
    as_person = Ref<Person>(db_.db.get(), student.oid());

    // `s is persistent Student*` -> true for the student.
    ODE_ASSIGN_OR_RETURN(Ref<Student> down, txn.RefCast<Student>(as_person));
    EXPECT_FALSE(down.null());

    // ...and false for the plain person.
    ODE_ASSIGN_OR_RETURN(Ref<Student> not_student,
                         txn.RefCast<Student>(plain));
    EXPECT_TRUE(not_student.null());

    // Upcast always succeeds.
    ODE_ASSIGN_OR_RETURN(Ref<Person> up, txn.RefCast<Person>(student));
    EXPECT_FALSE(up.null());
    return Status::OK();
  }));
}

TEST_F(TransactionTest, ReadThroughBaseTypedRef) {
  Ref<Student> student;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(student, txn.New<Student>("amy", 22, 75.0, 3.9));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    Ref<Person> as_person(db_.db.get(), student.oid());
    ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(as_person));
    EXPECT_EQ(p->name(), "amy");  // upcast through the registry
    ODE_ASSIGN_OR_RETURN(std::string dyn, txn.DynamicTypeOf(as_person));
    EXPECT_EQ(dyn, "odetest::Student");
    return Status::OK();
  }));
}

TEST_F(TransactionTest, MultipleInheritanceUpcasts) {
  Ref<TA> ta;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ta, txn.New<TA>("ta", 24, 60.0, 3.2, 1200.0));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    // Read the same object through both base lineages; the MI pointer
    // adjustments must both land on valid subobjects.
    Ref<Person> as_person(db_.db.get(), ta.oid());
    ODE_ASSIGN_OR_RETURN(const Person* p, txn.Read(as_person));
    EXPECT_EQ(p->name(), "ta");
    Ref<Employee> as_employee(db_.db.get(), ta.oid());
    ODE_ASSIGN_OR_RETURN(const Employee* e, txn.Read(as_employee));
    EXPECT_EQ(e->salary(), 1200.0);
    return Status::OK();
  }));
}

TEST_F(TransactionTest, WrongTypeReadRejected) {
  Ref<Person> person;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(person, txn.New<Person>("p", 1, 1.0));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    // A Person object read through a Student-typed ref: downcast refused.
    Ref<Student> wrong(db_.db.get(), person.oid());
    EXPECT_TRUE(txn.Read(wrong).status().IsInvalidArgument());
    return Status::OK();
  }));
}

TEST_F(TransactionTest, RefDerefOperatorReads) {
  Ref<Person> ref;
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(ref, txn.New<Person>("deref", 33, 999.0));
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    (void)txn;
    EXPECT_EQ(ref->name(), "deref");  // O++ style persistent-pointer access
    EXPECT_EQ((*ref).age(), 33);
    return Status::OK();
  }));
}

TEST_F(TransactionTest, ClosedTransactionRejectsOperations) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_OK(txn.value()->Commit());
  EXPECT_TRUE(txn.value()->Commit().IsTransactionAborted());
  EXPECT_TRUE(txn.value()->Abort().IsTransactionAborted());
  EXPECT_TRUE(
      txn.value()->New<Person>("x", 1, 1.0).status().IsTransactionAborted());
}

TEST_F(TransactionTest, ScanSeesInTxnCreations) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(Ref<Person> a, txn.New<Person>("a", 1, 1.0));
    (void)a;
    ODE_ASSIGN_OR_RETURN(ClusterId cluster, db_->ClusterOf<Person>());
    std::vector<ObjectTable::Head> heads;
    ODE_ASSIGN_OR_RETURN(uint32_t end,
                         txn.ScanHeads(cluster, 0, kInvalidLocalOid, &heads));
    EXPECT_EQ(end, 1u);
    EXPECT_EQ(heads.size(), 1u);
    return Status::OK();
  }));
}

TEST_F(TransactionTest, BulkObjectsAcrossCommits) {
  for (int batch = 0; batch < 10; batch++) {
    ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
      for (int i = 0; i < 100; i++) {
        ODE_ASSIGN_OR_RETURN(
            Ref<Person> p,
            txn.New<Person>("p" + std::to_string(batch * 100 + i),
                            batch, 1.0 * i));
        (void)p;
      }
      return Status::OK();
    }));
  }
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto count = ForAll<Person>(txn).Count();
    ODE_RETURN_IF_ERROR(count.status());
    EXPECT_EQ(count.value(), 1000u);
    return Status::OK();
  }));
}

// Regression (static-analysis PR): a constraint violation at commit aborts
// the transaction, and the *violation* is what the caller must see (§5) —
// even when the rollback itself fails halfway. Commit used to propagate a
// failed Abort's status instead, so an I/O error reloading the dirty catalog
// masked the ConstraintViolation and RunTransaction callers never learned a
// constraint had failed.
TEST(TransactionFaultTest, ConstraintViolationSurvivesFailedRollback) {
  FaultInjectionEnv fenv;
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.env = &fenv;
  // A tiny pool, so the cluster scan below evicts the catalog pages and the
  // abort-path catalog reload must really read the (faulted) disk.
  options.engine.buffer_pool_pages = 8;
  TestDb db(options);
  ASSERT_OK(db.db->CreateCluster<Person>());
  db.db->RegisterConstraint<Person>(
      "age-nonneg", [](const Person& p) { return p.age() >= 0; });

  // Seed enough pages of objects that a full scan churns the 8-frame pool.
  const std::string padding(300, 'x');
  ASSERT_OK(db.db->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 400; i++) {
      ODE_ASSIGN_OR_RETURN(
          Ref<Person> p,
          txn.New<Person>(padding + std::to_string(i), i % 90, 1.0));
      (void)p;
    }
    return Status::OK();
  }));

  Status s = db.db->RunTransaction([&](Transaction& txn) -> Status {
    // Catalog mutation: the abort path must reload the catalog from disk.
    ODE_RETURN_IF_ERROR(txn.CreateCluster<Student>());
    // Churn the pool so the catalog pages are no longer resident.
    size_t seen = 0;
    ODE_RETURN_IF_ERROR(ForAll<Person>(txn).Each(
        [&](Ref<Person>, const Person&) { seen++; }));
    EXPECT_EQ(seen, 400u);
    // The violation the caller must end up seeing.
    ODE_ASSIGN_OR_RETURN(Ref<Person> bad, txn.New<Person>("bad", -5, 0.0));
    (void)bad;
    // From here on, the first read of the database file fails: commit's
    // constraint check is in-memory, so that read is the rollback's
    // catalog reload.
    FaultInjectionEnv::FaultSpec spec;
    spec.kind = FaultInjectionEnv::OpKind::kRead;
    spec.nth = 1;
    spec.transient = true;
    fenv.ArmFault(spec);
    return Status::OK();
  });
  EXPECT_TRUE(fenv.fault_fired())
      << "test vacuous: the rollback never hit the injected read fault";
  EXPECT_TRUE(s.IsConstraintViolation())
      << "rollback failure masked the constraint violation: " << s.ToString();
}

}  // namespace
}  // namespace ode
