// Tests for the ForAll iteration facility (paper §3): suchthat/by, cluster
// hierarchies, index access paths, joins, worklist semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "test_models.h"
#include "test_util.h"

namespace ode {
namespace {

using odetest::Faculty;
using odetest::Person;
using odetest::Student;
using odetest::TA;
using testing::TestDb;

class ForAllTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_->CreateCluster<Person>());
    ASSERT_OK(db_->CreateCluster<Student>());
    ASSERT_OK(db_->CreateCluster<Faculty>());
    ASSERT_OK(db_->CreateCluster<TA>());
    ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
      ODE_RETURN_IF_ERROR(txn.New<Person>("pam", 30, 3000).status());
      ODE_RETURN_IF_ERROR(txn.New<Person>("pete", 60, 6000).status());
      ODE_RETURN_IF_ERROR(txn.New<Student>("sam", 20, 500, 3.5).status());
      ODE_RETURN_IF_ERROR(txn.New<Student>("sue", 25, 700, 3.9).status());
      ODE_RETURN_IF_ERROR(txn.New<Faculty>("fred", 50, 9000, "cs").status());
      ODE_RETURN_IF_ERROR(txn.New<TA>("tina", 27, 800, 3.8, 1000).status());
      return Status::OK();
    }));
  }

  std::vector<std::string> Names(ForAll<Person> loop) {
    std::vector<std::string> names;
    Status s = loop.Each(
        [&](Ref<Person>, const Person& p) { names.push_back(p.name()); });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return names;
  }

  TestDb db_;
};

TEST_F(ForAllTest, PlainClusterScanIsExactExtent) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    // Only direct Person instances — derived objects live in their own
    // clusters (§2.5).
    auto names = Names(ForAll<Person>(txn));
    EXPECT_EQ(names, (std::vector<std::string>{"pam", "pete"}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, WithDerivedCoversHierarchy) {
  // The paper's `forall p in person*` (§3.1.1).
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto names = Names(ForAll<Person>(txn).WithDerived());
    EXPECT_EQ(names.size(), 6u);
    // Mid-hierarchy: student* covers students and TAs.
    std::vector<std::string> students;
    ODE_RETURN_IF_ERROR(ForAll<Student>(txn).WithDerived().Each(
        [&](Ref<Student>, const Student& s) { students.push_back(s.name()); }));
    EXPECT_EQ(students.size(), 3u);
    return Status::OK();
  }));
}

TEST_F(ForAllTest, AverageIncomeQueryFromPaper) {
  // §3.1.2: sum incomes over the person hierarchy, with per-kind breakdown
  // via the `is persistent` predicate.
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    double income_all = 0, income_students = 0;
    int n_all = 0, n_students = 0;
    ODE_RETURN_IF_ERROR(
        ForAll<Person>(txn).WithDerived().Do([&](Ref<Person> p) -> Status {
          ODE_ASSIGN_OR_RETURN(const Person* obj, txn.Read(p));
          income_all += obj->income();
          n_all++;
          ODE_ASSIGN_OR_RETURN(Ref<Student> as_student,
                               txn.RefCast<Student>(p));
          if (!as_student.null()) {
            income_students += obj->income();
            n_students++;
          }
          return Status::OK();
        }));
    EXPECT_EQ(n_all, 6);
    EXPECT_EQ(n_students, 3);  // sam, sue, tina
    EXPECT_DOUBLE_EQ(income_students, 500 + 700 + 800);
    EXPECT_DOUBLE_EQ(income_all, 3000 + 6000 + 500 + 700 + 9000 + 800);
    return Status::OK();
  }));
}

TEST_F(ForAllTest, SuchThatFilters) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto names = Names(ForAll<Person>(txn).WithDerived().SuchThat(
        [](const Person& p) { return p.age() >= 30; }));
    EXPECT_EQ(names.size(), 3u);  // pam, pete, fred
    // Conjunction of predicates.
    auto rich_old = Names(ForAll<Person>(txn)
                              .WithDerived()
                              .SuchThat([](const Person& p) {
                                return p.age() >= 30;
                              })
                              .SuchThat([](const Person& p) {
                                return p.income() > 5000;
                              }));
    EXPECT_EQ(rich_old.size(), 2u);  // pete, fred
    return Status::OK();
  }));
}

TEST_F(ForAllTest, ByOrdersAscendingAndDescending) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto by_age = Names(ForAll<Person>(txn).WithDerived().By<int>(
        [](const Person& p) { return p.age(); }));
    EXPECT_EQ(by_age, (std::vector<std::string>{"sam", "sue", "tina", "pam",
                                                "fred", "pete"}));
    auto by_age_desc = Names(ForAll<Person>(txn)
                                 .WithDerived()
                                 .By<int>([](const Person& p) {
                                   return p.age();
                                 })
                                 .Descending());
    EXPECT_EQ(by_age_desc,
              (std::vector<std::string>{"pete", "fred", "pam", "tina", "sue",
                                        "sam"}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, ByStringKey) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto names = Names(ForAll<Person>(txn).WithDerived().By<std::string>(
        [](const Person& p) { return p.name(); }));
    EXPECT_EQ(names, (std::vector<std::string>{"fred", "pam", "pete", "sam",
                                               "sue", "tina"}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, SuchThatWithByCombination) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto names = Names(ForAll<Person>(txn)
                           .WithDerived()
                           .SuchThat([](const Person& p) {
                             return p.income() < 2000;
                           })
                           .By<double>([](const Person& p) {
                             return p.income();
                           }));
    EXPECT_EQ(names, (std::vector<std::string>{"sam", "sue", "tina"}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, CountAndCollect) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto count = ForAll<Person>(txn).WithDerived().Count();
    ODE_RETURN_IF_ERROR(count.status());
    EXPECT_EQ(count.value(), 6u);
    auto refs = ForAll<Student>(txn).Collect();
    ODE_RETURN_IF_ERROR(refs.status());
    EXPECT_EQ(refs.value().size(), 2u);
    return Status::OK();
  }));
}

TEST_F(ForAllTest, ViaIndexAccessPath) {
  ASSERT_OK(db_->CreateIndex<Person>("age_idx", [](const Person& p) {
    return index_key::FromInt64(p.age());
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    auto names = Names(ForAll<Person>(txn).ViaIndexRange(
        "age_idx", index_key::FromInt64(25), index_key::FromInt64(100)));
    EXPECT_EQ(names, (std::vector<std::string>{"pam", "pete"}));
    auto exact = Names(ForAll<Person>(txn).ViaIndexExact(
        "age_idx", index_key::FromInt64(60)));
    EXPECT_EQ(exact, (std::vector<std::string>{"pete"}));
    // Index path composes with residual predicates.
    auto filtered = Names(ForAll<Person>(txn)
                              .ViaIndexRange("age_idx",
                                             index_key::FromInt64(0),
                                             std::string())
                              .SuchThat([](const Person& p) {
                                return p.income() > 4000;
                              }));
    EXPECT_EQ(filtered, (std::vector<std::string>{"pete"}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, ViaIndexWithOrdering) {
  ASSERT_OK(db_->CreateIndex<Person>("aidx", [](const Person& p) {
    return index_key::FromInt64(p.age());
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    // Index narrows to age >= 25; By re-orders by income descending.
    auto names = Names(ForAll<Person>(txn)
                           .ViaIndexRange("aidx", index_key::FromInt64(25),
                                          std::string())
                           .By<double>([](const Person& p) {
                             return p.income();
                           })
                           .Descending());
    EXPECT_EQ(names, (std::vector<std::string>{"pete", "pam"}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, JoinViaNestedLoops) {
  // §3: multi-variable forall — pairs (student, faculty) where the student
  // is younger than the faculty member.
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    int pairs = 0;
    ODE_RETURN_IF_ERROR(ForAll<Student>(txn).Do([&](Ref<Student> s) -> Status {
      return ForAll<Faculty>(txn).Do([&](Ref<Faculty> f) -> Status {
        ODE_ASSIGN_OR_RETURN(const Student* st, txn.Read(s));
        ODE_ASSIGN_OR_RETURN(const Faculty* fa, txn.Read(f));
        if (st->age() < fa->age()) pairs++;
        return Status::OK();
      });
    }));
    EXPECT_EQ(pairs, 2);  // sam-fred, sue-fred
    return Status::OK();
  }));
}

TEST_F(ForAllTest, WorklistVisitsObjectsCreatedDuringIteration) {
  // §3.2 for clusters: objects pnew'ed by the loop body are iterated too.
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    int visits = 0;
    ODE_RETURN_IF_ERROR(ForAll<Person>(txn).Do([&](Ref<Person> p) -> Status {
      ODE_ASSIGN_OR_RETURN(const Person* obj, txn.Read(p));
      visits++;
      if (obj->name() == "pam") {
        // Create one new person mid-iteration.
        ODE_RETURN_IF_ERROR(txn.New<Person>("newcomer", 1, 1).status());
      }
      return Status::OK();
    }));
    EXPECT_EQ(visits, 3);  // pam, pete, newcomer
    return Status::OK();
  }));
}

TEST_F(ForAllTest, FixpointGenerationQuery) {
  // Recursive query via the cluster worklist: generate successors until a
  // limit — the paper's least-fixpoint expressiveness (§3.2).
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_RETURN_IF_ERROR(txn.New<Person>("gen", 0, 0).status());
    int generated = 0;
    ODE_RETURN_IF_ERROR(
        ForAll<Person>(txn)
            .SuchThat([](const Person& p) { return p.name() == "gen" ||
                                                   p.age() < 4; })
            .Do([&](Ref<Person> p) -> Status {
              ODE_ASSIGN_OR_RETURN(const Person* obj, txn.Read(p));
              if (obj->name().rfind("g", 0) == 0 && obj->age() < 4) {
                generated++;
                return txn.New<Person>("g" + std::to_string(obj->age() + 1),
                                       obj->age() + 1, 0)
                    .status();
              }
              return Status::OK();
            }));
    EXPECT_EQ(generated, 4);  // gen(0) -> g1 -> g2 -> g3 -> g4(age 4 stops)
    return Status::OK();
  }));
}

TEST_F(ForAllTest, LockedScanVisitsInsertIntoFreedEntry) {
  // §3.2 when the body's objects reuse entries: pam's entry is freed, so a
  // Person created mid-scan lands below the scan's position in the extent
  // and must still be visited, once.
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    ODE_ASSIGN_OR_RETURN(
        std::vector<Ref<Person>> pam,
        ForAll<Person>(txn)
            .SuchThat([](const Person& p) { return p.name() == "pam"; })
            .Collect());
    return txn.Delete(pam.at(0));
  }));
  ASSERT_OK(db_->CollectVersionGarbage());
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    std::vector<std::string> seen;
    ODE_RETURN_IF_ERROR(ForAll<Person>(txn).Do([&](Ref<Person> p) -> Status {
      ODE_ASSIGN_OR_RETURN(const Person* obj, txn.Read(p));
      seen.push_back(obj->name());
      if (obj->name() != "pete") return Status::OK();
      ODE_RETURN_IF_ERROR(txn.New<Person>("newcomer", 1, 1).status());
      return txn.New<Person>("second", 2, 2).status();
    }));
    EXPECT_EQ(seen,
              (std::vector<std::string>{"pete", "newcomer", "second"}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, LockedScanVisitsEachInsertOnceAcrossMorsels) {
  // 602 Persons span two morsels (508 entries each). Deleting p3 and p550
  // and collecting the garbage frees their entries 5 and 552 plus entries
  // 602 and 603, which held their retained images; GC leaves the extent's
  // end at 604, so the morsels are [0, 508) and [508, 604). The body's five
  // Persons, created while the scan is in the first morsel, reuse all four
  // freed entries — one behind the scan, three in the morsel it has not
  // walked yet — and the fifth lands at 604, past the planned end. Each is
  // visited exactly once.
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    for (int i = 0; i < 600; i++) {
      ODE_RETURN_IF_ERROR(
          txn.New<Person>("p" + std::to_string(i), i, 0).status());
    }
    return Status::OK();
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    return ForAll<Person>(txn).Do([&](Ref<Person> p) -> Status {
      ODE_ASSIGN_OR_RETURN(const Person* obj, txn.Read(p));
      if (obj->name() == "p3" || obj->name() == "p550") return txn.Delete(p);
      return Status::OK();
    });
  }));
  ASSERT_OK(db_->CollectVersionGarbage());
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    std::map<std::string, int> visits;
    std::vector<LocalOid> created;
    ODE_RETURN_IF_ERROR(ForAll<Person>(txn).Do([&](Ref<Person> p) -> Status {
      ODE_ASSIGN_OR_RETURN(const Person* obj, txn.Read(p));
      visits[obj->name()]++;
      if (obj->name() != "p100") return Status::OK();
      for (int i = 0; i < 5; i++) {
        ODE_ASSIGN_OR_RETURN(
            Ref<Person> made,
            txn.New<Person>("new" + std::to_string(i), 0, 0));
        created.push_back(made.oid().local);
      }
      return Status::OK();
    }));
    std::sort(created.begin(), created.end());
    EXPECT_EQ(created, (std::vector<LocalOid>{5, 552, 602, 603, 604}));
    EXPECT_EQ(visits.size(), 605u);  // pam, pete, 598 survivors, 5 new
    for (const auto& [name, n] : visits) EXPECT_EQ(n, 1) << name;
    for (int i = 0; i < 5; i++) {
      EXPECT_EQ(visits.count("new" + std::to_string(i)), 1u) << i;
    }
    return Status::OK();
  }));
}

TEST_F(ForAllTest, LockedScanVisitsRecreatedEntryOnce) {
  // A body that deletes an object it created frees that entry at once, and
  // its next New reuses it: "a" and "b" share one oid, and so do "b" and
  // "c", which the body makes while visiting "b". The insert pass visits
  // each live object once and never the deleted "a".
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    std::map<std::string, int> visits;
    std::vector<LocalOid> created;
    auto recreate = [&](Ref<Person> gone, const std::string& name) -> Status {
      ODE_RETURN_IF_ERROR(txn.Delete(gone));
      ODE_ASSIGN_OR_RETURN(Ref<Person> made, txn.New<Person>(name, 0, 0));
      created.push_back(made.oid().local);
      return Status::OK();
    };
    ODE_RETURN_IF_ERROR(ForAll<Person>(txn).Do([&](Ref<Person> p) -> Status {
      ODE_ASSIGN_OR_RETURN(const Person* obj, txn.Read(p));
      const std::string name = obj->name();
      visits[name]++;
      if (name == "b") return recreate(p, "c");
      if (name != "pete") return Status::OK();
      ODE_ASSIGN_OR_RETURN(Ref<Person> a, txn.New<Person>("a", 0, 0));
      created.push_back(a.oid().local);
      return recreate(a, "b");
    }));
    EXPECT_EQ(created.size(), 3u);
    EXPECT_EQ(std::count(created.begin(), created.end(), created.at(0)), 3);
    EXPECT_EQ(visits, (std::map<std::string, int>{
                          {"b", 1}, {"c", 1}, {"pam", 1}, {"pete", 1}}));
    return Status::OK();
  }));
}

TEST_F(ForAllTest, DescribeReportsAccessPath) {
  ASSERT_OK(db_->CreateIndex<Person>("didx", [](const Person& p) {
    return index_key::FromInt64(p.age());
  }));
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    EXPECT_EQ(ForAll<Person>(txn).Describe(), "scan(odetest::Person)");
    EXPECT_EQ(ForAll<Person>(txn).WithDerived().Describe(),
              "scan(odetest::Person*)");
    EXPECT_EQ(ForAll<Person>(txn)
                  .SuchThat([](const Person&) { return true; })
                  .By<int>([](const Person& p) { return p.age(); })
                  .Descending()
                  .Describe(),
              "scan(odetest::Person) filter(x1) order-by(desc)");
    EXPECT_EQ(ForAll<Person>(txn)
                  .ViaIndexExact("didx", index_key::FromInt64(30))
                  .Describe(),
              "index-exact(didx)");
    EXPECT_EQ(ForAll<Person>(txn)
                  .ViaIndexRange("didx", "", "")
                  .SuchThat([](const Person&) { return true; })
                  .Describe(),
              "index-range(didx) filter(x1)");
    return Status::OK();
  }));
}

TEST_F(ForAllTest, MissingClusterReported) {
  TestDb empty;
  ASSERT_OK(empty->RunTransaction([&](Transaction& txn) -> Status {
    auto count = ForAll<Person>(txn).Count();
    EXPECT_TRUE(count.status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(ForAllTest, BodyErrorStopsIteration) {
  ASSERT_OK(db_->RunTransaction([&](Transaction& txn) -> Status {
    int visits = 0;
    Status s = ForAll<Person>(txn).WithDerived().Do([&](Ref<Person>) -> Status {
      visits++;
      if (visits == 2) return Status::IOError("stop");
      return Status::OK();
    });
    EXPECT_TRUE(s.IsIOError());
    EXPECT_EQ(visits, 2);
    return Status::OK();
  }));
}

}  // namespace
}  // namespace ode
