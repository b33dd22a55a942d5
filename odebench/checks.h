#ifndef ODEBENCH_CHECKS_H_
#define ODEBENCH_CHECKS_H_

// Output checks. Each takes what the program answered and what the
// benchmark knows the answer must be, and returns an empty string when they
// agree or a one-line description of the disagreement. The workloads call
// exactly these functions; selftest.cc feeds each one a wrong answer.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "objstore/object_id.h"

namespace odebench {

/// Transfer-sum invariant (oltp_zipf, wire_mix): transfers only move money,
/// so a scan of every account must find all of them and the opening total.
std::string CheckTransferSum(uint64_t rows, int64_t total,
                             uint64_t expected_rows, int64_t expected_total);

/// One scan's answer: an aggregate and a row count.
struct ScanAnswer {
  double sum = 0;
  uint64_t count = 0;
};

/// `Parallel(n)` must reproduce the serial scan bit for bit on the same
/// snapshot (scan_snapshot, outside the timed window).
std::string CheckScanIdentity(const std::string& what, const ScanAnswer& serial,
                              const ScanAnswer& parallel);

/// A scan inside the timed window: scan_snapshot's updater only moves
/// income between Persons and never changes an age, so every snapshot sums
/// to the opening total and counts the same filtered rows.
std::string CheckScanAnswer(const ScanAnswer& got, const ScanAnswer& want);

/// A point read returned the object that was asked for.
std::string CheckReadIdentity(uint64_t want_id, uint64_t got_id);

/// A snapshot index probe for the key the same snapshot just read from
/// object `want` must return that object and nothing else (durable_commit
/// keys are unique).
std::string CheckIndexProbe(uint64_t key, const ode::Oid& want,
                            const std::vector<ode::Oid>& got);

/// What a client was told about one Item: the commit that wrote `version`
/// (with `key`) was acknowledged. Inserts acknowledge version 0.
struct AckedItem {
  ode::Oid oid;
  uint64_t id = 0;
  uint64_t version = 0;
  uint64_t key = 0;
};

/// What the reopened database holds for one Item.
struct RecoveredItem {
  bool found = false;
  uint64_t id = 0;
  uint64_t version = 0;
  uint64_t key = 0;
};

/// Keeps, per object, the acknowledgement with the highest version (writes
/// to one object serialize under its exclusive lock, so versions order them).
std::vector<AckedItem> MergeAcks(
    const std::vector<std::vector<AckedItem>>& per_client);

/// Every acknowledged durable_commit commit is visible after
/// Database::SimulateCrash and reopen: each object exists with at least its
/// last acknowledged version, and with that version's key if nothing newer
/// (an unacknowledged commit) survived.
std::string CheckDurable(
    const std::vector<AckedItem>& acked,
    const std::function<RecoveredItem(const AckedItem&)>& lookup);

}  // namespace odebench

#endif  // ODEBENCH_CHECKS_H_
