#include "checks.h"

#include <cstdio>
#include <cstring>
#include <map>

namespace odebench {

std::string CheckTransferSum(uint64_t rows, int64_t total,
                             uint64_t expected_rows, int64_t expected_total) {
  if (rows == expected_rows && total == expected_total) return "";
  return "transfer-sum invariant violated: " + std::to_string(rows) +
         " accounts totalling " + std::to_string(total) + ", want " +
         std::to_string(expected_rows) + " totalling " +
         std::to_string(expected_total);
}

std::string CheckScanIdentity(const std::string& what, const ScanAnswer& serial,
                              const ScanAnswer& parallel) {
  // Bit identity, not ==: a reordered floating-point sum can differ in the
  // last place, and -0.0 == 0.0 would hide a sign change.
  if (std::memcmp(&serial.sum, &parallel.sum, sizeof(double)) == 0 &&
      serial.count == parallel.count) {
    return "";
  }
  char buf[160];
  snprintf(buf, sizeof(buf), "%s: sum %.17g count %llu, serial %.17g %llu",
           what.c_str(), parallel.sum,
           static_cast<unsigned long long>(parallel.count), serial.sum,
           static_cast<unsigned long long>(serial.count));
  return std::string("parallel scan differs from serial on one snapshot: ") +
         buf;
}

std::string CheckScanAnswer(const ScanAnswer& got, const ScanAnswer& want) {
  if (got.sum == want.sum && got.count == want.count) return "";
  char buf[160];
  snprintf(buf, sizeof(buf), "sum %.17g count %llu, want %.17g %llu", got.sum,
           static_cast<unsigned long long>(got.count), want.sum,
           static_cast<unsigned long long>(want.count));
  return std::string("snapshot scan returned a wrong answer: ") + buf;
}

std::string CheckReadIdentity(uint64_t want_id, uint64_t got_id) {
  if (want_id == got_id) return "";
  return "read returned object " + std::to_string(got_id) + ", want " +
         std::to_string(want_id);
}

std::string CheckIndexProbe(uint64_t key, const ode::Oid& want,
                            const std::vector<ode::Oid>& got) {
  if (got.size() == 1 && got[0] == want) return "";
  std::string found;
  for (const ode::Oid& oid : got) found += " " + oid.ToString();
  return "index probe for key " + std::to_string(key) + " returned [" +
         found + " ], want [ " + want.ToString() + " ]";
}

std::vector<AckedItem> MergeAcks(
    const std::vector<std::vector<AckedItem>>& per_client) {
  std::map<uint64_t, AckedItem> last;
  for (const auto& acks : per_client) {
    for (const AckedItem& a : acks) {
      auto [it, inserted] = last.emplace(a.oid.Pack(), a);
      if (!inserted && a.version > it->second.version) it->second = a;
    }
  }
  std::vector<AckedItem> out;
  out.reserve(last.size());
  for (const auto& [packed, a] : last) out.push_back(a);
  return out;
}

std::string CheckDurable(
    const std::vector<AckedItem>& acked,
    const std::function<RecoveredItem(const AckedItem&)>& lookup) {
  for (const AckedItem& a : acked) {
    const RecoveredItem r = lookup(a);
    std::string why;
    if (!r.found) {
      why = "is missing";
    } else if (r.id != a.id) {
      why = "holds item " + std::to_string(r.id);
    } else if (r.version < a.version) {
      why = "is at version " + std::to_string(r.version);
    } else if (r.version == a.version && r.key != a.key) {
      why = "has key " + std::to_string(r.key) + " at the acknowledged version";
    }
    if (!why.empty()) {
      return "acknowledged commit lost in recovery: object " +
             a.oid.ToString() + " (item " + std::to_string(a.id) +
             ", acknowledged version " + std::to_string(a.version) +
             ", key " + std::to_string(a.key) + ") " + why;
    }
  }
  return "";
}

}  // namespace odebench
