#ifndef ODEBENCH_WORKLOADS_H_
#define ODEBENCH_WORKLOADS_H_

// The four odebench workloads behind one entry point, RunWorkload: set the
// database up (several times, timing each), warm it up, time a steady
// window of closed-loop clients, check the outputs, and — in a traced run —
// record spans and climb the layer ladder. README.md describes each
// workload and every metric.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "generator.h"

namespace odebench {

struct RunConfig {
  Workload workload = Workload::kOltpZipf;
  uint64_t seed = 1;
  double seconds = 10;  ///< Length of the measured window.
  bool trace = false;   ///< Per-layer run (spans, registry ratios, ladder).
  std::string data_dir;  ///< Scratch directory for the databases.
  std::string out_dir;   ///< Where a traced run writes its spans.
  int clients = 4;       ///< n: parallel scan width, the ladder's
                         ///< many-thread rung, and durable_commit's (and
                         ///< at most wire_mix's) closed-loop sessions.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::vector<std::string> errors;  ///< Failed output checks.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Sample count behind each timing metric, and (traced runs) where a
  /// per-layer figure came from: "spans", "window" or "ladder".
  std::map<std::string, uint64_t> samples;
  std::map<std::string, std::string> sources;
  /// Share of the machine's CPU the hypervisor gave to other tenants
  /// during the window (end-to-end runs), or -1.
  double steal_pct = -1;

  /// Status of the first transactions that failed after every retry.
  std::vector<std::string> failures;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

RunReport RunWorkload(const RunConfig& config);

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 when empty. Reorders v.
double Percentile(std::vector<double>& v, double p);

}  // namespace odebench

#endif  // ODEBENCH_WORKLOADS_H_
