// odebench: runs one workload and prints its metrics (README.md).
//
//   odebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--data-dir <dir>] [--out-dir <dir>] [--source <text>]
//
// Prints a host stamp line, a detail line (sample counts, metric sources,
// failed checks), and last one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

#ifndef ODEBENCH_BUILD_TYPE
#define ODEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string QuoteList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    out += (out.size() > 1 ? ", " : "") + Quote(item);
  }
  return out + "]";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void Usage() {
  fprintf(stderr,
          "usage: odebench --workload oltp_zipf|scan_snapshot|"
          "durable_commit|wire_mix --seed N --seconds S --trace 0|1 "
          "[--data-dir DIR] [--out-dir DIR] [--source TEXT]\n");
}

}  // namespace

int main(int argc, char** argv) {
  odebench::RunConfig cfg;
  std::string workload, source = "unknown";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
      have_seconds = cfg.seconds > 0;
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--data-dir") {
      cfg.data_dir = value;
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !odebench::ParseWorkload(workload, &cfg.workload) ||
      !have_seed || !have_seconds || cfg.data_dir.empty()) {
    Usage();
    return 2;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  cfg.clients = std::clamp(nproc, 1, 8);

  struct utsname uts {};
  uname(&uts);
  printf("odebench-host {\"nproc\": %d, \"cpu\": %s, \"kernel\": %s, "
         "\"compiler\": %s, \"build_type\": %s, \"source\": %s}\n",
         nproc, Quote(CpuModel()).c_str(), Quote(uts.release).c_str(),
         Quote(std::string("g++ ") + __VERSION__).c_str(),
         Quote(ODEBENCH_BUILD_TYPE).c_str(), Quote(source).c_str());
  fflush(stdout);

  const odebench::RunReport rep = odebench::RunWorkload(cfg);

  std::string detail = "{\"workload\": " + Quote(workload) +
                       ", \"seed\": " + std::to_string(cfg.seed) +
                       ", \"trace\": " + (cfg.trace ? "1" : "0") +
                       ", \"clients\": " + std::to_string(cfg.clients) +
                       ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : rep.samples) {
    detail += (first ? "" : ", ") + Quote(name) + ": " + std::to_string(n);
    first = false;
  }
  detail += "}, \"sources\": {";
  first = true;
  for (const auto& [name, from] : rep.sources) {
    detail += (first ? "" : ", ") + Quote(name) + ": " + Quote(from);
    first = false;
  }
  detail += "}";
  if (rep.steal_pct >= 0) detail += ", \"steal_pct\": " + Number(rep.steal_pct);
  detail += ", \"errors\": " + QuoteList(rep.errors) +
            ", \"failures\": " + QuoteList(rep.failures) + "}";
  printf("odebench-detail %s\n", detail.c_str());

  // A run that attempted nothing measured nothing: report it as one failure.
  const bool empty = rep.attempted == 0;
  bool finite = true;
  std::string metrics;
  for (const odebench::Metric& m : rep.metrics) {
    finite = finite && std::isfinite(m.value);
    metrics += (metrics.empty() ? "" : ", ") + Quote(m.name) +
               ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + Quote(m.unit) + "}";
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         rep.correct && finite && !empty ? "true" : "false",
         static_cast<unsigned long long>(empty ? 1 : rep.attempted),
         static_cast<unsigned long long>(empty ? 1 : rep.failed),
         metrics.c_str());
  return 0;
}
