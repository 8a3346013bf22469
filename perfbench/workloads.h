#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Directory for the WAL file and the written-out span trace.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the JSON result line's fields.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Every workload the binary runs. BENCHMARK.json gates a subset; NOTES.md
/// says why the others are run by hand only.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: --trace 0 measures the end-to-end metrics, --trace 1
/// an untraced then a traced phase for the per-layer metrics.
Report RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
