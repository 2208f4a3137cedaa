// The benchmark's three workloads. Each grows its overlay several times
// (set-up), runs its timed phase in whole rounds until the run's
// seconds are spent, checks its outputs against independent
// computations, and reports either the end-to-end metrics (untraced) or
// the per-layer metrics (traced).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // Where the .otrace and span files go.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // Check rejections, one line each.
};

/// Runs one workload. Returns false (with `*error` set) when the
/// program under test returned an error before anything was measured.
bool RunWorkload(const RunOptions& options, RunResult* result,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
