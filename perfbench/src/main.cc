// The benchmark binary:
//
//   perfbench --workload <serve-zipf|sim-churn-repair|sim-flash-traced>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Check failures go to stderr, one line each. The last line of stdout is
// one JSON object: correct, attempted, failed and the metrics (the
// end-to-end ones untraced, the per-layer ones traced). Exit 0 when the
// workload ran, 2 on bad arguments or when the program under test failed
// before anything was measured.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &number)) return Usage("bad --seed " + value);
      options.seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number == 0) {
        return Usage("bad --seconds " + value);
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return Usage("--workload is required");

  perfbench::RunResult result;
  std::string error;
  if (!perfbench::RunWorkload(options, &result, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  for (const std::string& line : result.errors) {
    std::cerr << "perfbench: CHECK FAILED: " << line << "\n";
  }
  std::string metrics;
  for (const perfbench::Metric& metric : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(metric.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
