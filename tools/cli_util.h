// Command-line plumbing shared by oscar_sim, oscar_serve and
// oscar_trace: usage rejection, `--flag=value` splitting, strict number
// parsing, comma lists, wall-clock spans, and the `--trace-file`
// opener (`.otrace` = binary columnar, anything else CSV).

#ifndef OSCAR_TOOLS_CLI_UTIL_H_
#define OSCAR_TOOLS_CLI_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "trace/columnar_trace.h"
#include "trace/trace.h"

namespace oscar {

/// A CLI's name and usage text, the context of every rejection.
struct CliUsage {
  const char* program;
  void (*print)(std::ostream& out);
};

/// Flag-parse rejection: one diagnostic plus the usage text on stderr.
/// Returns 2, the CLIs' exit code for usage and infrastructure errors.
inline int RejectUsage(const CliUsage& usage, const std::string& message) {
  std::cerr << usage.program << ": " << message << "\n";
  usage.print(std::cerr);
  return 2;
}

/// `--flag=value` splitter: true when `arg` starts with `flag=`, with
/// the (possibly empty) rest in `value`. An empty value is the
/// caller's rejection path.
inline bool FlagValue(const std::string& arg, const std::string& flag,
                      std::string* value) {
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Whole-string unsigned decimal; no sign, no trailing characters.
inline bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

/// Whole-string floating-point number; no trailing characters.
inline bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

/// Splits on commas, dropping empty items (",," yields nothing).
inline std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// True when `path` ends in the binary columnar extension.
inline bool HasOtraceExtension(const std::string& path) {
  const std::string ext = ".otrace";
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

/// The `--trace-file` destination: the opened file plus the sink that
/// writes it.
class TraceFile {
 public:
  /// Opens `path` for writing. `format` is "csv", "otrace", or empty to
  /// decide by extension (`.otrace` = binary columnar, else CSV).
  Status Open(const std::string& path, const std::string& format) {
    const bool binary =
        format.empty() ? HasOtraceExtension(path) : format == "otrace";
    file_.open(path, binary ? std::ios::binary | std::ios::out
                            : std::ios::out);
    if (!file_) return Status::Error(StrCat("cannot open trace file: ", path));
    if (binary) {
      columnar_ = std::make_unique<ColumnarTraceWriter>(&file_);
    } else {
      csv_ = std::make_unique<CsvTraceSink>(&file_);
    }
    return Status::Ok();
  }

  /// The sink writing the file; nullptr until Open succeeds.
  TraceSink* sink() const {
    return columnar_ != nullptr ? static_cast<TraceSink*>(columnar_.get())
                                : csv_.get();
  }

  /// Finishes the trace: the columnar writer frames its end record, the
  /// CSV sink flushes. Either fails if any stream write failed.
  Status Close() {
    return columnar_ != nullptr ? columnar_->Close() : csv_->Flush();
  }

 private:
  std::ofstream file_;
  std::unique_ptr<ColumnarTraceWriter> columnar_;
  std::unique_ptr<CsvTraceSink> csv_;
};

}  // namespace oscar

#endif  // OSCAR_TOOLS_CLI_UTIL_H_
