// In-memory spans for the traced run. Each span records a name, a start
// and an end (seconds since the recorder was made, steady clock), its
// parent and a run id shared by every span of one workload run. Spans
// open and close in stack order on one thread; a disabled recorder (the
// untraced run) records nothing and costs one branch per span.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int64_t parent = kNoParent;
    uint64_t calls = 1;  // Calls into the layer the span covers.
  };

  SpanRecorder(bool enabled, std::string run_id);

  /// Opens a span under the innermost open one; returns its index, or
  /// kNoParent when disabled.
  int64_t Begin(const std::string& name, uint64_t calls = 1);
  /// Closes the span `Begin` returned; returns its duration in seconds.
  double End(int64_t index);

  /// Writes one JSON object per span, then one self-time line per name
  /// (duration minus the part its child spans cover).
  bool WriteJsonLines(const std::string& path) const;

 private:
  double Now() const;

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span: Begin on construction, End on destruction or on Close().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             uint64_t calls = 1)
      : recorder_(recorder), index_(recorder.Begin(name, calls)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Close() {
    recorder_.End(index_);
    index_ = SpanRecorder::kNoParent;
  }

 private:
  SpanRecorder& recorder_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
