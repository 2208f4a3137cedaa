#include "spans.h"

#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name, uint64_t calls) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.calls = calls;
  span.start_s = Now();
  spans_.push_back(std::move(span));
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

double SpanRecorder::End(int64_t index) {
  if (!enabled_ || index < 0 ||
      static_cast<size_t>(index) >= spans_.size()) {
    return 0.0;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_s = Now();
  // Spans close in stack order; tolerate a missed inner close.
  while (!open_.empty()) {
    const int64_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
  return span.end_s - span.start_s;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_time[static_cast<size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  struct Self {
    double total_s = 0.0;
    double self_s = 0.0;
    uint64_t calls = 0;
    uint64_t spans = 0;
  };
  std::map<std::string, Self> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = span.end_s - span.start_s;
    std::fprintf(out,
                 "{\"run\": \"%s\", \"span\": %zu, \"parent\": %lld, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"calls\": %llu}\n",
                 run_id_.c_str(), i, static_cast<long long>(span.parent),
                 span.name.c_str(), span.start_s, span.end_s,
                 static_cast<unsigned long long>(span.calls));
    Self& self = by_name[span.name];
    self.total_s += duration;
    self.self_s += duration - child_time[i];
    self.calls += span.calls;
    ++self.spans;
  }
  for (const auto& [name, self] : by_name) {
    std::fprintf(out,
                 "{\"run\": \"%s\", \"summary\": \"%s\", \"spans\": %llu, "
                 "\"calls\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}\n",
                 run_id_.c_str(), name.c_str(),
                 static_cast<unsigned long long>(self.spans),
                 static_cast<unsigned long long>(self.calls), self.total_s,
                 self.self_s);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
