// Benchmark-side span recorder for the traced run.
//
// Spans wrap the public calls the benchmark makes into each layer. Each
// records its name, start, end, parent span and job id; spans stay in
// memory and are written once, when the run ends. Single-threaded: the
// traced replay runs on the program's main thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the recorder's spans, -1 = root.
  int job = 0;

  double seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

class SpanRecorder {
 public:
  int open(const std::string& name, int job);
  void close(int id);

  /// Duration minus the time covered by direct children, per span.
  std::vector<double> self_seconds() const;
  /// Spans as JSON: one object per span, with its self time.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; nests under whatever span is open on the recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, int job)
      : rec_(rec), id_(rec.open(name, job)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
