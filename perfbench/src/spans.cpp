#include "spans.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::open(const std::string& name, int job) {
  Span s;
  s.name = name;
  s.job = job;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].seconds();
  }
  // Children run sequentially inside their parent on one thread, so the
  // covered part of the parent is the sum of the children's durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.seconds();
  }
  return self;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::vector<double> self = self_seconds();
  os << std::setprecision(9) << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"job\": " << s.job << ", \"parent\": " << s.parent
       << ", \"start_s\": " << 1e-9 * static_cast<double>(s.start_ns)
       << ", \"end_s\": " << 1e-9 * static_cast<double>(s.end_ns)
       << ", \"self_s\": " << self[i] << "}"
       << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace perfbench
