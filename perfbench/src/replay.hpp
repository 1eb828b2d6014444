// Traced replay of one flow job through the public layer functions.
//
// Runs the Flow stage sequence of a single job by hand — load, synthesize,
// reroute_for_congestion, refine_skew, build_nets, GeometryCache,
// evaluate, optimize_smart_ndr, anneal_rules, evaluate_corners — with a
// benchmark span around each call and a private obs scope per stage, so
// layer times and the library's own counters and spans are attributed to
// the stage that produced them. The result is a FlowResult assembled the
// way Flow::run assembles it, so the caller can check it bitwise against
// an untraced serve::execute_job of the same config.
#pragma once

#include <map>
#include <string>

#include "flow/config.hpp"
#include "flow/flow.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayResult {
  sndr::flow::FlowResult flow;
  /// Per stage span name: wall time of the call (s).
  std::map<std::string, double> stage_seconds;
  /// Per stage span name: the library's own span totals inside it (s).
  std::map<std::string, std::map<std::string, double>> stage_lib_spans;
  /// Every stage's metrics folded together.
  sndr::obs::MetricsRegistry::Snapshot totals;
  std::size_t geometry_bytes = 0;
  /// One blanket ndr::evaluate at 1 lane and at `lanes` lanes (medians of
  /// 3, tracing off).
  double evaluate_serial_s = 0.0;
  double evaluate_parallel_s = 0.0;

  std::int64_t counter(const std::string& name) const {
    return totals.counter(name);
  }
  double lib_span(const std::string& stage, const std::string& name) const;
};

/// Replays `config` (a single, non-DSE flow) with `lanes` evaluation lanes.
/// Spans go to `rec` under job id `job`.
ReplayResult replay_job(const sndr::flow::FlowConfig& config, int lanes,
                        SpanRecorder& rec, int job);

/// Per-layer metrics over one or more replays: times and counts are means
/// per replayed job, shares and rates are ratios of the summed parts.
class LayerTotals {
 public:
  void add(const ReplayResult& r);
  /// Writes every per-layer metric a replay measures into `out`.
  void emit(std::map<std::string, double>& out) const;

 private:
  std::map<std::string, double> sum_;
  int jobs_ = 0;
};

}  // namespace perfbench
