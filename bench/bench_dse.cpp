// DSE sweep reuse vs N cold runs — the PR's two gated claims in one run:
//
//   1. Speedup: one dse::explore() sweep over an N-point grid must beat N
//      independent cold runs of the same configs by >= 3x (the reuse
//      stack: technology parsed once, one shared geometry cache, donated
//      front-end prep, memo transplant, warm starts).
//   2. Identity: every sweep point — and therefore every frontier point —
//      must be bitwise identical to its own emitted config run standalone
//      through serve::execute_job (the `sndr run` path, no cache, cold
//      session): same assignment, same power/cap/arrival words.
//
// The manifest (BENCH_manifest.dse.json) gets the gauges
// scripts/bench_check.sh gates:
//   bench.dse.dse_cold_s         sum of the N standalone runs
//   bench.dse.dse_reuse_s        the one sweep
//   bench.dse.dse_reuse_speedup  cold / reuse   (gated >= BENCH_MIN_DSE_SPEEDUP)
//   bench.dse.points             grid size (context for the speedup)
//   bench.dse.front_size         emitted Pareto front size
//   bench.dse.identical          1 when every point matched standalone (gated)
#include <chrono>
#include <filesystem>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "dse/explorer.hpp"
#include "io/design_io.hpp"
#include "serve/submit.hpp"

namespace {

using namespace sndr;
using Clock = std::chrono::steady_clock;

void set_gauge(const std::string& name, double value) {
  obs::MetricsRegistry::instance().set(
      obs::MetricsRegistry::instance().gauge(name), value);
}

/// Bitwise identity of a sweep point and its standalone rerun: the
/// settled assignment and the exact final power/timing words.
bool identical(const dse::PointResult& p, const serve::JobOutcome& solo) {
  if (!solo.ok() || !solo.result.has_value()) return false;
  const flow::FlowResult& r = *solo.result;
  return *r.final_assignment() == p.assignment &&
         r.final_eval().power.total_power == p.total_power &&
         r.final_eval().power.switched_cap == p.switched_cap &&
         r.final_eval().timing.sink_arrival == p.sink_arrival &&
         r.feasible == p.feasible;
}

}  // namespace

int main() {
  using namespace sndr::bench;

  // One mid-size design; a cold run's cost is the front end (load, CTS,
  // route, extraction) plus the exact-scored search, which is exactly
  // what the sweep's reuse amortizes.
  workload::DesignSpec spec;
  spec.name = "dse_bench";
  spec.num_sinks = 6000;
  spec.seed = 17;
  const std::string design_path = results_path(spec.name + ".txt");
  io::write_design_file(design_path, workload::make_design(spec));

  flow::FlowConfig base;
  base.design_path = design_path;
  base.results_dir = results_path("dse_bench_out");
  base.seed = 5;
  base.anneal_iterations = 0;  // greedy-only: the reuse channels cover it all.
  base.dse = true;
  base.dse_power_weight = {0.5, 0.75, 1.0, 1.5, 2.0};
  base.dse_uncertainty_margin = {0.02, 0.04, 0.06, 0.08, 0.10};

  // A fresh sweep every run: a leftover sweep.ck would turn the timed
  // sweep into a zero-work resume and fake the speedup.
  std::filesystem::remove_all(base.output_path(base.dse_out));

  auto t0 = Clock::now();
  const common::Result<dse::SweepResult> sweep = dse::explore(base);
  const double reuse_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (!sweep.ok()) {
    std::cerr << "bench_dse: sweep failed: " << sweep.status().to_string()
              << "\n";
    return 1;
  }
  const int points = static_cast<int>(sweep->points.size());

  // Cold reference: the N runs a user without DSE would do — each point's
  // settings standalone, from scratch. No warm-start seed (without the
  // sweep there is none to read) and its own results dir.
  t0 = Clock::now();
  for (const dse::PointResult& p : sweep->points) {
    flow::FlowConfig cold = p.config;
    cold.warm_start.clear();
    cold.results_dir = results_path("dse_bench_cold");
    const serve::JobOutcome solo = serve::execute_job(cold, nullptr);
    if (!solo.ok()) {
      std::cerr << "bench_dse: cold run of point " << p.id << " failed\n";
      return 1;
    }
  }
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Identity sweep (untimed): every point — not just the front — must be
  // bitwise identical to its own emitted config run standalone through
  // serve::execute_job (the `sndr run` path, warm-start seed and all).
  int mismatches = 0;
  for (const dse::PointResult& p : sweep->points) {
    const serve::JobOutcome solo = serve::execute_job(p.config, nullptr);
    if (!identical(p, solo)) {
      std::cerr << "bench_dse: point " << p.id
                << " DIVERGED from its standalone run\n";
      ++mismatches;
    }
  }
  const double speedup = reuse_s > 0.0 ? cold_s / reuse_s : 0.0;

  report::Table t({"metric", "value"});
  t.add_row({"grid points", std::to_string(points)});
  t.add_row({"warm-started", std::to_string(sweep->warm_started)});
  t.add_row({"front size", std::to_string(sweep->front.size())});
  t.add_row({"cold: N standalone runs (s)", report::fmt(cold_s, 2)});
  t.add_row({"reuse: one sweep (s)", report::fmt(reuse_s, 2)});
  t.add_row({"speedup", report::fmt(speedup, 2) + "x"});
  t.add_row({"exact-cache transplants",
             std::to_string(
                 sweep->metrics.counter("ndr.exact_cache.transplants"))});
  t.add_row({"identical to standalone", mismatches == 0 ? "yes" : "NO"});
  finish(t, "DSE sweep: cross-point reuse vs cold runs", "dse_reuse.csv");

  set_gauge("bench.dse.points", points);
  set_gauge("bench.dse.front_size", static_cast<double>(sweep->front.size()));
  set_gauge("bench.dse.dse_cold_s", cold_s);
  set_gauge("bench.dse.dse_reuse_s", reuse_s);
  set_gauge("bench.dse.dse_reuse_speedup", speedup);
  set_gauge("bench.dse.identical", mismatches == 0 ? 1.0 : 0.0);

  std::vector<RuntimeRecord> runtime;
  runtime.push_back({"cold", common::thread_count(), cold_s});
  runtime.push_back({"reuse", common::thread_count(), reuse_s});
  publish_runtime("dse", runtime);

  if (mismatches != 0) {
    std::cerr << "bench_dse: " << mismatches
              << " point(s) diverged from their standalone configs\n";
    return 1;
  }
  return 0;
}
