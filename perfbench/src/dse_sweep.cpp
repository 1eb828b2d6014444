// dse_sweep: power x skew x guardband grid sweeps through
// serve::execute_job (the `sndr dse` path), one job per sweep, run
// sequentially over a rotation of designs.
//
// The skew axis holds a budget just above the design's blanket skew, where
// points repair (calibrated as for serve_mix's tight jobs), and the
// design's own budget; each point runs a short anneal so the power-weight
// axis changes the result.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

// Designs per run. A sweep's time depends on how often its warm-started
// tight points fall back to the blanket, which differs from design to
// design; rotating over several keeps one design from setting a run's
// median. Six 5k-sink designs cost about what three 10k ones did and
// halved the run-to-run spread.
constexpr int kDesigns = 6;
constexpr int kSinks = 5000;
// Candidate designs per seed. As for serve_mix's tight jobs, the rotation
// takes the seed's first designs on which a tight max_skew drives repair;
// 2 of 57 such 5k designs tried had none.
constexpr int kMaxCandidates = 16;
constexpr int kAnnealIterations = 3000;

/// One design of the rotation: its input, sweep config and results.
struct Slot {
  DesignInput in;
  flow::FlowConfig base;
  double tight_ps = 0.0;
  std::vector<double> latency;  ///< untraced sweep times.
  std::optional<std::uint64_t> digest;
  std::optional<sndr::dse::SweepResult> first;  ///< first untraced sweep.
  std::vector<sndr::obs::MetricsRegistry::Snapshot> traced_sweeps;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A sweep point and a standalone run of its emitted config agree bit for
/// bit: assignment, power and switched-cap words, sink arrivals.
bool reproduces(const sndr::dse::PointResult& p, const flow::FlowResult& r) {
  const sndr::ndr::FlowEvaluation& e = r.final_eval();
  if (r.final_assignment() == nullptr ||
      *r.final_assignment() != p.assignment ||
      !same_bits(e.power.total_power, p.total_power) ||
      !same_bits(e.power.switched_cap, p.switched_cap) ||
      e.timing.sink_arrival.size() != p.sink_arrival.size() ||
      r.feasible != p.feasible) {
    return false;
  }
  for (std::size_t i = 0; i < p.sink_arrival.size(); ++i) {
    if (!same_bits(e.timing.sink_arrival[i], p.sink_arrival[i])) return false;
  }
  return true;
}

/// Identity witness of a whole sweep: every point's settings, assignment
/// and signoff words, plus the front.
std::uint64_t sweep_digest(const sndr::dse::SweepResult& s) {
  Fnv f;
  for (const sndr::dse::PointResult& p : s.points) {
    f.bytes(p.assignment.data(), p.assignment.size() * sizeof(int));
    f.word(p.total_power);
    f.word(p.switched_cap);
    f.bytes(p.sink_arrival.data(), p.sink_arrival.size() * sizeof(double));
    f.bytes(&p.feasible, sizeof p.feasible);
  }
  f.bytes(s.front.data(), s.front.size() * sizeof(int));
  return f.h;
}

}  // namespace

void run_dse_sweep(const Options& opt, Ops& ops, Report& rep) {
  sndr::obs::set_metrics_enabled(false);
  sndr::obs::set_tracing_enabled(false);
  const int lanes = std::min(4, opt.nproc);

  // Input selection and calibration are not timed.
  std::vector<Slot> slots;
  int uncalibrated = 0;
  for (int c = 0; static_cast<int>(slots.size()) < kDesigns; ++c) {
    if (c == kMaxCandidates) {
      throw std::runtime_error("too few designs calibrate a tight max_skew");
    }
    const int d = static_cast<int>(slots.size());
    Slot s;
    const std::string path =
        opt.work_dir + "/design" + std::to_string(d) + ".txt";
    s.in = select_input(path, kSinks, opt.seed * kMaxCandidates + c);
    s.base.design_path = path;
    s.base.threads = lanes;
    s.base.anneal_iterations = kAnnealIterations;
    // No skew guard band, as for serve_mix's tight jobs, so tight points
    // overshoot in the greedy pass and repair.
    s.base.skew_margin = 0.0;
    flow::FlowConfig probe = s.base;
    probe.anneal_iterations = 0;
    const std::optional<double> tight = calibrate_tight_skew(probe, s.in);
    if (!tight) {
      ++uncalibrated;
      continue;
    }
    s.tight_ps = *tight;
    s.base.dse = true;
    s.base.dse_mode = "grid";
    s.base.dse_power_weight = {0.5, 2.0};
    s.base.dse_max_skew = {s.tight_ps, s.in.design_max_skew_ps};
    s.base.dse_uncertainty_margin = {0.03, 0.08};
    std::ostringstream os;
    os << "input " << d << ": " << s.in.sinks << " sinks, generator seed "
       << s.in.gen_seed << ", rejected candidates " << s.in.rejected
       << ", blanket skew " << s.in.blanket_skew_ps << " ps; skew axis "
       << s.tight_ps << ", " << s.in.design_max_skew_ps << " ps; lanes "
       << lanes;
    rep.line(os.str());
    slots.push_back(std::move(s));
  }
  rep.line("designs skipped for want of a repairing tight max_skew: " +
           std::to_string(uncalibrated));

  // Set-up: generate + write the designs, pool start. Takes one set-up
  // sample (traced runs: one set-up); returns the wall time spent, pool
  // teardown included.
  std::vector<double> setup_s;
  int setups = 0;
  double generate_s = 0.0;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    const auto [mean, n] = setup_sample(
        [&] {
          sndr::common::set_thread_count(1);  // tears the pool down.
          const Clock::time_point t0 = Clock::now();
          generate_s = 0.0;
          for (const Slot& s : slots) generate_s += write_input(s.in);
          sndr::common::set_thread_count(lanes);
          sndr::common::global_pool();
          return seconds_since(t0);
        },
        opt.trace);
    setup_s.push_back(mean);
    setups += n;
    return seconds_since(start);
  };
  set_up();

  int sweeps = 0;
  auto run_sweep = [&](Slot& slot, bool traced) {
    flow::FlowConfig c = slot.base;
    c.results_dir = opt.work_dir + "/sweep" + std::to_string(sweeps++);
    std::filesystem::remove_all(c.results_dir);
    const int op = ops.begin();
    sndr::obs::set_metrics_enabled(traced);
    sndr::obs::set_tracing_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    serve::JobOutcome out = serve::execute_job(c, nullptr);
    const double latency = seconds_since(t0);
    sndr::obs::set_metrics_enabled(false);
    sndr::obs::set_tracing_enabled(false);
    if (!ops.check(op, out.ok() && out.dse.has_value(),
                   "sweep failed: " + out.status.to_string())) {
      return latency;
    }
    const sndr::dse::SweepResult& s = *out.dse;
    ops.check(op, !s.front.empty(), "sweep has an empty Pareto front");
    ops.check(op, s.warm_started > 0, "no sweep point was warm-started");
    const std::uint64_t d = sweep_digest(s);
    if (!slot.digest) {
      slot.digest = d;
    } else {
      ops.check(op, d == *slot.digest, "repeated sweep changed its result");
    }
    if (traced) {
      slot.traced_sweeps.push_back(std::move(out.dse->metrics));
    } else if (!slot.first) {
      slot.first = std::move(out.dse);
    }
    return latency;
  };

  // Timed sweeps, in whole rotations over the designs so every design
  // weighs the same in a run's median however many sweeps fit; traced runs
  // follow each with a traced sweep, untraced runs with set-up samples
  // whose time is not part of the sweep window.
  std::vector<double> plain, traced;
  double gaps = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i % slots.size() != 0 || i == 0 ||
                          seconds_since(t0) - gaps < opt.seconds;
       ++i) {
    Slot& slot = slots[i % slots.size()];
    plain.push_back(run_sweep(slot, false));
    slot.latency.push_back(plain.back());
    if (opt.trace) {
      traced.push_back(run_sweep(slot, true));
    } else {
      gaps += set_up();
    }
  }
  const double window = seconds_since(t0) - gaps;

  // Outside the timed window: every front point of each design's first
  // sweep, and every tight-skew point of the first design's, rerun
  // standalone from its emitted config (that sweep's directory, so
  // warm-start seeds resolve), must reproduce the sweep.
  int commits = 0, repairs = 0, reruns = 0;
  double saving = 0.0;
  for (const Slot& slot : slots) {
    const bool rerun_tight = &slot == &slots.front();
    if (!slot.first) return;
    const sndr::dse::SweepResult& sweep = *slot.first;
    const std::set<int> front(sweep.front.begin(), sweep.front.end());
    double best_cap = 0.0;
    for (const sndr::dse::PointResult& p : sweep.points) {
      if (front.count(p.id) && (best_cap == 0.0 || p.switched_cap < best_cap)) {
        best_cap = p.switched_cap;
      }
      if (!front.count(p.id) &&
          !(rerun_tight && p.settings.max_skew_ps == slot.tight_ps)) {
        continue;
      }
      ++reruns;
      const int op = ops.begin();
      const serve::JobOutcome out = serve::execute_job(p.config, nullptr);
      const std::string what = "standalone point " + std::to_string(p.id);
      if (!ops.check(op, out.ok() && out.result && out.result->smart,
                     what + ": status " + out.status.to_string())) {
        continue;
      }
      const flow::FlowResult& r = *out.result;
      ops.check(op, reproduces(p, r), what + " does not reproduce the sweep");
      ops.check(op, r.blanket_eval.feasible(),
                what + ": blanket not feasible");
      ops.check(op,
                r.final_eval().power.switched_cap <=
                    r.blanket_eval.power.switched_cap,
                what + ": smart switched cap exceeds blanket");
      if (front.count(p.id)) {
        ops.check(op, r.feasible, what + ": front point is not feasible");
      }
      commits += r.smart->stats.commits;
      repairs += r.smart->stats.repair_upgrades;
    }
    saving += 100.0 * (slot.in.blanket_cap - best_cap) / slot.in.blanket_cap;
  }
  const int op = ops.begin();
  ops.check(op, commits > 0, "standalone sweep points made no commits");
  ops.check(op, repairs > 0, "tight-skew sweep points made no repairs");
  {
    std::ostringstream os;
    os << "sweeps: " << kDesigns << " designs x "
       << slots[0].first->points.size() << " points; " << reruns
       << " points rerun standalone; sweep samples " << plain.size();
    rep.line(os.str());
  }

  if (!opt.trace) {
    rep.set("setup_s", median(setup_s));
    rep.line(setup_line(setup_s, setups));
    rep.set("job_p50_s", median(plain));
    // Each design's own tail, then the median design: which of a seed's
    // designs sweeps slowest differs by up to a third from seed to seed,
    // and the slowest alone would set a pooled p95.
    std::vector<double> tails;
    for (const Slot& slot : slots) {
      tails.push_back(percentile(slot.latency, 0.95));
    }
    rep.set("job_p95_s", median(tails));
    rep.set("jobs_per_s", static_cast<double>(plain.size()) / window);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("power_saving_pct", saving / kDesigns);
    return;
  }

  rep.set("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0);
  rep.set("workload.generate_s", generate_s);
  double solved = 0.0, warm = 0.0, front = 0.0;
  double traced_n = 0.0, repair_sum = 0.0, transplants = 0.0;
  for (const Slot& slot : slots) {
    solved += slot.first->solved_points;
    warm += slot.first->warm_started;
    front += static_cast<double>(slot.first->front.size());
    for (const sndr::obs::MetricsRegistry::Snapshot& m : slot.traced_sweeps) {
      traced_n += 1.0;
      repair_sum += m.counter("optimizer.repair_upgrades");
      transplants += m.counter("ndr.exact_cache.transplants");
    }
  }
  rep.set("dse.point_s", median(plain) * kDesigns / std::max(1.0, solved));
  rep.set("dse.warm_start_share", warm / std::max(1.0, solved));
  rep.set("dse.front_size", front / kDesigns);

  // Layer numbers: the first design's cold anchor point, replayed stage by
  // stage.
  const sndr::dse::PointResult& anchor = slots[0].first->points.front();
  SpanRecorder rec;
  const int rop = ops.begin();
  ops.check(rop, anchor.warm_from < 0 && anchor.config.warm_start.empty(),
            "sweep anchor point is warm-started");
  sndr::obs::set_metrics_enabled(true);
  sndr::obs::set_tracing_enabled(true);
  const ReplayResult r = replay_job(anchor.config, lanes, rec, 1);
  sndr::obs::set_metrics_enabled(false);
  sndr::obs::set_tracing_enabled(false);
  ops.check(rop, reproduces(anchor, r.flow),
            "traced replay differs from the sweep's anchor point");
  LayerTotals layers;
  layers.add(r);
  layers.emit(rep.metrics);
  rec.write_json(opt.work_dir + "/spans.json");
  // Sweep-wide counts, per traced sweep, from the sweeps' own metrics.
  rep.set("ndr.repair_upgrades", repair_sum / std::max(1.0, traced_n));
  rep.set("ndr.exact_cache.transplants", transplants / std::max(1.0, traced_n));
}

}  // namespace perfbench
