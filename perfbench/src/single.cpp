// single_large and anneal_medium: the same `sndr run` job repeated
// sequentially through serve::execute_job (closed loop, one client, no
// SharedCache), in whole rotations over a few designs of one size.
#include <algorithm>
#include <sstream>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

struct SingleSpec {
  /// Designs per run. About 1 in 12 of the 50k-sink designs ends on the
  /// blanket assignment (the optimizer commits, then repair upgrades every
  /// net back), with no saving and a slower job, and the 8k-sink designs'
  /// anneal times differ by up to a fifth. Rotating over several designs
  /// and taking medians over them keeps one design from setting a run's
  /// numbers.
  int designs = 0;
  /// Timed jobs between set-up samples.
  int jobs_per_setup = 1;
  int sinks = 0;
  int lanes = 1;
  int anneal = 0;
  bool corners = false;
};

SingleSpec spec_for(const Options& opt) {
  SingleSpec s;
  if (opt.workload == "single_large") {
    s.designs = 3;
    s.sinks = 50000;
    s.lanes = std::min(4, opt.nproc);
    s.corners = true;
  } else {
    s.designs = 6;
    s.jobs_per_setup = 3;
    s.sinks = 8000;
    s.lanes = 1;
    s.anneal = 50000;
  }
  return s;
}

void set_obs(bool on) {
  sndr::obs::set_metrics_enabled(on);
  sndr::obs::set_tracing_enabled(on);
}

/// One design of the rotation: its input, job config and results.
struct Slot {
  DesignInput in;
  flow::FlowConfig config;
  std::optional<Signature> first;
  double saving = 0.0;
  std::vector<double> latency;  ///< untraced job times.
};

}  // namespace

void run_single(const Options& opt, Ops& ops, Report& rep) {
  const SingleSpec spec = spec_for(opt);
  set_obs(false);

  // Input selection is not timed. Set-up is what a user pays before the
  // first job: generating and writing the designs, and the pool start.
  std::vector<Slot> slots(spec.designs);
  for (int d = 0; d < spec.designs; ++d) {
    Slot& s = slots[d];
    const std::string path =
        opt.work_dir + "/design" + std::to_string(d) + ".txt";
    s.in = select_input(path, spec.sinks, opt.seed * spec.designs + d);
    s.config.design_path = path;
    s.config.results_dir = opt.work_dir + "/results";
    s.config.threads = spec.lanes;
    s.config.anneal_iterations = spec.anneal;
    s.config.corners = spec.corners;
    std::ostringstream os;
    os << "input " << d << ": " << s.in.sinks << " sinks, generator seed "
       << s.in.gen_seed << ", rejected candidates " << s.in.rejected
       << ", blanket skew " << s.in.blanket_skew_ps << " ps of "
       << s.in.design_max_skew_ps << " ps; lanes " << spec.lanes;
    rep.line(os.str());
  }
  std::vector<double> setup_s;
  int setups = 0;
  double generate_s = 0.0;
  // Takes one set-up sample; returns the wall time spent, pool teardown
  // included.
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    const auto [mean, n] = setup_sample(
        [&] {
          sndr::common::set_thread_count(1);  // tears the pool down.
          const Clock::time_point t0 = Clock::now();
          generate_s = 0.0;
          for (const Slot& s : slots) generate_s += write_input(s.in);
          sndr::common::set_thread_count(spec.lanes);
          sndr::common::global_pool();
          return seconds_since(t0);
        },
        opt.trace);
    setup_s.push_back(mean);
    setups += n;
    return seconds_since(start);
  };
  set_up();

  // One job; its preconditions, and identity with the design's first job.
  auto run_job = [&](Slot& slot, bool traced) {
    const int op = ops.begin();
    set_obs(traced);
    const Clock::time_point t0 = Clock::now();
    serve::JobOutcome out = serve::execute_job(slot.config, nullptr);
    const double latency = seconds_since(t0);
    set_obs(false);
    check_job(ops, op, out, opt.workload + " job");
    if (out.result) {
      if (spec.anneal > 0) {
        ops.check(op, out.result->anneal &&
                          out.result->anneal->proposed == spec.anneal,
                  "anneal proposals differ from the configured iterations");
      }
      const Signature sig = signature(*out.result);
      if (!slot.first) {
        slot.first = sig;
        slot.saving = saving_pct(*out.result);
      } else {
        ops.check(op, sig == *slot.first,
                  "repeated job on one input changed its result");
      }
    }
    return latency;
  };

  if (!opt.trace) {
    // Whole rotations, so every design weighs the same however many jobs
    // fit. Set-up samples between the timed jobs; their time is not part
    // of the job window.
    std::vector<double> latency;
    double gaps = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i % slots.size() != 0 || i == 0 ||
                            seconds_since(t0) - gaps < opt.seconds;
         ++i) {
      Slot& slot = slots[i % slots.size()];
      latency.push_back(run_job(slot, false));
      slot.latency.push_back(latency.back());
      if ((i + 1) % spec.jobs_per_setup == 0) gaps += set_up();
    }
    const double window = seconds_since(t0) - gaps;

    // Outside the timed window: one lane must give the multi-lane bits.
    if (spec.lanes > 1 && slots[0].first) {
      const int op = ops.begin();
      flow::FlowConfig serial = slots[0].config;
      serial.threads = 1;
      const serve::JobOutcome out = serve::execute_job(serial, nullptr);
      check_job(ops, op, out, "1-lane job");
      ops.check(op, out.result && signature(*out.result) == *slots[0].first,
                "1-lane result differs from the multi-lane result");
      set_up();  // one more sample, later in the run.
    }

    // The tail and the saving are medians over the designs: each design's
    // own p95, and each design's saving.
    std::vector<double> tails, savings;
    int fell_back = 0;
    for (const Slot& slot : slots) {
      tails.push_back(percentile(slot.latency, 0.95));
      savings.push_back(slot.saving);
      fell_back += slot.saving == 0.0;
    }
    rep.set("setup_s", median(setup_s));
    rep.line(setup_line(setup_s, setups));
    rep.set("job_p50_s", median(latency));
    rep.set("job_p95_s", median(tails));
    rep.set("jobs_per_s", static_cast<double>(latency.size()) / window);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("power_saving_pct", median(savings));
    std::ostringstream os;
    os << "job samples: " << latency.size() << " (s:";
    for (double l : latency) os << " " << l;
    os << "); designs ending on the blanket assignment: " << fell_back
       << " of " << spec.designs;
    rep.line(os.str());
    return;
  }

  // Traced run: alternate untraced and traced jobs over the rotation for
  // the overhead, then replay the first design's stage sequence with
  // spans.
  std::vector<double> plain, traced;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i % slots.size() != 0 || i == 0 ||
                          seconds_since(t0) < opt.seconds;
       ++i) {
    Slot& slot = slots[i % slots.size()];
    plain.push_back(run_job(slot, false));
    traced.push_back(run_job(slot, true));
  }
  rep.set("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0);
  rep.set("workload.generate_s", generate_s);

  SpanRecorder rec;
  const int op = ops.begin();
  set_obs(true);
  const ReplayResult replay = replay_job(slots[0].config, spec.lanes, rec, 1);
  set_obs(false);
  check_flow(ops, op, replay.flow, "traced replay");
  ops.check(op, slots[0].first && signature(replay.flow) == *slots[0].first,
            "traced replay differs from the untraced job");
  if (spec.anneal > 0) {
    ops.check(op, replay.flow.anneal &&
                      replay.flow.anneal->proposed == spec.anneal,
              "replay anneal proposals differ from the configured iterations");
  }
  LayerTotals layers;
  layers.add(replay);
  layers.emit(rep.metrics);
  rec.write_json(opt.work_dir + "/spans.json");
  rep.line("traced/untraced job samples: " + std::to_string(traced.size()) +
           "/" + std::to_string(plain.size()));
}

}  // namespace perfbench
