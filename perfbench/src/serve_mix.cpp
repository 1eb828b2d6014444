// serve_mix: many small jobs through serve::Server.
//
// A pool of seeded 500-4000-sink designs; most jobs run the `sndr run`
// defaults, a share runs a tight max_skew that drives the optimizer's
// repair path, a few run short anneals. Phase 1 drains a spool (every job
// submitted at t0); phase 2 replays an open-loop seeded Poisson arrival
// stream at a fixed rate, timing each job from its due time. Workers are
// nproc - 1, each job gets one pool lane, and the arrival generator runs
// on the main thread.
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

constexpr int kPoolSizes[] = {500, 1000, 1500, 2000, 3000, 4000};
constexpr int kDesignsPerSize = 2;
constexpr int kAnnealIterations = 2000;
constexpr int kTightConfigs = 3;
// Job deck, shuffled per phase: each plain config this many times, each
// tight config kTightRepeats, each anneal config kAnnealRepeats.
constexpr int kPlainRepeats = 7;
constexpr int kTightRepeats = 6;
constexpr int kAnnealRepeats = 3;
constexpr int kPhase1Decks = 2;
// Phase-2 arrival rate per worker (jobs/s). This deck drains at 17-25
// jobs/s per worker on a 4-CPU host, depending on host load, so the open
// loop runs at 12-18% of capacity. Queue waits and contention between
// concurrent jobs grow steeply with load and carried the host's speed
// swings into the latencies at higher rates; see README.md.
constexpr double kRatePerWorker = 3.0;
constexpr int kMinPhase2Jobs = 200;  // >= 10 samples beyond p95.

struct JobKind {
  bool tight = false;  ///< calibrated tight max_skew (repair path).
  int anneal = 0;
  flow::FlowConfig config;
};

/// Deterministic 64-bit generator for shuffles and arrival times.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return splitmix64(s++); }
  double uniform() {  // (0, 1]
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

std::vector<int> shuffled_deck(const std::vector<JobKind>& kinds, Rng& rng) {
  std::vector<int> deck;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const int n = kinds[k].tight    ? kTightRepeats
                  : kinds[k].anneal ? kAnnealRepeats
                                    : kPlainRepeats;
    deck.insert(deck.end(), n, static_cast<int>(k));
  }
  for (std::size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[rng.next() % i]);
  }
  return deck;
}

struct Inputs {
  std::vector<DesignInput> designs;
  std::vector<JobKind> kinds;
  int rejected = 0;
};

/// The design pool and the distinct job configs (not timed).
Inputs select_inputs(const Options& opt) {
  Inputs s;
  for (int size : kPoolSizes) {
    for (int j = 0; j < kDesignsPerSize; ++j) {
      const std::string path = opt.work_dir + "/d" + std::to_string(size) +
                               "_" + std::to_string(j) + ".txt";
      s.designs.push_back(
          select_input(path, size, opt.seed * kDesignsPerSize + j));
      s.rejected += s.designs.back().rejected;
    }
  }
  for (std::size_t d = 0; d < s.designs.size(); ++d) {
    JobKind k;
    k.config.design_path = s.designs[d].path;
    k.config.results_dir = opt.work_dir + "/results";
    k.config.threads = 1;
    s.kinds.push_back(k);
  }
  // Tight skew, with no skew guard band so the greedy pass overshoots and
  // repair runs, on the first kTightConfigs designs of >= 2000 sinks that
  // calibrate; short anneals on the first 1000- and 2000-sink designs.
  int tight = 0;
  for (int pass = 0; pass < kDesignsPerSize && tight < kTightConfigs; ++pass) {
    for (std::size_t d = pass; d < s.designs.size() && tight < kTightConfigs;
         d += kDesignsPerSize) {
      if (s.designs[d].sinks < 2000) continue;
      JobKind k = s.kinds[d];
      k.tight = true;
      k.config.skew_margin = 0.0;
      const std::optional<double> skew =
          calibrate_tight_skew(k.config, s.designs[d]);
      if (!skew) continue;
      k.config.max_skew_ps = *skew;
      s.kinds.push_back(k);
      ++tight;
    }
  }
  if (tight < kTightConfigs) {
    throw std::runtime_error("too few designs calibrate a tight max_skew");
  }
  for (std::size_t d = 0; d < s.designs.size(); d += kDesignsPerSize) {
    if (s.designs[d].sinks == 1000 || s.designs[d].sinks == 2000) {
      JobKind k = s.kinds[d];
      k.anneal = kAnnealIterations;
      k.config.anneal_iterations = kAnnealIterations;
      s.kinds.push_back(k);
    }
  }
  return s;
}

}  // namespace

void run_serve_mix(const Options& opt, Ops& ops, Report& rep) {
  sndr::obs::set_metrics_enabled(false);
  sndr::obs::set_tracing_enabled(false);
  const int workers = std::max(1, opt.nproc - 1);

  // Input selection and tight-skew calibration are not timed. Set-up is
  // writing the design pool, and cache and server start. Untraced runs
  // repeat it before phase 1, between the phases and after phase 2, while
  // no job runs; the workload keeps the first set-up's cache and server,
  // and drops the later ones untimed.
  const Inputs in = select_inputs(opt);
  std::vector<double> setup_s;
  double generate_s = 0.0;
  std::unique_ptr<serve::SharedCache> cache;
  std::unique_ptr<serve::Server> server;
  auto make_server = [&](serve::SharedCache* c) {
    serve::ServerOptions so;
    so.workers = workers;
    so.thread_budget = sndr::common::ThreadBudget(1);
    return std::make_unique<serve::Server>(so, c);
  };
  auto start_server = [&] {
    server.reset();
    server = make_server(cache.get());
  };
  // Takes one set-up sample (traced runs: one set-up).
  int setups = 0;
  auto set_up = [&] {
    const auto [mean, n] = setup_sample(
        [&] {
          const Clock::time_point t0 = Clock::now();
          generate_s = 0.0;
          for (const DesignInput& d : in.designs) generate_s += write_input(d);
          std::unique_ptr<serve::SharedCache> c =
              std::make_unique<serve::SharedCache>();
          std::unique_ptr<serve::Server> sv = make_server(c.get());
          const double took = seconds_since(t0);
          if (!cache) {
            cache = std::move(c);
            server = std::move(sv);
          }
          return took;
        },
        opt.trace);
    setup_s.push_back(mean);
    setups += n;
  };
  set_up();
  {
    std::ostringstream os;
    os << "inputs: " << in.designs.size() << " designs of 500-4000 sinks, "
       << in.kinds.size() << " distinct configs, rejected candidates "
       << in.rejected << "; workers " << workers << ", 1 lane per job";
    rep.line(os.str());
  }

  // Per distinct config: the first result's signature; every later job of
  // that config, and its serial reference, must match it.
  std::vector<std::optional<Signature>> first(in.kinds.size());
  double saving_sum = 0.0;
  int saving_n = 0;
  int rejected = 0;
  auto settle = [&](int kind, int op, const serve::JobOutcome& out) {
    const JobKind& k = in.kinds[kind];
    check_job(ops, op, out, "serve job " + k.config.design_path);
    if (!out.result || !out.result->smart) return;
    const flow::FlowResult& r = *out.result;
    if (k.tight) {
      ops.check(op, r.smart->stats.repair_upgrades > 0,
                "tight-skew job made no repair upgrades");
    }
    if (k.anneal > 0) {
      ops.check(op, r.anneal && r.anneal->proposed == k.anneal,
                "anneal proposals differ from the configured iterations");
    }
    const Signature sig = signature(r);
    if (!first[kind]) {
      first[kind] = sig;
    } else {
      ops.check(op, sig == *first[kind],
                "repeated serve job on one config changed its result");
    }
    saving_sum += saving_pct(r);
    ++saving_n;
  };
  auto submit = [&](int kind, int op) -> int {
    sndr::common::Result<int> id = server->submit(in.kinds[kind].config);
    if (id.ok()) return id.value();
    ++rejected;
    ops.fail(op, "admission rejected: " + id.status().to_string());
    return -1;
  };
  Rng rng{opt.seed * 0x2545F4914F6CDD1Dull + 7};

  // Phase 1: spool drain, every job submitted at t0.
  std::vector<int> deck;
  for (int d = 0; d < kPhase1Decks; ++d) {
    const std::vector<int> more = shuffled_deck(in.kinds, rng);
    deck.insert(deck.end(), more.begin(), more.end());
  }
  std::vector<std::pair<int, int>> spool;  // (op, server id)
  const Clock::time_point drain_t0 = Clock::now();
  for (int kind : deck) {
    const int op = ops.begin();
    spool.emplace_back(op, submit(kind, op));
  }
  double drain_s = 0.0;
  for (std::size_t i = 0; i < spool.size(); ++i) {
    if (spool[i].second < 0) continue;
    sndr::common::Result<serve::JobRecord> rec =
        server->wait(spool[i].second);
    drain_s = seconds_since(drain_t0);
    if (ops.check(spool[i].first, rec.ok(), "unknown serve job id")) {
      settle(deck[i], spool[i].first, rec->outcome);
    }
  }

  if (!opt.trace) set_up();

  // Phase 2: open loop at a fixed seeded-Poisson rate, on a fresh server
  // (same cache) so phase 1's retained records are released first.
  // Whole decks only, so every seed replays the same job mix and the
  // median does not slide between design sizes.
  const double rate = kRatePerWorker * workers;
  std::vector<int> kinds2;
  while (static_cast<int>(kinds2.size()) < kMinPhase2Jobs ||
         static_cast<double>(kinds2.size()) < 0.6 * rate * opt.seconds) {
    const std::vector<int> more = shuffled_deck(in.kinds, rng);
    kinds2.insert(kinds2.end(), more.begin(), more.end());
  }
  const int n2 = static_cast<int>(kinds2.size());
  std::vector<double> due(n2);
  double t = 0.0;
  for (int i = 0; i < n2; ++i) {
    t += -std::log(rng.uniform()) / rate;
    due[i] = t;
  }

  struct Phase2 {
    std::vector<double> latency, queue, run, lag;
  };
  auto open_loop = [&](bool traced) {
    start_server();
    sndr::obs::set_metrics_enabled(traced);
    sndr::obs::set_tracing_enabled(traced);
    Phase2 p;
    std::vector<std::pair<int, int>> jobs;  // (op, server id)
    std::vector<double> lag(n2);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < n2; ++i) {
      const Clock::time_point when =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i]));
      std::this_thread::sleep_until(when);
      lag[i] = std::chrono::duration<double>(Clock::now() - when).count();
      const int op = ops.begin();
      jobs.emplace_back(op, submit(kinds2[i], op));
    }
    for (int i = 0; i < n2; ++i) {
      if (jobs[i].second < 0) continue;
      sndr::common::Result<serve::JobRecord> rec =
          server->wait(jobs[i].second);
      if (!ops.check(jobs[i].first, rec.ok(), "unknown serve job id")) {
        continue;
      }
      // Submission follows the lag measurement immediately, so the job's
      // latency from its due time is lag + queue wait + run time.
      p.latency.push_back(lag[i] + rec->queue_seconds +
                          rec->outcome.wall_seconds);
      p.queue.push_back(rec->queue_seconds);
      p.run.push_back(rec->outcome.wall_seconds);
      p.lag.push_back(lag[i]);
      settle(kinds2[i], jobs[i].first, rec->outcome);
    }
    sndr::obs::set_metrics_enabled(false);
    sndr::obs::set_tracing_enabled(false);
    return p;
  };
  const Phase2 plain = open_loop(false);
  std::optional<Phase2> traced;
  if (opt.trace) traced = open_loop(true);
  server.reset();
  if (!opt.trace) set_up();

  // Outside the timed region: each distinct config once, serially and
  // without the shared cache, must reproduce the server's results.
  sndr::common::set_thread_count(1);
  for (std::size_t k = 0; k < in.kinds.size(); ++k) {
    const int op = ops.begin();
    const serve::JobOutcome out = serve::execute_job(in.kinds[k].config,
                                                     nullptr);
    check_job(ops, op, out,
              "serial reference " + in.kinds[k].config.design_path);
    ops.check(op,
              out.result && first[k] && signature(*out.result) == *first[k],
              "server result differs from a serial run of the same config");
  }
  if (!opt.trace) set_up();

  std::ostringstream os;
  os << "phase 1: " << deck.size() << " jobs drained in " << drain_s
     << " s; phase 2: " << n2 << " arrivals at " << rate
     << " jobs/s (p95 from " << plain.latency.size() << " samples)";
  rep.line(os.str());

  if (!opt.trace) {
    rep.set("setup_s", median(setup_s));
    rep.line(setup_line(setup_s, setups));
    rep.set("job_p50_s", median(plain.latency));
    rep.set("job_p95_s", percentile(plain.latency, 0.95));
    rep.set("jobs_per_s", static_cast<double>(deck.size()) / drain_s);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("power_saving_pct", saving_n > 0 ? saving_sum / saving_n : 0.0);
    return;
  }

  rep.set("obs.trace_overhead_frac",
          median(traced->latency) / median(plain.latency) - 1.0);
  rep.set("workload.generate_s", generate_s);
  rep.set("serve.queue_wait_p50_s", median(plain.queue));
  rep.set("serve.queue_wait_p95_s", percentile(plain.queue, 0.95));
  rep.set("serve.run_p50_s", median(plain.run));
  rep.set("serve.generator_lag_p95_s", percentile(plain.lag, 0.95));
  rep.set("serve.jobs_rejected", rejected);
  const serve::SharedCache::Stats cs = cache->stats();
  rep.set("serve.tech_hit_rate",
          sndr::obs::safe_ratio(cs.tech_hits, cs.tech_hits + cs.tech_misses));
  rep.set("serve.predictor_hit_rate",
          sndr::obs::safe_ratio(cs.predictor_hits,
                                cs.predictor_hits + cs.predictor_misses));

  // Layer numbers: the traced replay of every distinct config, averaged.
  SpanRecorder rec;
  LayerTotals layers;
  sndr::obs::set_metrics_enabled(true);
  sndr::obs::set_tracing_enabled(true);
  for (std::size_t k = 0; k < in.kinds.size(); ++k) {
    const int op = ops.begin();
    const ReplayResult r =
        replay_job(in.kinds[k].config, 1, rec, static_cast<int>(k) + 1);
    check_flow(ops, op, r.flow,
               "traced replay " + in.kinds[k].config.design_path);
    ops.check(op, first[k] && signature(r.flow) == *first[k],
              "traced replay differs from the untraced serve result");
    layers.add(r);
  }
  layers.emit(rep.metrics);
  sndr::obs::set_metrics_enabled(false);
  sndr::obs::set_tracing_enabled(false);
  rec.write_json(opt.work_dir + "/spans.json");
}

}  // namespace perfbench
