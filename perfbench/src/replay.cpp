#include "replay.hpp"

#include <functional>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "cts/embedding.hpp"
#include "cts/refine.hpp"
#include "extract/net_geometry.hpp"
#include "io/design_io.hpp"
#include "ndr/annealer.hpp"
#include "ndr/corner_eval.hpp"
#include "ndr/optimizer.hpp"
#include "netlist/clock_nets.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "route/congestion_route.hpp"
#include "tech/technology.hpp"

namespace perfbench {

namespace sn = sndr;

double ReplayResult::lib_span(const std::string& stage,
                              const std::string& name) const {
  const auto s = stage_lib_spans.find(stage);
  if (s == stage_lib_spans.end()) return 0.0;
  const auto n = s->second.find(name);
  return n == s->second.end() ? 0.0 : n->second;
}

ReplayResult replay_job(const sn::flow::FlowConfig& config, int lanes,
                        SpanRecorder& rec, int job) {
  if (config.dse) throw std::invalid_argument("replay_job: DSE config");
  ReplayResult out;
  sn::obs::MetricsRegistry totals;

  // One stage: a benchmark span around the call, the library observing
  // into a private scope that is folded into the totals afterwards.
  auto stage = [&](const std::string& name, const std::function<void()>& fn) {
    sn::obs::ObsScope scope;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(rec, name, job);
      sn::obs::ScopeBinding bind(scope);
      fn();
    }
    out.stage_seconds[name] = seconds_since(t0);
    totals.accumulate(scope.metrics().snapshot());
    for (const auto& agg : scope.trace().aggregate()) {
      out.stage_lib_spans[name][agg.name] = agg.total_s;
    }
  };

  sn::common::set_thread_count(lanes);
  const int job_span = rec.open("job", job);

  sn::netlist::Design design;
  stage("io.load_design", [&] {
    sn::common::Result<sn::netlist::Design> d =
        sn::io::load_design_file(config.design_path);
    if (!d.ok()) throw std::runtime_error(d.status().to_string());
    design = std::move(d.value());
  });
  const sn::tech::Technology tech = sn::tech::Technology::make_default_45nm();

  sn::cts::CtsResult cts;
  stage("cts.synthesize", [&] { cts = sn::cts::synthesize(design, tech); });
  stage("route.reroute", [&] {
    sn::route::reroute_for_congestion(cts.tree, design.congestion);
  });
  stage("cts.refine_skew",
        [&] { sn::cts::refine_skew(cts.tree, design, tech); });
  sn::netlist::NetList nets;
  stage("netlist.build_nets",
        [&] { nets = sn::netlist::build_nets(cts.tree); });
  std::unique_ptr<sn::extract::GeometryCache> geometry;
  stage("extract.geometry_build", [&] {
    geometry = std::make_unique<sn::extract::GeometryCache>(
        cts.tree, design, nets, config.memory_budget_bytes,
        sn::extract::ExtractOptions{});
  });
  out.geometry_bytes = geometry->resident_bytes();
  if (config.max_skew_ps > 0.0) {
    design.constraints.max_skew = config.max_skew_ps * 1e-12;
  }

  sn::flow::FlowResult& r = out.flow;
  const sn::ndr::RuleAssignment blanket =
      sn::ndr::assign_all(nets, tech.rules.blanket_index());
  stage("ndr.evaluate_default", [&] {
    r.default_eval = sn::ndr::evaluate(cts.tree, design, tech, nets,
                                       sn::ndr::assign_all(nets, 0), {},
                                       geometry.get());
  });
  stage("ndr.evaluate", [&] {
    r.blanket_eval = sn::ndr::evaluate(cts.tree, design, tech, nets, blanket,
                                       {}, geometry.get());
  });
  stage("ndr.optimize", [&] {
    r.smart = sn::ndr::optimize_smart_ndr(cts.tree, design, tech, nets,
                                          config.optimizer_options());
  });
  if (config.smart && config.anneal_iterations > 0) {
    stage("ndr.anneal", [&] {
      r.anneal = sn::ndr::anneal_rules(cts.tree, design, tech, nets,
                                       r.smart->assignment,
                                       config.anneal_options());
    });
  }
  if (config.corners) {
    stage("ndr.corners", [&] {
      r.corners = sn::ndr::evaluate_corners(
          cts.tree, design, tech, nets, *r.final_assignment(),
          sn::tech::standard_corners(), {}, geometry.get());
    });
  }
  r.feasible = r.final_eval().feasible();
  rec.close(job_span);
  out.totals = totals.snapshot();

  // Pool speedup of one blanket evaluate, measured with tracing off so
  // the number describes the kernel, not the instrumentation.
  const bool metrics_on = sn::obs::metrics_enabled();
  const bool tracing_on = sn::obs::tracing_enabled();
  sn::obs::set_metrics_enabled(false);
  sn::obs::set_tracing_enabled(false);
  auto time_evaluate = [&](int n) {
    sn::common::set_thread_count(n);
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      sn::ndr::evaluate(cts.tree, design, tech, nets, blanket, {},
                        geometry.get());
      t.push_back(seconds_since(t0));
    }
    return median(t);
  };
  const double serial = time_evaluate(1);
  const double parallel = time_evaluate(lanes);
  out.evaluate_serial_s = serial;
  out.evaluate_parallel_s = parallel;
  sn::obs::set_metrics_enabled(metrics_on);
  sn::obs::set_tracing_enabled(tracing_on);
  return out;
}

void LayerTotals::add(const ReplayResult& r) {
  ++jobs_;
  auto add = [&](const std::string& name, double v) { sum_[name] += v; };
  auto stage_s = [&](const char* name) {
    const auto it = r.stage_seconds.find(name);
    return it == r.stage_seconds.end() ? 0.0 : it->second;
  };
  // Library counters, summed over every stage of the replay.
  for (const char* name :
       {"pool.chunks", "pool.chunks_on_workers", "pool.parallel_calls",
        "pool.grain_serial_calls", "extract.geometry.builds",
        "extract.nets_extracted", "extract.nets_materialized_from_cache",
        "ndr.evaluations", "extract.corner_batch.lanes",
        "extract.net_batch.lanes"}) {
    add(name, static_cast<double>(r.counter(name)));
  }
  // Benchmark spans around the layer calls.
  for (const char* name :
       {"io.load_design", "cts.synthesize", "route.reroute",
        "cts.refine_skew", "netlist.build_nets", "extract.geometry_build",
        "ndr.evaluate", "ndr.corners", "ndr.optimize", "ndr.anneal"}) {
    add(std::string(name) + "_s", stage_s(name));
  }
  add("evaluate_serial_s", r.evaluate_serial_s);
  add("evaluate_parallel_s", r.evaluate_parallel_s);
  add("geometry_bytes", static_cast<double>(r.geometry_bytes));

  // OptimizerStats::optimize_seconds covers the greedy sweeps only; the
  // whole optimizer call is the replay's span around it.
  const sn::ndr::OptimizerStats& st = r.flow.smart->stats;
  add("train_s", st.train_seconds);
  add("greedy_s", r.lib_span("ndr.optimize", "greedy_sweeps"));
  add("full_eval_s", r.lib_span("ndr.optimize", "evaluate"));
  add("commits", st.commits);
  add("candidates_scored", st.candidates_scored);
  add("full_evals", st.full_evals);
  add("exact_hits", static_cast<double>(st.exact_cache_hits));
  add("exact_misses", static_cast<double>(st.exact_cache_misses));
  add("repair_upgrades", st.repair_upgrades);
  if (r.flow.anneal) {
    const sn::ndr::AnnealResult& a = *r.flow.anneal;
    add("anneal_proposed", a.proposed);
    add("anneal_accepted", a.accepted);
    add("anneal_full_rebuilds", a.full_rebuilds);
    add("anneal_hits", static_cast<double>(a.exact_cache_hits));
    add("anneal_misses", static_cast<double>(a.exact_cache_misses));
  }
}

void LayerTotals::emit(std::map<std::string, double>& out) const {
  auto s = [&](const std::string& name) {
    const auto it = sum_.find(name);
    return it == sum_.end() ? 0.0 : it->second;
  };
  auto ratio = [&](const std::string& num, const std::string& den) {
    return s(den) > 0.0 ? s(num) / s(den) : 0.0;
  };
  const double n = jobs_ > 0 ? jobs_ : 1;
  auto mean = [&](const std::string& name) { return s(name) / n; };

  out["pool.evaluate_speedup"] =
      ratio("evaluate_serial_s", "evaluate_parallel_s");
  out["pool.worker_chunk_share"] =
      ratio("pool.chunks_on_workers", "pool.chunks");
  out["pool.parallel_calls"] = mean("pool.parallel_calls");
  out["pool.grain_serial_calls"] = mean("pool.grain_serial_calls");

  out["io.load_design_s"] = mean("io.load_design_s");
  out["cts.synthesize_s"] = mean("cts.synthesize_s");
  out["route.reroute_s"] = mean("route.reroute_s");
  out["cts.refine_skew_s"] = mean("cts.refine_skew_s");
  out["netlist.build_nets_s"] = mean("netlist.build_nets_s");

  out["extract.geometry_build_s"] = mean("extract.geometry_build_s");
  out["extract.geometry.builds"] = mean("extract.geometry.builds");
  out["extract.nets_extracted"] = mean("extract.nets_extracted");
  out["extract.cache_materialize_share"] =
      ratio("extract.nets_materialized_from_cache", "extract.nets_extracted");
  out["extract.geometry_bytes"] = mean("geometry_bytes");

  out["ndr.evaluate_s"] = mean("ndr.evaluate_s");
  out["ndr.evaluations"] = mean("ndr.evaluations");
  out["ndr.corners_s"] = mean("ndr.corners_s");
  out["extract.corner_batch.lanes"] = mean("extract.corner_batch.lanes");

  out["ndr.optimize_s"] = mean("ndr.optimize_s");
  out["ndr.train_s"] = mean("train_s");
  out["ndr.greedy_s"] = mean("greedy_s");
  out["ndr.full_eval_s"] = mean("full_eval_s");
  out["ndr.optimize_rest_s"] =
      (s("ndr.optimize_s") - s("train_s") - s("greedy_s")) / n;
  out["ndr.commits"] = mean("commits");
  out["ndr.candidates_scored"] = mean("candidates_scored");
  out["ndr.commit_share"] = ratio("commits", "candidates_scored");
  out["ndr.full_evals"] = mean("full_evals");
  out["ndr.exact_cache.hit_rate"] =
      s("exact_hits") / std::max(1.0, s("exact_hits") + s("exact_misses"));
  out["ndr.repair_upgrades"] = mean("repair_upgrades");

  out["ndr.anneal_s"] = mean("ndr.anneal_s");
  out["ndr.anneal.moves_per_s"] = ratio("anneal_proposed", "ndr.anneal_s");
  out["ndr.anneal.full_rebuilds"] = mean("anneal_full_rebuilds");
  out["ndr.anneal.acceptance_rate"] =
      ratio("anneal_accepted", "anneal_proposed");
  out["ndr.anneal.exact_cache.hit_rate"] =
      s("anneal_hits") / std::max(1.0, s("anneal_hits") + s("anneal_misses"));
  out["extract.net_batch.lanes"] = mean("extract.net_batch.lanes");
}

}  // namespace perfbench
