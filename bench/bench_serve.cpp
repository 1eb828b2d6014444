// Service soak — ~200 queued jobs of mixed sizes through serve::Server,
// every result asserted bitwise identical to the same config run serially
// through the CLI's execute_job path.
//
// Designs come from the scale and domain workload generators (small /
// medium / large single-clock trees plus one multi-domain tree), written
// to disk so each job exercises the full file-loading flow. Jobs cycle
// through the designs with a per-job seed; the server runs them with
// several workers over the shared cache (technology parsed once), so the
// soak covers concurrent submits, cache sharing, and admission accounting.
//
// The manifest (BENCH_manifest.serve.json) gets the gauges
// scripts/bench_check.sh gates:
//   bench.serve.serve_jobs_per_s   drain throughput over the whole queue
//   bench.serve.serve_p99_s        p99 submit->done latency
//   bench.serve.jobs               queue size (for rate context)
//   bench.serve.identical          1 when every job matched serial (gated)
//
// Job count: SNDR_SERVE_JOBS (default 200; tier-1 smoke uses a small
// count, the default is the committed soak).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "common.hpp"
#include "io/design_io.hpp"
#include "serve/server.hpp"
#include "workload/domains.hpp"
#include "workload/scale.hpp"

namespace {

using namespace sndr;
using Clock = std::chrono::steady_clock;

int job_count() {
  if (const char* env = std::getenv("SNDR_SERVE_JOBS");
      env != nullptr && env[0] != '\0') {
    return std::max(1, std::atoi(env));
  }
  return 200;
}

void set_gauge(const std::string& name, double value) {
  obs::MetricsRegistry::instance().set(
      obs::MetricsRegistry::instance().gauge(name), value);
}

/// True when the two runs of one config are the same bits: the settled
/// assignment and the exact final power/timing words.
bool identical(const serve::JobOutcome& a, const serve::JobOutcome& b) {
  if (!a.ok() || !b.ok()) return a.status.code() == b.status.code();
  const flow::FlowResult& ra = *a.result;
  const flow::FlowResult& rb = *b.result;
  return *ra.final_assignment() == *rb.final_assignment() &&
         ra.final_eval().power.total_power ==
             rb.final_eval().power.total_power &&
         ra.final_eval().power.switched_cap ==
             rb.final_eval().power.switched_cap &&
         ra.final_eval().timing.sink_arrival ==
             rb.final_eval().timing.sink_arrival &&
         ra.feasible == rb.feasible;
}

}  // namespace

int main() {
  using namespace sndr::bench;

  const tech::Technology tech = tech::Technology::make_default_45nm();

  // Mixed-size design pool: three scale rungs plus one multi-domain tree.
  std::vector<std::string> designs;
  for (const int nets : {25, 100, 400}) {
    workload::ScaleSpec spec;
    spec.name = "serve_s" + std::to_string(nets);
    spec.num_nets = nets;
    spec.seed = 11 + nets;
    const workload::ScaleWorkload w = workload::make_scale_workload(spec, tech);
    const std::string path = results_path(spec.name + ".txt");
    io::write_design_file(path, w.design);
    designs.push_back(path);
  }
  {
    workload::DomainSpec spec;
    spec.base.name = "serve_domains";
    spec.base.num_nets = 100;
    spec.base.seed = 23;
    const workload::DomainWorkload w =
        workload::make_domain_workload(spec, tech);
    const std::string path = results_path(spec.base.name + ".txt");
    io::write_design_file(path, w.design);
    designs.push_back(path);
  }

  // One config per job: cycle the designs, vary the seed.
  const int jobs = job_count();
  std::vector<flow::FlowConfig> configs;
  configs.reserve(jobs);
  for (int i = 0; i < jobs; ++i) {
    flow::FlowConfig c;
    c.design_path = designs[i % designs.size()];
    c.seed = 1000 + i;
    c.memory_budget_bytes = 32u << 20;  // declared for admission control.
    if (i % 7 == 0) c.anneal_iterations = 100;  // a slow-job sprinkle.
    configs.push_back(std::move(c));
  }

  // Serial reference: the CLI path (execute_job, no cache, no server).
  std::vector<serve::JobOutcome> serial;
  serial.reserve(jobs);
  auto t0 = Clock::now();
  for (const flow::FlowConfig& c : configs) {
    serial.push_back(serve::execute_job(c, nullptr));
  }
  const double serial_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Soak: queue everything, then drain.
  serve::ServerOptions options;
  options.workers = std::min(4, host_cpus() * 2);
  options.memory_budget_bytes = 256u << 20;
  serve::Server server(options);
  t0 = Clock::now();
  std::vector<int> ids;
  ids.reserve(jobs);
  for (const flow::FlowConfig& c : configs) {
    common::Result<int> id = server.submit(c);
    if (!id.ok()) {
      std::cerr << "bench_serve: submit rejected: "
                << id.status().to_string() << "\n";
      return 1;
    }
    ids.push_back(id.value());
  }
  const std::vector<serve::JobRecord> records = server.drain();
  const double serve_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  if (static_cast<int>(records.size()) != jobs) {
    std::cerr << "bench_serve: " << records.size() << " records for "
              << jobs << " jobs\n";
    return 1;
  }

  // Identity sweep + latency distribution (submit -> done).
  int mismatches = 0;
  std::vector<double> latency;
  latency.reserve(jobs);
  for (int i = 0; i < jobs; ++i) {
    const serve::JobRecord& r = records[i];
    if (r.id != ids[i]) {
      std::cerr << "bench_serve: record order mismatch at " << i << "\n";
      return 1;
    }
    if (!identical(serial[i], r.outcome)) ++mismatches;
    latency.push_back(r.queue_seconds + r.outcome.wall_seconds);
  }
  std::sort(latency.begin(), latency.end());
  const double p50 = latency[latency.size() / 2];
  const double p99 =
      latency[std::min(latency.size() - 1,
                       static_cast<std::size_t>(latency.size() * 99 / 100))];
  const double jobs_per_s = jobs / serve_s;

  const auto snap = server.metrics_snapshot();
  report::Table t({"metric", "value"});
  t.add_row({"jobs", std::to_string(jobs)});
  t.add_row({"workers", std::to_string(options.workers)});
  t.add_row({"serial (s)", report::fmt(serial_s, 2)});
  t.add_row({"serve (s)", report::fmt(serve_s, 2)});
  t.add_row({"jobs/s", report::fmt(jobs_per_s, 1)});
  t.add_row({"p50 latency (s)", report::fmt(p50, 4)});
  t.add_row({"p99 latency (s)", report::fmt(p99, 4)});
  t.add_row({"tech cache hits",
             std::to_string(server.cache().stats().tech_hits)});
  t.add_row({"completed",
             std::to_string(snap.counter("serve.jobs_completed"))});
  t.add_row({"identical to serial", mismatches == 0 ? "yes" : "NO"});
  finish(t, "Service soak: queued jobs vs serial CLI", "serve_soak.csv");

  set_gauge("bench.serve.jobs", jobs);
  set_gauge("bench.serve.serve_jobs_per_s", jobs_per_s);
  set_gauge("bench.serve.serve_p50_s", p50);
  set_gauge("bench.serve.serve_p99_s", p99);
  set_gauge("bench.serve.identical", mismatches == 0 ? 1.0 : 0.0);

  std::vector<RuntimeRecord> runtime;
  runtime.push_back({"serial", common::thread_count(), serial_s});
  runtime.push_back({"serve", common::thread_count(), serve_s});
  publish_runtime("serve", runtime);

  if (mismatches != 0) {
    std::cerr << "bench_serve: " << mismatches
              << " job(s) DIVERGED from the serial CLI run\n";
    return 1;
  }
  return 0;
}
