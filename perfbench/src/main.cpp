// perfbench: the sndr benchmark of record.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// Runs one workload in this process and prints a human-readable report
// followed, as the last line of standard output, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics (library observability off); --trace 1 reports the
// per-layer metrics from a separate traced run. Exit status: 0 when every
// precondition and output check held, 1 when any failed, 2 on bad usage
// or an unusable build. See README.md in this directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/manifest.hpp"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace {

// Timings from a sanitizer, assert-enabled or unoptimized build describe
// the instrumentation, not the program, so they are never reported.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
constexpr const char* kBuildProblem = "sanitizer build";
#elif !defined(__OPTIMIZE__)
constexpr const char* kBuildProblem = "unoptimized build";
#elif !defined(NDEBUG)
constexpr const char* kBuildProblem = "assertions enabled (no NDEBUG)";
#else
constexpr const char* kBuildProblem = nullptr;
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

// The BENCHMARK.json `end_to_end` list, in order.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"job_p50_s", "s"},
    {"job_p95_s", "s"},        {"jobs_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},    {"power_saving_pct", "%"},
};

// The BENCHMARK.json `per_layer` list, in order. A metric a workload does
// not exercise reads 0.
const MetricDef kPerLayer[] = {
    {"pool.evaluate_speedup", "x"},
    {"pool.worker_chunk_share", "frac"},
    {"pool.parallel_calls", "count"},
    {"pool.grain_serial_calls", "count"},
    {"workload.generate_s", "s"},
    {"io.load_design_s", "s"},
    {"cts.synthesize_s", "s"},
    {"cts.refine_skew_s", "s"},
    {"route.reroute_s", "s"},
    {"netlist.build_nets_s", "s"},
    {"extract.geometry_build_s", "s"},
    {"extract.geometry.builds", "count"},
    {"extract.nets_extracted", "count"},
    {"extract.cache_materialize_share", "frac"},
    {"extract.geometry_bytes", "bytes"},
    {"ndr.evaluate_s", "s"},
    {"ndr.evaluations", "count"},
    {"ndr.corners_s", "s"},
    {"extract.corner_batch.lanes", "count"},
    {"ndr.optimize_s", "s"},
    {"ndr.train_s", "s"},
    {"ndr.greedy_s", "s"},
    {"ndr.full_eval_s", "s"},
    {"ndr.optimize_rest_s", "s"},
    {"ndr.commits", "count"},
    {"ndr.candidates_scored", "count"},
    {"ndr.commit_share", "frac"},
    {"ndr.full_evals", "count"},
    {"ndr.exact_cache.hit_rate", "frac"},
    {"ndr.repair_upgrades", "count"},
    {"ndr.anneal_s", "s"},
    {"ndr.anneal.moves_per_s", "1/s"},
    {"ndr.anneal.full_rebuilds", "count"},
    {"ndr.anneal.acceptance_rate", "frac"},
    {"ndr.anneal.exact_cache.hit_rate", "frac"},
    {"extract.net_batch.lanes", "count"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_p95_s", "s"},
    {"serve.run_p50_s", "s"},
    {"serve.tech_hit_rate", "frac"},
    {"serve.predictor_hit_rate", "frac"},
    {"serve.jobs_rejected", "count"},
    {"serve.generator_lag_p95_s", "s"},
    {"dse.point_s", "s"},
    {"dse.warm_start_share", "frac"},
    {"ndr.exact_cache.transplants", "count"},
    {"dse.front_size", "count"},
    {"obs.trace_overhead_frac", "frac"},
};

const char* const kWorkloads[] = {"single_large", "anneal_medium",
                                  "serve_mix", "dse_sweep"};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "single_large|anneal_medium|serve_mix|dse_sweep --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  return 2;
}

// JSON has no NaN or infinity; such a metric already failed the run.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (kBuildProblem != nullptr) {
    std::cerr << "perfbench: refusing to report from a "
              << kBuildProblem << "\n";
    return 2;
  }

  Options opt;
  bool have_workload = false, have_dir = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = v;
        have_dir = true;
      } else {
        return usage("unknown argument " + a);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric argument");
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!have_workload || !known) return usage("unknown workload");
  if (!have_dir) return usage("--work-dir is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  opt.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  Ops ops;
  Report rep;
  try {
    std::filesystem::remove_all(opt.work_dir);
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "serve_mix") {
      run_serve_mix(opt, ops, rep);
    } else if (opt.workload == "dse_sweep") {
      run_dse_sweep(opt, ops, rep);
    } else {
      run_single(opt, ops, rep);
    }
  } catch (const std::exception& e) {
    ops.fail(ops.begin(), std::string("workload aborted: ") + e.what());
  }

  // A metric that is not a finite number is a failed output check.
  for (const auto& [name, v] : rep.metrics) {
    if (!std::isfinite(v)) {
      ops.fail(ops.begin(), "metric " + name + " is not finite");
    }
  }

  // Human-readable report, then the result line.
  std::cout << "workload " << opt.workload << "  seed " << opt.seed
            << "  seconds " << opt.seconds << "  trace " << opt.trace << "\n"
            << "host: nproc " << opt.nproc << ", compiler " << __VERSION__
            << ", flags " << PERFBENCH_BUILD_FLAGS << ", git "
            << sndr::obs::git_describe() << "\n";
  for (const std::string& l : rep.lines) std::cout << l << "\n";
  const double failed_frac =
      ops.attempted() > 0
          ? static_cast<double>(ops.failed()) / ops.attempted()
          : 1.0;
  std::cout << "failed_frac " << failed_frac << " (" << ops.failed() << "/"
            << ops.attempted() << " operations)\n";

  std::string metrics;
  bool first = true;
  const std::span<const MetricDef> defs =
      opt.trace ? std::span<const MetricDef>(kPerLayer)
                : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& m : defs) {
    const auto it = rep.metrics.find(m.name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second;
    std::cout << "metric " << m.name << " = " << number(v) << " " << m.unit
              << "\n";
    metrics += std::string(first ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit +
               "\"}";
    first = false;
  }
  const bool correct = ops.failed() == 0 && ops.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max(1, ops.attempted())
            << ", \"failed\": " << ops.failed() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
