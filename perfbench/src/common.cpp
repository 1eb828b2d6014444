#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "flow/session.hpp"
#include "io/design_io.hpp"
#include "ndr/corner_eval.hpp"
#include "ndr/evaluation.hpp"
#include "workload/generator.hpp"

namespace perfbench {

int Ops::begin() { return attempted_++; }

void Ops::fail(int op, const std::string& why) {
  failed_.insert(op);
  std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

bool Ops::check(int op, bool ok, const std::string& why) {
  if (!ok) fail(op, why);
  return ok;
}

namespace {

sndr::workload::DesignSpec design_spec(int sinks, std::uint64_t gen_seed) {
  sndr::workload::DesignSpec spec;
  spec.name = "bench" + std::to_string(sinks);
  spec.num_sinks = sinks;
  spec.dist = sndr::workload::SinkDistribution::kMixed;
  spec.seed = gen_seed;
  return spec;
}

}  // namespace

DesignInput select_input(const std::string& path, int sinks,
                         std::uint64_t seed) {
  constexpr int kMaxCandidates = 8;
  DesignInput in;
  in.path = path;
  in.sinks = sinks;
  for (int j = 0; j < kMaxCandidates; ++j) {
    in.gen_seed =
        splitmix64(seed * 1000003ull + static_cast<unsigned>(sinks)) +
        static_cast<std::uint64_t>(j);
    write_input(in);

    // Check the file as a job will read it (the text format rounds).
    sndr::flow::FlowConfig config;
    config.design_path = path;
    sndr::flow::Session session(config);
    sndr::flow::Flow flow(session);
    const sndr::common::Status st = flow.prepare();
    if (!st.ok()) {
      throw std::runtime_error("prepare of " + path + ": " + st.to_string());
    }
    const sndr::ndr::FlowEvaluation blanket = sndr::ndr::evaluate(
        session.cts().tree, session.design(), session.technology(),
        session.nets(),
        sndr::ndr::assign_all(session.nets(),
                              session.technology().rules.blanket_index()),
        {}, session.geometry());
    if (blanket.feasible()) {
      in.design_max_skew_ps = session.design().constraints.max_skew * 1e12;
      in.blanket_skew_ps = blanket.timing.skew() * 1e12;
      in.blanket_cap = blanket.power.switched_cap;
      return in;
    }
    ++in.rejected;
  }
  throw std::runtime_error("no candidate design with a feasible blanket NDR "
                           "for " + path);
}

double write_input(const DesignInput& in) {
  const Clock::time_point t0 = Clock::now();
  sndr::io::write_design_file(
      in.path, sndr::workload::make_design(design_spec(in.sinks, in.gen_seed)));
  return seconds_since(t0);
}

Signature signature(const sndr::flow::FlowResult& r) {
  Signature s;
  if (const sndr::ndr::RuleAssignment* a = r.final_assignment()) {
    Fnv f;
    f.bytes(a->data(), a->size() * sizeof(int));
    s.assignment = f.h;
  }
  const sndr::ndr::FlowEvaluation& e = r.final_eval();
  Fnv f;
  f.word(e.power.switched_cap);
  f.word(e.power.total_power);
  for (double t : e.timing.sink_arrival) f.word(t);
  if (r.corners) {
    for (const sndr::ndr::CornerResult& c : r.corners->corners) {
      f.word(c.eval.power.switched_cap);
      f.word(c.eval.timing.skew());
    }
  }
  s.words = f.h;
  s.feasible = r.feasible;
  return s;
}

double saving_pct(const sndr::flow::FlowResult& r) {
  const double blanket = r.blanket_eval.power.switched_cap;
  return blanket > 0.0
             ? 100.0 * (blanket - r.final_eval().power.switched_cap) / blanket
             : 0.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  if (rank < 1.0) return v.front();
  return v[std::min(v.size(), static_cast<std::size_t>(rank)) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string setup_line(const std::vector<double>& setup_s, int setups) {
  std::ostringstream os;
  os << "set-up samples " << setup_s.size() << " (" << setups
     << " set-ups in all)";
  if (!setup_s.empty()) {
    os << ": min " << *std::min_element(setup_s.begin(), setup_s.end())
       << " s, median " << median(setup_s) << " s, max "
       << *std::max_element(setup_s.begin(), setup_s.end()) << " s";
  }
  return os.str();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::optional<double> calibrate_tight_skew(const flow::FlowConfig& base,
                                           const DesignInput& in) {
  std::optional<double> fallback;
  for (int step = 1; step <= 20; ++step) {
    flow::FlowConfig c = base;
    c.max_skew_ps = in.blanket_skew_ps * (1.0 + 0.02 * step);
    const serve::JobOutcome out = serve::execute_job(c, nullptr);
    if (!out.ok() || !out.result || !out.result->smart) continue;
    const flow::FlowResult& r = *out.result;
    if (r.smart->stats.repair_upgrades == 0 || !r.feasible ||
        !r.blanket_eval.feasible()) {
      continue;
    }
    if (saving_pct(r) > 0.0) return c.max_skew_ps;
    if (!fallback) fallback = c.max_skew_ps;
  }
  return fallback;
}

void check_job(Ops& ops, int op, const sndr::serve::JobOutcome& out,
               const std::string& what) {
  if (!ops.check(op, out.ok(), what + ": status " + out.status.to_string()) ||
      !ops.check(op, out.result.has_value(), what + ": no flow result")) {
    return;
  }
  check_flow(ops, op, *out.result, what);
}

void check_flow(Ops& ops, int op, const sndr::flow::FlowResult& r,
                const std::string& what) {
  if (!ops.check(op, r.smart.has_value(), what + ": no smart-NDR result")) {
    return;
  }
  ops.check(op, r.blanket_eval.feasible(),
            what + ": blanket NDR is not feasible");
  ops.check(op, r.smart->stats.commits > 0,
            what + ": optimizer made no commits");
  ops.check(op, r.final_eval().feasible(),
            what + ": final nominal assignment is not feasible");
  ops.check(op,
            r.final_eval().power.switched_cap <=
                r.blanket_eval.power.switched_cap,
            what + ": smart switched cap exceeds blanket");
}

}  // namespace perfbench
