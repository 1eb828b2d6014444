// Full clock-power optimization flow on a mid-size design, comparing all
// four rule-assignment strategies the paper discusses:
//
//   all-default  — every net at 1W1S (the power floor, but violates
//                  variation/slew/EM constraints),
//   blanket-NDR  — every net at 2W2S (industry default practice),
//   level-based  — wide rules on the top tree levels only (the common
//                  hand-tuned compromise),
//   smart-NDR    — the paper's per-net optimized assignment.
//
// Usage: power_opt_flow [sinks] [seed]
#include <cstdlib>
#include <iostream>

#include "cts/embedding.hpp"
#include "cts/refine.hpp"
#include "ndr/smart_ndr.hpp"
#include "report/table.hpp"
#include "route/congestion_route.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace sndr;
  using units::to_fF;
  using units::to_mW;
  using units::to_ps;

  workload::DesignSpec spec;
  spec.name = "power_opt_flow";
  spec.num_sinks = argc > 1 ? std::atoi(argv[1]) : 2048;
  spec.dist = workload::SinkDistribution::kMixed;
  spec.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 23;
  const netlist::Design design = workload::make_design(spec);
  const tech::Technology tech = tech::Technology::make_default_45nm();

  cts::CtsResult cts = cts::synthesize(design, tech);
  route::reroute_for_congestion(cts.tree, design.congestion);
  cts::refine_skew(cts.tree, design, tech);
  const netlist::NetList nets = netlist::build_nets(cts.tree);
  std::cout << "design: " << spec.num_sinks << " sinks, core "
            << units::to_mm(design.core.width()) << " mm, " << cts.buffers
            << " buffers, " << nets.size() << " nets, "
            << units::to_mm(cts.wirelength) << " mm clock wire\n\n";

  const int def = tech.rules.default_index();
  const int blk = tech.rules.blanket_index();

  report::Table t({"flow", "power (mW)", "wire cap (fF)", "sw cap (fF)",
                   "skew (ps)", "slew (ps)", "unc (ps)", "viol s/e/u",
                   "util", "feasible"});
  const auto row = [&](const std::string& name,
                       const ndr::FlowEvaluation& ev) {
    t.add_row({name, report::fmt(to_mW(ev.power.total_power), 3),
               report::fmt(to_fF(ev.power.wire_cap_gnd +
                                 ev.power.wire_cap_cpl), 0),
               report::fmt(to_fF(ev.power.switched_cap), 0),
               report::fmt(to_ps(ev.timing.skew()), 1),
               report::fmt(to_ps(ev.timing.max_slew), 1),
               report::fmt(to_ps(ev.variation.max_uncertainty), 1),
               std::to_string(ev.slew_violations) + "/" +
                   std::to_string(ev.em_violations) + "/" +
                   std::to_string(ev.uncertainty_violations),
               report::fmt(ev.max_track_util, 2),
               ev.feasible() ? "yes" : "NO"});
  };

  row("all-default",
      ndr::evaluate(cts.tree, design, tech, nets, ndr::assign_all(nets, def)));
  const auto blanket = ndr::evaluate(cts.tree, design, tech, nets,
                                     ndr::assign_all(nets, blk));
  row("blanket-NDR", blanket);
  row("level-2",
      ndr::evaluate(cts.tree, design, tech, nets,
                    ndr::assign_level_based(nets, 2, blk, def)));
  const ndr::SmartNdrResult smart =
      ndr::optimize_smart_ndr(cts.tree, design, tech, nets);
  row("smart-NDR", smart.final_eval);
  t.print(std::cout);

  std::cout << "\nsmart vs blanket: power "
            << report::fmt_pct(smart.final_eval.power.total_power /
                                   blanket.power.total_power -
                               1.0)
            << ", commits " << smart.stats.commits << ", passes "
            << smart.stats.passes << ", exact evals "
            << smart.stats.exact_net_evals << ", optimize "
            << report::fmt(smart.stats.optimize_seconds, 2) << "s\n";
  std::cout << "rule mix:";
  for (int r = 0; r < tech.rules.size(); ++r) {
    std::cout << ' ' << tech.rules[r].name << '='
              << smart.rule_histogram[r];
  }
  std::cout << '\n';
  return 0;
}
