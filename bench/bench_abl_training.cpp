// Ablation C — training-set size for the learned models.
//
// Sweeps the number of nets labeled for model training. Expected shape:
// holdout rank correlation and end power are already good at modest sample
// counts (the feature space is low-dimensional and the physics smooth);
// labeling cost grows linearly. This is why the paper's approach is cheap:
// a few hundred exact labels buy model-quality candidate ordering.
#include "common.hpp"

int main() {
  using namespace sndr;
  using namespace sndr::bench;

  workload::DesignSpec spec = workload::paper_benchmarks()[3];  // ethmac.
  const Flow f = build_flow(spec);
  const auto blanket = eval_uniform(f, f.tech.rules.blanket_index());
  const timing::AnalysisOptions aopt;

  report::Table t({"train samples", "slew rho", "delay rho", "P (mW)",
                   "saving", "train (s)"});
  for (const int samples : {25, 50, 100, 200, 400, 800}) {
    ndr::OptimizerOptions opt;
    opt.scoring = ndr::Scoring::kModels;  // the learned-model ablation.
    opt.training_samples = samples;
    const ndr::SmartNdrResult smart =
        ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, opt);
    double slew_rho = 0.0;
    double delay_rho = 0.0;
    for (const auto& q : smart.train_report.quality) {
      slew_rho += q[0].rank_corr;
      delay_rho += q[3].rank_corr;
    }
    const double n =
        std::max<std::size_t>(1, smart.train_report.quality.size());
    t.add_row({std::to_string(samples), report::fmt(slew_rho / n, 3),
               report::fmt(delay_rho / n, 3),
               report::fmt(units::to_mW(smart.final_eval.power.total_power),
                           2),
               report::fmt_pct(smart.final_eval.power.total_power /
                                   blanket.power.total_power -
                               1.0),
               report::fmt(smart.stats.train_seconds, 3)});
  }
  finish(t, "Ablation C: model quality & savings vs training size "
            "(ethmac_like)",
         "abl_training.csv");
  return 0;
}
