#include <gtest/gtest.h>

#include "extract/extractor.hpp"
#include "power/clock_power.hpp"
#include "power/em.hpp"
#include "tech/units.hpp"
#include "test_util.hpp"

namespace sndr::power {
namespace {

using units::GHz;

class PowerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    flow_ = test::small_flow(48);
    assignment_.assign(flow_.nets.size(), flow_.tech.rules.blanket_index());
    const extract::Extractor ex(flow_.tech, flow_.design);
    parasitics_ = ex.extract_all(flow_.cts.tree, flow_.nets, assignment_);
  }

  PowerReport run() {
    return analyze_power(flow_.cts.tree, flow_.design, flow_.tech, flow_.nets,
                         parasitics_);
  }

  test::Flow flow_;
  std::vector<int> assignment_;
  std::vector<extract::NetParasitics> parasitics_;
};

TEST_F(PowerFixture, RollupIdentities) {
  const PowerReport rep = run();
  double sum_cap = 0.0;
  double sum_pow = 0.0;
  for (int i = 0; i < flow_.nets.size(); ++i) {
    sum_cap += rep.net_switched_cap[i];
    sum_pow += rep.net_power[i];
  }
  EXPECT_NEAR(sum_cap, rep.switched_cap, 1e-18);
  EXPECT_NEAR(sum_pow, rep.net_switching_power, 1e-9);
  EXPECT_NEAR(rep.total_power,
              rep.net_switching_power + rep.buffer_internal_power, 1e-12);
  // P = C V^2 f.
  const double vdd2 = flow_.tech.vdd * flow_.tech.vdd;
  EXPECT_NEAR(rep.net_switching_power,
              rep.switched_cap * vdd2 * flow_.design.constraints.clock_freq,
              1e-9);
}

TEST_F(PowerFixture, PinCapIncludesAllSinksAndBuffers) {
  const PowerReport rep = run();
  double expected = flow_.design.total_sink_cap();
  for (const auto& n : flow_.cts.tree.nodes()) {
    if (n.kind == netlist::NodeKind::kBuffer) {
      expected += flow_.tech.buffers[n.cell].input_cap;
    }
  }
  EXPECT_NEAR(rep.pin_cap, expected, 1e-18);
}

TEST_F(PowerFixture, BufferInternalPowerCountsEveryBuffer) {
  const PowerReport rep = run();
  double expected = 0.0;
  for (const auto& n : flow_.cts.tree.nodes()) {
    if (n.kind == netlist::NodeKind::kBuffer) {
      expected += flow_.tech.buffers[n.cell].internal_energy *
                  flow_.design.constraints.clock_freq;
    }
  }
  EXPECT_NEAR(rep.buffer_internal_power, expected, 1e-12);
}

TEST_F(PowerFixture, PowerScalesLinearlyWithFrequency) {
  const PowerReport at1 = run();
  flow_.design.constraints.clock_freq = 2 * GHz;
  const PowerReport at2 = run();
  EXPECT_NEAR(at2.total_power, 2.0 * at1.total_power, 1e-9);
}

TEST_F(PowerFixture, MismatchThrows) {
  parasitics_.pop_back();
  EXPECT_THROW(run(), std::invalid_argument);
}

TEST_F(PowerFixture, EmDensityScalesWithFrequency) {
  const auto& par = parasitics_[0];
  const auto& rule = flow_.tech.rules.blanket_rule();
  const double j1 = net_peak_current_density(par, flow_.tech, rule, 1 * GHz);
  const double j2 = net_peak_current_density(par, flow_.tech, rule, 2 * GHz);
  EXPECT_NEAR(j2, 2.0 * j1, 1e-12);
  EXPECT_GT(j1, 0.0);
}

TEST_F(PowerFixture, WiderRuleLowersDensity) {
  const extract::Extractor ex(flow_.tech, flow_.design);
  const auto& net = flow_.nets[0];
  const auto& def = flow_.tech.rules.default_rule();
  const auto& wide = flow_.tech.rules[flow_.tech.rules.find("3W3S")];
  const auto par_d = ex.extract_net(flow_.cts.tree, net, def);
  const auto par_w = ex.extract_net(flow_.cts.tree, net, wide);
  EXPECT_GT(net_peak_current_density(par_d, flow_.tech, def, 1 * GHz),
            net_peak_current_density(par_w, flow_.tech, wide, 1 * GHz));
}

TEST_F(PowerFixture, EmWorstIsNearDriver) {
  // The peak density piece carries (nearly) the whole net cap.
  const auto& par = parasitics_[0];
  extract::RcMoments moments;
  par.rc.moments(/*driver_res=*/0.0, flow_.tech.miller_power, moments);
  const std::vector<double>& down = moments.down;
  const double j = net_peak_current_density(
      flow_.tech.em_crest_factor <= 0 ? parasitics_[0] : par, flow_.tech,
      flow_.tech.rules.blanket_rule(), 1 * GHz);
  const double width = flow_.tech.clock_layer.min_width *
                       flow_.tech.rules.blanket_rule().width_mult;
  const double upper = flow_.tech.em_crest_factor * 1 * GHz *
                       flow_.tech.vdd * down[0] / width;
  EXPECT_LE(j, upper + 1e-12);
  EXPECT_GT(j, 0.7 * upper);
}

TEST_F(PowerFixture, EmReportStructure) {
  const EmReport rep = analyze_em(flow_.design, flow_.tech, flow_.nets,
                                  parasitics_, assignment_);
  ASSERT_EQ(rep.net_peak_density.size(),
            static_cast<std::size_t>(flow_.nets.size()));
  for (int i = 0; i < flow_.nets.size(); ++i) {
    EXPECT_NEAR(rep.net_slack[i],
                flow_.tech.clock_layer.em_jmax - rep.net_peak_density[i],
                1e-15);
  }
  EXPECT_GE(rep.worst_net, 0);
  EXPECT_DOUBLE_EQ(rep.net_peak_density[rep.worst_net], rep.worst_density);
  EXPECT_EQ(rep.violations(), 0);  // blanket at 1 GHz is EM-clean.
}

TEST_F(PowerFixture, EmViolationsAtExtremeFrequency) {
  flow_.design.constraints.clock_freq = 10 * GHz;
  const EmReport rep = analyze_em(flow_.design, flow_.tech, flow_.nets,
                                  parasitics_, assignment_);
  EXPECT_GT(rep.violations(), 0);
}

}  // namespace
}  // namespace sndr::power
