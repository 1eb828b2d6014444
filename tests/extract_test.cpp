#include <gtest/gtest.h>

#include <cmath>

#include "extract/extractor.hpp"
#include "extract/rc_tree.hpp"
#include "tech/units.hpp"
#include "test_util.hpp"

namespace sndr::extract {
namespace {

using units::fF;
using units::ps;

RcMoments moments_of(const RcTree& rc, double driver_res, double miller) {
  RcMoments m;
  rc.moments(driver_res, miller, m);
  return m;
}

TEST(RcTree, StartsWithDriverNode) {
  const RcTree rc;
  EXPECT_EQ(rc.size(), 1);
  EXPECT_EQ(rc.node(0).parent, -1);
}

TEST(RcTree, AddNodeValidatesParent) {
  RcTree rc;
  EXPECT_THROW(rc.add_node(5, 1, 1, 0), std::logic_error);
  EXPECT_THROW(rc.add_node(-1, 1, 1, 0), std::logic_error);
  EXPECT_EQ(rc.add_node(0, 1, 1, 0), 1);
}

TEST(RcTree, TotalsAndDownstream) {
  RcTree rc;
  rc.node(0).cap_gnd = 1 * fF;
  const int a = rc.add_node(0, 100, 2 * fF, 1 * fF);
  const int b = rc.add_node(a, 100, 3 * fF, 0);
  const int c = rc.add_node(a, 100, 4 * fF, 2 * fF);
  EXPECT_DOUBLE_EQ(rc.total_cap_gnd(), 10 * fF);
  EXPECT_DOUBLE_EQ(rc.total_cap_cpl(), 3 * fF);
  const auto down = moments_of(rc, 0.0, 1.0).down;
  EXPECT_DOUBLE_EQ(down[0], 13 * fF);
  EXPECT_DOUBLE_EQ(down[a], 12 * fF);
  EXPECT_DOUBLE_EQ(down[b], 3 * fF);
  EXPECT_DOUBLE_EQ(down[c], 6 * fF);
  // Miller factor weights only coupling caps.
  const auto down2 = moments_of(rc, 0.0, 2.0).down;
  EXPECT_DOUBLE_EQ(down2[0], 16 * fF);
}

TEST(RcTree, ElmoreHandComputed) {
  // Driver (R=100) -> node a (R=50, C=10fF) -> node b (R=50, C=20fF).
  RcTree rc;
  const int a = rc.add_node(0, 50, 10 * fF, 0);
  const int b = rc.add_node(a, 50, 20 * fF, 0);
  const auto d = moments_of(rc, 100.0, 1.0).m1;
  EXPECT_DOUBLE_EQ(d[0], 100 * 30 * fF);
  EXPECT_DOUBLE_EQ(d[a], 100 * 30 * fF + 50 * 30 * fF);
  EXPECT_DOUBLE_EQ(d[b], 100 * 30 * fF + 50 * 30 * fF + 50 * 20 * fF);
}

TEST(RcTree, ElmoreBranchesSeeOnlyTheirSubtreeResistance) {
  // Y topology: two equal branches; delay at one leaf must not include the
  // other branch's resistance (only shared R times total C).
  RcTree rc;
  const int a = rc.add_node(0, 100, 0, 0);         // shared trunk.
  const int l = rc.add_node(a, 200, 10 * fF, 0);   // left leaf.
  const int r = rc.add_node(a, 300, 20 * fF, 0);   // right leaf.
  const auto d = moments_of(rc, 0.0, 1.0).m1;
  EXPECT_DOUBLE_EQ(d[l], 100 * 30 * fF + 200 * 10 * fF);
  EXPECT_DOUBLE_EQ(d[r], 100 * 30 * fF + 300 * 20 * fF);
}

TEST(RcTree, SecondMomentSinglePole) {
  // Lumped RC: driver R, single cap. m1 = tau, circuit m2 = tau^2.
  RcTree rc;
  const int a = rc.add_node(0, 0.0, 100 * fF, 0);
  const double tau = 500.0 * 100 * fF;
  EXPECT_DOUBLE_EQ(moments_of(rc, 500.0, 1.0).m1[a], tau);
  EXPECT_NEAR(moments_of(rc, 500.0, 1.0).m2[a], tau * tau, 1e-30);
}

class ExtractFixture : public ::testing::Test {
 protected:
  test::Flow flow_ = test::small_flow(32);
  Extractor extractor_{flow_.tech, flow_.design};
};

TEST_F(ExtractFixture, WirelengthMatchesTree) {
  const auto& nets = flow_.nets;
  double total = 0.0;
  for (const auto& net : nets.nets) {
    const NetParasitics par = extractor_.extract_net(
        flow_.cts.tree, net, flow_.tech.rules.blanket_rule());
    EXPECT_NEAR(par.wirelength, netlist::net_wirelength(flow_.cts.tree, net),
                1e-6);
    total += par.wirelength;
  }
  EXPECT_NEAR(total, flow_.cts.tree.total_wirelength(), 1e-6);
}

TEST_F(ExtractFixture, CapScalesWithRule) {
  const auto& net = flow_.nets[flow_.nets.size() - 1];
  const NetParasitics def = extractor_.extract_net(
      flow_.cts.tree, net, flow_.tech.rules.default_rule());
  const NetParasitics wide = extractor_.extract_net(
      flow_.cts.tree, net, flow_.tech.rules[tech::RuleSet::standard().find(
                               "2W1S")]);
  const NetParasitics spaced = extractor_.extract_net(
      flow_.cts.tree, net, flow_.tech.rules[tech::RuleSet::standard().find(
                               "1W2S")]);
  EXPECT_GT(wide.wire_cap_gnd, def.wire_cap_gnd);
  EXPECT_DOUBLE_EQ(spaced.wire_cap_gnd, def.wire_cap_gnd);
  EXPECT_LT(spaced.wire_cap_cpl, def.wire_cap_cpl);
  EXPECT_DOUBLE_EQ(wide.load_cap, def.load_cap);  // pins unaffected.
}

TEST_F(ExtractFixture, LoadsArePlacedAndCapped) {
  for (const auto& net : flow_.nets.nets) {
    const NetParasitics par = extractor_.extract_net(
        flow_.cts.tree, net, flow_.tech.rules.blanket_rule());
    ASSERT_EQ(par.load_rc_index.size(), net.loads.size());
    double pin_cap = 0.0;
    for (const int load : net.loads) {
      pin_cap +=
          load_pin_cap(flow_.cts.tree, flow_.design, flow_.tech, load);
    }
    EXPECT_NEAR(par.load_cap, pin_cap, 1e-20);
    // Total extracted cap is consistent with its parts.
    EXPECT_NEAR(par.rc.total_cap_gnd(), par.wire_cap_gnd + par.load_cap,
                1e-20);
    EXPECT_NEAR(par.rc.total_cap_cpl(), par.wire_cap_cpl, 1e-20);
  }
}

TEST_F(ExtractFixture, SegmentationRespectsMaxSeg) {
  const ExtractOptions fine{5.0};
  const Extractor fine_ex(flow_.tech, flow_.design, fine);
  const auto& net = flow_.nets[0];
  const NetParasitics par = fine_ex.extract_net(
      flow_.cts.tree, net, flow_.tech.rules.blanket_rule());
  for (int i = 1; i < par.rc.size(); ++i) {
    EXPECT_LE(par.rc.node(i).wire_len, 5.0 + 1e-9);
  }
}

TEST_F(ExtractFixture, FinerSegmentationConvergesElmore) {
  // Elmore at the loads should be nearly invariant to segmentation.
  const auto& net = flow_.nets[flow_.nets.size() - 1];
  const Extractor coarse(flow_.tech, flow_.design, {40.0});
  const Extractor fine(flow_.tech, flow_.design, {2.0});
  const auto pc = coarse.extract_net(flow_.cts.tree, net,
                                     flow_.tech.rules.blanket_rule());
  const auto pf = fine.extract_net(flow_.cts.tree, net,
                                   flow_.tech.rules.blanket_rule());
  const auto dc = moments_of(pc.rc, 300.0, 1.0).m1;
  const auto df = moments_of(pf.rc, 300.0, 1.0).m1;
  for (std::size_t i = 0; i < net.loads.size(); ++i) {
    const double c = dc[pc.load_rc_index[i]];
    const double f = df[pf.load_rc_index[i]];
    EXPECT_NEAR(c, f, 0.05 * std::max(f, 0.1 * ps));
  }
}

TEST_F(ExtractFixture, ExtractAllMatchesPerNet) {
  const auto all = extractor_.extract_all(
      flow_.cts.tree, flow_.nets,
      std::vector<int>(flow_.nets.size(), flow_.tech.rules.blanket_index()));
  ASSERT_EQ(static_cast<int>(all.size()), flow_.nets.size());
  for (const auto& net : flow_.nets.nets) {
    const NetParasitics one = extractor_.extract_net(
        flow_.cts.tree, net, flow_.tech.rules.blanket_rule());
    EXPECT_DOUBLE_EQ(all[net.id].wire_cap_gnd, one.wire_cap_gnd);
    EXPECT_DOUBLE_EQ(all[net.id].wirelength, one.wirelength);
  }
}

TEST_F(ExtractFixture, ExtractAllValidatesAssignmentSize) {
  EXPECT_THROW(extractor_.extract_all(flow_.cts.tree, flow_.nets, {0}),
               std::invalid_argument);
}

TEST_F(ExtractFixture, SwitchedCapAccounting) {
  const auto& net = flow_.nets[0];
  const NetParasitics par = extractor_.extract_net(
      flow_.cts.tree, net, flow_.tech.rules.blanket_rule());
  EXPECT_DOUBLE_EQ(par.switched_cap(1.0),
                   par.wire_cap_gnd + par.load_cap + par.wire_cap_cpl);
  EXPECT_DOUBLE_EQ(par.switched_cap(0.0), par.wire_cap_gnd + par.load_cap);
  EXPECT_GT(par.switched_cap(2.0), par.switched_cap(1.0));
}

class OccupancySweep : public ::testing::TestWithParam<double> {};

TEST_P(OccupancySweep, CouplingTracksOccupancy) {
  // A design with uniform occupancy: extracted coupling must scale linearly.
  workload::DesignSpec spec;
  spec.num_sinks = 16;
  spec.seed = 5;
  spec.occupancy_base = GetParam();
  spec.occupancy_noise = 0.0;
  spec.hotspots = 0;
  netlist::Design design = workload::make_design(spec);
  const tech::Technology tech = tech::Technology::make_default_45nm();
  const auto cts = cts::synthesize(design, tech);
  const auto nets = netlist::build_nets(cts.tree);
  const Extractor ex(tech, design);
  const auto par =
      ex.extract_net(cts.tree, nets[0], tech.rules.default_rule());
  const double per_um =
      2.0 * GetParam() *
      tech::wire_cap_couple_per_um(tech.clock_layer,
                                   tech.rules.default_rule());
  EXPECT_NEAR(par.wire_cap_cpl, per_um * par.wirelength,
              1e-3 * per_um * par.wirelength + 1e-22);
}

INSTANTIATE_TEST_SUITE_P(Levels, OccupancySweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9));

}  // namespace
}  // namespace sndr::extract
