#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/congestion.hpp"
#include "netlist/design.hpp"
#include "route/congestion_route.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sndr::netlist {
namespace {

ClockTree two_level_tree() {
  // source -> buffer -> (steiner -> sink0, sink1)
  ClockTree t;
  const int src = t.add_source({0, 0});
  const int buf = t.add_buffer({10, 0}, src, 0);
  const int st = t.add_steiner({20, 0}, buf);
  t.add_sink({20, 10}, st, 0);
  t.add_sink({30, 0}, st, 1);
  return t;
}

TEST(ClockTree, Construction) {
  const ClockTree t = two_level_tree();
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.count(NodeKind::kSink), 2);
  EXPECT_EQ(t.count(NodeKind::kBuffer), 1);
  EXPECT_EQ(t.count(NodeKind::kSteiner), 1);
  EXPECT_NO_THROW(t.validate(2));
}

TEST(ClockTree, SecondSourceThrows) {
  ClockTree t;
  t.add_source({0, 0});
  EXPECT_THROW(t.add_source({1, 1}), std::logic_error);
}

TEST(ClockTree, InvalidParentThrows) {
  ClockTree t;
  t.add_source({0, 0});
  EXPECT_THROW(t.add_steiner({1, 1}, 7), std::logic_error);
  EXPECT_THROW(t.add_steiner({1, 1}, -1), std::logic_error);
}

TEST(ClockTree, SinkCannotHaveChildren) {
  ClockTree t;
  const int src = t.add_source({0, 0});
  const int sink = t.add_sink({1, 0}, src, 0);
  EXPECT_THROW(t.add_steiner({2, 0}, sink), std::logic_error);
}

TEST(ClockTree, ValidateCatchesMissingSink) {
  const ClockTree t = two_level_tree();
  EXPECT_THROW(t.validate(3), std::logic_error);  // sink 2 missing.
}

TEST(ClockTree, ValidateCatchesDuplicateSink) {
  ClockTree t;
  const int src = t.add_source({0, 0});
  t.add_sink({1, 0}, src, 0);
  t.add_sink({2, 0}, src, 0);
  EXPECT_THROW(t.validate(1), std::logic_error);
  EXPECT_THROW(t.validate(2), std::logic_error);  // also: sink 1 missing.
}

TEST(ClockTree, TopologicalOrderParentsFirst) {
  const ClockTree t = two_level_tree();
  const auto order = t.topological_order();
  ASSERT_EQ(order.size(), 5u);
  std::vector<int> pos(t.size());
  for (int i = 0; i < t.size(); ++i) pos[order[i]] = i;
  for (int id = 0; id < t.size(); ++id) {
    if (t.node(id).parent >= 0) {
      EXPECT_LT(pos[t.node(id).parent], pos[id]);
    }
  }
}

TEST(ClockTree, BufferDepth) {
  const ClockTree t = two_level_tree();
  EXPECT_EQ(t.buffer_depth(0), 0);  // source.
  EXPECT_EQ(t.buffer_depth(1), 1);  // the buffer itself.
  EXPECT_EQ(t.buffer_depth(3), 1);  // sink below one buffer.
  EXPECT_EQ(t.max_buffer_depth(), 1);
}

TEST(ClockTree, EdgeLengthDefaultsToManhattan) {
  const ClockTree t = two_level_tree();
  EXPECT_DOUBLE_EQ(t.edge_length(1), 10.0);
  EXPECT_DOUBLE_EQ(t.edge_length(3), 10.0);
  EXPECT_DOUBLE_EQ(t.edge_length(0), 0.0);  // root has no edge.
  EXPECT_DOUBLE_EQ(t.total_wirelength(), 40.0);
}

TEST(ClockTree, SetPathValidatesEndpoints) {
  ClockTree t = two_level_tree();
  EXPECT_NO_THROW(t.set_path(1, {{0, 0}, {5, 0}, {5, 5}, {10, 5}, {10, 0}}));
  EXPECT_DOUBLE_EQ(t.edge_length(1), 20.0);
  EXPECT_THROW(t.set_path(1, {{0, 0}, {9, 0}}), std::logic_error);
  EXPECT_THROW(t.set_path(1, {{0, 0}}), std::logic_error);
  EXPECT_THROW(t.set_path(0, {{0, 0}, {1, 1}}), std::logic_error);
}

TEST(ClockTree, EnsureDefaultPaths) {
  ClockTree t = two_level_tree();
  t.ensure_default_paths();
  for (int id = 1; id < t.size(); ++id) {
    EXPECT_GE(t.node(id).path.size(), 2u);
  }
  EXPECT_NO_THROW(t.validate(2));
}

TEST(ClockTree, SetCellOnlyOnBuffers) {
  ClockTree t = two_level_tree();
  t.set_cell(1, 3);
  EXPECT_EQ(t.node(1).cell, 3);
  EXPECT_THROW(t.set_cell(2, 1), std::logic_error);
}

TEST(ClockTree, MoveNodeClearsIncidentPaths) {
  ClockTree t = two_level_tree();
  t.ensure_default_paths();
  t.move_node(2, {25, 5});
  EXPECT_TRUE(t.node(2).path.empty());
  EXPECT_TRUE(t.node(3).path.empty());
  EXPECT_TRUE(t.node(4).path.empty());
  EXPECT_FALSE(t.node(1).path.empty());
}

TEST(ClockNets, TwoLevelDecomposition) {
  const ClockTree t = two_level_tree();
  const NetList nets = build_nets(t);
  ASSERT_EQ(nets.size(), 2);
  // Net 0: source -> buffer input.
  EXPECT_EQ(nets[0].driver, 0);
  EXPECT_EQ(nets[0].depth, 0);
  ASSERT_EQ(nets[0].loads.size(), 1u);
  EXPECT_EQ(nets[0].loads[0], 1);
  // Net 1: buffer -> both sinks through the steiner node.
  EXPECT_EQ(nets[1].driver, 1);
  EXPECT_EQ(nets[1].depth, 1);
  EXPECT_EQ(nets[1].loads.size(), 2u);
  EXPECT_EQ(nets[1].wires.size(), 3u);  // steiner + 2 sinks.
  // Edge mapping.
  EXPECT_EQ(nets.net_of_edge[0], -1);
  EXPECT_EQ(nets.net_of_edge[1], 0);
  EXPECT_EQ(nets.net_of_edge[2], 1);
  EXPECT_EQ(nets.net_driven[0], 0);
  EXPECT_EQ(nets.net_driven[1], 1);
  EXPECT_EQ(nets.net_driven[2], -1);
}

TEST(ClockNets, WirelengthSplitsAcrossNets) {
  const ClockTree t = two_level_tree();
  const NetList nets = build_nets(t);
  EXPECT_DOUBLE_EQ(net_wirelength(t, nets[0]), 10.0);
  EXPECT_DOUBLE_EQ(net_wirelength(t, nets[1]), 30.0);
}

TEST(ClockNets, DepthIncreasesThroughBufferChain) {
  ClockTree t;
  int n = t.add_source({0, 0});
  n = t.add_buffer({1, 0}, n, 0);
  n = t.add_buffer({2, 0}, n, 0);
  t.add_sink({3, 0}, n, 0);
  const NetList nets = build_nets(t);
  ASSERT_EQ(nets.size(), 3);
  EXPECT_EQ(nets[0].depth, 0);
  EXPECT_EQ(nets[1].depth, 1);
  EXPECT_EQ(nets[2].depth, 2);
}

TEST(CongestionMap, CellIndexing) {
  const CongestionMap m(geom::BBox(0, 0, 100, 100), 10, 10, 0.5, 1.0);
  EXPECT_EQ(m.cell_count(), 100);
  EXPECT_EQ(m.cell_index({5, 5}), 0);
  EXPECT_EQ(m.cell_index({95, 95}), 99);
  EXPECT_EQ(m.cell_index({-100, -100}), 0);    // clamped.
  EXPECT_EQ(m.cell_index({1000, 1000}), 99);   // clamped.
  const geom::BBox cell = m.cell_box(11);
  EXPECT_EQ(cell.lo(), (geom::Point{10, 10}));
  EXPECT_EQ(cell.hi(), (geom::Point{20, 20}));
}

TEST(CongestionMap, InvalidArgsThrow) {
  EXPECT_THROW(CongestionMap(geom::BBox(0, 0, 1, 1), 0, 5, 0.5, 1.0),
               std::invalid_argument);
  EXPECT_THROW(CongestionMap(geom::BBox{}, 2, 2, 0.5, 1.0),
               std::invalid_argument);
}

TEST(CongestionMap, AvgOccupancyWeighted) {
  CongestionMap m(geom::BBox(0, 0, 100, 100), 2, 1, 0.0, 1.0);
  m.set_occupancy_cell(0, 0.2);
  m.set_occupancy_cell(1, 0.8);
  // 50um in each cell: exact despite step quantization.
  EXPECT_NEAR(m.avg_occupancy({{0, 50}, {100, 50}}), 0.5, 1e-9);
  // Off-grid span: correct within the documented step quantization.
  EXPECT_NEAR(m.avg_occupancy({{20, 50}, {80, 50}}), 0.5, 0.15);
  // Entirely inside cell 0.
  EXPECT_NEAR(m.avg_occupancy({{0, 50}, {40, 50}}), 0.2, 1e-9);
}

TEST(CongestionMap, ForEachCellLengthsSumToPathLength) {
  const CongestionMap m(geom::BBox(0, 0, 100, 100), 7, 3, 0.5, 1.0);
  const geom::Path path{{3, 7}, {88, 7}, {88, 93}, {15, 93}};
  double total = 0.0;
  m.for_each_cell(path, [&](int, double len) { total += len; });
  EXPECT_NEAR(total, geom::path_length(path), 1e-9);
}

TEST(CongestionMap, UniformCapacityDerivation) {
  const CongestionMap m = CongestionMap::uniform(
      geom::BBox(0, 0, 100, 100), 10, 10, 0.3, 0.28, 0.5);
  // Cell 10x10 um => 100/0.28 track-um * 0.5.
  EXPECT_NEAR(m.capacity_cell(0), 100.0 / 0.28 * 0.5, 1e-6);
  EXPECT_DOUBLE_EQ(m.occupancy_at({50, 50}), 0.3);
}

TEST(RoutingUsage, AddAndOverflow) {
  CongestionMap m(geom::BBox(0, 0, 100, 100), 1, 1, 0.5, 100.0);
  RoutingUsage u(&m);
  EXPECT_EQ(u.overflow_cells(), 0);
  u.add({{0, 50}, {50, 50}}, 1.0);
  EXPECT_NEAR(u.used_cell(0), 50.0, 1e-9);
  EXPECT_NEAR(u.max_utilization(), 0.5, 1e-9);
  EXPECT_TRUE(u.fits({{{0, 60}, {40, 60}}}, 0.0, 1.0));
  EXPECT_FALSE(u.fits({{{0, 60}, {60, 60}}}, 0.0, 1.0));
  // Two wires of one net sharing the cell count together: 30 + 30 on top
  // of 50 overflows although either wire alone would fit.
  const geom::Path wire{{0, 70}, {30, 70}};
  EXPECT_TRUE(u.fits({wire}, 0.0, 1.0));
  EXPECT_FALSE(u.fits({wire, wire}, 0.0, 1.0));
  u.add({{0, 60}, {60, 60}}, 1.0);
  EXPECT_EQ(u.overflow_cells(), 1);
  // A rule downgrade releases capacity.
  u.move({{0, 60}, {60, 60}}, 1.0, 0.0);
  EXPECT_EQ(u.overflow_cells(), 0);
}

TEST(RoutingUsage, OutOfRangeUsageThrowsInsteadOfWrapping) {
  // One sub-step beyond the fixed-point range (2^62 quanta).
  const CongestionMap huge(geom::BBox(0, 0, 1e12, 1e12), 1, 1, 0.3, 1.0);
  RoutingUsage u(&huge);
  EXPECT_THROW(u.add({{0, 0}, {1e12, 0}}, 3.0), std::overflow_error);
  // Each sub-step in range (2^36 track-um = 2^60 quanta), but the cell
  // total passes 2^63 quanta on the eighth add.
  const CongestionMap big(geom::BBox(0, 0, 0x1p37, 0x1p37), 1, 1, 0.3, 1.0);
  RoutingUsage v(&big);
  const geom::Path step{{0, 0}, {0x1p36, 0}};
  for (int i = 0; i < 7; ++i) v.add(step, 1.0);
  EXPECT_THROW(v.add(step, 1.0), std::overflow_error);
}

// Integer usage quanta make RoutingUsage order-free: adding the nets in a
// shuffled order, or reaching an assignment through a long random sequence
// of rule moves, gives exactly the per-cell quanta a fresh compute_usage of
// that assignment does. (A floating-point accumulator would drift with the
// order; this is what lets the optimizer skip periodic resyncs.)
TEST(RoutingUsage, RandomOrderAddMoveEqualsFreshComputeUsageBitwise) {
  const test::Flow f = test::small_flow(300, 17);
  const CongestionMap& map = f.design.congestion;
  ASSERT_GT(map.cell_count(), 1);
  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const double width_frac = f.tech.clock_layer.width_frac();
  const auto pitch = [&](int rule) {
    return f.tech.rules[rule].pitch_mult(width_frac);
  };
  const auto wires_of = [&](int net_id) {
    std::vector<geom::Path> paths;
    for (const int v : f.nets.nets[net_id].wires) {
      const TreeNode& n = f.cts.tree.node(v);
      if (n.path.size() >= 2) {
        paths.push_back(n.path);
      } else if (n.parent >= 0) {
        paths.push_back({f.cts.tree.loc(n.parent), n.loc});
      }
    }
    return paths;
  };

  workload::Rng rng(4242);
  std::vector<int> rule_of(n_nets);
  for (int& r : rule_of) r = static_cast<int>(rng.uniform_int(n_rules));

  // Shuffled add order.
  std::vector<int> order(n_nets);
  for (int i = 0; i < n_nets; ++i) order[i] = i;
  for (int i = n_nets - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_int(i + 1)]);
  }
  RoutingUsage shuffled(&map);
  for (const int id : order) {
    for (const geom::Path& p : wires_of(id)) shuffled.add(p, pitch(rule_of[id]));
  }
  EXPECT_EQ(shuffled.quanta(),
            route::compute_usage(f.cts.tree, f.nets, rule_of, f.tech, map)
                .quanta());

  // Random moves, plus transient add/remove pairs of the same wire.
  for (int step = 0; step < 3000; ++step) {
    const int id = static_cast<int>(rng.uniform_int(n_nets));
    const int rule = static_cast<int>(rng.uniform_int(n_rules));
    for (const geom::Path& p : wires_of(id)) {
      shuffled.move(p, pitch(rule_of[id]), pitch(rule));
    }
    rule_of[id] = rule;
    if (step % 7 == 0) {
      const geom::Path extra = wires_of(id).front();
      shuffled.add(extra, pitch(rule));
      shuffled.move(extra, pitch(rule), 0.0);
    }
  }
  EXPECT_EQ(shuffled.quanta(),
            route::compute_usage(f.cts.tree, f.nets, rule_of, f.tech, map)
                .quanta());
}

TEST(Design, TotalSinkCap) {
  Design d;
  d.sinks.push_back({"a", {0, 0}, 2e-15});
  d.sinks.push_back({"b", {1, 1}, 3e-15});
  EXPECT_DOUBLE_EQ(d.total_sink_cap(), 5e-15);
}

}  // namespace
}  // namespace sndr::netlist
