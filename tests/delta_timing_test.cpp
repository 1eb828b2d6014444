// Pins the delta-timing contract: a single-net parasitic change
// replayed by timing::DeltaTimer — and a whole move applied by
// AssignmentState::apply_move — leaves every maintained array BITWISE
// identical to a fresh full analysis / rebuild() of the same assignment,
// and the result is independent of the worker thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "cts/embedding.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "route/congestion_route.hpp"
#include "test_util.hpp"
#include "timing/delta_timing.hpp"
#include "workload/rng.hpp"

namespace sndr::ndr {
namespace {

TEST(DeltaTimer, SingleNetChangeMatchesFreshAnalysis) {
  test::Flow f = test::small_flow(96, 23);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  const FlowEvaluation ev =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);

  timing::DeltaTimer dt(f.cts.tree, f.design, f.tech, f.nets, aopt);
  dt.rebuild(ev.parasitics, ev.timing);
  ASSERT_TRUE(dt.synced());
  EXPECT_EQ(dt.sink_arrival(), ev.timing.sink_arrival);
  EXPECT_EQ(dt.node_slew(), ev.timing.node_slew);

  // Change a mid-tree net's rule and replay the subtree.
  const int net_id = f.nets.size() / 2;
  const int rule = 1;  // 1W2S.
  ASSERT_NE(rule, a[net_id]);
  extract::NetParasitics par;
  extract::materialize(cache.geometry(net_id), f.tech, f.tech.rules[rule],
                       par);
  dt.apply_net_change(net_id, par);

  a[net_id] = rule;
  const FlowEvaluation ev2 =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);
  EXPECT_EQ(dt.sink_arrival(), ev2.timing.sink_arrival);
  EXPECT_EQ(dt.sink_slew(), ev2.timing.sink_slew);
  EXPECT_EQ(dt.node_arrival(), ev2.timing.node_arrival);
  EXPECT_EQ(dt.node_slew(), ev2.timing.node_slew);

  // The touched set is the changed net plus descendants, parents first.
  const std::vector<int>& touched = dt.last_updated_nets();
  ASSERT_FALSE(touched.empty());
  EXPECT_EQ(touched.front(), net_id);
  EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
  EXPECT_LT(static_cast<int>(touched.size()), f.nets.size());
}

TEST(DeltaTimer, RootNetChangeReachesEverySink) {
  test::Flow f = test::small_flow(64, 3);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  const FlowEvaluation ev =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);
  timing::DeltaTimer dt(f.cts.tree, f.design, f.tech, f.nets, aopt);
  dt.rebuild(ev.parasitics, ev.timing);

  extract::NetParasitics par;
  extract::materialize(cache.geometry(0), f.tech, f.tech.rules[2], par);
  dt.apply_net_change(0, par);
  a[0] = 2;
  const FlowEvaluation ev2 =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);
  EXPECT_EQ(dt.sink_arrival(), ev2.timing.sink_arrival);
  EXPECT_EQ(dt.sink_slew(), ev2.timing.sink_slew);
  // The root drives everything: the whole net list is replayed.
  EXPECT_EQ(static_cast<int>(dt.last_updated_nets().size()), f.nets.size());
}

/// Every incremental accumulator AssignmentState maintains, snapshotted
/// for bitwise comparison (EXPECT_EQ on doubles is exact).
struct StateSnapshot {
  std::vector<double> sink_latency, sink_var, sink_xtalk;
  std::vector<double> net_cap, net_sigma, net_xtalk, net_wire_delay;
  std::vector<std::int64_t> usage;  ///< routing usage quanta per cell.
  double latency_sum = 0.0;
  double total_cap = 0.0;
  double total_energy = 0.0;
};

StateSnapshot snapshot(const AssignmentState& st, int n_nets, int n_sinks) {
  StateSnapshot s;
  for (int i = 0; i < n_sinks; ++i) {
    s.sink_latency.push_back(st.sink_latency(i));
    s.sink_var.push_back(st.sink_var(i));
    s.sink_xtalk.push_back(st.sink_xtalk(i));
  }
  for (int n = 0; n < n_nets; ++n) {
    s.net_cap.push_back(st.net_cap(n));
    s.net_sigma.push_back(st.net_sigma(n));
    s.net_xtalk.push_back(st.net_xtalk_of(n));
    s.net_wire_delay.push_back(st.net_wire_delay(n));
  }
  s.usage = st.usage().quanta();
  s.latency_sum = st.latency_sum();
  s.total_cap = st.total_cap();
  s.total_energy = st.total_energy();
  return s;
}

void expect_bitwise_eq(const StateSnapshot& got, const StateSnapshot& want) {
  EXPECT_EQ(got.sink_latency, want.sink_latency);
  EXPECT_EQ(got.sink_var, want.sink_var);
  EXPECT_EQ(got.sink_xtalk, want.sink_xtalk);
  EXPECT_EQ(got.net_cap, want.net_cap);
  EXPECT_EQ(got.net_sigma, want.net_sigma);
  EXPECT_EQ(got.net_xtalk, want.net_xtalk);
  EXPECT_EQ(got.net_wire_delay, want.net_wire_delay);
  EXPECT_EQ(got.usage, want.usage);
  EXPECT_EQ(got.latency_sum, want.latency_sum);
  EXPECT_EQ(got.total_cap, want.total_cap);
  EXPECT_EQ(got.total_energy, want.total_energy);
}

TEST(DeltaTimingChurn, RandomMovesStayBitwiseIdenticalToRebuild) {
  test::Flow f = test::small_flow(96, 23);
  const timing::AnalysisOptions aopt;
  RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  const FlowEvaluation ev = evaluate(f.cts.tree, f.design, f.tech, f.nets, a,
                                     aopt, &state.geometry_cache());
  state.rebuild(a, ev);

  // Reference state, re-synced from a full evaluation after every move.
  AssignmentState ref(f.cts.tree, f.design, f.tech, f.nets, aopt);

  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const int n_sinks = static_cast<int>(f.design.sinks.size());
  workload::Rng rng(20260809);
  for (int move = 0; move < 32; ++move) {
    SCOPED_TRACE("move " + std::to_string(move));
    const int net_id = static_cast<int>(rng.uniform_int(n_nets));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    const NetExact exact = state.exact_eval(net_id, rule);
    state.apply_move(net_id, rule, exact);
    a[net_id] = rule;

    const FlowEvaluation fresh = evaluate(f.cts.tree, f.design, f.tech,
                                          f.nets, a, aopt,
                                          &state.geometry_cache());
    ref.rebuild(a, fresh);
    expect_bitwise_eq(snapshot(state, n_nets, n_sinks),
                      snapshot(ref, n_nets, n_sinks));
  }
}

// Thousands of commits and no resync in between: the greedy optimizer and
// the annealer rely on apply_move alone. The congestion map is squeezed to
// just above the blanket routing usage, so the routing check really binds
// (wider-pitch moves get refused) and usage swings up and down through
// near-capacity cells. Leaf nets drive several sinks each under chains
// several nets deep, so commits re-fold shared leaf chains.
TEST(DeltaTimingChurn, LongChurnNearCapacityStaysBitwiseIdenticalToRebuild) {
  test::Flow f = test::small_flow(600, 41);
  const timing::AnalysisOptions aopt;
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const int n_sinks = static_cast<int>(f.design.sinks.size());
  ASSERT_GT(f.design.congestion.cell_count(), 1);
  {
    const netlist::RoutingUsage at_blanket = route::compute_usage(
        f.cts.tree, f.nets, blanket, f.tech, f.design.congestion);
    for (int ci = 0; ci < f.design.congestion.cell_count(); ++ci) {
      f.design.congestion.set_capacity_cell(
          ci, at_blanket.used_cell(ci) * 1.002 + 1.0);
    }
  }

  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  {
    std::size_t deepest = 0;
    int shared = 0;  ///< sinks whose leaf net drives an earlier sink too.
    std::vector<char> leaf_seen(n_nets, 0);
    for (int s = 0; s < n_sinks; ++s) {
      const std::vector<int>& chain = state.nets_on_path(s);
      deepest = std::max(deepest, chain.size());
      if (leaf_seen[chain.front()]) ++shared;
      leaf_seen[chain.front()] = 1;
    }
    ASSERT_GE(deepest, 3u);
    ASSERT_GT(shared, n_sinks / 2);
  }
  RuleAssignment a = blanket;
  state.rebuild(a, evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                            &state.geometry_cache()));
  AssignmentState ref(f.cts.tree, f.design, f.tech, f.nets, aopt);
  const auto expect_matches_rebuild = [&] {
    const FlowEvaluation fresh = evaluate(f.cts.tree, f.design, f.tech,
                                          f.nets, a, aopt,
                                          &state.geometry_cache());
    ref.rebuild(a, fresh);
    // The snapshot covers routing usage: ref's comes from compute_usage.
    expect_bitwise_eq(snapshot(state, n_nets, n_sinks),
                      snapshot(ref, n_nets, n_sinks));
    EXPECT_EQ(fresh.overflow_cells, 0);
  };

  const double width_frac = f.tech.clock_layer.width_frac();
  workload::Rng rng(20261018);
  int commits = 0;
  int refused_by_routing = 0;
  while (commits < 2400) {
    const int net_id = static_cast<int>(rng.uniform_int(n_nets));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    const double old_pitch =
        f.tech.rules[state.rule_of(net_id)].pitch_mult(width_frac);
    const double new_pitch = f.tech.rules[rule].pitch_mult(width_frac);
    if (!state.usage().fits(state.net_paths(net_id), old_pitch, new_pitch)) {
      ++refused_by_routing;
      continue;
    }
    state.apply_move(net_id, rule, state.exact_eval(net_id, rule));
    a[net_id] = rule;
    ++commits;
    if (commits % 600 == 0) {
      SCOPED_TRACE("commit " + std::to_string(commits));
      expect_matches_rebuild();
    }
  }
  EXPECT_GT(refused_by_routing, 0);

  // Rebuilding the churned state in place changes nothing (debug builds
  // also assert the accumulators against the fresh evaluation here).
  const StateSnapshot before = snapshot(state, n_nets, n_sinks);
  state.rebuild(a, evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                            &state.geometry_cache()));
  expect_bitwise_eq(snapshot(state, n_nets, n_sinks), before);
}

// Repeater chains (a short unbuffered-length budget) put every sink many
// nets deep, as on large designs: a commit near the root re-folds many
// leaf chains and swaps the latency quanta of most sinks.
TEST(DeltaTimingChurn, DeepRepeaterChainsStayBitwiseIdenticalToRebuild) {
  test::Flow f;
  f.design = test::small_design(160, 12);
  f.tech = tech::Technology::make_default_45nm();
  cts::CtsOptions copt;
  copt.max_unbuffered_len = 40.0;
  f.cts = cts::synthesize(f.design, f.tech, copt);
  f.nets = netlist::build_nets(f.cts.tree);
  const timing::AnalysisOptions aopt;
  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const int n_sinks = static_cast<int>(f.design.sinks.size());

  RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  std::size_t shallowest = static_cast<std::size_t>(n_nets);
  for (int s = 0; s < n_sinks; ++s) {
    shallowest = std::min(shallowest, state.nets_on_path(s).size());
  }
  ASSERT_GE(shallowest, 16u);
  state.rebuild(a, evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                            &state.geometry_cache()));
  AssignmentState ref(f.cts.tree, f.design, f.tech, f.nets, aopt);

  workload::Rng rng(20261019);
  for (int move = 1; move <= 400; ++move) {
    // Half the moves hit the upper third of the nets (root-first ids), so
    // large subtrees churn too.
    const int pool = move % 2 == 0 ? n_nets : std::max(1, n_nets / 3);
    const int net_id = static_cast<int>(rng.uniform_int(pool));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    state.apply_move(net_id, rule, state.exact_eval(net_id, rule));
    a[net_id] = rule;
    if (move % 100 == 0) {
      SCOPED_TRACE("move " + std::to_string(move));
      ref.rebuild(a, evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                              &state.geometry_cache()));
      expect_bitwise_eq(snapshot(state, n_nets, n_sinks),
                        snapshot(ref, n_nets, n_sinks));
    }
  }
}

TEST(DeltaTimingChurn, ChurnIsThreadCountInvariant) {
  test::Flow f = test::small_flow(96, 23);
  const timing::AnalysisOptions aopt;
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const int n_sinks = static_cast<int>(f.design.sinks.size());

  // Prewarm (parallel batched kernels) + serial churn, at a given thread
  // count. Batch composition and memo contents must not depend on it.
  const auto churn = [&](int threads) {
    common::set_thread_count(threads);
    AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
    const FlowEvaluation ev = evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                       blanket, aopt,
                                       &state.geometry_cache());
    state.rebuild(blanket, ev);
    state.warm_all_rows();
    workload::Rng rng(99);
    for (int move = 0; move < 24; ++move) {
      const int net_id = static_cast<int>(rng.uniform_int(n_nets));
      int rule = static_cast<int>(rng.uniform_int(n_rules));
      if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
      state.apply_move(net_id, rule, state.exact_eval(net_id, rule));
    }
    StateSnapshot s = snapshot(state, n_nets, n_sinks);
    common::set_thread_count(-1);
    return s;
  };

  const StateSnapshot one = churn(1);
  const StateSnapshot eight = churn(8);
  expect_bitwise_eq(eight, one);
}

}  // namespace
}  // namespace sndr::ndr
