#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sndr::ndr {
namespace {

class StateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    f = test::small_flow(96, 23);
    blanket = assign_all(f.nets, f.tech.rules.blanket_index());
    state = std::make_unique<AssignmentState>(f.cts.tree, f.design, f.tech,
                                              f.nets, aopt);
    ev = evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket, aopt);
    state->rebuild(blanket, ev);
  }

  test::Flow f;
  timing::AnalysisOptions aopt;
  RuleAssignment blanket;
  std::unique_ptr<AssignmentState> state;
  FlowEvaluation ev;
};

TEST_F(StateFixture, RebuildMatchesEvaluation) {
  EXPECT_EQ(state->assignment(), blanket);
  double cap = 0.0;
  for (int i = 0; i < f.nets.size(); ++i) {
    EXPECT_DOUBLE_EQ(state->net_cap(i), ev.power.net_switched_cap[i]);
    cap += state->net_cap(i);
  }
  EXPECT_NEAR(state->total_cap(), cap, 1e-18);
  EXPECT_NEAR(state->total_cap(), ev.power.switched_cap, 1e-18);
}

TEST_F(StateFixture, SinkNetMappingsAreConsistent) {
  // Every sink's path nets contain it in their sinks_under set, and the
  // root net covers every sink.
  for (int s = 0; s < static_cast<int>(f.design.sinks.size()); ++s) {
    for (const int net : state->nets_on_path(s)) {
      const auto& under = state->sinks_under(net);
      EXPECT_NE(std::find(under.begin(), under.end(), s), under.end());
    }
  }
  EXPECT_EQ(state->sinks_under(0).size(), f.design.sinks.size());
}

TEST_F(StateFixture, NetsOnPathEqualsSinkToRootWalk) {
  // Independent reference: walk each sink's tree path to the root and
  // record every change of owning net. Sinks driven by one net share one
  // chain object (the leaf chain), not just equal contents.
  std::vector<const std::vector<int>*> chain_of_leaf(f.nets.size(), nullptr);
  int shared = 0;
  for (int v = 0; v < f.cts.tree.size(); ++v) {
    const netlist::TreeNode& n = f.cts.tree.node(v);
    if (n.kind != netlist::NodeKind::kSink) continue;
    std::vector<int> walk;
    for (int node = v; node >= 0; node = f.cts.tree.node(node).parent) {
      const int net = f.nets.net_of_edge[node];
      if (net >= 0 && (walk.empty() || walk.back() != net)) {
        walk.push_back(net);
      }
    }
    const std::vector<int>& chain = state->nets_on_path(n.sink);
    EXPECT_EQ(chain, walk) << "sink " << n.sink;
    ASSERT_FALSE(walk.empty());
    const std::vector<int>*& first = chain_of_leaf[walk.front()];
    if (first == nullptr) {
      first = &chain;
    } else {
      EXPECT_EQ(first, &chain) << "sink " << n.sink;
      ++shared;
    }
  }
  EXPECT_GT(shared, 0);
}

TEST_F(StateFixture, ApplyMoveTracksIncrementalCap) {
  const int net_id = f.nets.size() - 1;
  const int rule = 1;  // 1W2S.
  const NetExact exact = state->exact_eval(net_id, rule);
  const double before = state->total_cap();
  state->apply_move(net_id, rule, exact);
  EXPECT_EQ(state->rule_of(net_id), rule);
  EXPECT_NEAR(state->total_cap(),
              before + exact.cap_switched - ev.power.net_switched_cap[net_id],
              1e-20);
}

TEST_F(StateFixture, IncrementalStateMatchesFreshRebuildAfterMoves) {
  // Apply a handful of moves incrementally, then compare against a full
  // evaluation of the same assignment: since PR 6 apply_move is exact (a
  // delta-timing replay plus accumulator re-sums in rebuild()'s FP order),
  // so the agreement is BITWISE, not approximate.
  RuleAssignment a = blanket;
  for (const int net_id :
       {1, f.nets.size() / 2, f.nets.size() - 2, f.nets.size() - 1}) {
    const NetExact exact = state->exact_eval(net_id, 1);
    state->apply_move(net_id, 1, exact);
    a[net_id] = 1;
  }
  const FlowEvaluation ev2 = evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                      a, aopt, &state->geometry_cache());
  double cap = 0.0;
  for (int i = 0; i < f.nets.size(); ++i) {
    EXPECT_EQ(state->net_cap(i), ev2.power.net_switched_cap[i]);
    cap += state->net_cap(i);
  }
  EXPECT_EQ(state->total_cap(), cap);
  for (std::size_t s = 0; s < ev2.timing.sink_arrival.size(); ++s) {
    EXPECT_EQ(state->sink_latency(static_cast<int>(s)),
              ev2.timing.sink_arrival[s]);
  }
}

TEST_F(StateFixture, CheckMoveRejectsObviousViolations) {
  const int net_id = f.nets.size() - 1;
  NetImpact impossible;
  impossible.step_slew = 1.0;  // one second of slew.
  EXPECT_FALSE(state->check_move(net_id, 0, impossible, {}));

  NetImpact benign;  // zero impact: strictly better everywhere.
  EXPECT_TRUE(state->check_move(net_id, 1, benign, {}));

  NetImpact huge_delay;
  huge_delay.delay = 1.0;  // shifts sinks out of any window.
  EXPECT_FALSE(state->check_move(net_id, 1, huge_delay, {}));
}

TEST_F(StateFixture, MarginsTightenChecks) {
  const int net_id = f.nets.size() - 1;
  const NetExact exact = state->exact_eval(net_id, 0);  // 1W1S.
  NetImpact impact;
  impact.step_slew = exact.step_slew_worst;
  impact.sigma = exact.sigma_worst;
  impact.xtalk = exact.xtalk_worst;
  impact.delay = exact.wire_delay_worst;
  // With absurd margins nothing passes.
  MoveMargins crushing;
  crushing.slew = 0.999;
  EXPECT_FALSE(state->check_move(net_id, 0, impact, crushing));
}

TEST_F(StateFixture, ExactEvalUsesDriverModel) {
  // The root (source-driven) net and a buffer-driven net get different
  // driver resistances; both evaluations must be self-consistent.
  const NetExact root = state->exact_eval(0, 0);
  EXPECT_GT(root.cap_switched, 0.0);
  EXPECT_GT(root.step_slew_worst, 0.0);
  const NetExact leaf = state->exact_eval(f.nets.size() - 1, 0);
  EXPECT_GT(leaf.cap_switched, 0.0);
}

TEST(ExactSum, RandomOrderAddAndRemoveIsBitwiseStable) {
  workload::Rng rng(77);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    // Latency-like magnitudes (ps to ns) plus a few exact zeros.
    values.push_back(i % 97 == 0 ? 0.0
                                 : std::ldexp(1.0 + rng.uniform(),
                                              -40 + static_cast<int>(
                                                        rng.uniform_int(12))));
  }
  ExactSum forward;
  for (const double x : values) forward.add(x);

  // Any order, and any add/remove churn that ends at the same multiset,
  // gives the same accumulator and the same rounded value.
  std::vector<double> shuffled = values;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniform_int(i)]);
  }
  ExactSum churned;
  for (const double x : shuffled) {
    churned.add(x);
    churned.add(0.5 * x + 1e-12);
    churned.remove(0.5 * x + 1e-12);
  }
  for (int i = 0; i < 500; ++i) {
    const std::size_t k = rng.uniform_int(values.size());
    const double other = std::ldexp(rng.uniform(), -30);
    churned.replace(values[k], other);
    churned.replace(other, values[k]);
  }
  EXPECT_EQ(churned, forward);
  EXPECT_EQ(churned.value(), forward.value());

  // A fresh sum of the same values ("rebuild") agrees too.
  ExactSum fresh;
  for (auto it = values.rbegin(); it != values.rend(); ++it) fresh.add(*it);
  EXPECT_EQ(fresh, forward);
  EXPECT_EQ(fresh.value(), forward.value());
}

TEST(ExactSum, IsExactWhereDoublesRound) {
  // 1 + 2^-60 - 1 is 0 in double arithmetic; the fixed-point sum keeps it.
  ExactSum s;
  s.add(1.0);
  s.add(0x1p-60);
  s.remove(1.0);
  EXPECT_EQ(s.value(), 0x1p-60);
  s.remove(0x1p-60);
  EXPECT_EQ(s, ExactSum{});
  EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSum, NonFiniteAndOutOfRangeValuesThrow) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
               std::overflow_error);
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
               std::overflow_error);
  EXPECT_THROW(s.add(-std::numeric_limits<double>::infinity()),
               std::overflow_error);
  EXPECT_THROW(s.add(64.0), std::overflow_error);
  EXPECT_THROW(s.add(-64.0), std::overflow_error);
  EXPECT_THROW(s.replace(1.0, 1e300), std::overflow_error);
  EXPECT_EQ(s, ExactSum{});  // a refused value leaves the sum untouched.
  EXPECT_NO_THROW(s.add(std::nextafter(64.0, 0.0)));
  EXPECT_NO_THROW(s.add(-std::nextafter(64.0, 0.0)));
  EXPECT_EQ(s.value(), 0.0);
}

}  // namespace
}  // namespace sndr::ndr
