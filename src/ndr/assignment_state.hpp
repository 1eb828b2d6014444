// Incremental bookkeeping for rule-assignment search.
//
// Both the greedy optimizer and the annealer explore (net, rule) moves and
// need the same machinery: per-net summaries and current metrics, per-sink
// latency / variance / crosstalk accumulators, routing-usage tracking, and
// latency windows. This class owns that state and offers move checking /
// application with exactly the approximations documented in optimizer.hpp.
//
// Set-up is O(design) and a commit is O(moved net's subtree): apply_move
// touches the moved net, its descendant subtree, the sinks under it and the
// leaf nets under it, and leaves every accumulator (routing usage included)
// BITWISE equal to a fresh rebuild() of the same assignment, so no caller
// needs a periodic re-synchronization. Two structures make that hold:
//
//  - Leaf-net uncertainty chains. Every sink driven by one net (its leaf
//    net) has the same nets-on-path list, so the variance and crosstalk
//    folds are kept once per leaf net, not per sink. A commit re-folds the
//    leaf nets under the moved net in rebuild()'s order.
//  - An exact latency sum (ExactSum). Sink latencies are added as integer
//    quanta, so the sum is order-free and a commit adds new - old quanta
//    for its own sinks only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ndr/evaluation.hpp"
#include "ndr/net_eval.hpp"
#include "ndr/predictor.hpp"
#include "obs/metrics.hpp"
#include "timing/delta_timing.hpp"

namespace sndr::ndr {

/// Guard bands used during move checking (fractions of each constraint).
struct MoveMargins {
  double slew = 0.0;
  double uncertainty = 0.0;
  double em = 0.0;
  double skew = 0.0;
};

/// Portable snapshot of the exact-eval memo for cross-search transplant
/// (the DSE sweep hands one search's warm rows to the next point). A row
/// is importable only where the net's evaluation context is bitwise
/// unchanged — `driver_res` records the context each row was computed
/// under, and import_memo() re-checks it against the receiving state, so
/// an adopted row always equals what a cold eval would produce.
struct MemoSnapshot {
  int n_rules = 0;
  std::vector<double> driver_res;  ///< per-net context the rows assume.
  std::vector<char> row_warm;      ///< per-net: every rule entry valid.
  std::vector<NetExact> rows;      ///< [net][rule] flat, scalars only.

  bool empty() const { return rows.empty(); }
};

/// Exact sum of doubles in 2^-90 fixed point (the AssignmentState latency
/// sum). Each value is converted to integer quanta with ldexp(x, 90), which
/// is exact for |x| >= 2^-38 and truncates below; the quanta are added in an
/// __int128, so any order of add() and remove() gives the same total, and
/// value() rounds it once. A value that is NaN, infinite or not below 2^6 in
/// magnitude throws std::overflow_error, which keeps the total in range for
/// up to 2^31 values.
class ExactSum {
 public:
  __extension__ typedef __int128 Quanta;

  /// The quanta of one value; throws std::overflow_error out of range.
  static Quanta quanta(double x);

  void add(double x) { acc_ += quanta(x); }
  void remove(double x) { acc_ -= quanta(x); }
  /// Replaces `old_x` by `new_x` (no-op when they are bitwise equal).
  void replace(double old_x, double new_x) {
    if (old_x != new_x) acc_ += quanta(new_x) - quanta(old_x);
  }
  bool operator==(const ExactSum&) const = default;
  /// The total, rounded to double once.
  double value() const;

 private:
  Quanta acc_ = 0;
};

class AssignmentState {
 public:
  /// `geometry_budget_bytes` caps the shared GeometryCache (0 = unbounded,
  /// the historical eager mode); see OptimizerOptions::geometry_budget_bytes.
  /// `shared_geometry`, when non-null, borrows an externally owned cache
  /// instead (value-neutral; see OptimizerOptions::shared_geometry) and
  /// the budget argument is ignored.
  AssignmentState(const netlist::ClockTree& tree,
                  const netlist::Design& design,
                  const tech::Technology& tech, const netlist::NetList& nets,
                  const timing::AnalysisOptions& analysis,
                  std::size_t geometry_budget_bytes = 0,
                  const extract::GeometryCache* shared_geometry = nullptr);

  /// Re-synchronizes every incremental accumulator from a full evaluation
  /// of `assignment` (which becomes the current assignment).
  void rebuild(const RuleAssignment& assignment, const FlowEvaluation& ev);

  const RuleAssignment& assignment() const { return assignment_; }
  int rule_of(int net_id) const { return assignment_.at(net_id); }

  /// Rule-independent summary of a net.
  const NetSummary& summary(int net_id) const {
    return nets_state_[net_id].summary;
  }
  /// Current switched cap of a net under its assigned rule (raw).
  double net_cap(int net_id) const { return nets_state_[net_id].cap; }
  /// Total raw switched capacitance. Summed on read, O(nets), left to
  /// right in net order (the greedy loop never reads it; commits stay
  /// O(affected)).
  double total_cap() const;

  /// Clock-domain toggle weight of a net (1.0 in the single-domain world).
  double net_weight(int net_id) const { return net_weight_[net_id]; }
  /// Activity-weighted switched cap of a net — the optimization energy
  /// term. Bitwise equal to net_cap() when domains are disabled.
  double net_energy(int net_id) const {
    return net_weight_[net_id] * nets_state_[net_id].cap;
  }
  /// Total activity-weighted switched capacitance (the search energy);
  /// bitwise equal to total_cap() when domains are disabled. Summed on
  /// read like total_cap().
  double total_energy() const;

  /// Transition at the loads of `net_id` if its wire step slew were `step`.
  double slew_at_loads(int net_id, double step_slew) const;

  /// Checks a candidate move against every constraint using predicted or
  /// exact per-net metrics in `impact`.
  bool check_move(int net_id, int rule_idx, const NetImpact& impact,
                  const MoveMargins& margins) const;

  /// Applies a validated move; `exact` must be the exact evaluation of the
  /// net under the new rule.
  ///
  /// Exact and incremental: the net's parasitics are re-materialized under
  /// the new rule and a delta-timing replay updates sink latencies along
  /// the net's descendant subtree (O(pieces + subtree)); the variance /
  /// crosstalk chains of the leaf nets under it are re-folded in
  /// rebuild()'s exact floating-point order, the latency sum swaps each
  /// affected sink's old quanta for its new ones, and routing usage swaps
  /// the net's old-rule quanta for its new-rule quanta (both integer, so
  /// order-free). The state stays BITWISE identical to a fresh rebuild()
  /// of the same assignment (asserted there in debug builds).
  void apply_move(int net_id, int rule_idx, const NetExact& exact);

  /// Exact per-net evaluation of a candidate rule (driver model included).
  ///
  /// Results are memoized per (net, rule) under a per-net context stamp
  /// keyed on what actually feeds evaluate_net_exact. The candidate rule is
  /// part of the key, so the only mutable input is the net's electrical
  /// context (today: its driver resistance). apply_move() and rebuild()
  /// are the invalidation points: each advances a net's stamp (dropping
  /// its cached row) iff that input changed — rebuild() re-derives the
  /// context per net; a move changes no exact-eval input, so the cache
  /// survives both in the common case. A miss warms the WHOLE rule row:
  /// the batched kernels (a one-net evaluate_nets_exact_all_rules) score
  /// every rule in one fused pass
  /// over the shared GeometryCache — no geometry walk, no congestion
  /// query, no allocation past a warm per-thread arena — and one miss is
  /// counted per row fill, so hit rates read as "rows already warm".
  NetExact exact_eval(int net_id, int rule_idx) const;

  /// Prefetches the exact-eval memo rows of `net_ids` (cold rows only)
  /// using CROSS-NET batches: nets are grouped by geometry shape
  /// (extract::bucket_nets_by_shape) and same-shaped nets ride one
  /// lane-interleaved kernel call, so single-rule consumers (greedy sweeps,
  /// pending annealer proposals) fill the SIMD lanes a per-net rule sweep
  /// leaves empty. Batch composition is deterministic and independent of
  /// the thread count; workers fill disjoint memo rows with values bitwise
  /// equal to the lazy exact_eval path, so warming never changes any
  /// downstream result — only when the work happens. One miss is counted
  /// per row filled, as in exact_eval.
  void warm_rows(const std::vector<int>& net_ids) const;

  /// warm_rows over every net (the annealer warms every row up front).
  void warm_all_rows() const;

  /// Rule-independent net geometry shared by every evaluation this state
  /// drives (exact_eval misses, full evaluate() resyncs, corner signoff).
  /// Built once in the constructor (or borrowed; see the ctor); the tree
  /// and congestion map are fixed for the lifetime of a search, so it is
  /// never invalidated here.
  const extract::GeometryCache& geometry_cache() const { return *geometry_; }

  /// Copies every fully warm memo row (and its per-net context) into
  /// `out`, replacing its contents. Rows whose context stamp moved since
  /// they were filled are skipped. Cheap: scalars only.
  void export_memo(MemoSnapshot& out) const;

  /// Adopts rows from a snapshot taken by a search over the same
  /// (tree, nets, tech) shape: a row lands only if the snapshot's recorded
  /// driver resistance is bitwise equal to this state's current one and
  /// the row here is still cold. Returns the number of rows adopted.
  /// Value-neutral by the exact_eval memo contract.
  int import_memo(const MemoSnapshot& in);

  /// exact_eval cache counters since construction.
  std::int64_t exact_cache_hits() const { return cache_hits_; }
  std::int64_t exact_cache_misses() const { return cache_misses_; }
  double exact_cache_hit_rate() const {
    return obs::safe_ratio(cache_hits_, cache_hits_ + cache_misses_);
  }

  /// Pushes the delta of hit/miss counts since the last flush into the
  /// global registry (ndr.exact_cache.{hits,misses}). exact_eval itself
  /// stays registry-free — it is the hottest path in the search — so the
  /// counts reach the registry in batches: rebuild(), the destructor, and
  /// flow ends all flush. Idempotent between new evals.
  void flush_metrics() const;

  ~AssignmentState() { flush_metrics(); }

  const netlist::ClockTree& tree() const { return *tree_; }
  const netlist::Design& design() const { return *design_; }
  const tech::Technology& tech() const { return *tech_; }
  const netlist::NetList& nets() const { return *nets_; }
  const timing::AnalysisOptions& analysis() const { return analysis_; }

  /// Design sinks downstream of a net / nets on a sink's source path
  /// (leaf net first, root net last; shared by every sink of a leaf net).
  const std::vector<int>& sinks_under(int net_id) const {
    return sinks_under_[net_id];
  }
  const std::vector<int>& nets_on_path(int sink) const {
    return leaf_chain_[leaf_of_sink_[sink]];
  }
  const std::vector<geom::Path>& net_paths(int net_id) const {
    return nets_state_[net_id].paths;
  }

  // Accumulator accessors (tests pin these against a fresh rebuild()).
  double sink_latency(int sink) const { return sink_latency_[sink]; }
  double sink_var(int sink) const { return leaf_var_[leaf_of_sink_[sink]]; }
  double sink_xtalk(int sink) const {
    return leaf_xtalk_[leaf_of_sink_[sink]];
  }
  double latency_sum() const { return latency_sum_; }
  const netlist::RoutingUsage& usage() const { return usage_; }
  double net_sigma(int net_id) const { return nets_state_[net_id].sigma; }
  double net_xtalk_of(int net_id) const { return nets_state_[net_id].xtalk; }
  double net_wire_delay(int net_id) const {
    return nets_state_[net_id].wire_delay;
  }

 private:
  /// Re-folds leaf `k`'s variance / crosstalk from the current per-net
  /// sigma and xtalk, in chain order (rebuild() and apply_move() share it).
  void fold_leaf(int k);

  /// Fills the whole memo row of every net in `ids` (same-shaped nets) with
  /// one batched kernel call: EM domain scale and context stamp applied,
  /// the per-thread arena shrunk to a geometry budget. exact_eval's miss
  /// path and warm_rows share it; callers count the misses.
  void fill_rows(std::span<const int> ids) const;

  struct NetState {
    NetSummary summary;
    double cap = 0.0;
    double sigma = 0.0;
    double xtalk = 0.0;
    double wire_delay = 0.0;
    double base_slew = 0.0;
    std::vector<geom::Path> paths;
  };

  const netlist::ClockTree* tree_;
  const netlist::Design* design_;
  const tech::Technology* tech_;
  const netlist::NetList* nets_;
  timing::AnalysisOptions analysis_;
  /// Owned when built here, null when borrowing; `geometry_` always points
  /// at the cache in use.
  std::unique_ptr<extract::GeometryCache> geometry_own_;
  const extract::GeometryCache* geometry_ = nullptr;
  timing::DeltaTimer delta_;  ///< incremental arrival/slew mirror.
  extract::NetShapeBuckets shape_buckets_;
  extract::NetParasitics move_par_;  ///< warm scratch for apply_move.

  /// Memo slot for exact_eval; valid iff gen == ctx_gen_[net] (gen 0 is
  /// never valid: context stamps start at 1 and only grow).
  struct ExactCacheEntry {
    std::uint64_t gen = 0;
    NetExact exact;
  };

  RuleAssignment assignment_;
  std::vector<NetState> nets_state_;
  int n_rules_ = 0;
  mutable std::vector<ExactCacheEntry> exact_cache_;  ///< [net][rule] flat.
  std::vector<std::uint64_t> ctx_gen_;  ///< per-net exact-eval context stamp.
  mutable std::int64_t cache_hits_ = 0;
  mutable std::int64_t cache_misses_ = 0;
  mutable std::int64_t flushed_hits_ = 0;    ///< already in the registry.
  mutable std::int64_t flushed_misses_ = 0;
  std::vector<std::vector<int>> sinks_under_;
  /// Leaf nets (nets driving at least one sink), indexed 0..n_leaves-1 in
  /// order of their first sink node: each sink's leaf, each leaf's chain
  /// of nets on its source path, and the leaves whose chain holds a net.
  std::vector<int> leaf_of_sink_;
  std::vector<std::vector<int>> leaf_chain_;
  std::vector<std::vector<int>> leaves_under_;
  std::vector<double> leaf_var_;    ///< sum of sigma^2 along the chain.
  std::vector<double> leaf_xtalk_;  ///< sum of xtalk along the chain.
  std::vector<double> sink_latency_;
  std::vector<double> win_lo_;  ///< raw windows (no margin).
  std::vector<double> win_hi_;
  /// Per-net clock-domain rate factors (clock_domains.hpp), all exactly
  /// 1.0 when domains are disabled: `net_weight_` scales switched cap in
  /// the search energy; `net_em_scale_` post-scales every EM density the
  /// exact evaluators produce (applied at memo-fill time so cached rows,
  /// check_move bounds, and analyze_em agree bitwise).
  std::vector<double> net_weight_;
  std::vector<double> net_em_scale_;
  /// Sum of sink latencies: exact in `latency_acc_`, rounded once into
  /// `latency_sum_` (what check_move reads).
  ExactSum latency_acc_;
  double latency_sum_ = 0.0;
  netlist::RoutingUsage usage_;
};

}  // namespace sndr::ndr
