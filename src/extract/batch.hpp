// Lane-batched electrical phase of two-phase extraction.
//
// One kernel family serves every batched caller. A lane is a (net
// geometry, technology, rule) triple, and all lanes of one call share the
// same geometry SHAPE (piece topology and load attach indices), so the
// kernels walk the shared piece topology once with the lane loop
// innermost:
//
//  * the rule sweep of one net is a one-net batch (one lane per rule);
//  * the memo warm-up and predictor labelling batch several same-shaped
//    nets × every rule (see bucket_nets_by_shape);
//  * corner signoff is a batch whose lanes all point at one geometry,
//    one derated technology clone per lane.
//
// Planes are laid out node-major × lane-minor (plane[node * lanes + lane]),
// so the inner loop is a unit-stride streak the compiler auto-vectorizes.
//
// Determinism contract (non-negotiable): for every lane, the sequence of
// floating-point operations applied to that lane's values is EXACTLY the
// scalar kernel's sequence — the batch only interleaves independent lanes,
// it never reassociates within one. Batched results are therefore
// bit-identical to running materialize() / rc_moments() per lane, which
// remain the reference implementation. tests/batch_kernel_test.cpp and
// tests/net_batch_test.cpp pin this per (net, rule, corner).
//
// All scratch comes from a caller-provided common::Arena: plane pointers
// returned here are valid until the arena is reset (typically once per
// batch), so a warm per-thread arena makes the whole batched evaluation
// allocation-free.
#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "extract/net_geometry.hpp"

namespace sndr::extract {

/// Per-lane R/C planes of one batch, node-major × lane-minor. Node 0 is the
/// driver (res row zero), node i+1 corresponds to geometry piece i — the
/// same indexing as the scalar RcTree. Plane storage lives in the arena
/// passed to materialize_nets_batch; the struct itself is just the view.
struct BatchParasitics {
  int nodes = 0;
  int lanes = 0;

  // [nodes × lanes] planes.
  double* res = nullptr;
  double* cap_gnd = nullptr;
  double* cap_cpl = nullptr;

  /// [nodes] shared topology (an arena copy, so kernels never touch the
  /// NetGeometry vectors); -1 for node 0.
  const std::int32_t* parent = nullptr;

  /// [nodes × lanes] um of each lane's parent edge, 0 at node 0. Lanes may
  /// be different nets, so lengths are per lane.
  const double* wire_len_lane = nullptr;

  // [lanes] totals, same accumulation order as the scalar materialize.
  double* wire_cap_gnd = nullptr;
  double* wire_cap_cpl = nullptr;
  double* load_cap = nullptr;

  std::int64_t at(int node, int lane) const {
    return static_cast<std::int64_t>(node) * lanes + lane;
  }
};

/// Copies one lane out into scalar NetParasitics (bit-identical to a scalar
/// materialize of that lane's context); `geom` is that lane's geometry.
/// Used by corner analysis to feed the per-corner whole-tree evaluators
/// from the shared batch planes.
void scatter_lane(const NetGeometry& geom, const BatchParasitics& batch,
                  int lane, NetParasitics& out);

/// One lane of a batched evaluation: a (net geometry, electrical context)
/// triple. All lanes of one call must share the same geometry SHAPE —
/// identical piece_parent arrays and identical load rc_index arrays (see
/// bucket_nets_by_shape) — so the RC kernels can run off one shared parent
/// array while piece lengths, occupancies, and load caps stay per lane.
/// Lanes of one net (a rule sweep, or derated corner clones) are trivially
/// same-shaped.
struct NetLane {
  const NetGeometry* geom = nullptr;
  const tech::Technology* tech = nullptr;
  const tech::RoutingRule* rule = nullptr;
};

/// Electrical phase for all lanes: one pass over the shared piece topology
/// with the lane loop innermost, per lane bit-identical to materialize(
/// *lanes[l].geom, *lanes[l].tech, *lanes[l].rule, out). Plane storage is
/// carved from `arena` (which must outlive the use of `out`; nothing is
/// reset here). All lanes must be shape-compatible (asserted in debug
/// builds).
void materialize_nets_batch(const NetLane* lanes, int n_lanes,
                            common::Arena& arena, BatchParasitics& out);

/// Partition of a net list into same-shape groups: `groups[g]` lists the
/// net ids whose geometries share piece topology and load attach indices
/// (first-seen order, both across and within groups), `group_of[net]` is
/// the owning group. Nets in one group can ride one cross-net batch.
struct NetShapeBuckets {
  std::vector<std::vector<int>> groups;
  std::vector<int> group_of;
};

/// Buckets every net of `cache` by geometry shape signature (piece count,
/// piece_parent array, loads' rc_index array — exact equality). Symmetric
/// clock trees collapse into a handful of buckets; degenerate shapes fall
/// into singleton groups and simply run with one lane.
NetShapeBuckets bucket_nets_by_shape(const GeometryCache& cache);

/// Deterministic cross-net batch plan: groups `net_ids` by shape bucket
/// (bucket order, then input order within a bucket) and chunks each group
/// so one kernel call carries ~32 lanes (nets × `rules_per_net`). Entries
/// of the result are POSITIONS into `net_ids`. The plan depends only on
/// its inputs, never on the thread count.
std::vector<std::vector<int>> plan_net_batches(const NetShapeBuckets& buckets,
                                               const std::vector<int>& net_ids,
                                               int rules_per_net);

// Low-level plane kernels. `parent` is the per-node parent array
// (parent[0] == -1) and all planes are node-major × lane-minor with the
// given lane count. `miller` and `driver_res` are per-lane. Each is the
// lane-interleaved replay of the like-named scalar kernel in rc_tree.hpp:
// one descending / ascending sweep with the lane loop innermost.

/// down[i·L+l] = Miller-weighted cap downstream of (and including) node i.
void rc_downstream_batch(int nodes, int lanes, const std::int32_t* parent,
                         const double* cap_gnd, const double* cap_cpl,
                         const double* miller, double* down);

/// Downstream cap + Elmore delay (m1) for every lane.
void rc_elmore_batch(int nodes, int lanes, const std::int32_t* parent,
                     const double* res, const double* cap_gnd,
                     const double* cap_cpl, const double* driver_res,
                     const double* miller, double* down, double* m1);

/// Fused moment kernel for every lane: the scalar rc_moments two-sweep
/// schedule, lane-interleaved. All four output planes hold nodes × lanes.
void rc_moments_batch(int nodes, int lanes, const std::int32_t* parent,
                      const double* res, const double* cap_gnd,
                      const double* cap_cpl, const double* driver_res,
                      const double* miller, double* down, double* subtree,
                      double* m1, double* m2);

}  // namespace sndr::extract
