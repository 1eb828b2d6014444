// Distributed RC tree of one extracted clock net.
//
// Node 0 is always the driver output. Every other node hangs off its parent
// through a resistance; capacitance is stored split into a grounded part
// (area + fringe + load pins) and a lateral coupling part, because the two
// are weighted differently by the consumers: timing applies a Miller factor
// to coupling for worst-case delay, power applies the average switching
// factor, and the variation analysis uses the raw coupling value.
#pragma once

#include <vector>

namespace sndr::extract {

struct RcNode {
  int parent = -1;
  double res = 0.0;      ///< ohm, resistance from parent to this node.
  double cap_gnd = 0.0;  ///< F, grounded capacitance lumped here.
  double cap_cpl = 0.0;  ///< F, lateral coupling capacitance lumped here.

  // Provenance (diagnostics, EM, crosstalk).
  int tree_node = -1;  ///< ClockTree node this rc node coincides with, or -1.
  double wire_len = 0.0;   ///< um of wire represented by the parent edge.
  double occupancy = 0.0;  ///< neighbor occupancy of that wire piece.

  double cap_total(double miller) const { return cap_gnd + miller * cap_cpl; }
};

/// Reusable scratch + results of the fused moment kernel. Vectors are
/// resized to the tree on every call; capacity persists across calls, so a
/// long-lived instance makes repeated moment evaluation allocation-free.
struct RcMoments {
  std::vector<double> down;  ///< downstream cap (Miller-weighted).
  std::vector<double> m1;    ///< Elmore delay per node.
  std::vector<double> m2;    ///< circuit second moment per node.
  /// Internal accumulator of the fused kernel: per-subtree cap-weighted
  /// delay relative to the subtree root, T_i = sum_{k in sub(i)} C_k *
  /// (m1_k - m1_i). Exposed only so the buffer can be reused.
  std::vector<double> subtree;
};

// Array-form kernels shared by RcTree and the variation analysis (which
// evaluates the same recurrences on perturbed copies of the node array).
// `nodes` must be topologically ordered (parent index < child index), which
// RcTree guarantees by construction. All output arrays hold `n` doubles.

/// One descending sweep: down[i] = Miller-weighted cap downstream of (and
/// including) node i.
void rc_downstream(const RcNode* nodes, int n, double miller, double* down);

/// Two sweeps: downstream cap + Elmore delay (m1): delay[i] = Rdrv*Ctot +
/// sum_{edges e on path to i} R_e * Cdown(e).
void rc_elmore(const RcNode* nodes, int n, double driver_res, double miller,
               double* down, double* m1);

/// Fused moment kernel: ONE descending sweep (down + the subtree accumulator
/// T_i = sum_{k in sub(i)} C_k (m1_k - m1_i), via T_p += T_i + R_i*down_i^2)
/// and ONE ascending sweep (m1 and m2 together, m2_i = m2_p +
/// R_i * (T_i + m1_i * down_i)). down/m1 are bit-identical to the separate
/// kernels; m2 is algebraically identical but associates differently than
/// the historical three-pass algorithm.
void rc_moments(const RcNode* nodes, int n, double driver_res, double miller,
                double* down, double* subtree, double* m1, double* m2);

class RcTree {
 public:
  RcTree() { nodes_.emplace_back(); }

  /// Adds a node under `parent`; returns its index.
  int add_node(int parent, double res, double cap_gnd, double cap_cpl);

  int size() const { return static_cast<int>(nodes_.size()); }
  RcNode& node(int i) { return nodes_.at(i); }
  const RcNode& node(int i) const { return nodes_.at(i); }

  double total_cap_gnd() const;
  double total_cap_cpl() const;

  /// Fused kernel: downstream cap (Miller-weighted on coupling; down[0] is
  /// the total net cap the driver sees), Elmore delay m1 from the driver
  /// output given the driver's linearized output resistance, and the
  /// circuit second moment m2 (the magnitude of the s^2 transfer-function
  /// coefficient; the second *time* moment is 2*m2) for every node, in two
  /// sweeps total, written into caller-provided scratch (no allocation
  /// after the scratch has warmed up).
  void moments(double driver_res, double miller, RcMoments& out) const;

  /// Clears the tree to `size` >= 1 default nodes (node 0 the driver) so a
  /// caller can bulk-fill it in place, reusing any existing capacity.
  void reset(int size);

  /// Nodes are appended parent-first, so index order is topological.
  const std::vector<RcNode>& nodes() const { return nodes_; }
  RcNode* data() { return nodes_.data(); }
  const RcNode* data() const { return nodes_.data(); }

 private:
  std::vector<RcNode> nodes_;
};

}  // namespace sndr::extract
