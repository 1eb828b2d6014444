#include "extract/rc_tree.hpp"

#include <stdexcept>

namespace sndr::extract {

int RcTree::add_node(int parent, double res, double cap_gnd, double cap_cpl) {
  if (parent < 0 || parent >= size()) {
    throw std::logic_error("RcTree::add_node: invalid parent");
  }
  RcNode n;
  n.parent = parent;
  n.res = res;
  n.cap_gnd = cap_gnd;
  n.cap_cpl = cap_cpl;
  nodes_.push_back(n);
  return size() - 1;
}

void RcTree::reset(int size) {
  if (size < 1) {
    throw std::logic_error("RcTree::reset: tree needs at least the driver");
  }
  nodes_.assign(static_cast<std::size_t>(size), RcNode{});
}

double RcTree::total_cap_gnd() const {
  double c = 0.0;
  for (const RcNode& n : nodes_) c += n.cap_gnd;
  return c;
}

double RcTree::total_cap_cpl() const {
  double c = 0.0;
  for (const RcNode& n : nodes_) c += n.cap_cpl;
  return c;
}

void rc_downstream(const RcNode* nodes, int n, double miller, double* down) {
  for (int i = 0; i < n; ++i) down[i] = 0.0;
  for (int i = n - 1; i >= 0; --i) {
    down[i] += nodes[i].cap_total(miller);
    if (nodes[i].parent >= 0) down[nodes[i].parent] += down[i];
  }
}

void rc_elmore(const RcNode* nodes, int n, double driver_res, double miller,
               double* down, double* m1) {
  rc_downstream(nodes, n, miller, down);
  m1[0] = driver_res * down[0];
  for (int i = 1; i < n; ++i) {
    m1[i] = m1[nodes[i].parent] + nodes[i].res * down[i];
  }
}

void rc_moments(const RcNode* nodes, int n, double driver_res, double miller,
                double* down, double* subtree, double* m1, double* m2) {
  // Descending sweep: downstream cap, and the relative cap-weighted delay
  //   T_i = sum_{k in sub(i)} C_k * (m1_k - m1_i).
  // Moving the reference from child c up to its parent p adds R_c * down_c
  // to every delay in sub(c), hence T contributions merge as
  //   T_p += T_c + R_c * down_c^2.
  for (int i = 0; i < n; ++i) {
    down[i] = 0.0;
    subtree[i] = 0.0;
  }
  for (int i = n - 1; i >= 0; --i) {
    down[i] += nodes[i].cap_total(miller);
    const int p = nodes[i].parent;
    if (p >= 0) {
      down[p] += down[i];
      subtree[p] += subtree[i] + nodes[i].res * down[i] * down[i];
    }
  }
  // Ascending sweep: m1 by prefix-summing R*down, and m2 by prefix-summing
  // R_i * W_i where W_i = sum_{k in sub(i)} C_k m1_k = T_i + m1_i * down_i.
  m1[0] = driver_res * down[0];
  m2[0] = driver_res * (subtree[0] + m1[0] * down[0]);
  for (int i = 1; i < n; ++i) {
    const int p = nodes[i].parent;
    m1[i] = m1[p] + nodes[i].res * down[i];
    m2[i] = m2[p] + nodes[i].res * (subtree[i] + m1[i] * down[i]);
  }
}

void RcTree::moments(double driver_res, double miller, RcMoments& out) const {
  const std::size_t n = nodes_.size();
  out.down.resize(n);
  out.m1.resize(n);
  out.m2.resize(n);
  out.subtree.resize(n);
  rc_moments(nodes_.data(), size(), driver_res, miller, out.down.data(),
             out.subtree.data(), out.m1.data(), out.m2.data());
}

}  // namespace sndr::extract
