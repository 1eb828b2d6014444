// Closed-form interconnect delay and slew metrics on RC-tree moments.
//
// The library times clock nets with moment-based metrics: Elmore (m1) for
// sensitivity-friendly pessimistic delay, D2M for calibrated latency, and a
// two-moment Gaussian slew metric combined through PERI across stages.
// For a single-pole response all three are exact, and on RC trees they
// preserve the monotonicities the NDR optimizer depends on.
#pragma once

#include <cmath>

namespace sndr::timing {

// Moment conventions: m1 is the Elmore delay (first time moment of the
// impulse response); m2 here is the *circuit* second moment
//   m2 = sum_k R_shared(i,k) * C_k * m1_k
// (the s^2 coefficient magnitude of the transfer function), which is what
// RcTree::moments computes as m2. The second *time* moment of the impulse
// response is 2*m2; for a single pole with time constant tau: m1 = tau,
// m2 = tau^2.

/// 50% delay from the first moment (classic Elmore, pessimistic).
inline double delay_elmore(double m1) { return m1; }

/// D2M metric of Alpert et al.: ln2 * m1^2 / sqrt(m2). Exact for a single
/// pole (ln2 * tau); near-exact for typical on-chip RC trees; never exceeds
/// Elmore in practice.
inline double delay_d2m(double m1, double m2) {
  if (m2 <= 0.0) return 0.0;
  return 0.6931471805599453 * m1 * m1 / std::sqrt(m2);
}

/// 10-90% transition time of the step response from two moments: the
/// impulse response is matched to a distribution with variance
/// (2*m2 - m1^2); ln9 * sqrt(variance) is exact for one pole (ln9 * tau).
inline double step_slew(double m1, double m2) {
  const double var = 2.0 * m2 - m1 * m1;
  return var <= 0.0 ? 0.0 : 2.197224577336220 * std::sqrt(var);
}

/// PERI (Kashyap et al.): combine the input transition with the stage's own
/// step-response transition.
inline double peri_slew(double slew_in, double slew_step) {
  return std::sqrt(slew_in * slew_in + slew_step * slew_step);
}

}  // namespace sndr::timing
