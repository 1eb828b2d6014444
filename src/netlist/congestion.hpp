// Routing-congestion context for the clock layer.
//
// The map discretizes the core into a uniform grid. Each cell carries:
//
//  * `occupancy`  — probability in [0,1] that a track adjacent to a clock
//    wire in this cell is occupied by a (toggling) signal wire. This scales
//    the realized coupling capacitance and the crosstalk exposure of clock
//    wires crossing the cell: wider NDR spacing only pays off where
//    occupancy is high.
//  * `capacity`   — routing resource available to the clock network in the
//    cell, expressed in default-pitch track-um. A clock wire consumes
//    `pitch_mult(rule) * length` of it; the NDR optimizer must respect the
//    per-cell budget (this is why "just route everything at triple spacing"
//    is not free even though it lowers capacitance).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "geom/rect.hpp"
#include "geom/segment.hpp"

namespace sndr::netlist {

class CongestionMap {
 public:
  /// A 1x1 map with the given uniform occupancy and unlimited capacity.
  CongestionMap() = default;

  CongestionMap(geom::BBox area, int nx, int ny, double occupancy,
                double capacity_per_cell);

  /// Uniform occupancy, capacity derived from cell geometry: each cell gets
  /// `clock_track_fraction` of its total track length (cell area divided by
  /// the default routing pitch).
  static CongestionMap uniform(geom::BBox area, int nx, int ny,
                               double occupancy, double default_pitch_um,
                               double clock_track_fraction);

  bool valid() const { return nx_ > 0 && ny_ > 0; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  const geom::BBox& area() const { return area_; }
  int cell_count() const { return nx_ * ny_; }

  int cell_index(geom::Point p) const;
  geom::BBox cell_box(int idx) const;

  double occupancy_cell(int idx) const { return occupancy_.at(idx); }
  double capacity_cell(int idx) const { return capacity_.at(idx); }
  void set_occupancy_cell(int idx, double v) { occupancy_.at(idx) = v; }
  void set_capacity_cell(int idx, double v) { capacity_.at(idx) = v; }

  double occupancy_at(geom::Point p) const;

  /// Length-weighted mean occupancy along a rectilinear path.
  double avg_occupancy(const geom::Path& path) const;

  /// Calls fn(cell_index, length_um) for every (cell, in-cell length) pair a
  /// rectilinear path crosses. Lengths sum to the path length.
  /// Each segment is walked in sub-steps no longer than half a cell
  /// dimension; a sub-step's length goes to the cell of its midpoint (exact
  /// for axis-parallel segments up to the step quantization).
  template <typename Fn>
  void for_each_cell(const geom::Path& path, Fn&& fn) const {
    const double cw = area_.width() / nx_;
    const double ch = area_.height() / ny_;
    geom::for_each_segment(path, [&](const geom::Segment& seg) {
      const double len = seg.length();
      if (len <= 0.0) return;
      const double step_limit = 0.5 * (seg.horizontal() ? cw : ch);
      const int steps = std::max(
          1, static_cast<int>(std::ceil(len / std::max(step_limit, 1e-9))));
      const double dl = len / steps;
      for (int i = 0; i < steps; ++i) {
        const double t = (i + 0.5) / steps;
        fn(cell_index(geom::lerp(seg.a, seg.b, t)), dl);
      }
    });
  }

 private:
  geom::BBox area_ = geom::BBox{0, 0, 1, 1};
  int nx_ = 1;
  int ny_ = 1;
  std::vector<double> occupancy_{0.3};
  std::vector<double> capacity_{1e18};
};

/// Routing usage is integer fixed point: one quantum is 2^-24 track-um
/// (about 6e-8 um), and a cell holds up to 2^39 track-um. Integer sums are
/// exact and order-free, so usage maintained by any sequence of add/remove
/// equals a fresh whole-tree sum bit for bit. Usage beyond the range (only
/// absurd geometry gets there) throws std::overflow_error, never wraps.
inline constexpr double kUsageQuantum = 0x1p-24;

/// The one quantizer: the usage, in quanta, of one for_each_cell sub-step
/// of `len` um routed at `pitch_mult` default pitches. Every add, remove and
/// fits test goes through it, so they agree on each sub-step's share.
inline std::int64_t usage_quanta(double pitch_mult, double len) {
  const double q = pitch_mult * len / kUsageQuantum;
  if (!(std::abs(q) < 0x1p62)) {
    throw std::overflow_error("routing usage sub-step out of range");
  }
  return std::llround(q);
}

/// Tracks per-cell clock routing usage against a CongestionMap's capacity.
class RoutingUsage {
 public:
  explicit RoutingUsage(const CongestionMap* map)
      : map_(map), used_(map ? map->cell_count() : 0, 0) {}

  /// Adds `pitch_mult * length` usage along path, sub-step by sub-step.
  void add(const geom::Path& path, double pitch_mult);

  /// Re-routes path from `old_pitch` to `new_pitch`: each sub-step's
  /// old-rule quanta come off and its new-rule quanta go on, so the result
  /// equals a fresh sum under the new pitch exactly.
  void move(const geom::Path& path, double old_pitch, double new_pitch);

  /// Cell usage in track-um (exact below 2^29 track-um, 2^53 quanta).
  double used_cell(int idx) const {
    return static_cast<double>(used_.at(idx)) * kUsageQuantum;
  }

  /// Raw per-cell usage in quanta (the bitwise-comparable form).
  const std::vector<std::int64_t>& quanta() const { return used_; }

  /// Worst cell utilization used/capacity over the map (0 if empty).
  double max_utilization() const;

  /// Number of cells whose usage exceeds capacity.
  int overflow_cells() const;

  /// True if moving every path of `paths` (one net's wires) from
  /// `old_pitch` to `new_pitch` would keep every cell they cross within
  /// capacity: the per-cell test sees exactly the usage move() would leave,
  /// all of the net's sub-steps in a cell counted together.
  bool fits(const std::vector<geom::Path>& paths, double old_pitch,
            double new_pitch) const;

 private:
  const CongestionMap* map_ = nullptr;
  std::vector<std::int64_t> used_;
};

}  // namespace sndr::netlist
