#include "netlist/congestion.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sndr::netlist {

namespace {

/// a += b on usage quanta; throws instead of overflowing.
void add_quanta(std::int64_t& a, std::int64_t b) {
  if (__builtin_add_overflow(a, b, &a)) {
    throw std::overflow_error("routing usage out of fixed-point range");
  }
}

}  // namespace

CongestionMap::CongestionMap(geom::BBox area, int nx, int ny, double occupancy,
                             double capacity_per_cell)
    : area_(area), nx_(nx), ny_(ny) {
  if (nx <= 0 || ny <= 0) {
    throw std::invalid_argument("CongestionMap: grid must be positive");
  }
  if (area.empty()) {
    throw std::invalid_argument("CongestionMap: empty area");
  }
  occupancy_.assign(static_cast<std::size_t>(nx) * ny,
                    std::clamp(occupancy, 0.0, 1.0));
  capacity_.assign(static_cast<std::size_t>(nx) * ny, capacity_per_cell);
}

CongestionMap CongestionMap::uniform(geom::BBox area, int nx, int ny,
                                     double occupancy, double default_pitch_um,
                                     double clock_track_fraction) {
  const double cell_area = (area.width() / nx) * (area.height() / ny);
  const double capacity =
      cell_area / default_pitch_um * clock_track_fraction;
  return CongestionMap(area, nx, ny, occupancy, capacity);
}

int CongestionMap::cell_index(geom::Point p) const {
  const double fx = (p.x - area_.lo().x) / std::max(area_.width(), 1e-12);
  const double fy = (p.y - area_.lo().y) / std::max(area_.height(), 1e-12);
  const int ix = std::clamp(static_cast<int>(fx * nx_), 0, nx_ - 1);
  const int iy = std::clamp(static_cast<int>(fy * ny_), 0, ny_ - 1);
  return iy * nx_ + ix;
}

geom::BBox CongestionMap::cell_box(int idx) const {
  const int ix = idx % nx_;
  const int iy = idx / nx_;
  const double w = area_.width() / nx_;
  const double h = area_.height() / ny_;
  const double x0 = area_.lo().x + ix * w;
  const double y0 = area_.lo().y + iy * h;
  return geom::BBox(x0, y0, x0 + w, y0 + h);
}

double CongestionMap::occupancy_at(geom::Point p) const {
  return occupancy_[cell_index(p)];
}

double CongestionMap::avg_occupancy(const geom::Path& path) const {
  double len = 0.0;
  double weighted = 0.0;
  for_each_cell(path, [&](int idx, double l) {
    len += l;
    weighted += l * occupancy_[idx];
  });
  if (len <= 0.0) {
    return path.empty() ? occupancy_[0] : occupancy_at(path.front());
  }
  return weighted / len;
}

void RoutingUsage::add(const geom::Path& path, double pitch_mult) {
  if (map_ == nullptr || !map_->valid()) return;
  map_->for_each_cell(path, [&](int idx, double len) {
    add_quanta(used_[idx], usage_quanta(pitch_mult, len));
  });
}

void RoutingUsage::move(const geom::Path& path, double old_pitch,
                        double new_pitch) {
  if (map_ == nullptr || !map_->valid()) return;
  map_->for_each_cell(path, [&](int idx, double len) {
    add_quanta(used_[idx],
               usage_quanta(new_pitch, len) - usage_quanta(old_pitch, len));
  });
}

double RoutingUsage::max_utilization() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    const double cap = map_->capacity_cell(static_cast<int>(i));
    if (cap > 0.0) worst = std::max(worst, used_cell(static_cast<int>(i)) / cap);
  }
  return worst;
}

int RoutingUsage::overflow_cells() const {
  int n = 0;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    const int idx = static_cast<int>(i);
    if (used_cell(idx) > map_->capacity_cell(idx)) ++n;
  }
  return n;
}

bool RoutingUsage::fits(const std::vector<geom::Path>& paths,
                        double old_pitch, double new_pitch) const {
  if (map_ == nullptr || !map_->valid()) return true;
  // The change per crossed cell is summed before comparing: one cell can
  // take several sub-steps, of one path or of several wires of the net.
  // Integer sums make the order irrelevant, so sort-and-merge suffices.
  thread_local std::vector<std::pair<int, std::int64_t>> delta;
  delta.clear();
  for (const geom::Path& path : paths) {
    map_->for_each_cell(path, [&](int idx, double len) {
      const std::int64_t d =
          usage_quanta(new_pitch, len) - usage_quanta(old_pitch, len);
      if (!delta.empty() && delta.back().first == idx) {
        add_quanta(delta.back().second, d);
      } else {
        delta.emplace_back(idx, d);
      }
    });
  }
  std::sort(delta.begin(), delta.end());
  for (std::size_t i = 0; i < delta.size();) {
    const int idx = delta[i].first;
    std::int64_t after = used_[idx];
    for (; i < delta.size() && delta[i].first == idx; ++i) {
      add_quanta(after, delta[i].second);
    }
    if (static_cast<double>(after) * kUsageQuantum >
        map_->capacity_cell(idx)) {
      return false;
    }
  }
  return true;
}

}  // namespace sndr::netlist
