#include "io/design_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "io/line_reader.hpp"
#include "tech/units.hpp"

namespace sndr::io {

void write_design(std::ostream& os, const netlist::Design& design) {
  os << std::setprecision(10);
  os << "design " << design.name << "\n";
  os << "core " << design.core.lo().x << ' ' << design.core.lo().y << ' '
     << design.core.hi().x << ' ' << design.core.hi().y << "\n";
  os << "clock_root " << design.clock_root.x << ' ' << design.clock_root.y
     << "\n";
  const netlist::ClockConstraints& c = design.constraints;
  os << "clock_freq_ghz " << c.clock_freq / units::GHz << "\n";
  os << "max_slew_ps " << units::to_ps(c.max_slew) << "\n";
  os << "max_skew_ps " << units::to_ps(c.max_skew) << "\n";
  os << "max_uncertainty_ps " << units::to_ps(c.max_uncertainty) << "\n";
  if (design.congestion.valid()) {
    const netlist::CongestionMap& m = design.congestion;
    os << "congestion " << m.nx() << ' ' << m.ny() << " 0 "
       << m.capacity_cell(0) << "\n";
    for (int i = 0; i < m.cell_count(); ++i) {
      os << "occupancy_cell " << i << ' ' << m.occupancy_cell(i) << "\n";
    }
  }
  for (const netlist::Sink& s : design.sinks) {
    os << "sink " << s.name << ' ' << s.loc.x << ' ' << s.loc.y << ' '
       << units::to_fF(s.pin_cap) << "\n";
  }
  if (design.useful_skew.enabled()) {
    for (std::size_t i = 0; i < design.useful_skew.lo.size(); ++i) {
      os << "window " << i << ' '
         << units::to_ps(design.useful_skew.lo[i]) << ' '
         << units::to_ps(design.useful_skew.hi[i]) << "\n";
    }
  }
}

void write_design_file(const std::string& path,
                       const netlist::Design& design) {
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("write_design_file: cannot open " + path);
  }
  write_design(f, design);
}

namespace {

[[noreturn]] void design_error(const std::string& source, int line_no,
                               const std::string& what) {
  throw common::ParseError(source + ":" + std::to_string(line_no) + ": " +
                           what);
}

/// Reads one number that is a physical value: nan and inf are rejected
/// like a malformed token, so no non-finite value reaches the flow.
bool next_finite(Tokenizer& ls, double& out) {
  return ls.next_double(out) && std::isfinite(out);
}

/// Reads a constraint that must be a finite, strictly positive number.
double positive_constraint(Tokenizer& ls, const std::string& source,
                           int line_no, std::string_view key) {
  double v = 0.0;
  if (!next_finite(ls, v) || v <= 0.0) {
    design_error(source, line_no,
                 "bad " + std::string(key) +
                     " (want a finite number > 0)");
  }
  return v;
}

/// The one design parser: both the istream entry point and the chunked
/// file path feed it lines, so diagnostics and semantics cannot diverge.
netlist::Design read_design_lines(LineSource& src, const std::string& source) {
  netlist::Design d;
  bool have_core = false;
  int cong_nx = 0;
  int cong_ny = 0;
  double cong_occ = 0.0;
  double cong_cap = 0.0;
  std::vector<std::pair<int, double>> occ_cells;
  std::vector<std::tuple<int, double, double>> windows;

  std::string_view line;
  int line_no = 0;
  while (src.next(line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    Tokenizer ls(line);
    std::string_view key;
    if (!ls.next(key)) continue;

    if (key == "design") {
      std::string_view name;
      if (ls.next(name)) d.name = std::string(name);
    } else if (key == "core") {
      double x0, y0, x1, y1;
      if (!next_finite(ls, x0) || !next_finite(ls, y0) ||
          !next_finite(ls, x1) || !next_finite(ls, y1)) {
        design_error(source, line_no, "bad core");
      }
      d.core = geom::BBox(x0, y0, x1, y1);
      have_core = true;
    } else if (key == "clock_root") {
      if (!next_finite(ls, d.clock_root.x) ||
          !next_finite(ls, d.clock_root.y)) {
        design_error(source, line_no, "bad clock_root");
      }
    } else if (key == "clock_freq_ghz") {
      d.constraints.clock_freq =
          positive_constraint(ls, source, line_no, key) * units::GHz;
    } else if (key == "max_slew_ps") {
      d.constraints.max_slew =
          positive_constraint(ls, source, line_no, key) * units::ps;
    } else if (key == "max_skew_ps") {
      d.constraints.max_skew =
          positive_constraint(ls, source, line_no, key) * units::ps;
    } else if (key == "max_uncertainty_ps") {
      d.constraints.max_uncertainty =
          positive_constraint(ls, source, line_no, key) * units::ps;
    } else if (key == "congestion") {
      if (!ls.next_int(cong_nx) || !ls.next_int(cong_ny) ||
          !next_finite(ls, cong_occ) || !next_finite(ls, cong_cap)) {
        design_error(source, line_no, "bad congestion");
      }
    } else if (key == "occupancy_cell") {
      int idx;
      double v;
      if (!ls.next_int(idx) || !next_finite(ls, v)) {
        design_error(source, line_no, "bad occupancy_cell");
      }
      occ_cells.emplace_back(idx, v);
    } else if (key == "sink") {
      netlist::Sink s;
      std::string_view name;
      double cap_ff;
      if (!ls.next(name) || !next_finite(ls, s.loc.x) ||
          !next_finite(ls, s.loc.y) || !next_finite(ls, cap_ff)) {
        design_error(source, line_no, "bad sink");
      }
      if (cap_ff < 0.0) {
        design_error(source, line_no,
                     "bad sink (negative pin cap " + std::to_string(cap_ff) +
                         " fF)");
      }
      s.name = std::string(name);
      s.pin_cap = cap_ff * units::fF;
      d.sinks.push_back(std::move(s));
    } else if (key == "window") {
      int idx;
      double lo, hi;
      if (!ls.next_int(idx) || !next_finite(ls, lo) || !next_finite(ls, hi)) {
        design_error(source, line_no, "bad window");
      }
      windows.emplace_back(idx, lo * units::ps, hi * units::ps);
    } else {
      design_error(source, line_no,
                   "unknown key '" + std::string(key) + "'");
    }
  }

  if (!have_core) {
    // Derive a core from the sink bounding box with a small margin.
    geom::BBox box;
    for (const netlist::Sink& s : d.sinks) box.extend(s.loc);
    box.extend(d.clock_root);
    box.inflate(1.0);
    d.core = box;
  }
  if (cong_nx > 0 && cong_ny > 0) {
    d.congestion =
        netlist::CongestionMap(d.core, cong_nx, cong_ny, cong_occ, cong_cap);
    for (const auto& [idx, v] : occ_cells) {
      if (idx < 0 || idx >= d.congestion.cell_count()) {
        throw common::ParseError(source +
                                 ": occupancy_cell index out of range");
      }
      d.congestion.set_occupancy_cell(idx, v);
    }
  }
  if (!windows.empty()) {
    d.useful_skew.lo.assign(d.sinks.size(), -d.constraints.max_skew / 2);
    d.useful_skew.hi.assign(d.sinks.size(), d.constraints.max_skew / 2);
    for (const auto& [idx, lo, hi] : windows) {
      if (idx < 0 || idx >= static_cast<int>(d.sinks.size())) {
        throw common::ParseError(source + ": window index out of range");
      }
      d.useful_skew.lo[idx] = lo;
      d.useful_skew.hi[idx] = hi;
    }
  }
  return d;
}

}  // namespace

netlist::Design read_design(std::istream& is, const std::string& source) {
  IstreamLineSource src(is);
  return read_design_lines(src, source);
}

netlist::Design read_design_file(const std::string& path) {
  LineReader src(path);
  if (!src.ok()) {
    throw std::runtime_error("read_design_file: cannot open " + path);
  }
  return read_design_lines(src, path);
}

common::Result<netlist::Design> load_design_file(const std::string& path) {
  // Chunked reader: the file streams through a fixed buffer instead of an
  // ifstream + per-line istringstream, so ingest memory is independent of
  // the design size.
  LineReader src(path);
  if (!src.ok()) {
    return common::Status::NotFound("cannot open design file " + path);
  }
  try {
    return read_design_lines(src, path);
  } catch (...) {
    return common::classify_exception(common::StatusCode::kIoError);
  }
}

}  // namespace sndr::io
