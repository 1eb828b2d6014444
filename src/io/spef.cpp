#include "io/spef.hpp"

#include <fstream>
#include <cmath>
#include <iomanip>
#include <stdexcept>
#include <string_view>

#include "io/line_reader.hpp"

namespace sndr::io {

namespace {

std::string pin_name(const netlist::ClockTree& tree, int node_id) {
  const netlist::TreeNode& n = tree.node(node_id);
  switch (n.kind) {
    case netlist::NodeKind::kSource:
      return "src:Z";
    case netlist::NodeKind::kBuffer:
      return "buf_" + std::to_string(node_id);  // port added by caller.
    case netlist::NodeKind::kSink:
      return "sink_" + std::to_string(n.sink) + ":CK";
    case netlist::NodeKind::kSteiner:
      break;
  }
  return "steiner_" + std::to_string(node_id);
}

std::string rc_node_name(int net_id, int rc_index) {
  return "clk_net_" + std::to_string(net_id) + ":" +
         std::to_string(rc_index);
}

}  // namespace

void write_spef(std::ostream& os, const netlist::ClockTree& tree,
                const netlist::Design& design,
                const netlist::NetList& nets,
                const std::vector<extract::NetParasitics>& parasitics,
                const SpefWriteOptions& options) {
  if (parasitics.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("write_spef: parasitics size mismatch");
  }
  os << "*SPEF \"IEEE 1481-1998\"\n";
  os << "*DESIGN \"" << design.name << "\"\n";
  os << "*DATE \"-\"\n";
  os << "*VENDOR \"sndr\"\n";
  os << "*PROGRAM \"" << options.program << "\"\n";
  os << "*VERSION \"" << options.version << "\"\n";
  os << "*DESIGN_FLOW \"COUPLING_AS_GROUND " << options.miller_power
     << "\"\n";
  os << "*DIVIDER /\n*DELIMITER :\n*BUS_DELIMITER [ ]\n";
  os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 HENRY\n\n";

  os << std::fixed << std::setprecision(6);
  for (const netlist::Net& net : nets.nets) {
    const extract::NetParasitics& par = parasitics[net.id];
    const double total_ff =
        par.switched_cap(options.miller_power) / 1e-15;
    os << "*D_NET clk_net_" << net.id << ' ' << total_ff << "\n";

    os << "*CONN\n";
    const netlist::TreeNode& drv = tree.node(net.driver);
    if (drv.kind == netlist::NodeKind::kSource) {
      os << "*P src:Z O\n";
    } else {
      os << "*I buf_" << net.driver << ":Z O\n";
    }
    for (const int load : net.loads) {
      const netlist::TreeNode& ln = tree.node(load);
      if (ln.kind == netlist::NodeKind::kBuffer) {
        os << "*I buf_" << load << ":A I\n";
      } else {
        os << "*I " << pin_name(tree, load) << " I\n";
      }
    }

    os << "*CAP\n";
    int idx = 1;
    for (int i = 0; i < par.rc.size(); ++i) {
      const extract::RcNode& n = par.rc.node(i);
      const double cap =
          n.cap_gnd + options.miller_power * n.cap_cpl;
      if (cap <= 0.0) continue;
      os << idx++ << ' ' << rc_node_name(net.id, i) << ' ' << cap / 1e-15
         << "\n";
    }

    os << "*RES\n";
    idx = 1;
    for (int i = 1; i < par.rc.size(); ++i) {
      const extract::RcNode& n = par.rc.node(i);
      os << idx++ << ' ' << rc_node_name(net.id, n.parent) << ' '
         << rc_node_name(net.id, i) << ' ' << n.res << "\n";
    }
    os << "*END\n\n";
  }
}

void write_spef_file(const std::string& path, const netlist::ClockTree& tree,
                     const netlist::Design& design,
                     const netlist::NetList& nets,
                     const std::vector<extract::NetParasitics>& parasitics,
                     const SpefWriteOptions& options) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_spef_file: cannot open " + path);
  write_spef(f, tree, design, nets, parasitics, options);
}

double SpefNet::cap_sum() const {
  double c = 0.0;
  for (const auto& [node, cap] : caps) c += cap;
  return c;
}

const SpefNet* SpefFile::find(const std::string& name) const {
  for (const SpefNet& n : nets) {
    if (n.name == name) return &n;
  }
  return nullptr;
}

namespace {

[[noreturn]] void spef_error(const std::string& source, int line_no,
                             const std::string& what) {
  throw common::ParseError(source + ":" + std::to_string(line_no) + ": " +
                           what);
}

/// Next token as a physical magnitude: a finite number >= 0 (from_chars
/// accepts "nan" and "inf", which must not load silently).
bool next_magnitude(Tokenizer& ls, double& out) {
  return ls.next_double(out) && std::isfinite(out) && out >= 0.0;
}

double unit_scale(const std::string& source, std::string_view mult,
                  std::string_view unit, int line_no) {
  // Full-token from_chars (not std::stod): a malformed multiplier must
  // report as a ParseError with a path:line diagnostic, not escape as
  // std::invalid_argument and classify as an I/O failure.
  double m = 0.0;
  Tokenizer ms(mult);
  if (!ms.next_double(m) || !ms.exhausted() || !std::isfinite(m) ||
      m <= 0.0) {
    spef_error(source, line_no,
               "bad unit multiplier '" + std::string(mult) +
                   "' (want a finite number > 0)");
  }
  if (unit == "PS") return m * 1e-12;
  if (unit == "NS") return m * 1e-9;
  if (unit == "FF") return m * 1e-15;
  if (unit == "PF") return m * 1e-12;
  if (unit == "OHM") return m;
  if (unit == "KOHM") return m * 1e3;
  if (unit == "HENRY") return m;
  spef_error(source, line_no, "unknown unit '" + std::string(unit) + "'");
}

/// The one SPEF parser (istream and chunked-file paths both feed it).
SpefFile read_spef_lines(LineSource& src, const std::string& source) {
  SpefFile out;
  std::string_view line;
  int line_no = 0;
  enum class Section { kNone, kConn, kCap, kRes };
  Section section = Section::kNone;
  SpefNet* current = nullptr;

  while (src.next(line)) {
    ++line_no;
    Tokenizer ls(line);
    std::string_view tok;
    if (!ls.next(tok)) continue;

    if (tok == "*DESIGN") {
      const std::string_view rest = ls.rest();
      const auto q1 = rest.find('"');
      const auto q2 = rest.rfind('"');
      if (q1 != std::string_view::npos && q2 > q1) {
        out.design_name = std::string(rest.substr(q1 + 1, q2 - q1 - 1));
      }
    } else if (tok == "*T_UNIT" || tok == "*C_UNIT" || tok == "*R_UNIT") {
      std::string_view mult;
      std::string_view unit;
      if (!ls.next(mult) || !ls.next(unit)) {
        spef_error(source, line_no, "bad unit line");
      }
      const double scale = unit_scale(source, mult, unit, line_no);
      if (tok == "*T_UNIT") out.time_unit = scale;
      if (tok == "*C_UNIT") out.cap_unit = scale;
      if (tok == "*R_UNIT") out.res_unit = scale;
    } else if (tok == "*D_NET") {
      SpefNet net;
      std::string_view name;
      double total = 0.0;
      if (!ls.next(name) || !next_magnitude(ls, total)) {
        spef_error(source, line_no,
                   "bad *D_NET (want a name and a finite total cap >= 0)");
      }
      net.name = std::string(name);
      net.total_cap = total;  // scaled after units are final, below.
      out.nets.push_back(std::move(net));
      current = &out.nets.back();
      section = Section::kNone;
    } else if (tok == "*CONN") {
      section = Section::kConn;
    } else if (tok == "*CAP") {
      section = Section::kCap;
    } else if (tok == "*RES") {
      section = Section::kRes;
    } else if (tok == "*END") {
      current = nullptr;
      section = Section::kNone;
    } else if (tok[0] == '*') {
      // Header keywords we do not interpret.
      continue;
    } else if (current != nullptr && section == Section::kCap) {
      // Format: <index> <node> <cap>; `tok` holds the index.
      int idx = 0;
      Tokenizer head(tok);
      std::string_view node;
      double cap = 0.0;
      if (!head.next_int(idx) || !ls.next(node) || !next_magnitude(ls, cap)) {
        spef_error(source, line_no,
                   "bad *CAP entry (want <index> <node> <finite cap >= 0>)");
      }
      current->caps.emplace_back(std::string(node), cap * out.cap_unit);
    } else if (current != nullptr && section == Section::kRes) {
      // Format: <index> <node_a> <node_b> <ohm>; `tok` holds the index.
      int idx = 0;
      Tokenizer head(tok);
      SpefNet::Res r;
      std::string_view a;
      std::string_view b;
      double ohm = 0.0;
      if (!head.next_int(idx) || !ls.next(a) || !ls.next(b) ||
          !next_magnitude(ls, ohm)) {
        spef_error(source, line_no,
                   "bad *RES entry (want <index> <a> <b> <finite ohm >= 0>)");
      }
      r.a = std::string(a);
      r.b = std::string(b);
      r.ohm = ohm * out.res_unit;
      current->resistors.push_back(std::move(r));
    }
  }
  for (SpefNet& n : out.nets) n.total_cap *= out.cap_unit;
  return out;
}

}  // namespace

SpefFile read_spef(std::istream& is, const std::string& source) {
  IstreamLineSource src(is);
  return read_spef_lines(src, source);
}

SpefFile read_spef_file(const std::string& path) {
  LineReader src(path);
  if (!src.ok()) {
    throw std::runtime_error("read_spef_file: cannot open " + path);
  }
  return read_spef_lines(src, path);
}

common::Result<SpefFile> load_spef_file(const std::string& path) {
  // Chunked reader: SPEF is the largest artifact the tool touches, so the
  // parse streams it through a fixed buffer instead of materializing it.
  LineReader src(path);
  if (!src.ok()) {
    return common::Status::NotFound("cannot open SPEF file " + path);
  }
  try {
    return read_spef_lines(src, path);
  } catch (...) {
    return common::classify_exception(common::StatusCode::kIoError);
  }
}

}  // namespace sndr::io
