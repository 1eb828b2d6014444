#include "tech/technology.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sndr::tech {

Technology Technology::make_default_45nm() {
  Technology t;
  t.name = "generic45";
  // Defaults of MetalLayer / RuleSet::standard() / BufferLibrary::standard()
  // are the 45nm-class calibration; nothing to override.
  return t;
}

std::string Technology::to_text() const {
  std::ostringstream os;
  os.precision(12);
  os << "name = " << name << "\n";
  os << "vdd = " << vdd << "\n";
  os << "miller_delay = " << miller_delay << "\n";
  os << "miller_power = " << miller_power << "\n";
  os << "aggressor_activity = " << aggressor_activity << "\n";
  os << "em_crest_factor = " << em_crest_factor << "\n";
  const MetalLayer& m = clock_layer;
  os << "layer.name = " << m.name << "\n";
  os << "layer.min_width = " << m.min_width << "\n";
  os << "layer.min_space = " << m.min_space << "\n";
  os << "layer.r_sheet = " << m.r_sheet << "\n";
  os << "layer.c_area = " << m.c_area << "\n";
  os << "layer.c_fringe = " << m.c_fringe << "\n";
  os << "layer.k_couple = " << m.k_couple << "\n";
  os << "layer.s_offset = " << m.s_offset << "\n";
  os << "layer.em_jmax = " << m.em_jmax << "\n";
  os << "layer.sigma_width = " << m.sigma_width << "\n";
  os << "layer.sigma_thickness = " << m.sigma_thickness << "\n";
  for (const RoutingRule& r : rules) {
    os << "rule = " << r.name << ' ' << r.width_mult << ' ' << r.space_mult
       << "\n";
  }
  os << "blanket_rule = " << rules.blanket_rule().name << "\n";
  for (const BufferCell& c : buffers) {
    os << "buffer = " << c.name << ' ' << c.drive_res << ' ' << c.input_cap
       << ' ' << c.intrinsic_delay << ' ' << c.internal_energy << ' '
       << c.max_cap << ' ' << c.slew_sensitivity << "\n";
  }
  return os.str();
}

namespace {

[[noreturn]] void parse_error(const std::string& source, int line_no,
                              const std::string& line,
                              const std::string& what) {
  std::ostringstream os;
  os << source << ":" << line_no << ": " << what << " in '" << line << "'";
  throw common::ParseError(os.str());
}

/// Physical domain of a numeric field: every value must be finite, and
/// some must be strictly positive (a zero width, resistance or supply has
/// no physical reading and divides somewhere downstream).
enum class Domain { kPositive, kNonNegative };

void check_domain(double v, Domain domain, const std::string& field,
                  const std::string& source, int line_no,
                  const std::string& line) {
  const bool positive = domain == Domain::kPositive;
  if (!std::isfinite(v) || (positive ? !(v > 0.0) : !(v >= 0.0))) {
    parse_error(source, line_no, line,
                field + (positive ? " must be finite and > 0"
                                  : " must be finite and >= 0"));
  }
}

}  // namespace

Technology Technology::from_text(const std::string& text,
                                 const std::string& source) {
  Technology t;
  std::vector<RoutingRule> rules;
  std::vector<BufferCell> buffers;
  std::string blanket_name;

  constexpr Domain kPos = Domain::kPositive;
  constexpr Domain kNonNeg = Domain::kNonNegative;
  const std::map<std::string, std::pair<double*, Domain>> scalar_fields = {
      {"vdd", {&t.vdd, kPos}},
      {"miller_delay", {&t.miller_delay, kNonNeg}},
      {"miller_power", {&t.miller_power, kNonNeg}},
      {"aggressor_activity", {&t.aggressor_activity, kNonNeg}},
      {"em_crest_factor", {&t.em_crest_factor, kPos}},
      {"layer.min_width", {&t.clock_layer.min_width, kPos}},
      {"layer.min_space", {&t.clock_layer.min_space, kPos}},
      {"layer.r_sheet", {&t.clock_layer.r_sheet, kPos}},
      {"layer.c_area", {&t.clock_layer.c_area, kPos}},
      {"layer.c_fringe", {&t.clock_layer.c_fringe, kNonNeg}},
      {"layer.k_couple", {&t.clock_layer.k_couple, kNonNeg}},
      {"layer.s_offset", {&t.clock_layer.s_offset, kNonNeg}},
      {"layer.em_jmax", {&t.clock_layer.em_jmax, kPos}},
      {"layer.sigma_width", {&t.clock_layer.sigma_width, kNonNeg}},
      {"layer.sigma_thickness", {&t.clock_layer.sigma_thickness, kNonNeg}},
  };

  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      // Blank / comment-only line.
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        parse_error(source, line_no, line, "missing '='");
      }
      continue;
    }
    std::istringstream key_is(line.substr(0, eq));
    std::string key;
    key_is >> key;
    std::istringstream val_is(line.substr(eq + 1));

    if (key == "name") {
      val_is >> t.name;
    } else if (key == "layer.name") {
      val_is >> t.clock_layer.name;
    } else if (key == "rule") {
      RoutingRule r;
      if (!(val_is >> r.name >> r.width_mult >> r.space_mult)) {
        parse_error(source, line_no, line, "expected 'rule = NAME WMULT SMULT'");
      }
      check_domain(r.width_mult, kPos, "rule width multiplier", source,
                   line_no, line);
      check_domain(r.space_mult, kPos, "rule spacing multiplier", source,
                   line_no, line);
      rules.push_back(r);
    } else if (key == "blanket_rule") {
      val_is >> blanket_name;
    } else if (key == "buffer") {
      BufferCell c;
      if (!(val_is >> c.name >> c.drive_res >> c.input_cap >>
            c.intrinsic_delay >> c.internal_energy >> c.max_cap >>
            c.slew_sensitivity)) {
        parse_error(source, line_no, line,
                    "expected 'buffer = NAME RES CAP TINTR EINT CMAX SSENS'");
      }
      const auto field = [&](double v, Domain domain, const char* what) {
        check_domain(v, domain, std::string("buffer ") + what, source,
                     line_no, line);
      };
      field(c.drive_res, kPos, "drive resistance");
      field(c.input_cap, kPos, "input cap");
      field(c.intrinsic_delay, kNonNeg, "intrinsic delay");
      field(c.internal_energy, kNonNeg, "internal energy");
      field(c.max_cap, kPos, "max cap");
      field(c.slew_sensitivity, kNonNeg, "slew sensitivity");
      buffers.push_back(c);
    } else if (auto it = scalar_fields.find(key); it != scalar_fields.end()) {
      const auto [field, domain] = it->second;
      if (!(val_is >> *field)) {
        parse_error(source, line_no, line, "expected a numeric value");
      }
      check_domain(*field, domain, key, source, line_no, line);
    } else {
      parse_error(source, line_no, line, "unknown key '" + key + "'");
    }
  }

  if (!rules.empty()) {
    int blanket = -1;
    if (!blanket_name.empty()) {
      for (int i = 0; i < static_cast<int>(rules.size()); ++i) {
        if (rules[i].name == blanket_name) blanket = i;
      }
      if (blanket < 0) {
        throw common::ParseError(source + ": blanket_rule '" + blanket_name +
                                 "' does not name a parsed rule");
      }
    }
    t.rules = RuleSet(std::move(rules), blanket);
  }
  if (!buffers.empty()) t.buffers = BufferLibrary(std::move(buffers));
  return t;
}

common::Result<Technology> load_technology_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    return common::Status::NotFound("cannot open technology file " + path);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  try {
    return Technology::from_text(ss.str(), path);
  } catch (...) {
    return common::classify_exception(common::StatusCode::kIoError);
  }
}

}  // namespace sndr::tech
