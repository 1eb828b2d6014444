#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "tech/buffer_lib.hpp"
#include "tech/routing_rule.hpp"
#include "tech/technology.hpp"
#include "tech/units.hpp"
#include "tech/wire_model.hpp"

namespace sndr::tech {
namespace {

TEST(RuleSet, StandardContents) {
  const RuleSet rules = RuleSet::standard();
  EXPECT_EQ(rules.size(), 5);
  EXPECT_EQ(rules.default_rule().name, "1W1S");
  EXPECT_EQ(rules.blanket_rule().name, "2W2S");
  EXPECT_EQ(rules.default_index(), 0);
  EXPECT_EQ(rules.find("3W3S"), 4);
  EXPECT_EQ(rules.find("9W9S"), -1);
}

TEST(RuleSet, RequiresDefaultFirst) {
  EXPECT_THROW(RuleSet({{"2W2S", 2, 2}}), std::invalid_argument);
  EXPECT_THROW(RuleSet(std::vector<RoutingRule>{}), std::invalid_argument);
}

TEST(RuleSet, AutoBlanketIsWidest) {
  const RuleSet rules({{"1W1S", 1, 1}, {"4W1S", 4, 1}, {"2W8S", 2, 8}});
  EXPECT_EQ(rules.blanket_rule().name, "4W1S");
}

TEST(RuleSet, BlanketIndexValidated) {
  EXPECT_THROW(RuleSet({{"1W1S", 1, 1}}, 5), std::invalid_argument);
}

TEST(RoutingRule, PitchMult) {
  const RoutingRule def{"1W1S", 1, 1};
  const RoutingRule wide{"2W2S", 2, 2};
  const RoutingRule space{"1W2S", 1, 2};
  EXPECT_DOUBLE_EQ(def.pitch_mult(0.5), 1.0);
  EXPECT_DOUBLE_EQ(wide.pitch_mult(0.5), 2.0);
  EXPECT_DOUBLE_EQ(space.pitch_mult(0.5), 1.5);
  // Asymmetric width fraction.
  EXPECT_DOUBLE_EQ(space.pitch_mult(0.25), 0.25 + 2 * 0.75);
}

TEST(WireModel, ResistanceInverseInWidth) {
  const MetalLayer m;
  const double r1 = wire_res_per_um(m, {"1W1S", 1, 1});
  const double r2 = wire_res_per_um(m, {"2W2S", 2, 2});
  const double r3 = wire_res_per_um(m, {"3W3S", 3, 3});
  EXPECT_NEAR(r1 / r2, 2.0, 1e-12);
  EXPECT_NEAR(r1 / r3, 3.0, 1e-12);
}

TEST(WireModel, GroundCapGrowsWithWidth) {
  const MetalLayer m;
  const double c1 = wire_cap_gnd_per_um(m, {"1W1S", 1, 1});
  const double c2 = wire_cap_gnd_per_um(m, {"2W1S", 2, 1});
  EXPECT_GT(c2, c1);
  // Fringe does not scale: doubling width less than doubles ground cap.
  EXPECT_LT(c2, 2.0 * c1);
}

TEST(WireModel, CouplingFallsWithSpacing) {
  const MetalLayer m;
  const double cc1 = wire_cap_couple_per_um(m, {"1W1S", 1, 1});
  const double cc2 = wire_cap_couple_per_um(m, {"1W2S", 1, 2});
  const double cc3 = wire_cap_couple_per_um(m, {"1W3S", 1, 3});
  EXPECT_GT(cc1, cc2);
  EXPECT_GT(cc2, cc3);
  EXPECT_GT(cc3, 0.0);
}

TEST(WireModel, OccupancyScalesCoupling) {
  const MetalLayer m;
  const RoutingRule rule{"1W1S", 1, 1};
  const WireRc none = wire_rc_per_um(m, rule, 0.0);
  const WireRc half = wire_rc_per_um(m, rule, 0.5);
  const WireRc full = wire_rc_per_um(m, rule, 1.0);
  EXPECT_DOUBLE_EQ(none.cap_cpl_per_um, 0.0);
  EXPECT_NEAR(full.cap_cpl_per_um, 2.0 * half.cap_cpl_per_um, 1e-25);
  // Ground cap unaffected by occupancy.
  EXPECT_DOUBLE_EQ(none.cap_gnd_per_um, full.cap_gnd_per_um);
  // Occupancy clamped.
  EXPECT_DOUBLE_EQ(wire_rc_per_um(m, rule, 2.0).cap_cpl_per_um,
                   full.cap_cpl_per_um);
}

TEST(WireModel, Pitch) {
  const MetalLayer m;
  EXPECT_DOUBLE_EQ(wire_pitch(m, {"1W1S", 1, 1}), m.default_pitch());
  EXPECT_DOUBLE_EQ(wire_pitch(m, {"2W2S", 2, 2}), 2.0 * m.default_pitch());
}

// Property sweep: total cap of the calibrated stack must be ~0.15-0.25 fF/um
// at realistic occupancy — the regime where the paper's numbers live.
class WireRcSweep : public ::testing::TestWithParam<int> {};

TEST_P(WireRcSweep, TotalCapInPlausibleRange) {
  const Technology t = Technology::make_default_45nm();
  const RoutingRule& rule = t.rules[GetParam()];
  const WireRc rc = wire_rc_per_um(t.clock_layer, rule, 0.3);
  EXPECT_GT(rc.cap_total_per_um(), 0.05e-15);
  EXPECT_LT(rc.cap_total_per_um(), 0.40e-15);
  EXPECT_GT(rc.res_per_um, 0.3);
  EXPECT_LT(rc.res_per_um, 3.0);
}

INSTANTIATE_TEST_SUITE_P(AllRules, WireRcSweep, ::testing::Range(0, 5));

TEST(WireModel, BlanketCostsCapVsDefault) {
  // The paper's core premise: at moderate occupancy the blanket NDR *burns*
  // capacitance relative to default routing.
  const Technology t = Technology::make_default_45nm();
  const WireRc def = wire_rc_per_um(t.clock_layer, t.rules.default_rule(), 0.3);
  const WireRc ndr = wire_rc_per_um(t.clock_layer, t.rules.blanket_rule(), 0.3);
  EXPECT_GT(ndr.cap_total_per_um(), def.cap_total_per_um());
  // ...while halving resistance.
  EXPECT_NEAR(def.res_per_um / ndr.res_per_um, 2.0, 1e-12);
}

TEST(BufferLibrary, StandardSortedByStrength) {
  const BufferLibrary lib = BufferLibrary::standard();
  EXPECT_EQ(lib.size(), 9);
  for (int i = 1; i < lib.size(); ++i) {
    EXPECT_GT(lib[i - 1].drive_res, lib[i].drive_res);
    EXPECT_LT(lib[i - 1].input_cap, lib[i].input_cap);
  }
  EXPECT_EQ(lib.smallest().name, "CLKBUF_X2");
  EXPECT_EQ(lib.largest().name, "CLKBUF_X32");
}

TEST(BufferLibrary, Find) {
  const BufferLibrary lib = BufferLibrary::standard();
  EXPECT_EQ(lib.find("CLKBUF_X8"), 4);
  EXPECT_EQ(lib.find("nope"), -1);
}

TEST(BufferLibrary, BestForLoadPicksSmallestAdequate) {
  const BufferLibrary lib = BufferLibrary::standard();
  const int small = lib.best_for_load(10 * units::fF, 80 * units::ps);
  const int big = lib.best_for_load(200 * units::fF, 80 * units::ps);
  EXPECT_LE(small, big);
  EXPECT_LE(lib[big].output_slew(200 * units::fF), 80 * units::ps);
  // Impossible load: falls back to the largest cell.
  EXPECT_EQ(lib.best_for_load(10'000 * units::fF, 1 * units::ps),
            lib.size() - 1);
}

TEST(BufferLibrary, EmptyThrows) {
  EXPECT_THROW(BufferLibrary(std::vector<BufferCell>{}), std::invalid_argument);
}

TEST(BufferCell, DelayModel) {
  BufferCell c;
  c.drive_res = 300;
  c.intrinsic_delay = 20e-12;
  c.slew_sensitivity = 0.1;
  EXPECT_DOUBLE_EQ(c.delay(0.0, 0.0), 20e-12);
  EXPECT_DOUBLE_EQ(c.delay(100e-15, 0.0), 20e-12 + 300 * 100e-15);
  EXPECT_DOUBLE_EQ(c.delay(0.0, 50e-12), 20e-12 + 5e-12);
  EXPECT_GT(c.output_slew(100e-15), c.output_slew(10e-15));
}

TEST(Technology, TextRoundTrip) {
  Technology t = Technology::make_default_45nm();
  t.vdd = 0.9;
  t.clock_layer.r_sheet = 0.5;
  t.aggressor_activity = 0.42;
  const Technology u = Technology::from_text(t.to_text());
  EXPECT_EQ(u.name, t.name);
  EXPECT_DOUBLE_EQ(u.vdd, 0.9);
  EXPECT_DOUBLE_EQ(u.clock_layer.r_sheet, 0.5);
  EXPECT_DOUBLE_EQ(u.aggressor_activity, 0.42);
  EXPECT_EQ(u.rules.size(), t.rules.size());
  EXPECT_EQ(u.rules.blanket_rule().name, t.rules.blanket_rule().name);
  EXPECT_EQ(u.buffers.size(), t.buffers.size());
  EXPECT_DOUBLE_EQ(u.buffers[0].drive_res, t.buffers[0].drive_res);
}

TEST(Technology, ParseComments) {
  const Technology t = Technology::from_text(
      "# a comment\n"
      "vdd = 1.0  # trailing comment\n"
      "\n");
  EXPECT_DOUBLE_EQ(t.vdd, 1.0);
}

TEST(Technology, ParseErrorsAreDiagnosed) {
  EXPECT_THROW(Technology::from_text("vdd 1.0\n"), std::runtime_error);
  EXPECT_THROW(Technology::from_text("unknown_key = 3\n"),
               std::runtime_error);
  EXPECT_THROW(Technology::from_text("vdd = abc\n"), std::runtime_error);
  EXPECT_THROW(Technology::from_text("rule = 2W2S 2\n"), std::runtime_error);
  EXPECT_THROW(
      Technology::from_text("rule = 1W1S 1 1\nblanket_rule = nope\n"),
      std::runtime_error);
}

TEST(Technology, ParseCustomRules) {
  const Technology t = Technology::from_text(
      "rule = 1W1S 1 1\n"
      "rule = 1W3S 1 3\n"
      "blanket_rule = 1W3S\n");
  EXPECT_EQ(t.rules.size(), 2);
  EXPECT_EQ(t.rules.blanket_rule().name, "1W3S");
}

TEST(Technology, DefaultTechRoundTripsThroughText) {
  // The built-in technology passes every domain check of the loader.
  const Technology t = Technology::make_default_45nm();
  const Technology u = Technology::from_text(t.to_text(), "default.tech");
  EXPECT_EQ(u.to_text(), t.to_text());
}

/// The ParseError message `text` raises, or "" when it loads.
std::string parse_error_of(const std::string& text) {
  try {
    Technology::from_text(text, "t.tech");
  } catch (const common::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(Technology, PositiveScalarsRejectZeroNegativeAndNonFinite) {
  for (const char* key :
       {"vdd", "em_crest_factor", "layer.min_width", "layer.min_space",
        "layer.r_sheet", "layer.c_area", "layer.em_jmax"}) {
    for (const char* bad : {"0", "-0.5", "inf", "1e999"}) {
      const std::string err =
          parse_error_of("# header\n" + std::string(key) + " = " + bad + "\n");
      EXPECT_NE(err.find("t.tech:2:"), std::string::npos)
          << key << " = " << bad << ": " << err;
    }
  }
  const std::string err = parse_error_of("layer.r_sheet = -0.5\n");
  EXPECT_NE(err.find("layer.r_sheet must be finite and > 0"),
            std::string::npos)
      << err;
}

TEST(Technology, NonNegativeScalarsAcceptZeroRejectNegative) {
  for (const char* key :
       {"miller_delay", "miller_power", "aggressor_activity",
        "layer.c_fringe", "layer.k_couple", "layer.s_offset",
        "layer.sigma_width", "layer.sigma_thickness"}) {
    EXPECT_EQ(parse_error_of(std::string(key) + " = 0\n"), "") << key;
    const std::string err = parse_error_of(std::string(key) + " = -1\n");
    EXPECT_NE(err.find("t.tech:1:"), std::string::npos) << key << ": " << err;
    EXPECT_NE(err.find(">= 0"), std::string::npos) << key << ": " << err;
  }
}

TEST(Technology, RuleMultipliersMustBePositive) {
  EXPECT_EQ(parse_error_of("rule = 1W1S 1 1\nrule = 2W2S 2 2\n"), "");
  for (const char* bad : {"rule = 1W1S 0 1\n", "rule = 1W1S 1 -2\n",
                          "rule = 1W1S 1e999 1\n"}) {
    const std::string err = parse_error_of(bad);
    EXPECT_NE(err.find("t.tech:1:"), std::string::npos) << bad << err;
  }
  EXPECT_NE(parse_error_of("rule = 1W1S 1 -2\n").find("spacing multiplier"),
            std::string::npos);
}

TEST(Technology, BufferFieldDomains) {
  // NAME RES CAP TINTR EINT CMAX SSENS; the library default is valid.
  const std::string ok = "buffer = B 300 6e-15 2e-11 1e-14 2.5e-13 0.15\n";
  EXPECT_EQ(parse_error_of(ok), "");
  EXPECT_EQ(parse_error_of("buffer = B 300 6e-15 0 0 2.5e-13 0\n"), "");
  for (const char* bad : {"buffer = B 0 6e-15 2e-11 1e-14 2.5e-13 0.15\n",
                          "buffer = B 300 -6e-15 2e-11 1e-14 2.5e-13 0.15\n",
                          "buffer = B 300 6e-15 -1 1e-14 2.5e-13 0.15\n",
                          "buffer = B 300 6e-15 2e-11 -1 2.5e-13 0.15\n",
                          "buffer = B 300 6e-15 2e-11 1e-14 0 0.15\n",
                          "buffer = B 300 6e-15 2e-11 1e-14 2.5e-13 -1\n"}) {
    const std::string err = parse_error_of(bad);
    EXPECT_NE(err.find("t.tech:1:"), std::string::npos) << bad << err;
    EXPECT_NE(err.find("buffer "), std::string::npos) << bad << err;
  }
}

TEST(Technology, LoaderReportsDomainErrorAsParseError) {
  const std::string path = ::testing::TempDir() + "tech_test_em.tech";
  std::ofstream(path) << "vdd = 1.0\nlayer.em_jmax = -1\n";
  const common::Result<Technology> r = load_technology_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(path + ":2:"), std::string::npos)
      << r.status().message();
}

}  // namespace
}  // namespace sndr::tech
