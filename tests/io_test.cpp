#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "extract/extractor.hpp"
#include "io/design_io.hpp"
#include "io/line_reader.hpp"
#include "io/spef.hpp"
#include "io/svg.hpp"
#include "test_util.hpp"

namespace sndr::io {
namespace {

class IoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    flow_ = test::small_flow(48, 9);
    assignment_.assign(flow_.nets.size(), flow_.tech.rules.blanket_index());
    const extract::Extractor ex(flow_.tech, flow_.design);
    parasitics_ = ex.extract_all(flow_.cts.tree, flow_.nets, assignment_);
  }

  test::Flow flow_;
  std::vector<int> assignment_;
  std::vector<extract::NetParasitics> parasitics_;
};

TEST_F(IoFixture, SpefRoundTripPreservesTotals) {
  std::ostringstream os;
  write_spef(os, flow_.cts.tree, flow_.design, flow_.nets, parasitics_);
  std::istringstream is(os.str());
  const SpefFile spef = read_spef(is);

  EXPECT_EQ(spef.design_name, flow_.design.name);
  ASSERT_EQ(static_cast<int>(spef.nets.size()), flow_.nets.size());
  for (const auto& net : flow_.nets.nets) {
    const SpefNet* sn = spef.find("clk_net_" + std::to_string(net.id));
    ASSERT_NE(sn, nullptr);
    const extract::NetParasitics& par = parasitics_[net.id];
    // Header total and the sum of *CAP entries both match the extraction.
    EXPECT_NEAR(sn->total_cap, par.switched_cap(1.0),
                1e-5 * par.switched_cap(1.0) + 1e-18);
    EXPECT_NEAR(sn->cap_sum(), par.switched_cap(1.0),
                1e-4 * par.switched_cap(1.0) + 1e-17);
    // One resistor per non-driver RC node.
    EXPECT_EQ(static_cast<int>(sn->resistors.size()), par.rc.size() - 1);
    double res_total = 0.0;
    for (const auto& r : sn->resistors) res_total += r.ohm;
    double expected_res = 0.0;
    for (int i = 1; i < par.rc.size(); ++i) {
      expected_res += par.rc.node(i).res;
    }
    EXPECT_NEAR(res_total, expected_res, 1e-4 * expected_res + 1e-9);
  }
}

TEST_F(IoFixture, SpefHeaderContents) {
  std::ostringstream os;
  write_spef(os, flow_.cts.tree, flow_.design, flow_.nets, parasitics_);
  const std::string text = os.str();
  EXPECT_NE(text.find("*SPEF \"IEEE 1481-1998\""), std::string::npos);
  EXPECT_NE(text.find("*C_UNIT 1 FF"), std::string::npos);
  EXPECT_NE(text.find("*P src:Z O"), std::string::npos);
  EXPECT_NE(text.find("sink_0:CK"), std::string::npos);
}

TEST_F(IoFixture, SpefFileIo) {
  const std::string path = "/tmp/sndr_io_test.spef";
  write_spef_file(path, flow_.cts.tree, flow_.design, flow_.nets,
                  parasitics_);
  const SpefFile spef = read_spef_file(path);
  EXPECT_EQ(static_cast<int>(spef.nets.size()), flow_.nets.size());
  std::remove(path.c_str());
  EXPECT_THROW(read_spef_file("/nonexistent/file.spef"),
               std::runtime_error);
  EXPECT_THROW(write_spef_file("/nonexistent_dir/file.spef", flow_.cts.tree,
                               flow_.design, flow_.nets, parasitics_),
               std::runtime_error);
}

TEST_F(IoFixture, SpefUnitScaling) {
  const char* text =
      "*DESIGN \"d\"\n"
      "*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 KOHM\n"
      "*D_NET n1 2.0\n"
      "*CAP\n1 n1:1 1.5\n"
      "*RES\n1 n1:0 n1:1 0.25\n"
      "*END\n";
  std::istringstream is(text);
  const SpefFile spef = read_spef(is);
  ASSERT_EQ(spef.nets.size(), 1u);
  EXPECT_DOUBLE_EQ(spef.nets[0].total_cap, 2.0e-12);
  EXPECT_DOUBLE_EQ(spef.nets[0].caps[0].second, 1.5e-12);
  EXPECT_DOUBLE_EQ(spef.nets[0].resistors[0].ohm, 250.0);
}

TEST_F(IoFixture, SpefParseErrors) {
  std::istringstream bad_unit("*T_UNIT 1 PARSEC\n");
  EXPECT_THROW(read_spef(bad_unit), std::runtime_error);
  // A malformed multiplier is a ParseError with a source:line diagnostic,
  // not a stray std::invalid_argument out of std::stod.
  std::istringstream bad_mult("*T_UNIT abc PS\n");
  try {
    read_spef(bad_mult, "unit.spef");
    FAIL() << "expected ParseError";
  } catch (const common::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unit.spef:1:"), std::string::npos)
        << e.what();
  }
  std::istringstream bad_cap("*D_NET n 1\n*CAP\nnot_an_entry\n*END\n");
  EXPECT_THROW(read_spef(bad_cap), std::runtime_error);
  std::istringstream bad_res("*D_NET n 1\n*RES\n1 a b\n*END\n");
  EXPECT_THROW(read_spef(bad_res), std::runtime_error);
}

/// `text` must fail to load as a ParseError naming spef.spef:`line`.
void expect_spef_parse_error(const std::string& text, int line) {
  std::istringstream is(text);
  try {
    read_spef(is, "spef.spef");
    ADD_FAILURE() << "expected ParseError for:\n" << text;
  } catch (const common::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("spef.spef:" + std::to_string(line) +
                                         ":"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpefBounds, NonFiniteOrNegativeNetTotalIsAParseError) {
  for (const char* v : {"nan", "inf", "-inf", "-1.0"}) {
    SCOPED_TRACE(v);
    expect_spef_parse_error("*C_UNIT 1 PF\n*D_NET n1 " + std::string(v) +
                                "\n*END\n",
                            2);
  }
}

TEST(SpefBounds, NonFiniteOrNegativeCapIsAParseError) {
  for (const char* v : {"nan", "inf", "-0.5"}) {
    SCOPED_TRACE(v);
    expect_spef_parse_error(
        "*D_NET n1 1.0\n*CAP\n1 n1:1 " + std::string(v) + "\n*END\n", 3);
  }
}

TEST(SpefBounds, NonFiniteOrNegativeResIsAParseError) {
  for (const char* v : {"nan", "inf", "-2"}) {
    SCOPED_TRACE(v);
    expect_spef_parse_error(
        "*D_NET n1 1.0\n*RES\n1 n1:0 n1:1 " + std::string(v) + "\n*END\n",
        3);
  }
}

TEST(SpefBounds, NonPositiveOrNonFiniteUnitMultiplierIsAParseError) {
  for (const char* v : {"nan", "inf", "0", "-1"}) {
    SCOPED_TRACE(v);
    expect_spef_parse_error("*DESIGN \"d\"\n*R_UNIT " + std::string(v) +
                                " OHM\n",
                            2);
  }
}

TEST(Hexfloat, RoundTripsAndRejectsNonFiniteTokens) {
  for (const double v : {0.1 * 3.0e-15, -4.5e-12, 0.0, 1e300}) {
    double back = 1.0;
    ASSERT_TRUE(parse_hexfloat(hexfloat(v), back)) << hexfloat(v);
    EXPECT_EQ(back, v);
  }
  double out = 0.0;
  for (const char* tok : {"nan", "NAN", "inf", "-inf", "infinity", "0x1p+2000",
                          "", "0x1.8p+1junk"}) {
    EXPECT_FALSE(parse_hexfloat(tok, out)) << tok;
  }
}

TEST_F(IoFixture, SpefSizeMismatchThrows) {
  parasitics_.pop_back();
  std::ostringstream os;
  EXPECT_THROW(write_spef(os, flow_.cts.tree, flow_.design, flow_.nets,
                          parasitics_),
               std::invalid_argument);
}

TEST_F(IoFixture, SvgWellFormed) {
  const std::string svg = render_svg(flow_.cts.tree, flow_.design,
                                     flow_.tech, flow_.nets, assignment_);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One polyline per non-root edge.
  std::size_t polylines = 0;
  for (std::size_t pos = svg.find("<polyline"); pos != std::string::npos;
       pos = svg.find("<polyline", pos + 1)) {
    ++polylines;
  }
  EXPECT_EQ(polylines, static_cast<std::size_t>(flow_.cts.tree.size() - 1));
  // Legend mentions every rule name.
  for (const tech::RoutingRule& r : flow_.tech.rules) {
    EXPECT_NE(svg.find(">" + r.name + "<"), std::string::npos) << r.name;
  }
  // Sinks and buffers drawn.
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("fill=\"#d62728\""), std::string::npos);
}

TEST_F(IoFixture, SvgOptionsRespected) {
  SvgOptions opt;
  opt.draw_sinks = false;
  opt.draw_buffers = false;
  opt.draw_congestion = false;
  opt.draw_legend = false;
  const std::string svg = render_svg(flow_.cts.tree, flow_.design,
                                     flow_.tech, flow_.nets, assignment_,
                                     opt);
  EXPECT_EQ(svg.find("<circle"), std::string::npos);
  EXPECT_EQ(svg.find("#d62728"), std::string::npos);
  EXPECT_EQ(svg.find("font-family"), std::string::npos);
}

TEST_F(IoFixture, SvgAssignmentMismatchThrows) {
  EXPECT_THROW(render_svg(flow_.cts.tree, flow_.design, flow_.tech,
                          flow_.nets, {0}),
               std::invalid_argument);
}

TEST_F(IoFixture, SvgFileIo) {
  const std::string path = "/tmp/sndr_io_test.svg";
  write_svg_file(path, flow_.cts.tree, flow_.design, flow_.tech, flow_.nets,
                 assignment_);
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
  std::remove(path.c_str());
}

// --- Streaming line input (DESIGN.md §10) ---------------------------------
// The design/SPEF readers see LineReader only through their round-trip
// tests above; these pin the chunking machinery directly, with chunk sizes
// tiny enough that every line crosses a read boundary.

std::string write_temp(const std::string& body) {
  const std::string path = "/tmp/sndr_line_reader_test.txt";
  std::ofstream os(path, std::ios::binary);
  os << body;
  return path;
}

std::vector<std::string> drain(LineSource& src) {
  std::vector<std::string> lines;
  std::string_view line;
  while (src.next(line)) lines.emplace_back(line);
  return lines;
}

// ---- design reader: non-finite and out-of-range physical values ---------

/// Parses `body` as a design named "bad.txt"; returns the ParseError text
/// (empty if the design parsed).
std::string design_parse_error(const std::string& body) {
  std::istringstream is(body);
  try {
    (void)read_design(is, "bad.txt");
  } catch (const common::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(DesignReaderTest, RejectsNanSinkCapWithPathAndLine) {
  const std::string err =
      design_parse_error("design t\nsink a 1 2 3\nsink b 4 5 nan\n");
  EXPECT_NE(err.find("bad.txt:3:"), std::string::npos) << err;
}

TEST(DesignReaderTest, RejectsInfSinkCapWithPathAndLine) {
  const std::string err = design_parse_error("sink a 1 2 inf\n");
  EXPECT_NE(err.find("bad.txt:1:"), std::string::npos) << err;
}

TEST(DesignReaderTest, RejectsNegativeSinkCap) {
  const std::string err =
      design_parse_error("design t\n\nsink a 1 2 -5\n");
  EXPECT_NE(err.find("bad.txt:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("negative"), std::string::npos) << err;
}

TEST(DesignReaderTest, RejectsNanMaxSkew) {
  const std::string err =
      design_parse_error("max_skew_ps nan\nsink a 1 2 3\n");
  EXPECT_NE(err.find("bad.txt:1:"), std::string::npos) << err;
  EXPECT_NE(err.find("max_skew_ps"), std::string::npos) << err;
}

TEST(DesignReaderTest, RejectsNonPositiveOrNonFiniteConstraints) {
  for (const char* key : {"clock_freq_ghz", "max_slew_ps", "max_skew_ps",
                          "max_uncertainty_ps"}) {
    for (const char* v : {"0", "-1", "inf", "-inf", "nan"}) {
      const std::string err = design_parse_error(
          std::string("sink a 1 2 3\n") + key + " " + v + "\n");
      EXPECT_NE(err.find("bad.txt:2:"), std::string::npos)
          << key << " " << v << ": " << err;
    }
  }
  // Every other numeric field rejects non-finite values too.
  for (const char* line :
       {"core 0 0 inf 10", "clock_root nan 0", "congestion 2 2 nan 5",
        "congestion 2 2 0.3 inf", "occupancy_cell 0 nan", "sink a inf 2 3",
        "sink a 1 -inf 3", "window 0 nan 5", "window 0 -5 inf"}) {
    const std::string err =
        design_parse_error(std::string(line) + "\nsink b 1 2 3\n");
    EXPECT_NE(err.find("bad.txt:1:"), std::string::npos) << line << ": "
                                                         << err;
  }
  // Zero pin cap and positive constraints stay legal.
  EXPECT_EQ(design_parse_error("max_skew_ps 40\nsink a 1 2 0\n"), "");
}

TEST(LineReaderTest, TinyChunksCompactAcrossBoundaries) {
  const std::string path =
      write_temp("alpha\nbeta gamma\n\ndelta epsilon zeta\nx\n");
  const std::vector<std::string> want = {"alpha", "beta gamma", "",
                                         "delta epsilon zeta", "x"};
  // Chunk sizes straddling every line length: each forces the partial
  // line at the boundary through the memmove-compaction path.
  for (const std::size_t chunk : {1u, 2u, 3u, 7u, 16u}) {
    LineReader reader(path, chunk);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(drain(reader), want) << "chunk_bytes=" << chunk;
  }
  std::remove(path.c_str());
}

TEST(LineReaderTest, LongLineGrowsBufferAndCrLfIsStripped) {
  const std::string long_line(1000, 'q');
  const std::string path =
      write_temp("first\r\n" + long_line + "\r\nlast_no_newline");
  LineReader reader(path, 16);  // buffer must grow ~64x for the long line.
  ASSERT_TRUE(reader.ok());
  const std::vector<std::string> lines = drain(reader);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_EQ(lines[1], long_line);
  // The final unterminated line is surfaced, not dropped.
  EXPECT_EQ(lines[2], "last_no_newline");
  std::remove(path.c_str());
}

TEST(LineReaderTest, MissingFileReportsNotOkAndEof) {
  LineReader reader("/nonexistent/sndr_line_reader.txt");
  EXPECT_FALSE(reader.ok());
  std::string_view line;
  EXPECT_FALSE(reader.next(line));
}

TEST(LineReaderTest, IstreamSourceMatchesFileReader) {
  const std::string body = "a b c\n1 2 3\ntail";
  const std::string path = write_temp(body);
  LineReader file_reader(path, 4);
  std::istringstream is(body);
  IstreamLineSource stream_reader(is);
  EXPECT_EQ(drain(file_reader), drain(stream_reader));
  std::remove(path.c_str());
}

TEST(TokenizerTest, SplitsOnAnyWhitespaceRun) {
  Tokenizer tok("  one\ttwo   three ");
  std::string_view t;
  ASSERT_TRUE(tok.next(t));
  EXPECT_EQ(t, "one");
  ASSERT_TRUE(tok.next(t));
  EXPECT_EQ(t, "two");
  EXPECT_FALSE(tok.exhausted());
  ASSERT_TRUE(tok.next(t));
  EXPECT_EQ(t, "three");
  EXPECT_TRUE(tok.exhausted());
  EXPECT_FALSE(tok.next(t));
}

TEST(TokenizerTest, NumericParsingConsumesWholeTokens) {
  Tokenizer tok("4 -2.5e3 +7 +0.25 1.5x nan_fallthrough");
  int i = 0;
  double d = 0.0;
  EXPECT_TRUE(tok.next_int(i));
  EXPECT_EQ(i, 4);
  EXPECT_TRUE(tok.next_double(d));
  EXPECT_EQ(d, -2.5e3);
  // Leading '+' is accepted even though bare from_chars rejects it.
  EXPECT_TRUE(tok.next_int(i));
  EXPECT_EQ(i, 7);
  EXPECT_TRUE(tok.next_double(d));
  EXPECT_EQ(d, 0.25);
  // "1.5x" must NOT parse as 1.5 — trailing junk is a typo, not a number.
  EXPECT_FALSE(tok.next_double(d));
  EXPECT_FALSE(tok.next_double(d));  // non-numeric word fails too.
  EXPECT_TRUE(tok.exhausted());
  // Exhausted lines report failure, not stale values.
  EXPECT_FALSE(tok.next_int(i));
  EXPECT_FALSE(tok.next_double(d));
}

TEST(TokenizerTest, RestReturnsUntrimmedRemainder) {
  Tokenizer tok("*DESIGN \"top level\"");
  std::string_view t;
  ASSERT_TRUE(tok.next(t));
  EXPECT_EQ(t, "*DESIGN");
  EXPECT_EQ(tok.rest(), " \"top level\"");
}

}  // namespace
}  // namespace sndr::io
