// Streaming line input for the text parsers.
//
// The design and SPEF readers are line-oriented; at million-net scale the
// files run to hundreds of megabytes, so materializing them (or paying an
// istringstream per line) dominates ingest. This module gives the parsers
// a zero-copy path:
//
//  * LineSource — the minimal "next line, please" interface both the
//    istream entry points (API compatibility) and the chunked file path
//    implement, so each format has exactly one parser.
//  * LineReader — chunked FILE* reads (256 KiB at a time) surfacing each
//    line as a std::string_view into the read buffer: no per-line
//    allocation, no whole-file string, memory bounded by the longest line.
//  * Tokenizer — whitespace splitting plus std::from_chars numeric
//    parsing over one line, replacing istringstream in the hot loop.
//  * hexfloat / read_hexfloat — the bit-exact double text form of the
//    resumable state files (anneal checkpoint, DSE sweep log).
//
// Line numbering stays with the caller, so ParseError diagnostics keep
// their exact path:line shape.
#pragma once

#include <cstddef>
#include <cstdio>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace sndr::io {

/// Producer of lines (terminators stripped). The returned view is valid
/// only until the next call.
class LineSource {
 public:
  virtual ~LineSource() = default;
  virtual bool next(std::string_view& line) = 0;
};

/// std::getline adapter: the `read_*(std::istream&)` entry points route
/// through this so streamed and file-backed parsing share one code path.
class IstreamLineSource final : public LineSource {
 public:
  explicit IstreamLineSource(std::istream& is) : is_(&is) {}
  bool next(std::string_view& line) override;

 private:
  std::istream* is_;
  std::string buf_;
};

/// Chunked file reader. Reads `chunk_bytes` at a time into one reusable
/// buffer and hands out string_views of complete lines; the partial line
/// at a chunk boundary is compacted to the buffer front before the next
/// read, and a line longer than the buffer grows it (amortized — the
/// buffer never shrinks back). Handles \n and \r\n; a final unterminated
/// line is returned too.
class LineReader final : public LineSource {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

  explicit LineReader(const std::string& path,
                      std::size_t chunk_bytes = kDefaultChunkBytes);
  ~LineReader() override;
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// False when the file could not be opened (next() then reports EOF).
  bool ok() const { return file_ != nullptr; }

  bool next(std::string_view& line) override;

 private:
  /// Refills the tail of the buffer; false when the file is exhausted.
  bool fill();

  std::FILE* file_ = nullptr;
  std::size_t chunk_bytes_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;   ///< start of the unconsumed region.
  std::size_t end_ = 0;   ///< end of valid bytes in buf_.
  bool eof_ = false;
};

/// Whitespace tokenizer over one line with from_chars numeric parsing.
/// Numeric extraction consumes whole tokens: "1.5x" is a parse error here
/// (istringstream would have peeled off the 1.5), which is the strictness
/// the formats document — typos should not parse.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view line) : rest_(line) {}

  /// Next whitespace-delimited token; false when the line is exhausted.
  bool next(std::string_view& tok);

  /// Numeric variants; false on exhaustion or a non-numeric token.
  /// A leading '+' is accepted (from_chars alone rejects it).
  bool next_double(double& out);
  bool next_int(int& out);

  /// Everything after the current position, untrimmed (e.g. the quoted
  /// remainder of a *DESIGN line).
  std::string_view rest() const { return rest_; }

  /// True when only whitespace remains.
  bool exhausted() const;

 private:
  std::string_view rest_;
};

/// `v` as a C99 hexfloat ("%a"), which round-trips a double bit-exactly.
std::string hexfloat(double v);

/// Parses one whole token written by hexfloat() (strtod syntax, so
/// decimals parse too). False on an empty token, trailing text, or a
/// non-finite value (nan/inf): resumable state never holds one, so such a
/// token is corruption, not a value to resume from.
bool parse_hexfloat(const std::string& tok, double& out);

/// Reads the next whitespace-delimited token of `is` and parses it with
/// parse_hexfloat (istream operator>> does not accept hexfloats).
bool read_hexfloat(std::istream& is, double& out);

}  // namespace sndr::io
