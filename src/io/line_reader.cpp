#include "io/line_reader.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace sndr::io {

bool IstreamLineSource::next(std::string_view& line) {
  if (!std::getline(*is_, buf_)) return false;
  if (!buf_.empty() && buf_.back() == '\r') buf_.pop_back();
  line = buf_;
  return true;
}

LineReader::LineReader(const std::string& path, std::size_t chunk_bytes)
    : chunk_bytes_(std::max<std::size_t>(chunk_bytes, 64)) {
  file_ = std::fopen(path.c_str(), "rb");
  buf_.resize(chunk_bytes_);
}

LineReader::~LineReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool LineReader::fill() {
  if (eof_ || file_ == nullptr) return false;
  // Compact the unconsumed tail to the front so views into the new chunk
  // cover whole lines. (Views handed out earlier are already dead — the
  // LineSource contract is one live line at a time.)
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (end_ == buf_.size()) {
    // One line spans the whole buffer: grow so it can complete.
    buf_.resize(buf_.size() * 2);
  }
  const std::size_t got =
      std::fread(buf_.data() + end_, 1, buf_.size() - end_, file_);
  end_ += got;
  if (got == 0) eof_ = true;
  return got > 0;
}

bool LineReader::next(std::string_view& line) {
  if (file_ == nullptr) return false;
  for (;;) {
    const char* base = buf_.data() + pos_;
    const std::size_t avail = end_ - pos_;
    const char* nl = static_cast<const char*>(std::memchr(base, '\n', avail));
    if (nl != nullptr) {
      std::size_t len = static_cast<std::size_t>(nl - base);
      if (len > 0 && base[len - 1] == '\r') --len;
      line = std::string_view(base, len);
      pos_ += static_cast<std::size_t>(nl - base) + 1;
      return true;
    }
    if (!fill()) {
      // Final line without a terminator.
      if (avail == 0) return false;
      std::size_t len = avail;
      const char* tail = buf_.data() + pos_;  // fill() may have compacted.
      if (len > 0 && tail[len - 1] == '\r') --len;
      line = std::string_view(tail, len);
      pos_ = end_;
      return true;
    }
  }
}

namespace {

constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

std::string_view skip_space(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  return s.substr(i);
}

}  // namespace

bool Tokenizer::next(std::string_view& tok) {
  rest_ = skip_space(rest_);
  if (rest_.empty()) return false;
  std::size_t i = 0;
  while (i < rest_.size() && !is_space(rest_[i])) ++i;
  tok = rest_.substr(0, i);
  rest_ = rest_.substr(i);
  return true;
}

bool Tokenizer::next_double(double& out) {
  std::string_view tok;
  if (!next(tok)) return false;
  if (!tok.empty() && tok.front() == '+') tok.remove_prefix(1);
  if (tok.empty()) return false;
  const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                       out);
  return ec == std::errc() && p == tok.data() + tok.size();
}

bool Tokenizer::next_int(int& out) {
  std::string_view tok;
  if (!next(tok)) return false;
  if (!tok.empty() && tok.front() == '+') tok.remove_prefix(1);
  if (tok.empty()) return false;
  const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                       out);
  return ec == std::errc() && p == tok.data() + tok.size();
}

bool Tokenizer::exhausted() const { return skip_space(rest_).empty(); }

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool parse_hexfloat(const std::string& tok, double& out) {
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end != tok.c_str() && *end == '\0' && std::isfinite(out);
}

bool read_hexfloat(std::istream& is, double& out) {
  std::string tok;
  return static_cast<bool>(is >> tok) && parse_hexfloat(tok, out);
}

}  // namespace sndr::io
