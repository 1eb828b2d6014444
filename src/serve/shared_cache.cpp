#include "serve/shared_cache.hpp"

#include <cstdio>
#include <fstream>

#include "tech/technology.hpp"

namespace sndr::serve {

namespace {

/// Built-in default technology key — no file to fingerprint, the content
/// is the binary itself.
constexpr const char* kDefaultTechKey = "tech:default";

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

common::Result<std::string> file_fingerprint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return common::Status::NotFound("cannot open " + path);
  }
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis.
  char buf[1 << 16];
  while (f.read(buf, sizeof buf) || f.gcount() > 0) {
    const std::streamsize n = f.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;  // FNV-1a prime.
    }
    if (!f) break;
  }
  if (f.bad()) {
    return common::Status::IoError("read failure on " + path);
  }
  return to_hex(h);
}

std::shared_ptr<const tech::Technology> SharedCache::acquire(
    const flow::FlowConfig& config) {
  // Technology handle, content-keyed. Parse outside the lock; two jobs
  // racing the same miss both parse and the second insert loses — wasted
  // work, never a wrong value.
  std::string tech_key = kDefaultTechKey;
  if (!config.tech_path.empty()) {
    common::Result<std::string> fp = file_fingerprint(config.tech_path);
    if (!fp.ok()) return nullptr;  // job's Session reports the real error.
    tech_key = "tech:" + fp.value();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tech_.find(tech_key);
    if (it != tech_.end()) {
      ++stats_.tech_hits;
      return it->second;
    }
    ++stats_.tech_misses;
  }
  std::shared_ptr<const tech::Technology> tech;
  if (config.tech_path.empty()) {
    tech = std::make_shared<const tech::Technology>(
        tech::Technology::make_default_45nm());
  } else {
    common::Result<tech::Technology> parsed =
        tech::load_technology_file(config.tech_path);
    if (!parsed.ok()) return nullptr;  // Session reproduces the diagnosis.
    tech = std::make_shared<const tech::Technology>(std::move(parsed.value()));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Lost the race: share the winner's.
  return tech_.emplace(tech_key, std::move(tech)).first->second;
}

SharedCache::Stats SharedCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sndr::serve
