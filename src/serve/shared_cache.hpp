// SharedCache: cross-job reuse of the immutable technology.
//
// A multi-tenant server runs many jobs against few distinct inputs; the
// cache keys each parsed technology by a *content* fingerprint (FNV-1a
// over the file bytes — renaming or touching a file does not defeat
// sharing, editing it does) and hands out refcounted handles: a
// technology is parsed once per distinct tech file (or the built-in
// default) and shared read-only by every job that names it.
//
// Failure never flows through the cache: when an input file cannot be
// read, acquire() returns null and the job's own Session reproduces the
// canonical error (same loader, same message, same error order as the
// standalone CLI).
//
// Thread safety: every method is safe to call concurrently; the mutex
// guards only the map, never a parse (a keyed miss may race benignly —
// last identical value wins).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.hpp"
#include "flow/config.hpp"
#include "tech/technology.hpp"

namespace sndr::serve {

/// FNV-1a(64) over the file's bytes, as 16 hex digits. kNotFound when the
/// file cannot be opened, kIoError on a read failure.
common::Result<std::string> file_fingerprint(const std::string& path);

class SharedCache {
 public:
  /// The technology config.tech_path names (or the built-in default),
  /// parsed once per content. Null when fingerprinting or parsing the
  /// file failed: the job should then run without set_technology() and
  /// let its Session report the error through the canonical loaders.
  std::shared_ptr<const tech::Technology> acquire(
      const flow::FlowConfig& config);

  struct Stats {
    std::int64_t tech_hits = 0;
    std::int64_t tech_misses = 0;
    /// Always 0: the cache no longer holds trained predictors (`models`
    /// scoring trains in-run). Kept so existing readers still compile.
    std::int64_t predictor_hits = 0;
    std::int64_t predictor_misses = 0;
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const tech::Technology>> tech_;
  Stats stats_;
};

}  // namespace sndr::serve
