// Shared pieces of the benchmark program: options, operation accounting,
// input generation, result digests and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "flow/config.hpp"
#include "flow/flow.hpp"
#include "serve/submit.hpp"

namespace perfbench {

namespace flow = sndr::flow;
namespace serve = sndr::serve;

using Clock = std::chrono::steady_clock;

/// Untraced runs sample the set-up time before the first timed job and
/// again in the gaps between timed jobs (never inside one), and setup_s is
/// the median of the samples. Each sample is the mean of back-to-back
/// set-ups repeated until this much time has passed. The host's
/// single-thread speed swings up to 1.8x from one tenth of a second to the
/// next, so one 10-400 ms set-up reads a single moment of it; blocks spread
/// over the run see the host the jobs see.
constexpr double kSetupSampleSeconds = 0.5;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One set-up sample: runs `set_up` (which returns the seconds of the
/// set-up it timed) back to back for kSetupSampleSeconds, or once when
/// `once`, and returns the mean and the count.
template <class F>
std::pair<double, int> setup_sample(F&& set_up, bool once) {
  const Clock::time_point t0 = Clock::now();
  double sum = 0.0;
  int n = 0;
  do {
    sum += set_up();
    ++n;
  } while (!once && seconds_since(t0) < kSetupSampleSeconds);
  return {sum / n, n};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< per-workload scratch under the checkout.
  int nproc = 1;
};

/// Operation accounting behind `attempted`, `failed` and `failed_frac`.
/// An operation is one job (timed or verification); a job fails when its
/// status is not ok, it was rejected at admission, or a precondition or
/// output check attached to it did not hold.
class Ops {
 public:
  int begin();
  /// Records a failed check against operation `op` (printed to stderr).
  void fail(int op, const std::string& why);
  /// fail() unless `ok`; returns `ok`.
  bool check(int op, bool ok, const std::string& why);
  int attempted() const { return attempted_; }
  int failed() const { return static_cast<int>(failed_.size()); }

 private:
  int attempted_ = 0;
  std::set<int> failed_;
};

/// SplitMix64 finalizer: derives input seeds and drives the workloads'
/// shuffles and arrival streams.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// FNV-1a (64-bit) over raw bytes: the identity digests of results.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const unsigned char* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void word(double v) { bytes(&v, sizeof v); }
};

/// A generated design file plus what its feasibility check learned.
struct DesignInput {
  std::string path;
  int sinks = 0;
  std::uint64_t gen_seed = 0;
  /// Generated candidates whose blanket NDR did not sign off and were
  /// replaced by the next candidate of the seed's sequence.
  int rejected = 0;
  double design_max_skew_ps = 0.0;
  double blanket_skew_ps = 0.0;
  double blanket_cap = 0.0;  ///< F, blanket switched cap.
};

/// Chooses the input for a workload slot (not timed): generates a
/// mixed-distribution design of `sinks` sinks from `seed`, writes it to
/// `path`, and checks through the flow's own prepare stages (load, CTS,
/// route, skew refinement, nets, geometry) that the blanket NDR signs off.
/// A candidate that does not is replaced by the next generator seed of a
/// fixed sequence; `rejected` counts them. Throws after 8 rejections.
DesignInput select_input(const std::string& path, int sinks,
                         std::uint64_t seed);

/// The set-up step a user pays: generates the chosen design again and
/// writes it to its path (same bytes). Returns the seconds it took.
double write_input(const DesignInput& in);

/// The smallest max_skew (ps) on a fixed ladder above the blanket skew
/// (+2%, +4%, ... +40%) at which a `base` job repairs and stays feasible,
/// preferring one that keeps a saving over the blanket; empty when no rung
/// repairs. Not timed.
std::optional<double> calibrate_tight_skew(const flow::FlowConfig& base,
                                           const DesignInput& in);

/// Identity witness of a completed single flow: FNV-1a digests of the
/// final assignment and of the bits of its switched-cap and power words,
/// sink arrivals and corner results. Equal signatures = bitwise-equal
/// results (up to 64-bit hash collisions); small enough to keep per job.
struct Signature {
  std::uint64_t assignment = 0;
  std::uint64_t words = 0;
  bool feasible = false;
  bool operator==(const Signature&) const = default;
};
Signature signature(const flow::FlowResult& r);

/// Switched-cap saving of the final assignment against blanket NDR (%).
double saving_pct(const flow::FlowResult& r);

/// Nearest-rank percentile (q in [0, 1]) and median.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Report line for the set-up samples: count, set-ups per sample, min,
/// median and max.
std::string setup_line(const std::vector<double>& setup_s, int setups);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Collects a workload's numbers: end-to-end metrics (untraced runs) or
/// per-layer metrics (traced runs), plus free-form report lines.
struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> lines;
  void set(const std::string& name, double value) { metrics[name] = value; }
  void line(const std::string& text) { lines.push_back(text); }
};

/// Preconditions every completed single flow must meet: the blanket NDR
/// signs off, the optimizer committed moves, the final nominal assignment
/// is feasible, and smart switched cap does not exceed blanket's.
void check_flow(Ops& ops, int op, const flow::FlowResult& r,
                const std::string& what);
/// The same, after checking the job completed with status ok.
void check_job(Ops& ops, int op, const serve::JobOutcome& out,
               const std::string& what);

// Workload entry points (one translation unit each).
void run_single(const Options& opt, Ops& ops, Report& rep);  // single_large,
                                                              // anneal_medium
void run_serve_mix(const Options& opt, Ops& ops, Report& rep);
void run_dse_sweep(const Options& opt, Ops& ops, Report& rep);

}  // namespace perfbench
