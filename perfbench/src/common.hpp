// Shared harness pieces of the gossip-quantile benchmark: command-line
// arguments, timing, sample statistics, the metric sink that prints the
// final JSON line, the sorted-input oracle, and the failure tally.
//
// Everything here is benchmark-side.  The program under test is driven
// only through its public entry points; no span or counter is added to it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/key.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs for the self-test: same workload shape, small n.
  bool tiny = false;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Host speed.  The benchmark runs on shared hosts whose speed swings by up
// to 2x for seconds to minutes at a time, as neighbours load the shared
// cores: the same batch took 0.30 s and 0.59 s within one run, and a
// median taken over one run cannot remove a swing that lasts the whole
// run.  So a fixed reference loop, benchmark code that never changes (8
// sorts of 4096 doubles, core-bound), runs before every outermost timed
// call, and every time the benchmark reports is scaled by
// (kReferenceS / m)^kSensitivity, m the median of the last few loop
// times: the time the call would have taken on a host where the loop
// takes kReferenceS.  A loop chasing pointers through L3 tracked the
// program's swings less closely.
namespace host {

// The reference loop's time on a quiet host; the unit of every scaled time.
inline constexpr double kReferenceS = 2e-3;
// The program's kernels also use the caches and memory the neighbours
// share, so they lose more speed than the loop: between the slow and fast
// spells of one ten-seed set, service and faulted batches slowed 1.62-1.65x
// while the loop slowed 1.38-1.43x.  With this exponent the ten-run
// spreads of every workload's scaled batch medians were lowest.
inline constexpr double kSensitivity = 1.25;

// Runs the reference loop once, unless a timed call is already running.
void sample();
// (kReferenceS / median of the last few loop times)^kSensitivity.
[[nodiscard]] double scale();
// Median loop time over the run so far, unscaled.
[[nodiscard]] double reference_median_s();

// Marks a timed call in progress, so nested calls do not sample.
class Span {
 public:
  Span();
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace host

// Runs fn and returns its wall time in seconds, scaled to the reference
// host speed.  The outermost timed call samples the host speed first.
template <typename Fn>
double timed(Fn&& fn) {
  host::sample();
  const host::Span span;
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0) * host::scale();
}

// A bag of measurements with order statistics.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return xs_.empty(); }
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (const double x : xs_) s += x;
    return s;
  }
  // Linear-interpolated quantile, q in [0,1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (xs_.empty()) return 0.0;
    std::vector<double> s = xs_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
  }
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> xs_;
};

// Protocol cost of a deterministic unit of work: a pure function of the
// inputs, the seed and the parameters, so any drift is a bug.
struct Cost {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;

  [[nodiscard]] static Cost of(const gq::Metrics& m) {
    return Cost{m.rounds, m.messages, m.message_bits};
  }
  Cost& operator+=(const Cost& o) {
    rounds += o.rounds;
    messages += o.messages;
    bits += o.bits;
    return *this;
  }
  friend bool operator==(const Cost&, const Cost&) = default;
};

// Counts checked operations and the ones that threw or missed the oracle.
// A miss is reported on stderr and counted; it never aborts the run.
class Tally {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void threw(const std::string& what) { check(false, "threw: " + what); }
  void note_rank_error(double err) {
    rank_error_max_ = std::max(rank_error_max_, err);
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] double rank_error_max() const noexcept {
    return rank_error_max_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double rank_error_max_ = 0.0;
};

// The sorted copy of a workload's inputs, the ground truth every answer is
// checked against.  Ranks are 1-based: the k-th smallest value has rank k.
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<double> values) : sorted_(std::move(values)) {
    std::sort(sorted_.begin(), sorted_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] std::uint64_t count_le(double x) const {
    return static_cast<std::uint64_t>(
        std::upper_bound(sorted_.begin(), sorted_.end(), x) - sorted_.begin());
  }
  [[nodiscard]] std::uint64_t count_lt(double x) const {
    return static_cast<std::uint64_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), x) - sorted_.begin());
  }
  // The value of rank k (1-based, clamped to [1, n]).
  [[nodiscard]] double kth(std::uint64_t k) const {
    k = std::clamp<std::uint64_t>(k, 1, sorted_.size());
    return sorted_[k - 1];
  }
  // The exact pipeline's target rank: ceil(phi * n), clamped to [1, n].
  [[nodiscard]] std::uint64_t target_rank(double phi) const {
    const double n = static_cast<double>(sorted_.size());
    return std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(phi * n)), 1, sorted_.size());
  }
  // Distance, as a fraction of n, between phi and the quantile of value x
  // (the rank interval [count_lt + 1, count_le] covers ties).
  [[nodiscard]] double rank_error(double x, double phi) const {
    const double n = static_cast<double>(sorted_.size());
    const double lo = static_cast<double>(count_lt(x) + 1) / n;
    const double hi = static_cast<double>(count_le(x)) / n;
    if (phi < lo) return lo - phi;
    if (phi > hi) return phi - hi;
    return 0.0;
  }

 private:
  std::vector<double> sorted_;
};

// Checks every served output of an approximate pipeline against the eps
// rank window around phi.  Rank is monotone in value, so the smallest and
// largest served outputs bound every other one.
void check_window(const Oracle& oracle, std::span<const gq::Key> outputs,
                  const std::vector<bool>& valid, double phi, double eps,
                  Tally& tally, const std::string& what);

// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// Named metrics with units, printed as the final JSON line.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
  }
  void print(const Tally& tally) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace perfbench
