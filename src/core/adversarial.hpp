// The adversarially-robust quantile and mean pipelines (arXiv 2502.15320).
//
// Unlike the Section-5 robust variants — which assume an *oblivious*
// failure model and oversample accordingly — these pipelines survive an
// adaptive, budget-bounded adversary (sim/adversary.hpp) by filtering:
// every tournament sample is the median of a group of pulls, so moving one
// sample costs the adversary a majority of a group.  Install a strategy
// with set_adversary on the executor before calling; with none installed
// the pipelines run the same schedule fault-free (budget-0 transcripts are
// pinned identical to that in tests/test_adversary.cpp).
//
// Both pipelines degrade gracefully: the result carries a QualityReport
// (served fraction, fault tallies, corruption exposure) instead of failing
// silently.  The entry points are templates over the executor, defined
// once in core/adversarial_pipeline.hpp and instantiated for Network and
// Engine, so the two executors stay bit-identical at every thread count.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace gq {

// How much adversarial pressure a pipeline run absorbed, and whether it
// still served enough of the network.  Computed from Metrics deltas, so it
// is part of the bit-identical transcript (differential tests compare it).
struct QualityReport {
  double served_fraction = 1.0;        // valid nodes / n
  std::uint64_t messages_total = 0;    // messages billed during the run
  std::uint64_t messages_dropped = 0;  // destroyed by the adversary
  std::uint64_t messages_corrupted = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t failed_operations = 0;  // oblivious-model losses
  // (dropped + corrupted + delayed) / total: the fraction of traffic the
  // adversary touched.  An upper bound on its influence — filtering keeps
  // the *effective* influence far lower.
  double corruption_exposure = 0.0;

  // The thresholds this run was judged against, copied from the params so
  // the single acceptance predicate below travels with the report.
  double min_served_fraction = 0.0;
  double max_corruption_exposure = 1.0;

  // THE acceptance predicate: enough of the network served AND the
  // adversary touched an acceptable fraction of traffic.  Callers (service
  // supervisor, tests, examples) must use this instead of re-deriving
  // their own thresholds.
  [[nodiscard]] bool ok() const noexcept {
    return served_fraction >= min_served_fraction &&
           corruption_exposure <= max_corruption_exposure;
  }

  friend bool operator==(const QualityReport&, const QualityReport&) = default;
};

struct AdversarialQuantileParams {
  double phi = 0.5;  // target quantile in [0,1]
  double eps = 0.1;  // approximation slack in (0,1/2)

  // g: every tournament sample becomes the median of a group of g pulls.
  // The adversary must corrupt a majority of a group to move one filtered
  // sample.  Forced odd; must stay <= kMaxFilterGroup.
  std::uint32_t filter_group = 3;

  // K in the final step: number of *filtered* samples collected before
  // emitting their median; a node is served iff a majority of its K groups
  // produced a sample.  Forced odd; must stay <= kMaxFinalSamples.
  std::uint32_t final_sample_size = 9;

  // Delta-truncation of the last 2-TOURNAMENT iteration (Lemma 2.4 of the
  // base paper; unchanged by filtering).
  bool truncate_last = true;

  // Acceptance thresholds recorded into QualityReport (see ok()): minimum
  // served fraction, and maximum fraction of traffic the adversary may
  // have touched.
  double min_served_fraction = 0.5;
  double max_corruption_exposure = 1.0;
};

struct AdversarialQuantileResult {
  std::vector<Key> outputs;  // per-node answer (meaningful iff valid)
  std::vector<bool> valid;   // served nodes
  std::size_t phase1_iterations = 0;
  std::size_t phase2_iterations = 0;
  std::uint64_t rounds = 0;
  QualityReport quality;

  [[nodiscard]] std::size_t served_nodes() const {
    return static_cast<std::size_t>(
        std::count(valid.begin(), valid.end(), true));
  }
};

struct AdversarialMeanParams {
  // Clip bounds come from two adversarial quantile runs at these targets;
  // the clip interval is [q_lo - pad, q_hi + pad] with pad = q_hi - q_lo
  // (an IQR-padded interval for the defaults).
  double clip_lo_phi = 0.25;
  double clip_hi_phi = 0.75;
  double quantile_eps = 0.15;
  std::uint32_t filter_group = 3;      // g of the quantile sub-runs
  std::uint32_t final_sample_size = 9;  // K of the quantile sub-runs

  // Sampling phase: rounds of clip-bounded value pulls averaged per node.
  // Must stay <= kMaxMeanRounds.
  std::uint32_t mean_sample_rounds = 48;

  double min_served_fraction = 0.5;
  double max_corruption_exposure = 1.0;
};

struct AdversarialMeanResult {
  std::vector<double> estimates;  // per-node mean estimate (iff valid)
  std::vector<bool> valid;
  std::uint64_t rounds = 0;
  QualityReport quality;

  [[nodiscard]] std::size_t served_nodes() const {
    return static_cast<std::size_t>(
        std::count(valid.begin(), valid.end(), true));
  }
};

namespace adversary_detail {

// Compile-time caps sizing the per-node stack scratch of the fold in
// core/adversarial_pipeline.hpp.  GQ_REQUIREd against the params at
// pipeline entry.
inline constexpr std::uint32_t kMaxFilterGroup = 9;
inline constexpr std::uint32_t kMaxFinalSamples = 31;
inline constexpr std::uint32_t kMaxMeanRounds = 512;

}  // namespace adversary_detail

// Public entry point: `values[v]` is node v's input.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] AdversarialQuantileResult adversarial_quantile(
    Ex& ex, std::span<const double> values,
    const AdversarialQuantileParams& params = {});

// Key-level entry point for callers already holding tie-broken instances.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] AdversarialQuantileResult adversarial_quantile_keys(
    Ex& ex, std::span<const Key> keys,
    const AdversarialQuantileParams& params = {});

// Clip-bounded adversarially-robust mean estimation.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] AdversarialMeanResult adversarial_mean(
    Ex& ex, std::span<const double> values,
    const AdversarialMeanParams& params = {});

}  // namespace gq
