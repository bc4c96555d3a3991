// Batch quantile queries: several phi targets over the same input, the
// building block behind Corollary 1.5 and the common "p50/p95/p99" use.
//
// All unique targets ride ONE shared tournament schedule — per-node state
// is a q-lane vector, every peer draw serves all lanes, and messages carry
// the whole vector — so q targets cost roughly one pipeline's rounds
// instead of q (see core/multi_pipeline.hpp for the protocol and the
// routing rules that fall back to deduped independent runs).  Duplicated
// targets are deduped before dispatch and mapped back to the caller's
// order, so they never cost extra rounds or bits.
#pragma once

#include <concepts>
#include <span>
#include <vector>

#include "core/approx_quantile.hpp"
#include "core/params.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace gq {

struct MultiQuantileParams {
  std::vector<double> phis;  // targets, each in [0,1]
  double eps = 0.1;
  std::uint32_t final_sample_size = 15;
  std::uint32_t robust_coverage_rounds = 12;
};

struct MultiQuantileResult {
  std::vector<ApproxQuantileResult> per_phi;  // aligned with params.phis
  std::uint64_t rounds = 0;                   // total across the whole batch

  // Full cost of the batch (messages, bits, per-size counts — not just
  // rounds), so shared-vs-independent comparisons bill honest bytes.
  Metrics metrics;

  // True when the batch ran as one shared-schedule tournament; false when
  // it routed through deduped independent runs (exact fallback, failure
  // model/adversary, or more than kMaxSharedLanes unique targets).
  bool shared_schedule = false;

  // Unique targets after dedupe (the number of lanes or runs paid for).
  std::size_t unique_targets = 0;

  // Convenience: node v's output value for target i.
  [[nodiscard]] double value(std::size_t i, std::uint32_t node) const {
    return per_phi.at(i).outputs.at(node).value;
  }
};

// Templates over the executor (Network or Engine), defined once in
// core/multi_pipeline.hpp and instantiated for both.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] MultiQuantileResult multi_quantile(
    Ex& ex, std::span<const double> values,
    const MultiQuantileParams& params);
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] MultiQuantileResult multi_quantile_keys(
    Ex& ex, std::span<const Key> keys, const MultiQuantileParams& params);

}  // namespace gq
