// Exact gossip counting (Algorithm 3, Step 5): compute #{v : x_v <= z} at
// every node by running push-sum on 0/1 indicators long enough that the
// relative error is below 1/(2n), then rounding to the nearest integer.
//
// Written once over the executor: each count is a push_sum_average_multi
// run on the executor's own kernel (agg/push_sum.hpp for Network,
// engine/pipelines.hpp for Engine).
#pragma once

#include <array>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/push_sum.hpp"
#include "sim/key.hpp"
#include "sim/round_core.hpp"
#include "util/require.hpp"

namespace gq {

struct CountResult {
  std::vector<std::uint64_t> counts;  // per-node rounded count
  std::uint64_t rounds = 0;
};

// Three exact counts in one diffusion (shared-weight 3D push-sum): per-node
// rounded counts of each indicator vector.
struct TripleCountResult {
  std::vector<std::uint64_t> a, b, c;
  std::uint64_t rounds = 0;
};

namespace count_detail {

// A node's average of 0/1 indicators, scaled by n and rounded.
[[nodiscard]] inline std::uint64_t rounded_count(double average,
                                                 std::uint32_t n) {
  const double rounded = std::round(average * static_cast<double>(n));
  return rounded <= 0.0 ? 0 : static_cast<std::uint64_t>(rounded);
}

}  // namespace count_detail

// Counts the number of true entries in `indicator` at every node.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] CountResult gossip_count(Ex& ex,
                                       const std::vector<bool>& indicator,
                                       std::uint64_t rounds = 0) {
  const std::uint32_t n = ex.size();
  GQ_REQUIRE(indicator.size() == n, "one indicator bit per node required");
  std::vector<std::array<double, 1>> x(n);
  for (std::uint32_t v = 0; v < n; ++v) x[v][0] = indicator[v] ? 1.0 : 0.0;
  const MultiPushSumResult<1> avg = push_sum_average_multi<1>(
      ex, std::span<const std::array<double, 1>>(x), rounds);

  CountResult out;
  out.rounds = avg.rounds;
  out.counts.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    out.counts[v] = count_detail::rounded_count(avg.estimates[v][0], n);
  }
  return out;
}

// Rank of `threshold` within `keys`: #{v : keys[v] <= threshold}.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] CountResult gossip_rank(Ex& ex, std::span<const Key> keys,
                                      const Key& threshold,
                                      std::uint64_t rounds = 0) {
  std::vector<bool> indicator(keys.size());
  for (std::size_t v = 0; v < keys.size(); ++v) {
    indicator[v] = keys[v] <= threshold;
  }
  return gossip_count(ex, indicator, rounds);
}

template <std::derived_from<RoundCore> Ex>
[[nodiscard]] TripleCountResult gossip_count3(
    Ex& ex, const std::vector<bool>& ind_a, const std::vector<bool>& ind_b,
    const std::vector<bool>& ind_c, std::uint64_t rounds = 0) {
  const std::uint32_t n = ex.size();
  GQ_REQUIRE(ind_a.size() == n && ind_b.size() == n && ind_c.size() == n,
             "one indicator bit per node required");
  std::vector<std::array<double, 3>> x(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    x[v] = {ind_a[v] ? 1.0 : 0.0, ind_b[v] ? 1.0 : 0.0, ind_c[v] ? 1.0 : 0.0};
  }
  const MultiPushSumResult<3> avg = push_sum_average_multi<3>(
      ex, std::span<const std::array<double, 3>>(x), rounds);

  TripleCountResult out;
  out.rounds = avg.rounds;
  out.a.resize(n);
  out.b.resize(n);
  out.c.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    out.a[v] = count_detail::rounded_count(avg.estimates[v][0], n);
    out.b[v] = count_detail::rounded_count(avg.estimates[v][1], n);
    out.c[v] = count_detail::rounded_count(avg.estimates[v][2], n);
  }
  return out;
}

}  // namespace gq
