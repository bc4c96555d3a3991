// Corollary 1.5: every node estimates the quantile of ITS OWN value up to
// an additive eps.
//
// The library asks for the approximate quantiles on the grid
// phi_j = j * (eps/2), j = 1 .. ceil(2/eps) - 1, with slack eps/4; node v
// then counts how many of those outputs lie below its value.  Each
// output's true quantile is within eps/4 + (ties) of its grid point, so
// the count pins v's quantile to an eps-window.
//
// All grid targets go out as ONE multi_quantile batch, so in the
// failure-free model they share one tournament schedule (one diffusion
// serving every target, as in Chen–Pandurangan's shared aggregation):
// O(log log n + log 1/eps) rounds in total instead of (2/eps - 1) times
// that.  Below the tournament floor or under a failure model the batch
// falls back to one approx run per target, exactly as multi_quantile does.
//
// own_rank is one template over the executor, instantiated for Network
// (core/pipelines.cpp) and Engine (engine/pipelines.cpp), so the two stay
// bit-identical (tests/test_engine.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

#include "core/multi_quantile.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "sim/network.hpp"
#include "util/require.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

// eps must lie in (0, 1/2) and be at least 2/n: a grid step eps/2 finer
// than one rank would ask for more than n - 1 targets.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] OwnRankResult own_rank(Ex& ex, std::span<const double> values,
                                     const OwnRankParams& params) {
  const std::uint32_t n = ex.size();
  GQ_REQUIRE(values.size() == n, "one value per node required");
  GQ_REQUIRE(params.eps > 0.0 && params.eps < 0.5,
             "eps must lie in (0, 1/2)");
  GQ_REQUIRE(params.eps * static_cast<double>(n) >= 2.0,
             "eps must be at least 2/n (grid step eps/2 finer than one rank)");

  const std::vector<Key> keys = make_keys(values);
  const double grid = params.eps / 2.0;
  const auto runs = static_cast<std::size_t>(std::ceil(1.0 / grid)) - 1;

  MultiQuantileParams mp;
  mp.eps = params.eps / 4.0;
  mp.final_sample_size = params.final_sample_size;
  for (std::size_t j = 1; j <= runs; ++j) {
    mp.phis.push_back(std::min(1.0, grid * static_cast<double>(j)));
  }
  const MultiQuantileResult batch = multi_quantile_keys(ex, keys, mp);

  OwnRankResult out;
  out.quantile_runs = runs;
  out.rounds = batch.rounds;
  out.valid.assign(n, true);
  out.estimates.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::size_t below = 0;
    for (const ApproxQuantileResult& r : batch.per_phi) {
      if (!r.valid[v]) {
        out.valid[v] = false;
      } else if (r.outputs[v] < keys[v]) {
        ++below;
      }
    }
    out.estimates[v] =
        std::min(1.0, (static_cast<double>(below) + 0.5) * grid);
  }
  return out;
}

}  // namespace gq
