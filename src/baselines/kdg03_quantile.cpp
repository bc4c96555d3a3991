#include "baselines/kdg03_quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "agg/rank_count.hpp"
#include "core/pivot.hpp"
#include "util/require.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

Kdg03Result kdg03_exact_quantile_keys(Network& net, std::span<const Key> keys,
                                      const Kdg03Params& params) {
  const std::uint32_t n = net.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(params.phi >= 0.0 && params.phi <= 1.0, "phi must lie in [0,1]");

  const auto nd = static_cast<double>(n);
  const std::uint64_t k = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(params.phi * nd)), 1, n);
  const Metrics before = net.metrics();

  Kdg03Result out;
  Key lo = Key::neg_infinite();
  Key hi = Key::infinite();
  std::vector<bool> candidate(n);
  for (std::uint32_t phase = 0; phase < params.max_phases; ++phase) {
    for (std::uint32_t v = 0; v < n; ++v) {
      candidate[v] = lo < keys[v] && keys[v] < hi;
    }
    const PivotSample pv =
        sample_uniform_candidate(net, keys, candidate, params.max_phases);
    if (!pv.found) {
      throw std::runtime_error("kdg03: no candidates left without a hit");
    }
    ++out.phases;
    const std::uint64_t rank = gossip_rank(net, keys, pv.pivot).counts[0];
    if (rank == k) {
      out.answer = pv.pivot;
      out.outputs.assign(n, pv.pivot);
      out.rounds = net.metrics().rounds - before.rounds;
      return out;
    }
    if (rank > k) {
      hi = pv.pivot;
    } else {
      lo = pv.pivot;
    }
  }
  throw std::runtime_error("kdg03 selection did not converge");
}

Kdg03Result kdg03_exact_quantile(Network& net, std::span<const double> values,
                                 const Kdg03Params& params) {
  const std::vector<Key> keys = make_keys(values);
  return kdg03_exact_quantile_keys(net, keys, params);
}

}  // namespace gq
