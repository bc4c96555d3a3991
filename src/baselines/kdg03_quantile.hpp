// The Kempe-Dobra-Gehrke (FOCS'03) exact quantile baseline: classic
// randomized selection [Hoa61, FR75] implemented over gossip primitives.
//
// Each phase draws a uniformly random pivot among the remaining candidates
// (priority spreading), counts its exact rank with push-sum, and halves the
// candidate interval.  O(log n) phases of O(log n) rounds each =
// O(log^2 n) rounds w.h.p. — the bound Theorem 1.1 improves quadratically.
#pragma once

#include <span>

#include "core/result.hpp"
#include "sim/network.hpp"

namespace gq {

struct Kdg03Params {
  double phi = 0.5;
  // Safety cap; ~log n phases expected.  Also caps one phase's pivot
  // priority draws (core/pivot.hpp).
  std::uint32_t max_phases = 512;
};

struct Kdg03Result {
  Key answer;
  std::vector<Key> outputs;  // per-node copy of the answer
  std::uint64_t rounds = 0;
  std::size_t phases = 0;
};

[[nodiscard]] Kdg03Result kdg03_exact_quantile(Network& net,
                                               std::span<const double> values,
                                               const Kdg03Params& params);

[[nodiscard]] Kdg03Result kdg03_exact_quantile_keys(
    Network& net, std::span<const Key> keys, const Kdg03Params& params);

}  // namespace gq
