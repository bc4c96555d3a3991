#include "agg/push_sum.hpp"

#include <bit>
#include <cmath>

namespace gq {

std::uint64_t push_sum_rounds_for_exact(std::uint32_t n,
                                        const FailureModel& failures) {
  // Calibrated: for the three counts of
  // GossipCount3.DefaultScheduleIsExactAtScale (tests/test_agg.cpp, n = 2^14
  // and 2^15 + 1) the rounding cliff — the first schedule at which every
  // node's counts are integer-exact — lies between 2 log2 n + 10 (some
  // nodes off) and 2 log2 n + 16 (all exact).  This schedule clears it by
  // log2 n + 4 rounds; that test pins exactness at the default.
  const auto log2n = static_cast<std::uint64_t>(
      std::bit_width(static_cast<std::uint64_t>(n) - 1));
  const std::uint64_t rounds = 3 * log2n + 20;
  const double mu = failures.max_probability();
  if (mu <= 0.0) return rounds;
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(rounds) / (1.0 - mu)));
}

}  // namespace gq
