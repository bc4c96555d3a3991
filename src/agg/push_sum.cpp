#include "agg/push_sum.hpp"

#include <bit>
#include <cmath>

namespace gq {

std::uint64_t push_sum_rounds_for_exact(std::uint32_t n,
                                        const FailureModel& failures) {
  // Calibrated: the rounding cliff (first integer-exact counts across all
  // nodes) sits near 2 log2 n + 30 for n up to 2^18; this schedule clears
  // it with ~1/3 margin.  See EXPERIMENTS.md (counting calibration).
  const auto log2n = static_cast<std::uint64_t>(
      std::bit_width(static_cast<std::uint64_t>(n) - 1));
  const std::uint64_t rounds = 3 * log2n + 20;
  const double mu = failures.max_probability();
  if (mu <= 0.0) return rounds;
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(rounds) / (1.0 - mu)));
}

}  // namespace gq
