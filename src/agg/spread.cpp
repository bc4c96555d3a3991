#include "agg/spread.hpp"

#include <bit>
#include <cmath>

namespace gq {

std::uint64_t spread_rounds_cap(std::uint32_t n,
                                const FailureModel& failures) {
  const auto log2n = static_cast<std::uint64_t>(
      std::bit_width(static_cast<std::uint64_t>(n) - 1));
  const std::uint64_t base = 8 * log2n + 50;
  const double mu = failures.max_probability();
  if (mu <= 0.0) return base;
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(base) / (1.0 - mu)));
}

}  // namespace gq
