#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/rank_stats.hpp"
#include "core/own_rank.hpp"
#include "engine/engine.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

TEST(OwnRank, EveryNodeWithinEps) {
  constexpr std::uint32_t kN = 1 << 14;
  const double eps = 0.4;  // inner runs use eps/4 = 0.1 >= floor(16384)
  const auto values = generate_values(Distribution::kUniformReal, kN, 3);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  Network net(kN, 7);
  OwnRankParams params;
  params.eps = eps;
  const auto r = own_rank(net, values, params);

  ASSERT_EQ(r.estimates.size(), kN);
  EXPECT_EQ(r.quantile_runs, 4u);  // ceil(1/(eps/2)) - 1 = 4
  std::size_t ok = 0;
  for (std::uint32_t v = 0; v < kN; ++v) {
    const double truth = scale.quantile_of(keys[v]);
    ok += std::abs(r.estimates[v] - truth) <= eps ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(ok) / kN, 0.99);
}

TEST(OwnRank, SkewedDistribution) {
  constexpr std::uint32_t kN = 1 << 14;
  const double eps = 0.4;
  const auto values = generate_values(Distribution::kExponential, kN, 5);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  Network net(kN, 11);
  OwnRankParams params;
  params.eps = eps;
  const auto r = own_rank(net, values, params);
  std::size_t ok = 0;
  for (std::uint32_t v = 0; v < kN; ++v) {
    ok += std::abs(r.estimates[v] - scale.quantile_of(keys[v])) <= eps ? 1
                                                                       : 0;
  }
  EXPECT_GE(static_cast<double>(ok) / kN, 0.99);
}

TEST(OwnRank, ExtremeNodesKnowTheirPlace) {
  constexpr std::uint32_t kN = 1 << 13;
  const auto values =
      generate_values(Distribution::kUniformPermutation, kN, 9);
  Network net(kN, 13);
  OwnRankParams params;
  params.eps = 0.4;
  const auto r = own_rank(net, values, params);
  // The node holding value 1 (global minimum) and the one holding n.
  for (std::uint32_t v = 0; v < kN; ++v) {
    if (values[v] == 1.0) {
      EXPECT_LE(r.estimates[v], 0.45);
    }
    if (values[v] == static_cast<double>(kN)) {
      EXPECT_GE(r.estimates[v], 0.55);
    }
  }
}

TEST(OwnRank, RoundsScaleWithRunCount) {
  constexpr std::uint32_t kN = 4096;
  const auto values = generate_values(Distribution::kGaussian, kN, 15);
  Network coarse_net(kN, 17), fine_net(kN, 17);
  OwnRankParams coarse;
  coarse.eps = 0.45;
  OwnRankParams fine;
  fine.eps = 0.48;  // nearly the same accuracy, slightly more runs
  const auto rc = own_rank(coarse_net, values, coarse);
  const auto rf = own_rank(fine_net, values, fine);
  EXPECT_EQ(rc.rounds, coarse_net.metrics().rounds);
  EXPECT_GE(rc.quantile_runs, rf.quantile_runs);
}

TEST(OwnRank, RejectsInvalidEps) {
  Network net(64, 1);
  const auto values =
      generate_values(Distribution::kUniformPermutation, 64, 1);
  OwnRankParams params;
  params.eps = 0.0;
  EXPECT_THROW((void)own_rank(net, values, params), std::invalid_argument);
  params.eps = 0.6;
  EXPECT_THROW((void)own_rank(net, values, params), std::invalid_argument);
}

// A grid step eps/2 finer than one rank (eps * n < 2) would ask for more
// than n - 1 targets: tiny eps once overflowed the target count's
// conversion, and 1e-9 tried to queue ~2e9 targets.  Both executors reject
// it up front; eps = 2/n, the finest accepted, runs n - 1 targets.
TEST(OwnRank, RejectsGridFinerThanOneRank) {
  constexpr std::uint32_t kN = 64;
  const auto values =
      generate_values(Distribution::kUniformPermutation, kN, 1);
  Network net(kN, 1);
  Engine engine(kN, 1, FailureModel{}, EngineConfig{.threads = 2});
  OwnRankParams params;
  for (const double eps : {1e-25, 1e-9, 0.03}) {
    params.eps = eps;
    EXPECT_THROW((void)own_rank(net, values, params), std::invalid_argument)
        << eps;
    EXPECT_THROW((void)own_rank(engine, values, params),
                 std::invalid_argument)
        << eps;
  }
  EXPECT_EQ(net.metrics().rounds, 0u);
  EXPECT_EQ(engine.metrics().rounds, 0u);

  params.eps = 2.0 / kN;
  const OwnRankResult seq = own_rank(net, values, params);
  const OwnRankResult par = own_rank(engine, values, params);
  EXPECT_EQ(seq.quantile_runs, kN - 1);
  EXPECT_EQ(seq.estimates, par.estimates);
  EXPECT_EQ(seq.rounds, par.rounds);
}

}  // namespace
}  // namespace gq
