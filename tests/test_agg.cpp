#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "engine/pipelines.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

TEST(PushSum, ConvergesToAverage) {
  constexpr std::uint32_t kN = 256;
  Network net(kN, 17);
  const auto xs = generate_values(Distribution::kUniformReal, kN, 1);
  const double truth =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(kN);
  const PushSumResult r = push_sum_average(net, xs);
  for (double e : r.estimates) EXPECT_NEAR(e, truth, 1e-3);
}

TEST(PushSum, SumScalesAverage) {
  constexpr std::uint32_t kN = 128;
  Network net(kN, 3);
  std::vector<double> xs(kN, 2.5);
  const PushSumResult r = push_sum_sum(net, xs);
  for (double e : r.estimates) EXPECT_NEAR(e, 2.5 * kN, 1e-6);
}

TEST(PushSum, MassIsConservedUnderFailures) {
  constexpr std::uint32_t kN = 200;
  Network net(kN, 23, FailureModel::uniform(0.4));
  const auto xs = generate_values(Distribution::kGaussian, kN, 2);
  const double truth =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(kN);
  const PushSumResult r = push_sum_average(net, xs);
  for (double e : r.estimates) EXPECT_NEAR(e, truth, 1e-2);
}

// One schedule: push_sum_rounds_for_exact is also every helper's default,
// and it drives the error far below the 1/(2n) that exact counting needs.
TEST(PushSum, ExactScheduleIsTheDefaultAndTight) {
  constexpr std::uint32_t kN = 512;
  const auto xs = generate_values(Distribution::kExponential, kN, 5);
  const double truth =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(kN);

  Network by_default(kN, 9), exact(kN, 9);
  const auto r_default = push_sum_average(by_default, xs);
  const auto r_exact = push_sum_average(
      exact, xs, push_sum_rounds_for_exact(kN, exact.failures()));
  EXPECT_EQ(r_default.rounds, r_exact.rounds);
  EXPECT_EQ(r_default.estimates, r_exact.estimates);
  double err = 0.0;
  for (std::uint32_t v = 0; v < kN; ++v) {
    err = std::max(err, std::abs(r_exact.estimates[v] - truth));
  }
  EXPECT_LT(err, 1e-6);
}

TEST(PushSum, MultiDimensionalAgreesWithScalar) {
  constexpr std::uint32_t kN = 128;
  const auto a = generate_values(Distribution::kUniformReal, kN, 1);
  const auto b = generate_values(Distribution::kExponential, kN, 2);
  std::vector<std::array<double, 3>> x(kN);
  for (std::uint32_t v = 0; v < kN; ++v) x[v] = {a[v], b[v], 1.0};

  Network net(kN, 31);
  const auto multi = push_sum_average_multi<3>(
      net, std::span<const std::array<double, 3>>(x), 200);

  const double avg_a =
      std::accumulate(a.begin(), a.end(), 0.0) / static_cast<double>(kN);
  const double avg_b =
      std::accumulate(b.begin(), b.end(), 0.0) / static_cast<double>(kN);
  for (std::uint32_t v = 0; v < kN; ++v) {
    EXPECT_NEAR(multi.estimates[v][0], avg_a, 1e-6);
    EXPECT_NEAR(multi.estimates[v][1], avg_b, 1e-6);
    EXPECT_NEAR(multi.estimates[v][2], 1.0, 1e-6);
  }
}

TEST(Spread, MaxReachesEveryNode) {
  constexpr std::uint32_t kN = 512;
  Network net(kN, 7);
  const auto keys = make_keys(generate_values(
      Distribution::kUniformPermutation, kN, 4));
  const Key truth = *std::max_element(keys.begin(), keys.end());
  const SpreadResult r = spread_max(net, keys);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

TEST(Spread, MinReachesEveryNode) {
  constexpr std::uint32_t kN = 512;
  Network net(kN, 7);
  const auto keys = make_keys(generate_values(
      Distribution::kGaussian, kN, 4));
  const Key truth = *std::min_element(keys.begin(), keys.end());
  const SpreadResult r = spread_min(net, keys);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

TEST(Spread, RoundsAreLogarithmic) {
  // O(log n) w.h.p.: allow a generous constant but reject linear behaviour.
  for (std::uint32_t n : {64u, 256u, 1024u, 4096u}) {
    Network net(n, 13);
    const auto keys =
        make_keys(generate_values(Distribution::kUniformReal, n, 6));
    const SpreadResult r = spread_max(net, keys);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.rounds, 6.0 * std::log2(static_cast<double>(n)) + 10.0)
        << "n=" << n;
  }
}

TEST(Spread, SurvivesFailures) {
  constexpr std::uint32_t kN = 256;
  Network net(kN, 19, FailureModel::uniform(0.5));
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 8));
  const Key truth = *std::max_element(keys.begin(), keys.end());
  const SpreadResult r = spread_max(net, keys);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

TEST(Spread, ZeroRoundsWhenAlreadyUniform) {
  constexpr std::uint32_t kN = 16;
  Network net(kN, 1);
  const std::vector<Key> keys(kN, Key{1.0, 3, 0});
  const SpreadResult r = spread_max(net, keys);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, 0u);
}

// A fused min/max spread sends one message per node per round while either
// component is still spreading, and bills key_bits(n) per live component:
// rounds and messages follow the slower component, bits the sum of both.
TEST(Spread, FusedMinMaxBillsLiveComponents) {
  constexpr std::uint32_t kN = 1024;
  const std::uint64_t bits = key_bits(kN);
  const auto lo = make_keys(generate_values(Distribution::kGaussian, kN, 5));
  const auto hi =
      make_keys(generate_values(Distribution::kUniformReal, kN, 6));
  Network net(kN, 11);
  const std::array<SpreadResult, 2> r = spread_min_max(net, lo, hi);
  ASSERT_TRUE(r[0].converged && r[1].converged);
  const Key lo_truth = *std::min_element(lo.begin(), lo.end());
  const Key hi_truth = *std::max_element(hi.begin(), hi.end());
  for (std::uint32_t v = 0; v < kN; ++v) {
    EXPECT_EQ(r[0].values[v], lo_truth);
    EXPECT_EQ(r[1].values[v], hi_truth);
  }
  const std::uint64_t a = r[0].rounds;
  const std::uint64_t b = r[1].rounds;
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
  EXPECT_EQ(net.metrics().rounds, std::max(a, b));
  EXPECT_EQ(net.metrics().messages, std::max(a, b) * kN);
  EXPECT_EQ(net.metrics().message_bits, (a + b) * kN * bits);

  // A component that starts converged is never billed, and the other one
  // then runs exactly the standalone spread.
  const std::vector<Key> flat(kN, lo.front());
  Network fused(kN, 11);
  const std::array<SpreadResult, 2> half = spread_min_max(fused, flat, hi);
  EXPECT_TRUE(half[0].converged);
  EXPECT_EQ(half[0].rounds, 0u);
  EXPECT_EQ(half[0].values, flat);
  Network solo(kN, 11);
  const SpreadResult alone = spread_max(solo, hi);
  EXPECT_EQ(half[1].values, alone.values);
  EXPECT_EQ(half[1].rounds, alone.rounds);
  EXPECT_EQ(fused.metrics(), solo.metrics());
  EXPECT_EQ(fused.metrics().message_bits, alone.rounds * kN * bits);
}

// The one-component spreads are the C = 1 case of the fused kernel; their
// round counts and billing are pinned at fixed seeds, failure-free and
// under message loss.
TEST(Spread, OneComponentRoundsArePinned) {
  constexpr std::uint32_t kN = 2000;
  const auto keys = make_keys(generate_values(Distribution::kGaussian, kN, 13));
  struct Pin {
    bool failures;
    std::uint64_t min_rounds, max_rounds, messages, message_bits;
  };
  const Pin pins[] = {{false, 15, 13, 56000, 4816000},
                      {true, 22, 25, 65646, 5645556}};
  for (const Pin& pin : pins) {
    Network net(kN, 301,
                pin.failures ? FailureModel::uniform(0.3) : FailureModel{});
    const SpreadResult lo = spread_min(net, keys);
    const SpreadResult hi = spread_max(net, keys);
    EXPECT_TRUE(lo.converged && hi.converged);
    EXPECT_EQ(lo.rounds, pin.min_rounds) << "failures=" << pin.failures;
    EXPECT_EQ(hi.rounds, pin.max_rounds) << "failures=" << pin.failures;
    EXPECT_EQ(net.metrics().messages, pin.messages);
    EXPECT_EQ(net.metrics().message_bits, pin.message_bits);
  }
}

TEST(GossipCount, ExactOnAllNodes) {
  constexpr std::uint32_t kN = 300;
  Network net(kN, 29);
  std::vector<bool> indicator(kN, false);
  for (std::uint32_t v = 0; v < kN; v += 3) indicator[v] = true;
  const std::uint64_t truth = (kN + 2) / 3;
  const CountResult r = gossip_count(net, indicator);
  for (auto c : r.counts) EXPECT_EQ(c, truth);
}

TEST(GossipCount, ZeroAndFullCounts) {
  constexpr std::uint32_t kN = 64;
  Network net(kN, 31);
  const CountResult zero = gossip_count(net, std::vector<bool>(kN, false));
  const CountResult full = gossip_count(net, std::vector<bool>(kN, true));
  for (auto c : zero.counts) EXPECT_EQ(c, 0u);
  for (auto c : full.counts) EXPECT_EQ(c, kN);
}

TEST(GossipRank, MatchesOfflineRank) {
  constexpr std::uint32_t kN = 200;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformPermutation, kN, 10));
  std::vector<Key> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t target : {1ull, 50ull, 200ull}) {
    Network net(kN, 37 + target);
    const CountResult r = gossip_rank(net, keys, sorted[target - 1]);
    for (auto c : r.counts) EXPECT_EQ(c, target);
  }
}

TEST(GossipRank, ExactUnderFailures) {
  constexpr std::uint32_t kN = 150;
  Network net(kN, 41, FailureModel::uniform(0.3));
  const auto keys =
      make_keys(generate_values(Distribution::kZipf, kN, 12));
  std::vector<Key> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  const CountResult r = gossip_rank(net, keys, sorted[74]);
  for (auto c : r.counts) EXPECT_EQ(c, 75u);
}

TEST(GossipCount3, ThreeExactCountsInOneRun) {
  constexpr std::uint32_t kN = 220;
  Network net(kN, 43);
  std::vector<bool> a(kN, false), b(kN, false), c(kN, false);
  for (std::uint32_t v = 0; v < kN; ++v) {
    a[v] = v < 20;
    b[v] = v % 2 == 0;
    c[v] = true;
  }
  const TripleCountResult r = gossip_count3(net, a, b, c);
  for (std::uint32_t v = 0; v < kN; ++v) {
    EXPECT_EQ(r.a[v], 20u);
    EXPECT_EQ(r.b[v], kN / 2);
    EXPECT_EQ(r.c[v], kN);
  }
}

// The calibration behind push_sum_rounds_for_exact (agg/push_sum.cpp): the
// default schedule, 3 log2 n + 20 rounds, leaves every node's three counts
// integer-exact well beyond the small n of the tests above — here at
// n = 2^14 and at n = 2^15 + 1 (the first n of the next log2 bucket, where
// the schedule has the least margin), over several seeds, on the
// one-worker Engine every end-to-end benchmark run uses.
TEST(GossipCount3, DefaultScheduleIsExactAtScale) {
  for (const std::uint32_t n : {1u << 14, (1u << 15) + 1}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      std::vector<bool> a(n), b(n), c(n);
      std::uint64_t want_a = 0, want_b = 0, want_c = 0;
      SplitMix64 coins{seed * 0x9e3779b97f4a7c15ULL + n};
      for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint64_t draw = coins();
        a[v] = draw % 97 == 0;   // sparse
        b[v] = draw % 3 != 0;    // dense
        c[v] = v < n / 2 + 1;    // one past half
        want_a += a[v] ? 1 : 0;
        want_b += b[v] ? 1 : 0;
        want_c += c[v] ? 1 : 0;
      }
      Engine engine(n, seed, FailureModel{}, EngineConfig{.threads = 1});
      const TripleCountResult r = gossip_count3(engine, a, b, c);
      EXPECT_EQ(r.rounds, push_sum_rounds_for_exact(n, FailureModel{}));
      std::uint32_t wrong = 0;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (r.a[v] != want_a || r.b[v] != want_b || r.c[v] != want_c) {
          ++wrong;
        }
      }
      EXPECT_EQ(wrong, 0u) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Agg, InputSizeMismatchThrows) {
  Network net(8, 1);
  const std::vector<double> wrong(7, 1.0);
  EXPECT_THROW((void)push_sum_average(net, wrong), std::invalid_argument);
  EXPECT_THROW((void)gossip_count(net, std::vector<bool>(9, true)),
               std::invalid_argument);
}

}  // namespace
}  // namespace gq
