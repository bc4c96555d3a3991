// Determinism tests for the sharded parallel engine: the engine must
// produce bit-identical transcripts, states, and Metrics to the sequential
// Network path for the same seed, at every thread count, with and
// without a failure model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "analysis/rank_stats.hpp"
#include "baselines/median_rule.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "core/multi_quantile.hpp"
#include "core/own_rank.hpp"
#include "core/pivot.hpp"
#include "core/token_split.hpp"
#include "engine/engine.hpp"
#include "engine/kernels.hpp"
#include "engine/pipelines.hpp"
#include "engine/scatter.hpp"
#include "engine/thread_pool.hpp"
#include "sim/adversary.hpp"
#include "sim/key_intern.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

// Small shards so every thread count exercises multi-shard merging.
EngineConfig config_for(unsigned threads) {
  return EngineConfig{.threads = threads, .shard_size = 192};
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // The pool must be reusable across batches.
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
    pool.run(0, [&](std::size_t) { FAIL() << "empty batch ran a task"; });
  }
}

TEST(ThreadPool, PropagatesTaskExceptionsAndStaysUsable) {
  for (unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.run(64,
                 [](std::size_t i) {
                   if (i == 13) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
    // The pool must survive a throwing batch intact.
    std::atomic<int> ran{0};
    pool.run(64, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 64);
  }
}

// Many more tasks than threads: the chunked claim loop must still execute
// every index exactly once, across batches of wildly different sizes
// (descriptor reuse between batches is where a stale-claim bug would bite).
TEST(ThreadPool, ChunkedClaimingCoversManyTasks) {
  for (unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kTasks = 100000;
    std::vector<std::atomic<std::uint8_t>> hits(kTasks);
    for (const std::size_t batch : {std::size_t{1}, kTasks, std::size_t{3},
                                    std::size_t{kTasks / 7}}) {
      for (auto& h : hits) h.store(0);
      pool.run(batch, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_EQ(hits[i].load(), i < batch ? 1 : 0)
            << "threads=" << threads << " batch=" << batch << " i=" << i;
      }
    }
  }
}

// Single-task batches exercise the opposite edge: one chunk, claimed by
// whichever thread gets there first, everyone else must pass through the
// barrier without touching anything.
TEST(ThreadPool, SingleTaskBatches) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  for (int rep = 0; rep < 200; ++rep) {
    pool.run(1, [&](std::size_t i) {
      EXPECT_EQ(i, 0u);
      ++ran;
    });
  }
  EXPECT_EQ(ran.load(), 200);
}

// Exceptions under contention: several tasks of a large batch throw
// concurrently; exactly one exception must surface per run() and the pool
// must stay usable across many such batches.
TEST(ThreadPool, ExceptionStressUnderContention) {
  ThreadPool pool(8);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> attempted{0};
    try {
      pool.run(5000, [&](std::size_t i) {
        ++attempted;
        if (i % 701 == 0) throw std::runtime_error("sporadic");
      });
      FAIL() << "batch with throwing tasks must rethrow";
    } catch (const std::runtime_error&) {
      // The barrier still holds: every index ran before run() returned.
      EXPECT_EQ(attempted.load(), 5000) << "rep=" << rep;
    }
  }
  std::atomic<int> ran{0};
  pool.run(1000, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 1000);
}

TEST(Engine, RejectsInvalidConfigurations) {
  EXPECT_THROW(Engine(1, 7), std::invalid_argument);
  EXPECT_THROW(Engine(16, 7, FailureModel{},
                      EngineConfig{.threads = 1, .shard_size = 0}),
               std::invalid_argument);
}

TEST(Engine, PullRoundTranscriptMatchesNetworkAtEveryThreadCount) {
  constexpr std::uint32_t kN = 1000;
  constexpr std::uint64_t kSeed = 41;
  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.25) : FailureModel{};
    Network net(kN, kSeed, fm);
    std::vector<std::vector<std::uint32_t>> expected;
    for (int r = 0; r < 12; ++r) expected.push_back(net.pull_round(32));

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      for (int r = 0; r < 12; ++r) {
        EXPECT_EQ(engine.pull_round(32), expected[static_cast<size_t>(r)])
            << "threads=" << threads << " round=" << r
            << " failures=" << with_failures;
      }
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " failures=" << with_failures;
      EXPECT_EQ(engine.round(), net.round());
    }
  }
}

TEST(Engine, DefaultMessageBitsMatchesNetwork) {
  Network net(1 << 20, 1);
  Engine engine(1 << 20, 1, FailureModel{}, EngineConfig{.threads = 1});
  EXPECT_EQ(engine.default_message_bits(), net.default_message_bits());
}

TEST(EngineKernels, TwoTournamentMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 101;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 7));

  for (const double phi : {0.5, 0.2}) {
    for (const bool truncate_last : {true, false}) {
      Network net(kN, kSeed);
      std::vector<Key> seq_state(keys.begin(), keys.end());
      const auto seq =
          two_tournament(net, seq_state, phi, 0.05, truncate_last);

      for (unsigned threads : kThreadCounts) {
        Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
        std::vector<Key> state(keys.begin(), keys.end());
        const auto par =
            two_tournament(engine, state, phi, 0.05, truncate_last);
        EXPECT_EQ(par.iterations, seq.iterations);
        EXPECT_EQ(par.side, seq.side);
        EXPECT_EQ(state, seq_state)
            << "threads=" << threads << " phi=" << phi
            << " truncate_last=" << truncate_last;
        EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
      }
    }
  }
}

TEST(EngineKernels, ThreeTournamentMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 103;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 11));

  Network net(kN, kSeed);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  const auto seq = three_tournament(net, seq_state, 0.05);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    std::vector<Key> state(keys.begin(), keys.end());
    const auto par = three_tournament(engine, state, 0.05);
    EXPECT_EQ(par.iterations, seq.iterations);
    EXPECT_EQ(state, seq_state) << "threads=" << threads;
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

TEST(EngineKernels, TournamentsRejectFailureModels) {
  Engine engine(64, 1, FailureModel::uniform(0.1),
                EngineConfig{.threads = 1});
  std::vector<Key> state(64);
  EXPECT_THROW((void)two_tournament(engine, state, 0.5, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)three_tournament(engine, state, 0.1),
               std::invalid_argument);
}

// ---- scatter primitive ----------------------------------------------------

// Every destination must observe its payloads in ascending sender order —
// the sequential for-loop's order — at every thread count and shard size.
TEST(Scatter, DeliversInAscendingSenderOrder) {
  constexpr std::uint32_t kN = 997;
  for (unsigned threads : kThreadCounts) {
    for (const std::uint32_t shard_size : {37u, 192u, 1u << 14}) {
      Engine engine(kN, 3, FailureModel{},
                    EngineConfig{.threads = threads, .shard_size = shard_size});
      Scatter<std::uint64_t> scatter(engine);
      scatter.begin_round();
      // Node v sends its id to two destinations derived from v.
      engine.parallel_shards(
          [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
            for (std::uint32_t v = begin; v < end; ++v) {
              scatter.send(v, (v * 7 + 3) % kN, v);
              scatter.send(v, (v * 5 + 11) % kN, v);
            }
          });
      std::vector<std::vector<std::uint64_t>> got(kN);
      scatter.deliver(engine, [&](std::uint32_t dest, std::uint64_t payload) {
        got[dest].push_back(payload);
      });

      std::vector<std::vector<std::uint64_t>> want(kN);
      for (std::uint32_t v = 0; v < kN; ++v) {
        want[(v * 7 + 3) % kN].push_back(v);
        want[(v * 5 + 11) % kN].push_back(v);
      }
      EXPECT_EQ(got, want) << "threads=" << threads
                           << " shard_size=" << shard_size;
    }
  }
}

// ---- batched collectives --------------------------------------------------

TEST(EngineCollectives, SpreadMatchesCore) {
  constexpr std::uint32_t kN = 2000;
  constexpr std::uint64_t kSeed = 301;
  const auto keys =
      make_keys(generate_values(Distribution::kGaussian, kN, 13));

  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.3) : FailureModel{};
    Network net(kN, kSeed, fm);
    const SpreadResult seq_min = spread_min(net, keys);
    const SpreadResult seq_max = spread_max(net, keys);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const SpreadResult par_min = spread_min(engine, keys);
      const SpreadResult par_max = spread_max(engine, keys);
      EXPECT_EQ(par_min.values, seq_min.values);
      EXPECT_EQ(par_min.rounds, seq_min.rounds);
      EXPECT_EQ(par_min.converged, seq_min.converged);
      EXPECT_EQ(par_max.values, seq_max.values);
      EXPECT_EQ(par_max.rounds, seq_max.rounds);
      EXPECT_EQ(par_max.converged, seq_max.converged);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " failures=" << with_failures;
    }
  }
}

// The fused min/max spread: one peer draw per node per round serves both
// components, and each message bills the components still spreading.  The
// Engine's row-packed kernel must match the sequential reference on
// values, per-component rounds, convergence and Metrics at every thread
// count and shard layout (one shard, a ragged last shard, shards of one
// node more or less than n), with and without a failure model.
TEST(EngineCollectives, FusedSpreadMatchesCore) {
  constexpr std::uint32_t kN = 2000;
  constexpr std::uint64_t kSeed = 307;
  const auto lo_keys =
      make_keys(generate_values(Distribution::kGaussian, kN, 19));
  const auto hi_keys =
      make_keys(generate_values(Distribution::kExponential, kN, 23));
  const std::uint32_t shard_sizes[] = {EngineConfig{}.shard_size, 1000,
                                       kN - 1, kN + 1};

  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.3) : FailureModel{};
    Network net(kN, kSeed, fm);
    const std::array<SpreadResult, 2> seq =
        spread_min_max(net, lo_keys, hi_keys);
    ASSERT_TRUE(seq[0].converged && seq[1].converged);
    EXPECT_EQ(seq[0].values.front(),
              *std::min_element(lo_keys.begin(), lo_keys.end()));
    EXPECT_EQ(seq[1].values.front(),
              *std::max_element(hi_keys.begin(), hi_keys.end()));
    EXPECT_EQ(net.metrics().rounds, std::max(seq[0].rounds, seq[1].rounds));

    for (unsigned threads : kThreadCounts) {
      for (const std::uint32_t shard_size : shard_sizes) {
        Engine engine(kN, kSeed, fm,
                      EngineConfig{.threads = threads,
                                   .shard_size = shard_size});
        const std::array<SpreadResult, 2> par =
            spread_min_max(engine, lo_keys, hi_keys);
        for (std::size_t c = 0; c < 2; ++c) {
          EXPECT_EQ(par[c].values, seq[c].values) << "component " << c;
          EXPECT_EQ(par[c].rounds, seq[c].rounds) << "component " << c;
          EXPECT_EQ(par[c].converged, seq[c].converged) << "component " << c;
        }
        EXPECT_EQ(engine.metrics(), net.metrics())
            << "threads=" << threads << " shard_size=" << shard_size
            << " failures=" << with_failures;
      }
    }
  }
}

// Push-sum counting on both Engine round shapes — the one-worker loop that
// folds each message into its destination at send time, and the
// multi-worker scatter delivery — must match the reference transcript bit
// for bit: counts, the raw D = 3 estimates, rounds and Metrics, under an
// oblivious failure model and with an installed adversary (a crash-churn
// victim or an eclipsed node fails its own operations and keeps its mass;
// greedy corruption reads as success on the legacy collectives), at
// several shard sizes.
TEST(EngineCollectives, GossipCountMatchesCore) {
  constexpr std::uint32_t kN = 1500;
  constexpr std::uint64_t kSeed = 303;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 17));
  std::vector<bool> ind_a(kN), ind_b(kN), ind_c(kN);
  std::vector<std::array<double, 3>> x3(kN);
  for (std::uint32_t v = 0; v < kN; ++v) {
    ind_a[v] = v % 3 == 0;
    ind_b[v] = v % 2 == 0;
    ind_c[v] = true;
    x3[v] = {static_cast<double>(v % 7), v * 0.25, 1.0 / (v + 1)};
  }

  enum class Attack { kNone, kCrashChurn, kEclipse, kGreedy };
  const auto make_adversary =
      [](Attack attack) -> std::unique_ptr<AdversaryStrategy> {
    switch (attack) {
      case Attack::kNone:
        return nullptr;
      case Attack::kCrashChurn:
        return std::make_unique<CrashChurnAdversary>(
            CrashChurnAdversary::Config{.crashes = kN / 16,
                                        .first_round = 1,
                                        .crash_window = 48,
                                        .down_rounds = 12,
                                        .strategy_seed = 5});
      case Attack::kEclipse:
        return std::make_unique<EclipseAdversary>(kN / 3, kN / 50);
      case Attack::kGreedy:
        return std::make_unique<GreedyTargetedAdversary>(kN / 64, 1e6);
    }
    return nullptr;
  };

  for (const bool with_failures : {false, true}) {
    for (const Attack attack : {Attack::kNone, Attack::kCrashChurn,
                                Attack::kEclipse, Attack::kGreedy}) {
      const FailureModel fm =
          with_failures ? FailureModel::uniform(0.25) : FailureModel{};
      const auto net_adversary = make_adversary(attack);
      Network net(kN, kSeed, fm);
      net.set_adversary(net_adversary.get());
      const CountResult seq_count = gossip_count(net, ind_a);
      const CountResult seq_rank = gossip_rank(net, keys, keys[kN / 2]);
      const TripleCountResult seq3 = gossip_count3(net, ind_a, ind_b, ind_c);
      const MultiPushSumResult<3> seq_raw = push_sum_average_multi<3>(
          net, std::span<const std::array<double, 3>>(x3));

      for (unsigned threads : kThreadCounts) {
        for (const std::uint32_t shard_size : {192u, 1u << 14}) {
          const auto adversary = make_adversary(attack);
          Engine engine(kN, kSeed, fm,
                        EngineConfig{.threads = threads,
                                     .shard_size = shard_size});
          engine.set_adversary(adversary.get());
          const CountResult par_count = gossip_count(engine, ind_a);
          const CountResult par_rank =
              gossip_rank(engine, keys, keys[kN / 2]);
          const TripleCountResult par3 =
              gossip_count3(engine, ind_a, ind_b, ind_c);
          const MultiPushSumResult<3> par_raw = push_sum_average_multi<3>(
              engine, std::span<const std::array<double, 3>>(x3));
          const std::string where =
              "threads=" + std::to_string(threads) +
              " shard_size=" + std::to_string(shard_size) +
              " failures=" + std::to_string(with_failures) +
              " attack=" + std::to_string(static_cast<int>(attack));
          EXPECT_EQ(par_count.counts, seq_count.counts) << where;
          EXPECT_EQ(par_count.rounds, seq_count.rounds) << where;
          EXPECT_EQ(par_rank.counts, seq_rank.counts) << where;
          EXPECT_EQ(par3.a, seq3.a) << where;
          EXPECT_EQ(par3.b, seq3.b) << where;
          EXPECT_EQ(par3.c, seq3.c) << where;
          EXPECT_EQ(par3.rounds, seq3.rounds) << where;
          EXPECT_EQ(par_raw.estimates, seq_raw.estimates) << where;
          EXPECT_EQ(par_raw.rounds, seq_raw.rounds) << where;
          EXPECT_EQ(engine.metrics(), net.metrics()) << where;
        }
      }
      // The adversaries must have bitten: at least one operation failed.
      if (attack == Attack::kCrashChurn || attack == Attack::kEclipse) {
        EXPECT_GT(net.metrics().failed_operations, 0u);
      }
    }
  }
}

TEST(EngineCollectives, PivotMatchesCore) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 307;
  const auto keys =
      make_keys(generate_values(Distribution::kZipf, kN, 19));
  std::vector<bool> candidate(kN);
  for (std::uint32_t v = 0; v < kN; ++v) candidate[v] = v % 5 != 0;

  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.2) : FailureModel{};
    Network net(kN, kSeed, fm);
    const PivotSample seq = sample_uniform_candidate(net, keys, candidate);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const PivotSample par = sample_uniform_candidate(engine, keys, candidate);
      EXPECT_EQ(par.pivot, seq.pivot);
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(par.found, seq.found);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " failures=" << with_failures;
    }
  }
}

TEST(EngineCollectives, TokenSplitMatchesCore) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 311;
  constexpr std::uint64_t kMult = 8;
  std::vector<Key> inst(kN, Key::infinite());
  for (std::uint32_t v = 0; v < kN / 16; ++v) {
    inst[v * 3] = Key{static_cast<double>(v + 1), v, 0};
  }

  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.35) : FailureModel{};
    Network net(kN, kSeed, fm);
    const TokenSplitResult seq =
        token_split_distribute(net, inst, kMult, 7ull << 32);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const TokenSplitResult par =
          token_split_distribute(engine, inst, kMult, 7ull << 32);
      EXPECT_EQ(par.instance, seq.instance)
          << "threads=" << threads << " failures=" << with_failures;
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(par.token_count, seq.token_count);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " failures=" << with_failures;
    }
  }
}

// ---- full pipelines -------------------------------------------------------

TEST(EnginePipelines, ApproxQuantileMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 401;
  const auto values = generate_values(Distribution::kUniformReal, kN, 23);

  for (const double phi : {0.5, 0.2}) {
    Network net(kN, kSeed);
    ApproxQuantileParams params;
    params.phi = phi;
    params.eps = 0.15;
    const ApproxQuantileResult seq = approx_quantile(net, values, params);

    for (unsigned threads : kThreadCounts) {
      // The q = 1 lane kernels the pipeline runs on must be unobservable
      // at every gather block (0 = the tuned default).
      for (const std::uint32_t block : {0u, 1u, 7u}) {
        Engine engine(kN, kSeed, FailureModel{},
                      EngineConfig{.threads = threads,
                                   .shard_size = 192,
                                   .gather_block = block});
        const ApproxQuantileResult par =
            approx_quantile(engine, values, params);
        EXPECT_EQ(par.outputs, seq.outputs)
            << "threads=" << threads << " phi=" << phi
            << " block=" << block;
        EXPECT_EQ(par.valid, seq.valid);
        EXPECT_EQ(par.phase1_iterations, seq.phase1_iterations);
        EXPECT_EQ(par.phase2_iterations, seq.phase2_iterations);
        EXPECT_EQ(par.rounds, seq.rounds);
        EXPECT_EQ(par.used_exact_fallback, seq.used_exact_fallback);
        EXPECT_EQ(engine.metrics(), net.metrics())
            << "threads=" << threads << " phi=" << phi
            << " block=" << block;
      }
    }
  }
}

// The exact-fallback branch (eps below eps_tournament_floor) must route
// through the engine-native exact pipeline and still match bit for bit.
TEST(EnginePipelines, ApproxExactFallbackMatchesCore) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 403;
  const auto values = generate_values(Distribution::kGaussian, kN, 29);

  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.05;  // below eps_tournament_floor(1024) ~ 0.2
  Network net(kN, kSeed);
  const ApproxQuantileResult seq = approx_quantile(net, values, params);
  ASSERT_TRUE(seq.used_exact_fallback);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const ApproxQuantileResult par = approx_quantile(engine, values, params);
    EXPECT_TRUE(par.used_exact_fallback);
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// The pipeline's two ablation switches reach the lane kernels unchanged:
// truncate_last = false runs every Phase-1 step with delta 1.0, and
// force_tournament runs the tournament below the eps floor.
TEST(EnginePipelines, ApproxAblationSwitchesMatchCore) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 409;
  const auto values = generate_values(Distribution::kUniformReal, kN, 31);

  ApproxQuantileParams untruncated;
  untruncated.phi = 0.8;
  untruncated.eps = 0.2;
  untruncated.truncate_last = false;
  ApproxQuantileParams forced;
  forced.phi = 0.3;
  forced.eps = 0.05;  // below eps_tournament_floor(2048)
  forced.force_tournament = true;

  for (const ApproxQuantileParams& params : {untruncated, forced}) {
    Network net(kN, kSeed);
    const ApproxQuantileResult seq = approx_quantile(net, values, params);
    ASSERT_FALSE(seq.used_exact_fallback);
    ASSERT_GT(seq.phase1_iterations, 0u);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
      const ApproxQuantileResult par =
          approx_quantile(engine, values, params);
      EXPECT_EQ(par.outputs, seq.outputs)
          << "threads=" << threads << " truncate=" << params.truncate_last;
      EXPECT_EQ(par.phase1_iterations, seq.phase1_iterations);
      EXPECT_EQ(par.phase2_iterations, seq.phase2_iterations);
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " truncate=" << params.truncate_last;
    }
  }
}

// A warm engine whose intern session already encodes the keys — left by a
// multi_quantile on them, or adopted from outside as the service does —
// skips the intern sort, and that must be unobservable: the approx run
// equals a cold engine's in outputs, rounds and Metrics.
TEST(EnginePipelines, ApproxOnLiveSessionMatchesColdRun) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 413;
  const auto keys =
      make_keys(generate_values(Distribution::kExponential, kN, 37));
  ApproxQuantileParams params;
  params.phi = 0.9;
  params.eps = 0.15;

  for (unsigned threads : kThreadCounts) {
    Engine cold(kN, kSeed, FailureModel{}, config_for(threads));
    const ApproxQuantileResult want = approx_quantile_keys(cold, keys, params);

    for (const bool adopted : {false, true}) {
      Engine warm(kN, kSeed + 1, FailureModel{}, config_for(threads));
      if (adopted) {
        KeyInterner interner;
        std::vector<std::uint32_t> ranks(kN);
        interner.intern(keys, ranks);
        adopt_intern_session(warm, interner.table(), ranks);
      } else {
        MultiQuantileParams mp;
        mp.phis = {0.1, 0.5};
        mp.eps = params.eps;
        (void)multi_quantile_keys(warm, keys, mp);
      }
      warm.reset_stream(kSeed);
      const Metrics before = warm.metrics();
      const ApproxQuantileResult got = approx_quantile_keys(warm, keys, params);
      EXPECT_EQ(got.outputs, want.outputs)
          << "threads=" << threads << " adopted=" << adopted;
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(warm.metrics().since(before), cold.metrics())
          << "threads=" << threads << " adopted=" << adopted;
    }
  }
}

// Non-finite values are rejected at make_keys, before any gossip: NaN
// leaves Key's order unordered and +inf is the valueless marker.
TEST(EnginePipelines, RejectNonFiniteValues) {
  constexpr std::uint32_t kN = 256;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    auto values = generate_values(Distribution::kUniformReal, kN, 3);
    values[kN / 2] = bad;
    Network net(kN, 5);
    Engine engine(kN, 5, FailureModel{}, config_for(2));
    EXPECT_THROW((void)approx_quantile(net, values, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)approx_quantile(engine, values, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)exact_quantile(net, values, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)exact_quantile(engine, values, {}),
                 std::invalid_argument);
    MultiQuantileParams mp;
    mp.phis = {0.5, 0.9};
    EXPECT_THROW((void)multi_quantile(net, values, mp),
                 std::invalid_argument);
    EXPECT_THROW((void)multi_quantile(engine, values, mp),
                 std::invalid_argument);
    EXPECT_THROW((void)own_rank(net, values, {}), std::invalid_argument);
    EXPECT_THROW((void)own_rank(engine, values, {}), std::invalid_argument);
    EXPECT_EQ(net.metrics().rounds, 0u);
    EXPECT_EQ(engine.metrics().rounds, 0u);
  }
}

TEST(EnginePipelines, ExactQuantileMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 409;
  const auto values = generate_values(Distribution::kExponential, kN, 31);

  for (const double phi : {0.5, 0.9}) {
    Network net(kN, kSeed);
    ExactQuantileParams params;
    params.phi = phi;
    const ExactQuantileResult seq = exact_quantile(net, values, params);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
      const ExactQuantileResult par = exact_quantile(engine, values, params);
      EXPECT_EQ(par.answer, seq.answer)
          << "threads=" << threads << " phi=" << phi;
      EXPECT_EQ(par.outputs, seq.outputs);
      EXPECT_EQ(par.valid, seq.valid);
      EXPECT_EQ(par.iterations, seq.iterations);
      EXPECT_EQ(par.endgame_phases, seq.endgame_phases);
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " phi=" << phi;
    }
  }
}

// The duplication strategy exercises the scatter-based token split inside
// the full pipeline.
TEST(EnginePipelines, ExactDuplicationRouteMatchesCore) {
  constexpr std::uint32_t kN = 1 << 14;
  constexpr std::uint64_t kSeed = 419;
  const auto values = generate_values(Distribution::kUniformReal, kN, 37);

  Network net(kN, kSeed);
  ExactQuantileParams params;
  params.phi = 0.37;
  params.strategy = ExactStrategy::kPreferDuplication;
  const ExactQuantileResult seq = exact_quantile(net, values, params);
  ASSERT_GE(seq.iterations, 2u);

  for (unsigned threads : {1u, 8u}) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const ExactQuantileResult par = exact_quantile(engine, values, params);
    EXPECT_EQ(par.answer, seq.answer) << "threads=" << threads;
    EXPECT_EQ(par.outputs, seq.outputs);
    EXPECT_EQ(par.iterations, seq.iterations);
    EXPECT_EQ(par.endgame_phases, seq.endgame_phases);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Exact-quantile rounds at n = 2^14, pinned on both executors.  Each
// bracketing iteration runs both brackets as one two-lane batch and
// spreads their extremes in one fused diffusion; a regression to one
// approximate run and one spread per bracket shows here as a round-count
// change.  With one approximate run and one spread per bracket these runs
// took 1513 rounds (phi = 0.5) and 1505 rounds (phi = 0.99).
TEST(EnginePipelines, ExactRoundsArePinnedOnBothExecutors) {
  constexpr std::uint32_t kN = 1 << 14;
  constexpr std::uint64_t kSeed = 1614;
  const auto values = generate_values(Distribution::kUniformReal, kN, 1601);
  const RankScale scale(make_keys(values));
  const std::pair<double, std::uint64_t> pinned[] = {{0.5, 1051}, {0.99, 1038}};

  for (const auto& [phi, rounds] : pinned) {
    ExactQuantileParams params;
    params.phi = phi;
    Network net(kN, kSeed);
    const ExactQuantileResult seq = exact_quantile(net, values, params);
    EXPECT_EQ(seq.answer.value, scale.exact_quantile(phi).value);
    EXPECT_EQ(seq.rounds, rounds) << "phi=" << phi;

    Engine engine(kN, kSeed, FailureModel{}, config_for(2));
    const ExactQuantileResult par = exact_quantile(engine, values, params);
    EXPECT_EQ(par.answer, seq.answer) << "phi=" << phi;
    EXPECT_EQ(par.rounds, rounds) << "phi=" << phi;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "phi=" << phi;
  }
}

TEST(EnginePipelines, OwnRankMatchesCore) {
  constexpr std::uint32_t kN = 1 << 14;
  constexpr std::uint64_t kSeed = 421;
  const auto values = generate_values(Distribution::kUniformReal, kN, 41);

  Network net(kN, kSeed);
  OwnRankParams params;
  params.eps = 0.45;
  const OwnRankResult seq = own_rank(net, values, params);

  for (unsigned threads : {1u, 8u}) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const OwnRankResult par = own_rank(engine, values, params);
    EXPECT_EQ(par.estimates, seq.estimates) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid);
    EXPECT_EQ(par.quantile_runs, seq.quantile_runs);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Back-to-back pipelines on one Engine reuse the scatter arena, the pooled
// push-sum scratch, and the token store across calls; the reuse must be
// invisible — the second run must stay bit-identical to the second run of
// the same sequence on a sequential Network, at every thread count.
TEST(EnginePipelines, BackToBackRunsReuseArenaBitIdentically) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 431;
  const auto values = generate_values(Distribution::kUniformReal, kN, 43);

  ApproxQuantileParams ap;
  ap.phi = 0.3;
  ap.eps = 0.2;
  ExactQuantileParams ep;
  ep.phi = 0.62;
  ep.strategy = ExactStrategy::kPreferDuplication;

  Network net(kN, kSeed);
  const ApproxQuantileResult seq_a1 = approx_quantile(net, values, ap);
  const ExactQuantileResult seq_e1 = exact_quantile(net, values, ep);
  const ApproxQuantileResult seq_a2 = approx_quantile(net, values, ap);
  const ExactQuantileResult seq_e2 = exact_quantile(net, values, ep);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const std::uint64_t grows_before = engine.scatter_arena().grow_events();
    const ApproxQuantileResult a1 = approx_quantile(engine, values, ap);
    const ExactQuantileResult e1 = exact_quantile(engine, values, ep);
    const std::uint64_t grows_warm = engine.scatter_arena().grow_events();
    const ApproxQuantileResult a2 = approx_quantile(engine, values, ap);
    const ExactQuantileResult e2 = exact_quantile(engine, values, ep);

    EXPECT_EQ(a1.outputs, seq_a1.outputs) << "threads=" << threads;
    EXPECT_EQ(e1.outputs, seq_e1.outputs) << "threads=" << threads;
    EXPECT_EQ(a2.outputs, seq_a2.outputs) << "threads=" << threads;
    EXPECT_EQ(a2.rounds, seq_a2.rounds);
    EXPECT_EQ(e2.outputs, seq_e2.outputs) << "threads=" << threads;
    EXPECT_EQ(e2.answer, seq_e2.answer);
    EXPECT_EQ(e2.rounds, seq_e2.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
    // The first pair of runs warms the arena; reuse means the second pair
    // grows mailboxes far less (the randomness differs between runs, so a
    // handful of boxes may still see a new high-water mark).
    EXPECT_GT(grows_warm, grows_before);
    EXPECT_LE(engine.scatter_arena().grow_events() - grows_warm,
              (grows_warm - grows_before) / 4)
        << "threads=" << threads;
  }
}

// A Scatter constructed while another holds the engine's arena must fall
// back to private mailboxes and still deliver correctly.
TEST(Scatter, NestedScatterFallsBackToPrivateStorage) {
  constexpr std::uint32_t kN = 512;
  Engine engine(kN, 9, FailureModel{},
                EngineConfig{.threads = 2, .shard_size = 64});
  Scatter<std::uint64_t> outer(engine);
  Scatter<std::uint64_t> inner(engine);  // arena busy: private boxes
  outer.begin_round();
  inner.begin_round();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          outer.send(v, (v + 1) % kN, v);
          inner.send(v, (v + 2) % kN, v + 1000);
        }
      });
  std::vector<std::uint64_t> from_outer(kN, 0), from_inner(kN, 0);
  outer.deliver(engine, [&](std::uint32_t dest, std::uint64_t payload) {
    from_outer[dest] = payload;
  });
  inner.deliver(engine, [&](std::uint32_t dest, std::uint64_t payload) {
    from_inner[dest] = payload;
  });
  for (std::uint32_t v = 0; v < kN; ++v) {
    EXPECT_EQ(from_outer[(v + 1) % kN], v);
    EXPECT_EQ(from_inner[(v + 2) % kN], v + 1000);
  }
}

// Gather block size is a pure performance knob: every rewritten kernel's
// blocked-gather transcript (states, outcome structs, Metrics) must match
// the sequential Network path at every block size — degenerate one-node
// blocks, blocks that straddle shard boundaries, and blocks larger than
// any shard — at 1, 2, and 8 threads.
TEST(EngineKernels, GatherBlockSweepMatchesCoreForEveryKernel) {
  constexpr std::uint32_t kN = 3001;  // not a multiple of the shard size
  constexpr std::uint64_t kSeed = 131;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 47));

  Network net_two(kN, kSeed);
  std::vector<Key> seq_two_state(keys.begin(), keys.end());
  const auto seq_two = two_tournament(net_two, seq_two_state, 0.3, 0.1);

  Network net_three(kN, kSeed);
  std::vector<Key> seq_three_state(keys.begin(), keys.end());
  const auto seq_three = three_tournament(net_three, seq_three_state, 0.1);

  for (unsigned threads : kThreadCounts) {
    for (const std::uint32_t block : {1u, 7u, 64u, 1u << 20}) {
      const EngineConfig cfg{
          .threads = threads, .shard_size = 192, .gather_block = block};
      {
        Engine engine(kN, kSeed, FailureModel{}, cfg);
        std::vector<Key> state(keys.begin(), keys.end());
        const auto par = two_tournament(engine, state, 0.3, 0.1);
        EXPECT_EQ(par.iterations, seq_two.iterations);
        EXPECT_EQ(state, seq_two_state)
            << "threads=" << threads << " block=" << block;
        EXPECT_EQ(engine.metrics(), net_two.metrics())
            << "threads=" << threads << " block=" << block;
      }
      {
        Engine engine(kN, kSeed, FailureModel{}, cfg);
        std::vector<Key> state(keys.begin(), keys.end());
        const auto par = three_tournament(engine, state, 0.1);
        EXPECT_EQ(par.iterations, seq_three.iterations);
        EXPECT_EQ(par.outputs, seq_three.outputs)
            << "threads=" << threads << " block=" << block;
        EXPECT_EQ(state, seq_three_state)
            << "threads=" << threads << " block=" << block;
        EXPECT_EQ(engine.metrics(), net_three.metrics())
            << "threads=" << threads << " block=" << block;
      }
    }
  }
}

// The median rule kernel against its Network reference across thread
// counts, failure models, gather blocks and iteration counts (including the
// c*log2(n) default).  Under failures the blocked commit must handle
// kNoPeer picks in both gather slots, and a node whose first pull failed
// must sit the second round out exactly as the reference does.
TEST(EngineKernels, MedianRuleMatchesNetwork) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 137;
  const auto keys =
      make_keys(generate_values(Distribution::kGaussian, kN, 51));

  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.25) : FailureModel{};
    for (const std::uint64_t iterations : {std::uint64_t{3},
                                           std::uint64_t{8},
                                           std::uint64_t{0}}) {
      const MedianRuleParams params{.iterations = iterations};
      Network net(kN, kSeed, fm);
      const MedianRuleResult seq = median_rule_keys(net, keys, params);
      if (with_failures) {
        EXPECT_GT(net.metrics().failed_operations, 0u);
      }

      for (unsigned threads : kThreadCounts) {
        for (const std::uint32_t block : {3u, 256u}) {
          Engine engine(kN, kSeed, fm,
                        EngineConfig{.threads = threads,
                                     .shard_size = 192,
                                     .gather_block = block});
          const MedianRuleResult par = median_rule_keys(engine, keys, params);
          const std::string what =
              "threads=" + std::to_string(threads) +
              " block=" + std::to_string(block) +
              " iterations=" + std::to_string(iterations) +
              " failures=" + std::to_string(with_failures);
          EXPECT_EQ(par.outputs, seq.outputs) << what;
          EXPECT_EQ(par.rounds, seq.rounds) << what;
          EXPECT_EQ(par.iterations, seq.iterations) << what;
          EXPECT_EQ(engine.metrics(), net.metrics()) << what;
        }
      }
    }
  }
}

// Oversized final sampling (K above the kernels' stack-buffer bound, 64)
// routes the per-shard pick/sample slices through the pooled wide lanes
// and must stay bit-identical at every gather block.
TEST(EngineKernels, ThreeTournamentOversizedFinalSampleMatchesCore) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 151;
  constexpr std::uint32_t kBigK = 101;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 61));

  Network net(kN, kSeed);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  const auto seq = three_tournament(net, seq_state, 0.1, kBigK);

  for (unsigned threads : {1u, 8u}) {
    for (const std::uint32_t block : {0u, 7u}) {
      Engine engine(kN, kSeed, FailureModel{},
                    EngineConfig{.threads = threads,
                                 .shard_size = 192,
                                 .gather_block = block});
      std::vector<Key> state(keys.begin(), keys.end());
      const auto par = three_tournament(engine, state, 0.1, kBigK);
      EXPECT_EQ(par.outputs, seq.outputs)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(state, seq_state)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " block=" << block;
    }
  }
}

// Consecutive kernels on one engine share an interned-lane session (the
// lane kernels leave it encoding the keys they started from); the reuse
// check is an exact compare pass, so handing the next kernel a different
// arrangement of those keys — here rotated by one node, plus one key
// outside the interned table — must trigger a re-intern, never serve
// stale lanes.
TEST(EngineKernels, InternedSessionDetectsStateMutationBetweenCalls) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 139;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 53));
  const Key foreign{-123.25, 99999, 7};  // not in the original key set
  std::vector<Key> mutated(keys.begin(), keys.end());
  std::rotate(mutated.begin(), mutated.begin() + 1, mutated.end());
  mutated[17] = foreign;

  Network net(kN, kSeed);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  (void)two_tournament(net, seq_state, 0.4, 0.1);
  seq_state = mutated;
  const auto seq_out = three_tournament(net, seq_state, 0.1);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{},
                  EngineConfig{.threads = threads, .shard_size = 192});
    std::vector<Key> state(keys.begin(), keys.end());
    (void)two_tournament(engine, state, 0.4, 0.1);
    state = mutated;  // no longer what the live session encodes
    const auto par_out = three_tournament(engine, state, 0.1);
    EXPECT_EQ(par_out.outputs, seq_out.outputs) << "threads=" << threads;
    EXPECT_EQ(state, seq_state) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Opt-in worker pinning is a placement policy, never an observable one:
// results and Metrics must be bit-identical with and without it, and a
// pinned engine must work on any machine (pinning failures degrade to a
// warning, not an error).
TEST(Engine, PinWorkersIsObservableNeutral) {
  constexpr std::uint32_t kN = 1500;
  constexpr std::uint64_t kSeed = 149;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 59));

  Network net(kN, kSeed);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  (void)two_tournament(net, seq_state, 0.5, 0.1);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{},
                  EngineConfig{.threads = threads,
                               .shard_size = 192,
                               .pin_workers = true});
    std::vector<Key> state(keys.begin(), keys.end());
    (void)two_tournament(engine, state, 0.5, 0.1);
    EXPECT_EQ(state, seq_state) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Thread count and shard size are pure performance knobs: sweeping both
// must not change a single bit of the result.
TEST(Engine, ShardSizeIsNotObservable) {
  constexpr std::uint32_t kN = 777;
  Engine coarse(kN, 5, FailureModel::uniform(0.1),
                EngineConfig{.threads = 2, .shard_size = 1u << 14});
  Engine fine(kN, 5, FailureModel::uniform(0.1),
              EngineConfig{.threads = 2, .shard_size = 33});
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(coarse.pull_round(24), fine.pull_round(24));
  }
  EXPECT_EQ(coarse.metrics(), fine.metrics());
}

}  // namespace
}  // namespace gq
