// Engine-native quantile pipelines: the headline algorithms of the paper —
// approx_quantile (Theorem 2.1 / 1.2) and exact_quantile (Theorem 1.1) —
// running end-to-end on the sharded parallel Engine, plus the Engine's
// batched collective kernels (spread, push-sum, token split).
//
// Every function here is an overload of its sequential namesake taking
// Engine& instead of Network&, returns the same result struct, and is
// **bit-identical** to the sequential path — same outputs, same round
// counts, same Metrics — at every thread count and shard size (pinned by
// tests/test_engine.cpp).  Porting a caller is a one-line change of the
// executor type; see examples/quickstart.cpp.
//
// How bit-identity survives the push patterns: the pull-shaped collectives
// (spreads, tournaments) parallelise with per-node output slots as before,
// while the push-shaped ones — push-sum counting and the Step-7 token
// split — route their traffic through engine/scatter.hpp, which applies
// payloads to each destination in ascending sender order, exactly the
// order the sequential for-loop produces.  The exact pipeline's control
// flow itself is not duplicated: both executors instantiate the shared
// template in core/exact_pipeline.hpp.
//
// Scope: both the failure-free and the Section-5 failure model.  The
// batched kernels below (spread, push-sum, token split) honour
// FailureModel directly, and under a failure model the pipelines route
// through the engine-native robust kernels (engine/kernels.hpp:
// robust_two_tournament / robust_three_tournament / robust_coverage, which
// share the schedule control flow with core/robust.cpp via
// core/robust_pipeline.hpp) — so adversarial sweeps run at n = 10^7 with
// the same bit-identity guarantee, pinned by tests/test_engine_robust.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "core/adversarial_pipeline.hpp"
#include "core/multi_quantile.hpp"
#include "core/params.hpp"
#include "core/pivot.hpp"
#include "core/result.hpp"
#include "core/token_split.hpp"
#include "engine/engine.hpp"
#include "sim/key.hpp"
#include "util/prefetch.hpp"
#include "util/require.hpp"

namespace gq {

// ---- collective kernels ---------------------------------------------------
//
// The Engine supplies only the kernels; the collectives built on them
// (spread_min/spread_max, gossip_count/gossip_rank/gossip_count3,
// sample_uniform_candidate, push_sum_average/push_sum_sum) are written once
// over the executor in agg/ and core/pivot.hpp and reach these overloads by
// overload resolution.

// The Engine's spread kernel, the batched twin of agg/spread.hpp's
// spread_best: same target (the global best under `less`, found shard-wise
// in shard order), same per-round fold, same convergence checks, so round
// counts and Metrics match the sequential loop exactly.  The per-shard done
// flags are folded into the round kernel so the omniscient all-agree check
// costs no extra parallel section.
template <typename T, typename Less>
GenericSpreadResult<T> spread_best(Engine& engine, std::span<const T> init,
                                   Less less, std::uint64_t bits_per_message,
                                   std::uint64_t max_rounds = 0) {
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(init.size() == n, "one payload per node required");
  if (max_rounds == 0) {
    max_rounds = spread_rounds_cap(n, engine.failures());
  }

  std::vector<T> cur(init.begin(), init.end());
  const std::size_t shards = engine.num_shards();

  // The global best: per-shard first-maximum, combined in shard order —
  // equivalent to std::max_element's first-maximum over the whole range.
  std::vector<T> shard_best(shards);
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        T best = cur[begin];
        for (std::uint32_t v = begin + 1; v < end; ++v) {
          if (less(best, cur[v])) best = cur[v];
        }
        shard_best[engine.shard_of(begin)] = best;
      });
  T target = shard_best[0];
  for (std::size_t s = 1; s < shards; ++s) {
    if (less(target, shard_best[s])) target = shard_best[s];
  }

  const auto equivalent = [&](const T& k) {
    return !less(k, target) && !less(target, k);
  };

  GenericSpreadResult<T> out;
  std::vector<T> next(n);
  std::vector<std::uint8_t> done(shards, 0);
  std::vector<std::uint32_t> peers(n);

  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        std::uint8_t flag = 1;
        for (std::uint32_t v = begin; v < end; ++v) {
          if (!equivalent(cur[v])) {
            flag = 0;
            break;
          }
        }
        done[engine.shard_of(begin)] = flag;
      });
  const auto all_done = [&] {
    return std::all_of(done.begin(), done.end(),
                       [](std::uint8_t f) { return f != 0; });
  };

  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    if (all_done()) {
      out.converged = true;
      break;
    }
    engine.pull_round(bits_per_message, peers);
    ++out.rounds;
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
          constexpr std::uint32_t kAhead = 16;
          std::uint8_t flag = 1;
          for (std::uint32_t v = begin; v < end; ++v) {
            // The peer lane is already materialised (pull_round filled it),
            // so a simple lookahead prefetch hides the random gather.
            if (v + kAhead < end) {
              const std::uint32_t ahead = peers[v + kAhead];
              if (ahead != Engine::kNoPeer) prefetch_read(&cur[ahead]);
            }
            const std::uint32_t p = peers[v];
            next[v] = (p != Engine::kNoPeer && less(cur[v], cur[p])) ? cur[p]
                                                                     : cur[v];
            if (!equivalent(next[v])) flag = 0;
          }
          done[engine.shard_of(begin)] = flag;
        });
    cur.swap(next);
  }
  if (!out.converged) out.converged = all_done();
  out.values = std::move(cur);
  return out;
}

// The Engine's push-sum kernel, the batched twin of agg/push_sum.hpp's
// push_sum_average_multi; defined in engine/pipelines.cpp and instantiated
// for D = 1 (counts, averages) and D = 3 (gossip_count3).
template <std::size_t D>
MultiPushSumResult<D> push_sum_average_multi(
    Engine& engine, std::span<const std::array<double, D>> x,
    std::uint64_t rounds = 0);

// Token split-and-distribute (Algorithm 3 Step 7) on the scatter
// primitive; see core/token_split.hpp.
[[nodiscard]] TokenSplitResult token_split_distribute(
    Engine& engine, std::span<const Key> inst, std::uint64_t multiplier,
    std::uint64_t tag_base);

// ---- pipelines ------------------------------------------------------------

// The eps-approximate phi-quantile pipeline; see core/approx_quantile.hpp.
// Under a FailureModel the robust Section-5 variants run, and the result's
// `valid` mask reports which nodes were served.
[[nodiscard]] ApproxQuantileResult approx_quantile(
    Engine& engine, std::span<const double> values,
    const ApproxQuantileParams& params);
[[nodiscard]] ApproxQuantileResult approx_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const ApproxQuantileParams& params);

// Corollary 1.5, all q targets in ONE shared tournament schedule; see
// core/multi_quantile.hpp and core/multi_pipeline.hpp.  Bit-identical to
// the sequential multi_quantile at every thread count
// (tests/test_engine_multi.cpp).
[[nodiscard]] MultiQuantileResult multi_quantile(
    Engine& engine, std::span<const double> values,
    const MultiQuantileParams& params);
[[nodiscard]] MultiQuantileResult multi_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const MultiQuantileParams& params);

// Algorithm 3, exact phi-quantile; see core/exact_quantile.hpp.
[[nodiscard]] ExactQuantileResult exact_quantile(
    Engine& engine, std::span<const double> values,
    const ExactQuantileParams& params);
[[nodiscard]] ExactQuantileResult exact_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const ExactQuantileParams& params);

// Corollary 1.5, own-rank estimation; see core/own_rank.hpp.
[[nodiscard]] OwnRankResult own_rank(Engine& engine,
                                     std::span<const double> values,
                                     const OwnRankParams& params);

// The adversarially-robust pipelines (arXiv 2502.15320); see
// core/adversarial.hpp for the model and core/adversarial_pipeline.hpp for
// the shared control flow.  Install a strategy with Engine::set_adversary.
// These kernels run on plain pooled Key buffers, never the interned rank
// lanes — corrupt payloads are values the intern table has never seen.
[[nodiscard]] AdversarialQuantileResult adversarial_quantile(
    Engine& engine, std::span<const double> values,
    const AdversarialQuantileParams& params = {});
[[nodiscard]] AdversarialQuantileResult adversarial_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const AdversarialQuantileParams& params = {});
[[nodiscard]] AdversarialMeanResult adversarial_mean(
    Engine& engine, std::span<const double> values,
    const AdversarialMeanParams& params = {});

}  // namespace gq
