// The Engine's collective kernels: the batched twins of the sequential
// spread, push-sum and token-split steps (spread_best,
// push_sum_average_multi<D>, token_split_distribute), on which the
// executor-generic collectives (agg/, core/pivot.hpp) and the composed
// pipelines run.
//
// The pipelines themselves — approx_quantile (Theorem 2.1 / 1.2),
// exact_quantile (Theorem 1.1), multi_quantile and own_rank
// (Corollary 1.5), the adversarial pipelines (arXiv 2502.15320) — are one
// template over the executor each, declared in their core/ headers
// (included below, so this header still brings every name) and
// instantiated for Engine in engine/pipelines.cpp.  Porting a caller is a
// one-line change of the executor type; see examples/quickstart.cpp.
// Every Engine run is **bit-identical** to the sequential Network run —
// same outputs, same round counts, same Metrics — at every thread count
// and shard size (pinned by tests/test_engine.cpp).
//
// How bit-identity survives the push patterns: the pull-shaped collectives
// (spreads, tournaments) parallelise with per-node output slots.  The
// push-shaped ones must apply each destination's payloads in ascending
// sender order, the order the sequential for-loop produces.  On one worker
// the shards run inline in that order, so push-sum folds each message into
// its destination at send time, as the reference loop does.  The Step-7
// token split, and push-sum on more than one worker, route their traffic
// through engine/scatter.hpp, whose delivery restores that order.
//
// Scope: both the failure-free and the Section-5 failure model.  The
// kernels below honour FailureModel directly, and under a failure model
// the pipelines route through the engine-native robust kernels
// (engine/kernels.hpp: robust_two_tournament / robust_three_tournament /
// robust_coverage, which share the schedule control flow with
// core/robust.cpp via core/robust_pipeline.hpp) — so adversarial sweeps
// run at n = 10^7 with the same bit-identity guarantee, pinned by
// tests/test_engine_robust.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "core/adversarial.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "core/multi_quantile.hpp"
#include "core/own_rank.hpp"
#include "core/pivot.hpp"
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
// spread_best: same targets (each component's global best under less[c],
// found shard-wise in shard order), same per-round fold, same live-component
// billing and convergence checks, so round counts and Metrics match the
// sequential loop exactly.  A node's C components sit side by side in one
// row, so a fused spread gathers one row per pull instead of C scattered
// payloads; a converged component is folded along unchanged, which the
// strict order makes a no-op.  Each round is one parallel section: the
// peer draws and the per-shard done flags are folded into it, so neither
// the pull nor the omniscient all-agree check costs a section of its own.
template <typename T, typename Less, std::size_t C>
std::array<GenericSpreadResult<T>, C> spread_best(
    Engine& engine, const std::array<std::span<const T>, C>& init,
    const std::array<Less, C>& less, std::uint64_t bits_per_component,
    std::uint64_t max_rounds = 0) {
  const std::uint32_t n = engine.size();
  for (const std::span<const T> component : init) {
    GQ_REQUIRE(component.size() == n, "one payload per node required");
  }
  if (max_rounds == 0) {
    max_rounds = spread_rounds_cap(n, engine.failures());
  }

  using Row = std::array<T, C>;
  std::vector<Row> cur(n);
  const std::size_t shards = engine.num_shards();

  // Pack the rows and find each component's global best: per-shard
  // first-maximum, combined in shard order — equivalent to
  // std::max_element's first-maximum over the whole range.
  std::vector<Row> shard_best(shards);
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          for (std::size_t c = 0; c < C; ++c) cur[v][c] = init[c][v];
        }
        Row best = cur[begin];
        for (std::uint32_t v = begin + 1; v < end; ++v) {
          for (std::size_t c = 0; c < C; ++c) {
            if (less[c](best[c], cur[v][c])) best[c] = cur[v][c];
          }
        }
        shard_best[engine.shard_of(begin)] = best;
      });
  Row target = shard_best[0];
  for (std::size_t s = 1; s < shards; ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      if (less[c](target[c], shard_best[s][c])) target[c] = shard_best[s][c];
    }
  }

  std::array<GenericSpreadResult<T>, C> out;
  std::vector<Row> next(n);
  // done[s * C + c]: every node of shard s holds component c's target.
  // Nothing is strictly better than a target, so a payload is equivalent
  // to it iff it is not strictly worse.
  std::vector<std::uint8_t> done(shards * C, 0);
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::size_t c = 0; c < C; ++c) {
          std::uint8_t flag = 1;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (less[c](cur[v][c], target[c])) {
              flag = 0;
              break;
            }
          }
          done[engine.shard_of(begin) * C + c] = flag;
        }
      });
  const auto all_done = [&](std::size_t c) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (done[s * C + c] == 0) return false;
    }
    return true;
  };

  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    std::uint64_t live = 0;
    for (std::size_t c = 0; c < C; ++c) {
      if (!out[c].converged) out[c].converged = all_done(c);
      if (!out[c].converged) {
        ++live;
        ++out[c].rounds;
      }
    }
    if (live == 0) break;
    // One section per round: the pull (the batched twin of
    // Network::pull_round — same per-node draw, same per-shard failure and
    // message accounting) is fused with the fold.  Each block's peers are
    // drawn and their rows prefetched before the block folds against them.
    engine.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          constexpr std::uint32_t kBlock = 32;
          std::uint32_t peers[kBlock];
          std::array<std::uint8_t, C> flag;
          flag.fill(1);
          std::uint64_t sent = 0;
          for (std::uint32_t b0 = begin; b0 < end; b0 += kBlock) {
            const std::uint32_t b1 = std::min(b0 + kBlock, end);
            for (std::uint32_t v = b0; v < b1; ++v) {
              std::uint32_t& p = peers[v - b0];
              if (engine.node_fails(v)) {
                ++local.failed_operations;
                p = Engine::kNoPeer;
                continue;
              }
              SplitMix64 stream = engine.node_stream(v);
              p = engine.sample_peer(v, stream);
              ++sent;
              // A multi-component row may straddle two lines.
              prefetch_read(&cur[p].front());
              if constexpr (C > 1) prefetch_read(&cur[p].back());
            }
            for (std::uint32_t v = b0; v < b1; ++v) {
              const std::uint32_t p = peers[v - b0];
              const Row& mine = cur[v];
              const Row& theirs = p != Engine::kNoPeer ? cur[p] : mine;
              for (std::size_t c = 0; c < C; ++c) {
                next[v][c] =
                    less[c](mine[c], theirs[c]) ? theirs[c] : mine[c];
                if (less[c](next[v][c], target[c])) flag[c] = 0;
              }
            }
          }
          local.record_messages(sent, live * bits_per_component);
          for (std::size_t c = 0; c < C; ++c) {
            done[engine.shard_of(begin) * C + c] = flag[c];
          }
        });
    cur.swap(next);
  }

  // Release the spare rows before unpacking, so the unpacked components
  // take their place rather than raising the peak footprint.
  next = std::vector<Row>();
  for (std::size_t c = 0; c < C; ++c) {
    if (!out[c].converged) out[c].converged = all_done(c);
    out[c].values.resize(n);
  }
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          for (std::size_t c = 0; c < C; ++c) out[c].values[v] = cur[v][c];
        }
      });
  return out;
}

// The Engine's push-sum kernel, the batched twin of agg/push_sum.hpp's
// push_sum_average_multi: a send-time fold on one worker, scatter delivery
// on several.  Defined in engine/pipelines.cpp and instantiated for D = 1
// (counts, averages) and D = 3 (gossip_count3).
template <std::size_t D>
MultiPushSumResult<D> push_sum_average_multi(
    Engine& engine, std::span<const std::array<double, D>> x,
    std::uint64_t rounds = 0);

// Token split-and-distribute (Algorithm 3 Step 7) on the scatter
// primitive; see core/token_split.hpp.
[[nodiscard]] TokenSplitResult token_split_distribute(
    Engine& engine, std::span<const Key> inst, std::uint64_t multiplier,
    std::uint64_t tag_base);

}  // namespace gq
