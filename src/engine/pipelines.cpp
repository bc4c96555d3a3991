#include "engine/pipelines.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include <atomic>
#include <memory>

#include "agg/push_sum.hpp"
#include "analysis/theory_bounds.hpp"
#include "baselines/median_rule.hpp"
#include "core/adversarial_pipeline.hpp"
#include "core/approx_pipeline.hpp"
#include "core/exact_pipeline.hpp"
#include "core/multi_pipeline.hpp"
#include "core/own_rank.hpp"
#include "engine/arena.hpp"
#include "engine/kernels.hpp"
#include "engine/scatter.hpp"
#include "engine/token_store.hpp"
#include "util/prefetch.hpp"
#include "util/require.hpp"

namespace gq {
namespace {

// ---- push-sum ----------------------------------------------------------
//
// The Engine's push_sum_average_multi kernel: per round, every node halves
// its masses and pushes one half to a uniform peer; each destination must
// fold its incoming halves in ascending sender order, which is the exact
// floating-point fold order of the sequential for-loop.  Two round shapes
// keep that order:
//
//   * One worker: the shards run inline in ascending order, so the round is
//     the reference loop itself — a send pass that adds each half straight
//     into its destination's accumulator, then a commit pass.  No mailbox.
//   * Several workers: concurrent shards would race on one accumulator, so
//     messages go through engine/scatter.hpp, whose delivery applies each
//     destination's payloads in ascending sender order.
//
// Working state is engine-pooled (Engine::scratch) and first-touch
// initialized: each shard's slice of the arrays is first written by the
// worker that owns the shard, so repeated counting stages reuse warm,
// NUMA-local pages instead of re-allocating n-sized vectors per call.
//
// A node's value masses and weight mass live in ONE struct, not parallel
// arrays: every message makes two random-indexed accesses (read the
// sender's pair, bump the destination's accumulator pair), and keeping
// each pair on one cache line instead of two halves the lines the L2 has
// to serve on the hottest loop of the counting stages.
template <std::size_t D>
struct PushSumScratch {
  struct Pair {
    std::array<double, D> s;
    double w;
  };
  FirstTouchBuffer<Pair> state;   // each node's current (s, w)
  FirstTouchBuffer<Pair> inflow;  // accumulated incoming masses
};

}  // namespace

template <std::size_t D>
MultiPushSumResult<D> push_sum_average_multi(
    Engine& engine, std::span<const std::array<double, D>> x,
    std::uint64_t rounds) {
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(x.size() == n, "one input vector per node required");
  if (rounds == 0) rounds = push_sum_rounds_for_exact(n, engine.failures());
  const std::uint64_t bits = push_sum_message_bits(D);

  using Pair = typename PushSumScratch<D>::Pair;
  auto& scratch = engine.scratch<PushSumScratch<D>>();
  scratch.state.ensure(n);
  scratch.inflow.ensure(n);
  const std::span<Pair> state = scratch.state.span(n);
  const std::span<Pair> inflow = scratch.inflow.span(n);
  const auto zero = [](Pair& p) {
    p.s.fill(0.0);
    p.w = 0.0;
  };
  const auto add = [](Pair& into, const Pair& m) {
    for (std::size_t j = 0; j < D; ++j) into.s[j] += m.s[j];
    into.w += m.w;
  };
  // The failure coin and peer draw are the batched twin of push_round —
  // same per-node stream derivation, same per-shard message accounting —
  // fused with the halving; emit(d, half) hands the half to the round
  // shape's delivery.
  const auto send_shard = [&](std::uint32_t begin, std::uint32_t end,
                              Metrics& local, auto&& emit) {
    std::uint64_t sent = 0;
    for (std::uint32_t v = begin; v < end; ++v) {
      if (engine.node_fails(v)) {  // failed: keeps whole pair
        ++local.failed_operations;
        continue;
      }
      SplitMix64 stream = engine.node_stream(v);
      const std::uint32_t d = engine.sample_peer(v, stream);
      ++sent;
      for (std::size_t j = 0; j < D; ++j) state[v].s[j] *= 0.5;
      state[v].w *= 0.5;
      emit(d, state[v]);
    }
    local.record_messages(sent, bits);
  };

  const bool inline_rounds = engine.threads() == 1;
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          state[v].s = x[v];
          state[v].w = 1.0;
          // The scatter rounds zero inflow in their delivery prologue
          // instead (which first-touches it per partition task).
          if (inline_rounds) zero(inflow[v]);
        }
      });

  if (inline_rounds) {
    // One worker runs the shards in ascending order, so each accumulator
    // receives its halves in ascending sender order; the commit pass adds
    // the accumulator once and re-zeroes it for the next round.
    for (std::uint64_t r = 0; r < rounds; ++r) {
      engine.begin_round();
      engine.parallel_shards(
          [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
            send_shard(begin, end, local,
                       [&](std::uint32_t d, const Pair& half) {
                         add(inflow[d], half);
                       });
          });
      engine.parallel_shards(
          [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
            for (std::uint32_t v = begin; v < end; ++v) {
              add(state[v], inflow[v]);
              zero(inflow[v]);
            }
          });
    }
  } else {
    // Two parallel sections per round: the send pass queues each half (a
    // pure streaming read on delivery), and the delivery zeroes the
    // partition's accumulators, folds its records while they are
    // cache-resident, and commits them as its epilogue.  The fold touches
    // exactly one random-indexed accumulator Pair per message.
    Scatter<Pair> scatter(engine);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      engine.begin_round();
      scatter.begin_round();
      engine.parallel_shards(
          [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
            auto out = scatter.sender_for(begin);
            send_shard(begin, end, local,
                       [&](std::uint32_t d, const Pair& half) {
                         out.send(d, half);
                       });
          });
      scatter.deliver_prefetch(
          engine,
          [&](std::uint32_t first, std::uint32_t last) {
            for (std::uint32_t v = first; v < last; ++v) zero(inflow[v]);
          },
          [&](std::uint32_t dest, const Pair& m) { add(inflow[dest], m); },
          [&](std::uint32_t first, std::uint32_t last) {
            for (std::uint32_t v = first; v < last; ++v) {
              add(state[v], inflow[v]);
            }
          },
          // The fold's one random-indexed access: the destination's inflow
          // Pair.  Issued a few records ahead by the delivery walk.
          [&](std::uint32_t dest) { prefetch_read(&inflow[dest]); });
    }
  }

  MultiPushSumResult<D> out;
  out.rounds = rounds;
  out.estimates.resize(n);
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          for (std::size_t j = 0; j < D; ++j) {
            out.estimates[v][j] = state[v].s[j] / state[v].w;
          }
        }
      });
  return out;
}

template MultiPushSumResult<1> push_sum_average_multi<1>(
    Engine&, std::span<const std::array<double, 1>>, std::uint64_t);
template MultiPushSumResult<3> push_sum_average_multi<3>(
    Engine&, std::span<const std::array<double, 3>>, std::uint64_t);

namespace {

// Engine-pooled working state of the batched token split: the flat token
// store plus the incrementally maintained counters that replace the
// sequential version's per-round full rescans.  heavy counts track tokens
// with weight > 1 (Phase A's continuation condition), crowded counts track
// nodes holding >= 2 tokens (Phase B's).  Per-shard counters are atomics
// because delivery tasks are partitioned by *destination* range, which
// need not align with shard boundaries; only their sums are observed
// (after a section barrier), so relaxed updates stay deterministic.
struct TokenSplitScratch {
  TokenStore store;
  FirstTouchBuffer<std::uint32_t> heavy_node;  // heavy tokens held per node
  std::unique_ptr<std::atomic<std::int64_t>[]> heavy_shard;
  std::unique_ptr<std::atomic<std::int64_t>[]> crowded_shard;
  std::size_t shard_capacity = 0;

  void ensure_shards(std::size_t shards) {
    if (shards <= shard_capacity) return;
    heavy_shard = std::make_unique<std::atomic<std::int64_t>[]>(shards);
    crowded_shard = std::make_unique<std::atomic<std::int64_t>[]>(shards);
    shard_capacity = shards;
  }
};

}  // namespace

TokenSplitResult token_split_distribute(Engine& engine,
                                        std::span<const Key> inst,
                                        std::uint64_t multiplier,
                                        std::uint64_t tag_base) {
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(inst.size() == n, "one key per node required");
  GQ_REQUIRE(multiplier >= 1 && std::has_single_bit(multiplier),
             "multiplier must be a power of two");

  std::uint64_t finite = 0;
  for (const Key& k : inst) finite += k.is_finite() ? 1 : 0;
  GQ_REQUIRE(finite >= 1, "token split needs at least one valued node");
  GQ_REQUIRE(multiplier * finite <= 4ull * n / 5 + 1,
             "token count must leave >= n/5 nodes free for scattering");

  const std::size_t shards = engine.num_shards();
  auto& scratch = engine.scratch<TokenSplitScratch>();
  TokenStore& held = scratch.store;
  held.ensure(n);
  scratch.heavy_node.ensure(n);
  scratch.ensure_shards(shards);
  const std::span<std::uint32_t> heavy_node = scratch.heavy_node.span(n);
  const auto heavy_shard = scratch.heavy_shard.get();
  const auto crowded_shard = scratch.crowded_shard.get();
  for (std::size_t s = 0; s < shards; ++s) {
    crowded_shard[s].store(0, std::memory_order_relaxed);
  }

  // Mint one token per valued node, from its owning shard (clear_node also
  // first-touches the node's slots on that worker).  Every minted token is
  // heavy unless the multiplier is already 1.
  const bool mint_heavy = multiplier > 1;
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        std::int64_t heavy = 0;
        for (std::uint32_t v = begin; v < end; ++v) {
          held.clear_node(v);
          heavy_node[v] = 0;
          if (inst[v].is_finite()) {
            held.push_back(v, Token{inst[v], multiplier});
            if (mint_heavy) {
              heavy_node[v] = 1;
              ++heavy;
            }
          }
        }
        heavy_shard[engine.shard_of(begin)].store(
            heavy, std::memory_order_relaxed);
      });

  TokenSplitResult out;
  out.token_count = multiplier * finite;
  const std::uint64_t bits = token_message_bits(n, multiplier);
  const auto log2n = static_cast<std::uint64_t>(
      std::bit_width(static_cast<std::uint64_t>(n)));
  const std::uint64_t round_cap = 64 * log2n + 512;

  const auto counter_total = [shards](const std::atomic<std::int64_t>* arr) {
    std::int64_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      total += arr[s].load(std::memory_order_relaxed);
    }
    return total;
  };

  Scatter<Token> scatter(engine);
  // Delivery fold of both phases: append in ascending sender order (the
  // sequential order) and roll the incremental counters forward.  A
  // delivered heavy token raises its destination's heavy counts; a second
  // token on a node makes that node crowded.  The fold's random-indexed
  // lines (the destination's token slots and heavy count) are prefetched a
  // few records ahead by the delivery walk.
  const auto touch_token_dest = [&](std::uint32_t dest) {
    held.prefetch_node(dest);
    prefetch_read(&heavy_node[dest]);
  };
  const auto append_token = [&](std::uint32_t dest, const Token& t) {
    const std::uint32_t before = held.size(dest);
    held.push_back(dest, t);
    if (t.weight > 1) {
      ++heavy_node[dest];
      heavy_shard[engine.shard_of(dest)].fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    if (before == 1) {
      crowded_shard[engine.shard_of(dest)].fetch_add(
          1, std::memory_order_relaxed);
    }
  };

  // Phase A: halve weights.  Each round a node splits at most one of its
  // weight>1 tokens; the pushed half travels to a uniform node.  A failed
  // operation leaves the token whole (the Section-5.2 merge-back).  The
  // continuation condition "any heavy token anywhere" reads the maintained
  // counters — no rescan of n token lists per round — and shards whose
  // heavy count is zero skip their node loop outright (their nodes would
  // all fall through the sequential find-first-heavy check).
  while (true) {
    if (counter_total(heavy_shard) == 0) break;
    if (out.rounds > round_cap) {
      throw std::runtime_error("token splitting did not converge");
    }

    engine.begin_round();
    ++out.rounds;
    scatter.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          const std::size_t sidx = engine.shard_of(begin);
          if (heavy_shard[sidx].load(std::memory_order_relaxed) == 0) return;
          auto out = scatter.sender_for(begin);
          std::uint64_t sent = 0;
          std::int64_t heavy_delta = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (heavy_node[v] == 0) continue;
            if (engine.node_fails(v)) {
              ++local.failed_operations;
              continue;
            }
            SplitMix64 stream = engine.node_stream(v);
            const std::uint32_t dest = engine.sample_peer(v, stream);
            std::uint32_t i = 0;
            while (held.at(v, i).weight <= 1) ++i;  // first heavy token
            Token& tok = held.at(v, i);
            tok.weight /= 2;
            if (tok.weight == 1) {
              --heavy_node[v];
              --heavy_delta;
            }
            out.send(dest, Token{tok.key, tok.weight});
            ++sent;
          }
          heavy_shard[sidx].fetch_add(heavy_delta,
                                      std::memory_order_relaxed);
          local.record_messages(sent, bits);
        });
    scatter.deliver_prefetch(engine, append_token, touch_token_dest);
  }

  // Phase B: scatter weight-1 tokens until every node holds at most one.
  // Same counter treatment: the crowded counts gate the loop and let
  // all-settled shards skip their node loop.
  while (true) {
    if (counter_total(crowded_shard) == 0) break;
    if (out.rounds > 4 * round_cap) {
      throw std::runtime_error("token scattering did not converge");
    }

    engine.begin_round();
    ++out.rounds;
    scatter.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          const std::size_t sidx = engine.shard_of(begin);
          if (crowded_shard[sidx].load(std::memory_order_relaxed) == 0) {
            return;
          }
          auto out = scatter.sender_for(begin);
          std::uint64_t sent = 0;
          std::int64_t crowded_delta = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (held.size(v) < 2) continue;
            if (engine.node_fails(v)) {
              ++local.failed_operations;
              continue;
            }
            SplitMix64 stream = engine.node_stream(v);
            const std::uint32_t dest = engine.sample_peer(v, stream);
            out.send(dest, held.back(v));
            held.pop_back(v);
            if (held.size(v) == 1) --crowded_delta;
            ++sent;
          }
          crowded_shard[sidx].fetch_add(crowded_delta,
                                        std::memory_order_relaxed);
          local.record_messages(sent, bits);
        });
    scatter.deliver_prefetch(engine, append_token, touch_token_dest);
  }

  out.instance.assign(n, Key::infinite());
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          if (held.size(v) == 0) continue;
          const Token& t = held.front(v);
          out.instance[v] = Key{t.key.value, t.key.id, tag_base + v};
        }
      });
  return out;
}

// ---- per-executor pipeline steps ----------------------------------------

namespace {

// The Engine's Ops of the shared multi-quantile schedule
// (core/multi_pipeline.hpp): thin forwarders to the multi-lane kernels in
// engine/kernels.cpp.  The sequential twin lives in core/multi_quantile.cpp.
struct EngineMultiOps {
  Engine& engine;

  void begin(std::span<const Key> keys, std::size_t lanes) {
    multi_tournament_begin(engine, keys, static_cast<std::uint32_t>(lanes));
  }
  void two_iteration(std::span<const MultiLaneStep> steps) {
    multi_two_iteration(engine, steps);
  }
  void three_iteration() { multi_three_iteration(engine); }
  void final_sample(std::uint32_t k_samples,
                    std::vector<std::vector<Key>>& outputs) {
    multi_final_sample(engine, k_samples, outputs);
  }
};

}  // namespace

multi_detail::SharedRun multi_detail::shared_tournament(
    Engine& engine, std::span<const Key> keys,
    std::span<const MultiLaneSpec> lanes, double phase2_eps,
    std::uint32_t final_sample_size) {
  EngineMultiOps ops{engine};
  return run_shared_schedule<MultiPhaseSpans>(ops, keys, lanes, phase2_eps,
                                              final_sample_size);
}

// The Engine's failure-free tournament: Phase 1, Phase 2 and the final
// sample on the shared-schedule q-lane kernels with one lane.  The
// reference overload lives in core/approx_quantile.cpp.
approx_detail::TournamentRun approx_detail::failure_free_tournament(
    Engine& engine, std::span<const Key> keys,
    const ApproxQuantileParams& params, double phase2_eps) {
  const multi_detail::MultiLaneSpec lane =
      multi_detail::lane_spec(params.phi, params.eps, params.truncate_last);
  EngineMultiOps multi{engine};
  multi_detail::SharedRun run =
      multi_detail::run_shared_schedule<ApproxPhaseSpans>(
          multi, keys, {&lane, 1}, phase2_eps, params.final_sample_size);
  return {lane.schedule.iterations(), run.phase2_iterations,
          std::move(run.outputs.front())};
}

// ---- pipeline instantiations ----------------------------------------------
//
// The Engine instantiation of every composed pipeline; core/pipelines.cpp
// instantiates the same list for the sequential Network.

template ApproxQuantileResult approx_quantile(Engine&, std::span<const double>,
                                              const ApproxQuantileParams&);
template ApproxQuantileResult approx_quantile_keys(
    Engine&, std::span<const Key>, const ApproxQuantileParams&);

template MultiQuantileResult multi_quantile(Engine&, std::span<const double>,
                                            const MultiQuantileParams&);
template MultiQuantileResult multi_quantile_keys(Engine&, std::span<const Key>,
                                                 const MultiQuantileParams&);

template ExactQuantileResult exact_quantile(Engine&, std::span<const double>,
                                            const ExactQuantileParams&);
template ExactQuantileResult exact_quantile_keys(Engine&, std::span<const Key>,
                                                 const ExactQuantileParams&);

template OwnRankResult own_rank(Engine&, std::span<const double>,
                                const OwnRankParams&);

template MedianRuleResult median_rule(Engine&, std::span<const double>,
                                      const MedianRuleParams&);

template AdversarialQuantileResult adversarial_quantile(
    Engine&, std::span<const double>, const AdversarialQuantileParams&);
template AdversarialQuantileResult adversarial_quantile_keys(
    Engine&, std::span<const Key>, const AdversarialQuantileParams&);
template AdversarialMeanResult adversarial_mean(Engine&,
                                                std::span<const double>,
                                                const AdversarialMeanParams&);

}  // namespace gq
