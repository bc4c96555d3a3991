// Algorithm 3 (exact quantile), written once over the executor.
//
// Every branch of the bracketing bookkeeping is observable in round counts
// and Metrics, so the sequential Network and the parallel Engine run ONE
// copy of it: exact_quantile_keys below is the public entry point itself,
// instantiated for both executors (core/pipelines.cpp,
// engine/pipelines.cpp).  Bit-identity of the two paths then reduces to
// bit-identity of each primitive, which tests/test_engine.cpp pins kernel
// by kernel.
//
// Each bracketing iteration pays for one diffusion per step: both brackets
// (phi = k/n -/+ s) ride one multi_quantile_keys batch, whose failure-free
// route is the two-lane shared schedule (core/multi_pipeline.hpp), and the
// lower bracket's min and the upper bracket's max spread in one fused
// diffusion (spread_min_max).
//
// An executor `ex` derives from RoundCore and provides parallel_shards(fn).
// The composed steps it calls are themselves generic: the approx and multi
// pipelines, and the collectives spread_min/spread_max/spread_min_max,
// gossip_count/gossip_rank/gossip_count3 and sample_uniform_candidate
// (agg/spread.hpp, agg/rank_count.hpp, core/pivot.hpp).  Per executor it
// supplies only the kernels under them, reached by overload resolution:
//   array<GenericSpreadResult<T>, C> spread_best(
//       ex, const array<span<const T>, C>&, const array<Less, C>&,
//       uint64_t bits_per_component, uint64_t max_rounds);   // C = 1, 2
//   MultiPushSumResult<D> push_sum_average_multi<D>(
//       ex, span<const array<double, D>>, uint64_t rounds);   // D = 1, 3
//   TokenSplitResult token_split_distribute(ex, span<const Key>,
//                                           uint64_t m, uint64_t tag);
// (Network's in agg/ and core/token_split, Engine's in
// engine/pipelines.hpp.)
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "analysis/theory_bounds.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "core/multi_quantile.hpp"
#include "core/params.hpp"
#include "core/pivot.hpp"
#include "core/result.hpp"
#include "core/token_split.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace exact_detail {

// Structured throw-site context for ExactPipelineError: which run (seed, n)
// aborted, where (phase label), and when.  The round is the executor's
// stream-relative counter (reset by reset_stream), not lifetime Metrics
// rounds, so warm service attempts abort with the same context as a cold
// run — the context is part of the differential contract.
template <typename Executor>
ExactPipelineError::Context abort_context(const Executor& ex,
                                          const char* phase) {
  ExactPipelineError::Context context;
  context.seed = ex.seed();
  context.round = ex.round();
  context.n = ex.size();
  context.phase = phase;
  return context;
}

// K of every inner approximate run.  The brackets take the min/max over
// ALL nodes' outputs, so a single tail outlier inflates the window; K = 31
// drives the per-node outlier probability below 1/poly(n) (Lemma 2.17
// amplification).
inline constexpr std::uint32_t kInnerSampleSize = 31;

struct PipelineOutcome {
  Key answer = Key::infinite();
  std::vector<Key> outputs;
  std::vector<bool> valid;
  std::size_t iterations = 0;
  std::size_t endgame_phases = 0;
};

// Broadcasts the smallest finite key among `contributions` to every node.
template <typename Executor>
Key broadcast_min_finite(Executor& ex, std::vector<Key> contributions,
                         std::vector<Key>& outputs) {
  const SpreadResult sr = spread_min(ex, contributions);
  GQ_REQUIRE(sr.converged && sr.values.front().is_finite(),
             "answer broadcast failed to converge on a finite key");
  outputs = sr.values;
  return sr.values.front();
}

// Uniform-pivot selection phases (shared mechanics with the KDG03
// baseline): find the key of rank k within `inst` and broadcast it.
template <typename Executor>
PipelineOutcome selection_endgame(Executor& ex, std::vector<Key>& inst,
                                  std::uint64_t k,
                                  const ExactQuantileParams& params,
                                  std::size_t iterations_so_far) {
  GQ_SPAN("exact/selection_endgame");
  const std::uint32_t n = ex.size();
  PipelineOutcome out;
  out.iterations = iterations_so_far;

  Key lo_e = Key::neg_infinite();
  Key hi_e = Key::infinite();
  std::vector<bool> candidate(n);
  for (std::uint32_t phase = 0; phase < params.max_endgame_phases; ++phase) {
    GQ_SPAN("exact/endgame_phase");
    for (std::uint32_t v = 0; v < n; ++v) {
      candidate[v] =
          inst[v].is_finite() && lo_e < inst[v] && inst[v] < hi_e;
    }
    // The exact counts prove the rank-k key lies strictly between lo_e and
    // hi_e, so the candidate set is not empty; a draw that every candidate
    // lost to faults is redrawn within the phase budget.
    const PivotSample pv = sample_uniform_candidate(
        ex, inst, candidate, params.max_endgame_phases);
    if (!pv.found) {
      throw ExactPipelineError(
          ExactPipelineError::Kind::kEndgameNoPivot,
          "selection endgame drew no pivot (pivot spread did not converge)",
          abort_context(ex, "selection_endgame"));
    }
    ++out.endgame_phases;
    const std::uint64_t rank = gossip_rank(ex, inst, pv.pivot).counts[0];
    if (rank == k) {
      out.answer = pv.pivot;
      out.outputs.assign(n, pv.pivot);
      out.valid.assign(n, true);
      return out;
    }
    if (rank > k) {
      hi_e = pv.pivot;
    } else {
      lo_e = pv.pivot;
    }
  }
  throw ExactPipelineError(ExactPipelineError::Kind::kEndgameStalled,
                           "selection endgame did not converge",
                           abort_context(ex, "selection_endgame"));
}

// Predicted round costs used by ExactStrategy::kAuto.  These only steer the
// strategy choice; all reported costs are measured, not predicted.
struct CostModel {
  double per_endgame_phase;  // pivot spread + exact count
  double per_iteration;  // bracket batch + fused spread + triple count + tokens

  static CostModel build(std::uint32_t n, std::uint64_t exact_count_rounds,
                         double slack) {
    const auto nd = static_cast<double>(n);
    const double log2n = std::log2(nd);
    const double count_rounds = static_cast<double>(exact_count_rounds);
    const double spread_rounds = 2.0 * log2n + 10.0;
    // One shared-schedule bracket batch: the two lanes' Phase-1 schedules
    // superimposed (the longer one, two rounds per iteration), one Phase 2
    // (three rounds per iteration) and one final K-sample.
    const double bracket_rounds =
        2.0 * phase1_iteration_bound(slack) +
        3.0 * phase2_iteration_bound(slack / 4.0, n) + kInnerSampleSize;
    CostModel m{};
    m.per_endgame_phase = 1.0 + spread_rounds + count_rounds;
    // The fused min/max spread lasts as long as its slower component.
    m.per_iteration = bracket_rounds + spread_rounds + count_rounds +
                      log2n + 10.0;
    return m;
  }

  // Expected selection-endgame phases for the rank-k key among
  // `candidates` keys.  The key j ranks away from the target is drawn as a
  // pivot iff it is drawn first among the |j - k| + 1 keys from it to the
  // target, so the expected number of draws is H_k + H_{N-k+1} - 1 (the
  // depth of uniform-pivot quickselect).
  static double endgame_phases(std::uint64_t candidates, std::uint64_t k) {
    const auto harmonic = [](double x) {
      return std::log(x) + 0.5772156649 + 0.5 / x;
    };
    const double total = std::max(1.0, static_cast<double>(candidates));
    const double rank = std::clamp(static_cast<double>(k), 1.0, total);
    return harmonic(rank) + harmonic(total - rank + 1.0) - 1.0;
  }
};

template <typename Executor>
PipelineOutcome run_pipeline(Executor& ex, std::span<const Key> keys,
                             const ExactQuantileParams& params) {
  GQ_SPAN("exact/run_pipeline");
  const std::uint32_t n = ex.size();
  const auto nd = static_cast<double>(n);

  // Target rank among the original keys.
  std::uint64_t k = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(params.phi * nd)), 1, n);

  // Per-iteration slack (see ExactQuantileParams::slack).
  const double s = params.slack > 0.0
                       ? params.slack
                       : eps_tournament_floor(n);
  GQ_REQUIRE(s > 0.0 && s < 0.5, "bracketing slack must lie in (0, 1/2)");
  // The answer block must cover the final run's rank window [k-3sn, k-sn].
  const std::uint64_t block_target =
      static_cast<std::uint64_t>(std::ceil(3.0 * s * nd)) + 1;

  std::vector<Key> inst(keys.begin(), keys.end());
  std::uint64_t block = 1;  // ranks (k-block, k] of inst all hold the answer
  PipelineOutcome out;

  // Steps 3-4's two brackets: one shared-schedule batch of two lanes.
  MultiQuantileParams brackets;
  brackets.eps = s;
  brackets.final_sample_size = kInnerSampleSize;
  // Step 10's final single-target run.
  ApproxQuantileParams inner;
  inner.eps = s;
  inner.final_sample_size = kInnerSampleSize;

  while (true) {
    if (block >= k) {
      // The answer block covers every rank <= k, so the smallest surviving
      // key is an answer copy; one min-broadcast finishes (this is also the
      // phi ~ 0 fast path, where k0 = 1 makes the input minimum the answer).
      std::vector<Key> contributions = inst;
      out.answer =
          broadcast_min_finite(ex, std::move(contributions), out.outputs);
      out.valid.assign(n, true);
      return out;
    }
    if (block >= block_target) {
      // Step 10: one approximate query lands every node inside the answer
      // block; broadcast the smallest output to serve stragglers.
      inner.phi = std::clamp(static_cast<double>(k) / nd - 2.0 * s, 0.0, 1.0);
      ApproxQuantileResult fin = approx_quantile_keys(ex, inst, inner);
      for (std::uint32_t v = 0; v < n; ++v) {
        if (!fin.valid[v]) fin.outputs[v] = Key::infinite();
      }
      out.answer = broadcast_min_finite(ex, std::move(fin.outputs),
                                        out.outputs);
      out.valid.assign(n, true);
      return out;
    }
    if (out.iterations >= params.max_iterations) {
      return selection_endgame(ex, inst, k, params, out.iterations);
    }
    ++out.iterations;
    GQ_SPAN("exact/iteration");

    // Steps 3-4: bracket the k/n-quantile from both sides and spread the
    // extremes.  Both brackets ride one batch: failure-free, their lanes
    // share every Phase-2 round and the final sample; under a failure
    // model or below the tournament floor the batch runs one approximate
    // pipeline per bracket, lower first.  The min and the max then share
    // one diffusion.
    brackets.phis = {std::clamp(static_cast<double>(k) / nd - s, 0.0, 1.0),
                     std::clamp(static_cast<double>(k) / nd + s, 0.0, 1.0)};
    MultiQuantileResult batch = multi_quantile_keys(ex, inst, brackets);
    ApproxQuantileResult& r_lo = batch.per_phi[0];
    ApproxQuantileResult& r_hi = batch.per_phi[1];
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!r_lo.valid[v]) r_lo.outputs[v] = Key::infinite();
      if (!r_hi.valid[v]) r_hi.outputs[v] = Key::neg_infinite();
    }
    const std::array<SpreadResult, 2> extremes =
        spread_min_max(ex, r_lo.outputs, r_hi.outputs);
    const Key lo = extremes[0].values.front();
    const Key hi = extremes[1].values.front();
    // A bracket can degenerate when an inner run misses its w.h.p. window
    // (e.g. the upper run lands on a valueless node's +inf key).  A
    // one-sided miss is tolerated by dropping that side's filter below;
    // a two-sided or crossed miss makes the iteration useless.
    const bool lo_ok = lo.is_finite();
    const bool hi_ok = hi.is_finite();
    if ((!lo_ok && !hi_ok) || (lo_ok && hi_ok && hi < lo)) {
      if (params.strategy == ExactStrategy::kPreferDuplication) {
        continue;  // re-bracket with fresh randomness
      }
      return selection_endgame(ex, inst, k, params, out.iterations);
    }

    // Step 5: exact counts — A = rank(lo), B = rank(hi), F = #valued — in
    // one diffusion.
    std::vector<bool> ind_a(n), ind_b(n), ind_c(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      ind_a[v] = inst[v] <= lo;
      ind_b[v] = inst[v] <= hi;
      ind_c[v] = inst[v].is_finite();
    }
    const TripleCountResult cnt = gossip_count3(ex, ind_a, ind_b, ind_c);
    const std::uint64_t rank_lo = cnt.a.front();
    const std::uint64_t rank_hi = cnt.b.front();
    const std::uint64_t finite_cnt = cnt.c.front();

    // Exactness of the counts makes these guards sound: a bracket is used
    // only if it provably does not cut the answer away.
    const bool use_lo = lo_ok && rank_lo >= 1 && rank_lo <= k;
    const bool use_hi = hi_ok && rank_hi >= k;
    if (!use_lo && !use_hi) {
      if (params.strategy == ExactStrategy::kPreferDuplication) {
        continue;  // re-bracket with fresh randomness
      }
      return selection_endgame(ex, inst, k, params, out.iterations);
    }

    // Step 6: discard values outside [lo, hi].
    for (std::uint32_t v = 0; v < n; ++v) {
      if ((use_lo && inst[v] < lo) || (use_hi && hi < inst[v])) {
        inst[v] = Key::infinite();
      }
    }
    const std::uint64_t removed_below = use_lo ? rank_lo - 1 : 0;
    k -= removed_below;
    block = std::min(block, k);
    const std::uint64_t survivors =
        (use_hi ? rank_hi : finite_cnt) - removed_below;
    if (survivors == 0) {
      throw ExactPipelineError(ExactPipelineError::Kind::kBracketingEmptied,
                               "bracketing removed every candidate",
                               abort_context(ex, "bracketing"));
    }
    if (block >= k) continue;  // finish via the min-broadcast fast path

    // Steps 7-8: duplication.  The paper targets n^0.99 total tokens via
    // m = smallest power of two exceeding (n^0.99/2)/survivors; we take the
    // LARGEST power of two fitting the same target (bounded by 4n/5 so
    // scattering keeps a constant fraction of empty nodes), which dominates
    // the paper's choice whenever it fits and maximizes block growth.
    const double token_target = std::min(std::pow(nd, 0.99), 0.8 * nd);
    std::uint64_t m = 1;
    while (static_cast<double>(2 * m) * static_cast<double>(survivors) <=
           token_target) {
      m *= 2;
    }

    bool go_endgame = false;
    switch (params.strategy) {
      case ExactStrategy::kPreferEndgame:
        go_endgame = true;
        break;
      case ExactStrategy::kPreferDuplication:
        // A degenerate multiplier usually means an outlier widened the
        // window; re-bracketing with fresh randomness shrinks it again, so
        // keep iterating (max_iterations still bounds the loop).
        go_endgame = false;
        break;
      case ExactStrategy::kAuto: {
        if (m < 2) {
          go_endgame = block < block_target;
        } else {
          // Compare predicted costs of finishing by duplication vs by
          // selection phases; both finish, this only picks the cheaper.
          // The duplication route terminates when the block reaches either
          // block_target or k itself (the min-broadcast fast path).
          const CostModel cost = CostModel::build(
              n, push_sum_rounds_for_exact(n, ex.failures()), s);
          const double goal = static_cast<double>(
              std::min<std::uint64_t>(block_target, k));
          const double dup_iters = std::max(
              1.0, std::ceil(std::log(goal / static_cast<double>(block)) /
                             std::log(static_cast<double>(m))));
          go_endgame = CostModel::endgame_phases(survivors, k) *
                           cost.per_endgame_phase <
                       dup_iters * cost.per_iteration;
        }
        break;
      }
    }
    if (go_endgame) {
      return selection_endgame(ex, inst, k, params, out.iterations);
    }
    if (m >= 2) {
      GQ_SPAN("exact/token_split");
      TokenSplitResult ts;
      try {
        ts = token_split_distribute(
            ex, inst, m, static_cast<std::uint64_t>(out.iterations) << 32);
      } catch (const std::runtime_error&) {
        // The split's only runtime failure is its round cap.
        throw ExactPipelineError(
            ExactPipelineError::Kind::kTokenSplitStalled,
            "token split-and-distribute did not converge",
            abort_context(ex, "token_split"));
      }
      inst = ts.instance;
      k *= m;
      block *= m;
    }
    // m == 1 with block >= block_target falls through to the final run.
  }
}

}  // namespace exact_detail

// The full entry point: pipeline, verification against the original input,
// and the w.h.p.-never retry loop.
template <std::derived_from<RoundCore> Ex>
ExactQuantileResult exact_quantile_keys(Ex& ex, std::span<const Key> keys,
                                        const ExactQuantileParams& params) {
  const std::uint32_t n = ex.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(params.phi >= 0.0 && params.phi <= 1.0, "phi must lie in [0,1]");

  GQ_SPAN("pipeline/exact_quantile");
  const auto nd = static_cast<double>(n);
  const std::uint64_t k0 = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(params.phi * nd)), 1, n);
  const Metrics before = ex.metrics();

  constexpr int kMaxAttempts = 3;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const exact_detail::PipelineOutcome pipe =
        exact_detail::run_pipeline(ex, keys, params);

    // Verification: the answer's rank among the ORIGINAL keys must be
    // exactly k0.  The probe's maximal tag matches every duplication copy
    // of the answer's (value, id).
    GQ_SPAN("exact/verification");
    const Key probe{pipe.answer.value, pipe.answer.id,
                    std::numeric_limits<std::uint64_t>::max()};
    std::vector<bool> indicator(n);
    for (std::uint32_t v = 0; v < n; ++v) indicator[v] = keys[v] <= probe;
    const std::uint64_t measured = gossip_count(ex, indicator).counts.front();
    if (measured != k0) continue;  // retry with fresh randomness

    ExactQuantileResult out;
    out.answer = Key{pipe.answer.value, pipe.answer.id, 0};
    out.outputs.assign(n, out.answer);
    out.valid = pipe.valid;
    out.iterations = pipe.iterations;
    out.endgame_phases = pipe.endgame_phases;
    out.rounds = ex.metrics().rounds - before.rounds;
    return out;
  }
  throw ExactPipelineError(
      ExactPipelineError::Kind::kVerificationFailed,
      "exact_quantile failed verification after repeated attempts",
      exact_detail::abort_context(ex, "verification"));
}

template <std::derived_from<RoundCore> Ex>
ExactQuantileResult exact_quantile(Ex& ex, std::span<const double> values,
                                   const ExactQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return exact_quantile_keys(ex, keys, params);
}

}  // namespace gq
