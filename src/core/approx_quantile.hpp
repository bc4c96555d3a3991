// The eps-approximate phi-quantile pipeline (Theorems 1.2 and 2.1).
//
// Phase I (2-TOURNAMENT) shifts the quantiles around phi onto the quantiles
// around the median of the evolving configuration; Phase II (3-TOURNAMENT
// with slack eps/4, per Lemma 2.11) then approximates that median.  Every
// node ends up holding a value whose rank in the ORIGINAL input lies in
// [(phi-eps)n, (phi+eps)n] w.h.p., after O(log log n + log 1/eps) rounds
// with O(log n)-bit messages.
//
// For eps below eps_tournament_floor(n) the sampling-based pipeline is no
// longer reliable (Theorem 2.1 needs eps = Omega(n^-0.096)); the call
// transparently falls back to the exact algorithm, which is the paper's own
// bootstrap route for Theorem 1.2 (log 1/eps >= c log n there, so the
// O(log n) exact bound is within the advertised complexity).
//
// Under a FailureModel the robust Section-5 variants run instead, and the
// result's `valid` mask reports which nodes were served (all but ~n/2^t
// after t coverage rounds, per Theorem 1.4).
#pragma once

#include <concepts>
#include <span>

#include "core/params.hpp"
#include "core/result.hpp"
#include "sim/network.hpp"

namespace gq {

// The entry points are templates over the executor — the sequential
// Network or the parallel Engine, bit-identical to each other — defined
// once in core/approx_pipeline.hpp and instantiated for both.

// Public entry point: `values[v]` is node v's input.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] ApproxQuantileResult approx_quantile(
    Ex& ex, std::span<const double> values,
    const ApproxQuantileParams& params);

// Key-level entry point used by the exact algorithm and by compositions
// that already operate on tie-broken instances.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] ApproxQuantileResult approx_quantile_keys(
    Ex& ex, std::span<const Key> keys, const ApproxQuantileParams& params);

}  // namespace gq
