// The approximate quantile pipeline (Theorems 1.2 / 2.1, plus the
// Section-5 robust route), written once over the executor.
//
// The eps-floor fallback decision, the Lemma-2.11 phase2_eps choice, the
// failure-free vs robust routing, and the coverage call are all observable
// in outputs, round counts, and Metrics, so the sequential Network and the
// parallel Engine execute ONE copy of this logic: approx_quantile_keys
// below is the public entry point itself, instantiated for both executors
// (core/pipelines.cpp, engine/pipelines.cpp).
//
// Besides the RoundCore accessors it calls, per executor, only the steps
// that are really different code, each reached by overload resolution:
//   TournamentRun failure_free_tournament(ex, span<const Key>,
//                                         const ApproxQuantileParams&,
//                                         double phase2_eps);
//   RobustTwoTournamentOutcome robust_two_tournament(ex, state, good, phi,
//                                                    eps, truncate_last);
//   RobustThreeTournamentOutcome robust_three_tournament(ex, state, good,
//                                                        eps, k);
//   uint64_t robust_coverage(ex, outputs, valid, t);
// (Network's in core/approx_quantile.cpp and core/robust.hpp, Engine's in
// engine/pipelines.cpp and engine/kernels.hpp), plus the generic
// exact_quantile_keys for the eps-floor fallback.
//
// The failure-free tournament (Phase 1, Phase 2, final sample) is the one
// step each executor runs on its own representation: Network chains
// core/two_tournament and core/three_tournament (the reference oracle, as
// written in the paper); Engine drives the shared-schedule q-lane kernels
// with one lane (multi_detail::run_shared_schedule), never exporting state
// between the phases.  Both attribute time to the ApproxPhaseSpans names.
//
// Bit-identity of the two instantiations is pinned by tests/test_engine.cpp
// and tests/test_engine_robust.cpp.
#pragma once

#include <concepts>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "analysis/theory_bounds.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

class Engine;

namespace approx_detail {

// Span names of the failure-free tournament's two phases.
struct ApproxPhaseSpans {
  static constexpr const char* kTwo = "approx/two_tournament";
  static constexpr const char* kThree = "approx/three_tournament";
};

// What the failure-free tournament returns.
struct TournamentRun {
  std::size_t phase1_iterations = 0;
  std::size_t phase2_iterations = 0;
  std::vector<Key> outputs;
};

TournamentRun failure_free_tournament(Network& net, std::span<const Key> keys,
                                      const ApproxQuantileParams& params,
                                      double phase2_eps);
TournamentRun failure_free_tournament(Engine& engine,
                                      std::span<const Key> keys,
                                      const ApproxQuantileParams& params,
                                      double phase2_eps);

}  // namespace approx_detail

template <std::derived_from<RoundCore> Ex>
ApproxQuantileResult approx_quantile_keys(Ex& ex, std::span<const Key> keys,
                                          const ApproxQuantileParams& params) {
  const std::uint32_t n = ex.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(params.phi >= 0.0 && params.phi <= 1.0, "phi must lie in [0,1]");
  GQ_REQUIRE(params.eps > 0.0 && params.eps < 0.5,
             "eps must lie in (0, 1/2)");
  GQ_REQUIRE(params.final_sample_size >= 1,
             "final sample size must be positive");

  GQ_SPAN("pipeline/approx_quantile");
  const Metrics before = ex.metrics();

  if (params.eps < eps_tournament_floor(n) && !params.force_tournament) {
    // Theorem 1.2 bootstrap: for eps below the sampling floor the exact
    // algorithm is both correct and within the advertised round bound.
    GQ_SPAN("approx/exact_fallback");
    ExactQuantileParams ep;
    ep.phi = params.phi;
    const ExactQuantileResult er = exact_quantile_keys(ex, keys, ep);
    ApproxQuantileResult out;
    out.outputs = er.outputs;
    out.valid = er.valid;
    out.rounds = ex.metrics().rounds - before.rounds;
    out.used_exact_fallback = true;
    return out;
  }

  ApproxQuantileResult out;
  // Phase II approximates the median of the Phase-I configuration to eps/4:
  // by Lemma 2.11 every quantile in [1/2 - eps/4, 1/2 + eps/4] of that
  // configuration lies in the original [phi - eps, phi + eps] window.
  const double phase2_eps = params.eps / 4.0;

  if (ex.faultless()) {
    approx_detail::TournamentRun run =
        approx_detail::failure_free_tournament(ex, keys, params, phase2_eps);
    out.phase1_iterations = run.phase1_iterations;
    out.phase2_iterations = run.phase2_iterations;
    out.outputs = std::move(run.outputs);
    out.valid.assign(n, true);
  } else {
    std::vector<Key> state(keys.begin(), keys.end());
    std::vector<bool> good(n, true);
    const auto p1 = [&] {
      GQ_SPAN("approx/robust_two_tournament");
      return robust_two_tournament(ex, state, good, params.phi, params.eps,
                                   params.truncate_last);
    }();
    auto p2 = [&] {
      GQ_SPAN("approx/robust_three_tournament");
      return robust_three_tournament(ex, state, good, phase2_eps,
                                     params.final_sample_size);
    }();
    out.phase1_iterations = p1.iterations;
    out.phase2_iterations = p2.iterations;
    {
      GQ_SPAN("approx/coverage");
      robust_coverage(ex, p2.outputs, p2.valid, params.robust_coverage_rounds);
    }
    out.outputs = std::move(p2.outputs);
    out.valid = std::move(p2.valid);
  }

  out.rounds = ex.metrics().rounds - before.rounds;
  return out;
}

template <std::derived_from<RoundCore> Ex>
ApproxQuantileResult approx_quantile(Ex& ex, std::span<const double> values,
                                     const ApproxQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return approx_quantile_keys(ex, keys, params);
}

}  // namespace gq
