#include "core/approx_quantile.hpp"

#include <utility>

#include "core/approx_pipeline.hpp"
#include "core/exact_quantile.hpp"
#include "core/robust.hpp"
#include "core/three_tournament.hpp"
#include "core/two_tournament.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

// The reference failure-free tournament: core/two_tournament then
// core/three_tournament, exactly as written in the paper.  The Engine
// overload lives in engine/pipelines.cpp.
approx_detail::TournamentRun approx_detail::failure_free_tournament(
    Network& net, std::span<const Key> keys,
    const ApproxQuantileParams& params, double phase2_eps) {
  std::vector<Key> state(keys.begin(), keys.end());
  TournamentRun run;
  {
    GQ_SPAN(ApproxPhaseSpans::kTwo);
    run.phase1_iterations = two_tournament(net, state, params.phi, params.eps,
                                           params.truncate_last)
                                .iterations;
  }
  GQ_SPAN(ApproxPhaseSpans::kThree);
  ThreeTournamentOutcome p2 =
      three_tournament(net, state, phase2_eps, params.final_sample_size);
  run.phase2_iterations = p2.iterations;
  run.outputs = std::move(p2.outputs);
  return run;
}

ApproxQuantileResult approx_quantile_keys(Network& net,
                                          std::span<const Key> keys,
                                          const ApproxQuantileParams& params) {
  return approx_detail::approx_quantile_keys_impl(net, keys, params);
}

ApproxQuantileResult approx_quantile(Network& net,
                                     std::span<const double> values,
                                     const ApproxQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return approx_quantile_keys(net, keys, params);
}

}  // namespace gq
