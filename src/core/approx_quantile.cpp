#include <utility>

#include "core/approx_pipeline.hpp"
#include "core/three_tournament.hpp"
#include "core/two_tournament.hpp"

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

}  // namespace gq
