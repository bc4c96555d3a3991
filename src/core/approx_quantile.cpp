#include "core/approx_quantile.hpp"

#include <utility>

#include "core/approx_pipeline.hpp"
#include "core/exact_quantile.hpp"
#include "core/robust.hpp"
#include "core/three_tournament.hpp"
#include "core/two_tournament.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

// The sequential instantiation of the shared approximate-pipeline control
// flow in core/approx_pipeline.hpp; the engine twin lives in
// engine/pipelines.cpp (bit-identity pinned by tests/test_engine.cpp and
// tests/test_engine_robust.cpp).
struct NetworkApproxOps {
  Network& net;

  [[nodiscard]] std::uint32_t size() const { return net.size(); }
  [[nodiscard]] const Metrics& metrics() const { return net.metrics(); }
  [[nodiscard]] bool faultless() const { return net.faultless(); }

  ExactQuantileResult exact(std::span<const Key> keys,
                            const ExactQuantileParams& params) {
    return exact_quantile_keys(net, keys, params);
  }
  approx_detail::TournamentRun tournament(
      std::span<const Key> keys, const ApproxQuantileParams& params,
      double phase2_eps) {
    std::vector<Key> state(keys.begin(), keys.end());
    approx_detail::TournamentRun run;
    {
      GQ_SPAN(approx_detail::ApproxPhaseSpans::kTwo);
      run.phase1_iterations = two_tournament(net, state, params.phi,
                                             params.eps, params.truncate_last)
                                  .iterations;
    }
    GQ_SPAN(approx_detail::ApproxPhaseSpans::kThree);
    ThreeTournamentOutcome p2 =
        three_tournament(net, state, phase2_eps, params.final_sample_size);
    run.phase2_iterations = p2.iterations;
    run.outputs = std::move(p2.outputs);
    return run;
  }
  RobustTwoTournamentOutcome robust_two(std::vector<Key>& state,
                                        std::vector<bool>& good, double phi,
                                        double eps, bool truncate_last) {
    return robust_two_tournament(net, state, good, phi, eps, truncate_last);
  }
  RobustThreeTournamentOutcome robust_three(std::vector<Key>& state,
                                            std::vector<bool>& good,
                                            double eps,
                                            std::uint32_t final_sample_size) {
    return robust_three_tournament(net, state, good, eps, final_sample_size);
  }
  std::uint64_t coverage(std::vector<Key>& outputs, std::vector<bool>& valid,
                         std::uint32_t t) {
    return robust_coverage(net, outputs, valid, t);
  }
};

}  // namespace

ApproxQuantileResult approx_quantile_keys(Network& net,
                                          std::span<const Key> keys,
                                          const ApproxQuantileParams& params) {
  NetworkApproxOps ops{net};
  return approx_detail::approx_quantile_keys_impl(ops, keys, params);
}

ApproxQuantileResult approx_quantile(Network& net,
                                     std::span<const double> values,
                                     const ApproxQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return approx_quantile_keys(net, keys, params);
}

}  // namespace gq
