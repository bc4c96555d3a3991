// The sequential Network instantiation of every composed pipeline.  Each
// entry point is one template over the executor (core/*_pipeline.hpp,
// core/own_rank.hpp, baselines/median_rule.hpp); engine/pipelines.cpp
// instantiates the same list for the parallel Engine.  The Network's own
// steps — failure_free_tournament (core/approx_quantile.cpp), the
// multi-lane shared_tournament (core/multi_quantile.cpp), the robust
// tournaments (core/robust.hpp) and the collectives' kernels (agg/,
// core/token_split.hpp) — are found by overload resolution here.
#include <span>

#include "baselines/median_rule.hpp"
#include "core/adversarial_pipeline.hpp"
#include "core/approx_pipeline.hpp"
#include "core/exact_pipeline.hpp"
#include "core/multi_pipeline.hpp"
#include "core/own_rank.hpp"
#include "core/robust.hpp"
#include "core/token_split.hpp"
#include "sim/network.hpp"

namespace gq {

template ApproxQuantileResult approx_quantile(Network&,
                                              std::span<const double>,
                                              const ApproxQuantileParams&);
template ApproxQuantileResult approx_quantile_keys(
    Network&, std::span<const Key>, const ApproxQuantileParams&);

template MultiQuantileResult multi_quantile(Network&, std::span<const double>,
                                            const MultiQuantileParams&);
template MultiQuantileResult multi_quantile_keys(Network&,
                                                 std::span<const Key>,
                                                 const MultiQuantileParams&);

template ExactQuantileResult exact_quantile(Network&, std::span<const double>,
                                            const ExactQuantileParams&);
template ExactQuantileResult exact_quantile_keys(Network&,
                                                 std::span<const Key>,
                                                 const ExactQuantileParams&);

template OwnRankResult own_rank(Network&, std::span<const double>,
                                const OwnRankParams&);

template AdversarialQuantileResult adversarial_quantile(
    Network&, std::span<const double>, const AdversarialQuantileParams&);
template AdversarialQuantileResult adversarial_quantile_keys(
    Network&, std::span<const Key>, const AdversarialQuantileParams&);
template AdversarialMeanResult adversarial_mean(Network&,
                                                std::span<const double>,
                                                const AdversarialMeanParams&);

template MedianRuleResult median_rule(Network&, std::span<const double>,
                                      const MedianRuleParams&);

}  // namespace gq
