// The Engine instantiation of the adversarial pipelines
// (core/adversarial_pipeline.hpp).  It stays out of engine/pipelines.cpp
// on purpose: in one translation unit with the push-sum and token-split
// kernels, GCC's -O3 inliner stops inlining RoundCore::op_fails into the
// push-sum send loop, which made Engine gossip_count3 about 10% slower.
#include <span>

#include "core/adversarial_pipeline.hpp"
#include "engine/engine.hpp"

namespace gq {

template AdversarialQuantileResult adversarial_quantile(
    Engine&, std::span<const double>, const AdversarialQuantileParams&);
template AdversarialQuantileResult adversarial_quantile_keys(
    Engine&, std::span<const Key>, const AdversarialQuantileParams&);
template AdversarialMeanResult adversarial_mean(Engine&,
                                                std::span<const double>,
                                                const AdversarialMeanParams&);

}  // namespace gq
