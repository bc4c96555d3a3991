#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/multi_pipeline.hpp"
#include "core/robust_pipeline.hpp"

namespace gq {
namespace {

// The reference Ops of the shared multi-quantile schedule
// (core/multi_pipeline.hpp): per-node state is q plain Key vectors, every
// round is a for-loop over nodes with the iteration-start snapshot copied
// up front, and the per-node draw order — one shared peer pick per round,
// per-lane delta coins in lane order — is the contract the parallel Engine
// kernels reproduce bit-for-bit (tests/test_engine_multi.cpp).
class NetworkMultiOps {
 public:
  explicit NetworkMultiOps(Network& net) : net_(net) {}

  void begin(std::span<const Key> keys, std::size_t lanes) {
    n_ = net_.size();
    q_ = lanes;
    bits_ = key_bits(n_);
    state_.assign(lanes, std::vector<Key>(keys.begin(), keys.end()));
    snapshot_.resize(lanes);
    first_.resize(n_);
  }

  void two_iteration(std::span<const MultiLaneStep> steps) {
    snapshot_ = state_;
    std::uint64_t active = 0;
    for (const MultiLaneStep& st : steps) active += st.active ? 1 : 0;

    // Round A: one shared first sample per node, carrying the active lanes
    // in one message.
    net_.begin_round();
    for (std::uint32_t v = 0; v < n_; ++v) {
      SplitMix64 stream = net_.node_stream(v);
      first_[v] = net_.sample_peer(v, stream);
      net_.record_message(active * bits_);
    }

    // Round B: per-lane delta coins in lane order (delta >= 1.0 consumes
    // no draw, as in core/two_tournament.cpp), then — if any lane
    // tournaments — one shared second sample carrying those lanes.
    net_.begin_round();
    for (std::uint32_t v = 0; v < n_; ++v) {
      SplitMix64 stream = net_.node_stream(v);
      std::uint64_t mask = 0;
      for (std::size_t l = 0; l < q_; ++l) {
        if (!steps[l].active) continue;
        const bool tournament = steps[l].delta >= 1.0 ||
                                rand_bernoulli(stream, steps[l].delta);
        if (tournament) mask |= std::uint64_t{1} << l;
      }
      const auto t = static_cast<std::uint32_t>(std::popcount(mask));
      std::uint32_t second = 0;
      if (t > 0) {
        second = net_.sample_peer(v, stream);
        net_.record_message(t * bits_);
      }
      for (std::size_t l = 0; l < q_; ++l) {
        if (!steps[l].active) continue;  // finished lane keeps its value
        const Key& a = snapshot_[l][first_[v]];
        if ((mask >> l) & 1) {
          const Key& b = snapshot_[l][second];
          state_[l][v] =
              steps[l].suppress_high ? std::min(a, b) : std::max(a, b);
        } else {
          state_[l][v] = a;
        }
      }
    }
  }

  void three_iteration() {
    snapshot_ = state_;
    picks_.resize(n_);
    // Three shared pulls = three rounds, all reading the iteration-start
    // snapshot; each message carries the full q-lane vector.
    for (int pull = 0; pull < 3; ++pull) {
      net_.begin_round();
      for (std::uint32_t v = 0; v < n_; ++v) {
        SplitMix64 stream = net_.node_stream(v);
        picks_[v][static_cast<std::size_t>(pull)] =
            net_.sample_peer(v, stream);
        net_.record_message(q_ * bits_);
      }
    }
    for (std::uint32_t v = 0; v < n_; ++v) {
      for (std::size_t l = 0; l < q_; ++l) {
        state_[l][v] = robust_detail::median3(snapshot_[l][picks_[v][0]],
                                              snapshot_[l][picks_[v][1]],
                                              snapshot_[l][picks_[v][2]]);
      }
    }
  }

  void final_sample(std::uint32_t k_samples,
                    std::vector<std::vector<Key>>& outputs) {
    // K rounds of one shared draw per node; the state is immutable here,
    // so the per-lane medians fold from the recorded picks afterwards.
    std::vector<std::uint32_t> picks(static_cast<std::size_t>(n_) *
                                     k_samples);
    for (std::uint32_t j = 0; j < k_samples; ++j) {
      net_.begin_round();
      for (std::uint32_t v = 0; v < n_; ++v) {
        SplitMix64 stream = net_.node_stream(v);
        picks[static_cast<std::size_t>(v) * k_samples + j] =
            net_.sample_peer(v, stream);
        net_.record_message(q_ * bits_);
      }
    }
    outputs.assign(q_, std::vector<Key>(n_));
    std::vector<Key> samp(k_samples);
    for (std::uint32_t v = 0; v < n_; ++v) {
      const std::uint32_t* const row =
          picks.data() + static_cast<std::size_t>(v) * k_samples;
      for (std::size_t l = 0; l < q_; ++l) {
        for (std::uint32_t j = 0; j < k_samples; ++j) {
          samp[j] = state_[l][row[j]];
        }
        const auto mid = samp.begin() + samp.size() / 2;
        std::nth_element(samp.begin(), mid, samp.end());
        outputs[l][v] = *mid;
      }
    }
  }

 private:
  Network& net_;
  std::uint32_t n_ = 0;
  std::size_t q_ = 0;
  std::uint64_t bits_ = 0;
  std::vector<std::vector<Key>> state_, snapshot_;  // [lane][node]
  std::vector<std::uint32_t> first_;
  std::vector<std::array<std::uint32_t, 3>> picks_;
};

}  // namespace

multi_detail::SharedRun multi_detail::shared_tournament(
    Network& net, std::span<const Key> keys,
    std::span<const MultiLaneSpec> lanes, double phase2_eps,
    std::uint32_t final_sample_size) {
  NetworkMultiOps ops(net);
  return run_shared_schedule<MultiPhaseSpans>(ops, keys, lanes, phase2_eps,
                                              final_sample_size);
}

}  // namespace gq
