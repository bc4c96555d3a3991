// Rumor-spreading primitives: max/min broadcast over uniform gossip.
//
// Each round every node pulls from a uniformly random other node and keeps
// the "better" of the two payloads.  A single extreme value reaches all
// nodes in O(log n) rounds w.h.p. [FG85, Pit87]; under the Section-5 failure
// model the same bound holds with a 1/(1-mu) slowdown [ES09].
//
// Termination: the simulator stops as soon as all nodes agree (an omniscient
// check) and additionally enforces a cap.  A deployed system would stop
// after a fixed c*log n schedule or when a node's value is stable for a
// constant number of rounds; the round counts reported here are the honest
// cost of the process itself.
//
// Several extremes can share one diffusion (spread_min_max): one peer draw
// per node per round serves every component, and a message carries only
// the components that have not yet reached every node.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/key.hpp"
#include "sim/network.hpp"
#include "sim/round_core.hpp"
#include "util/require.hpp"

namespace gq {

// Default cap on spreading rounds: generous multiple of log2 n, scaled for
// failures.  The pure schedule both executors' spread kernels derive from
// (ex.size(), ex.failures()).
[[nodiscard]] std::uint64_t spread_rounds_cap(std::uint32_t n,
                                              const FailureModel& failures);

template <typename T>
struct GenericSpreadResult {
  std::vector<T> values;     // per-node final payload
  std::uint64_t rounds = 0;  // rounds this component was still spreading
  bool converged = false;    // all nodes hold the global best payload
};

// The spread kernel, one per executor.  C payload components (C = 1 or 2)
// ride one diffusion: each round every node pulls one uniform peer and
// keeps, per component c, the better of the two payloads under the strict
// weak order less[c], so every node converges to the component's maximum
// element w.h.p.  A component is live until every node holds its global
// best (the omniscient stop rule above).  A round's message carries the
// live components only and is billed (#live) x bits_per_component; a
// component's `rounds` counts the rounds it was live, and the diffusion
// stops when no component is live or after max_rounds.  C = 1 is the
// classic single-payload spread.  This is the sequential reference; the
// Engine's batched overload (engine/pipelines.hpp) is bit-identical.
template <typename T, typename Less, std::size_t C>
std::array<GenericSpreadResult<T>, C> spread_best(
    Network& net, const std::array<std::span<const T>, C>& init,
    const std::array<Less, C>& less, std::uint64_t bits_per_component,
    std::uint64_t max_rounds = 0) {
  const std::uint32_t n = net.size();
  for (const std::span<const T> component : init) {
    GQ_REQUIRE(component.size() == n, "one payload per node required");
  }
  if (max_rounds == 0) max_rounds = spread_rounds_cap(n, net.failures());

  std::array<std::vector<T>, C> cur;
  std::array<T, C> target;
  for (std::size_t c = 0; c < C; ++c) {
    cur[c].assign(init[c].begin(), init[c].end());
    target[c] = *std::max_element(cur[c].begin(), cur[c].end(), less[c]);
  }
  const auto all_done = [&](std::size_t c) {
    return std::all_of(cur[c].begin(), cur[c].end(), [&](const T& k) {
      return !less[c](k, target[c]) && !less[c](target[c], k);
    });
  };

  std::array<GenericSpreadResult<T>, C> out;
  std::vector<T> next(n);
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    std::uint64_t live = 0;
    for (std::size_t c = 0; c < C; ++c) {
      if (!out[c].converged) out[c].converged = all_done(c);
      if (!out[c].converged) ++live;
    }
    if (live == 0) break;
    const std::vector<std::uint32_t> peers =
        net.pull_round(live * bits_per_component);
    for (std::size_t c = 0; c < C; ++c) {
      // A converged component holds equivalent payloads everywhere, so
      // the strict order would keep every node's payload anyway.
      if (out[c].converged) continue;
      ++out[c].rounds;
      for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t p = peers[v];
        next[v] = (p != Network::kNoPeer && less[c](cur[c][v], cur[c][p]))
                      ? cur[c][p]
                      : cur[c][v];
      }
      cur[c].swap(next);
    }
  }
  for (std::size_t c = 0; c < C; ++c) {
    if (!out[c].converged) out[c].converged = all_done(c);
    out[c].values = std::move(cur[c]);
  }
  return out;
}

// The one-component spread, on either executor's kernel.
template <std::derived_from<RoundCore> Ex, typename T, typename Less>
[[nodiscard]] GenericSpreadResult<T> spread_best(
    Ex& ex, std::span<const T> init, Less less,
    std::uint64_t bits_per_message, std::uint64_t max_rounds = 0) {
  return std::move(spread_best(ex, std::array<std::span<const T>, 1>{init},
                               std::array<Less, 1>{less}, bits_per_message,
                               max_rounds)[0]);
}

using SpreadResult = GenericSpreadResult<Key>;

// The order a Key spread climbs: toward the maximum key, or toward the
// minimum.  One comparator type for both directions lets a min and a max
// share one diffusion.
struct KeySpreadOrder {
  bool toward_min = false;
  bool operator()(const Key& a, const Key& b) const {
    return toward_min ? b < a : a < b;
  }
};

// Max-spreading: every node ends up with max(init) w.h.p.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] SpreadResult spread_max(Ex& ex, std::span<const Key> init,
                                      std::uint64_t max_rounds = 0) {
  return spread_best(ex, init, KeySpreadOrder{false}, key_bits(ex.size()),
                     max_rounds);
}

// Min-spreading: every node ends up with min(init) w.h.p.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] SpreadResult spread_min(Ex& ex, std::span<const Key> init,
                                      std::uint64_t max_rounds = 0) {
  return spread_best(ex, init, KeySpreadOrder{true}, key_bits(ex.size()),
                     max_rounds);
}

// spread_min(lo_init) and spread_max(hi_init) in ONE diffusion: element 0
// holds the min, element 1 the max.  Rounds are the larger of the two
// components' rounds; each message bills key_bits(n) per live component.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] std::array<SpreadResult, 2> spread_min_max(
    Ex& ex, std::span<const Key> lo_init, std::span<const Key> hi_init,
    std::uint64_t max_rounds = 0) {
  return spread_best(ex, std::array<std::span<const Key>, 2>{lo_init, hi_init},
                     std::array<KeySpreadOrder, 2>{KeySpreadOrder{true},
                                                   KeySpreadOrder{false}},
                     key_bits(ex.size()), max_rounds);
}

}  // namespace gq
