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
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <span>
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
  std::uint64_t rounds = 0;  // rounds consumed
  bool converged = false;    // all nodes hold the global best payload
};

// Spreads the extreme payload under strict weak order `less`: every node
// converges to the maximum element w.h.p.  `bits_per_message` is the
// accounted size of one payload.  The spread kernel, one per executor: this
// is the sequential reference; the Engine's batched overload
// (engine/pipelines.hpp) is bit-identical.
template <typename T, typename Less>
GenericSpreadResult<T> spread_best(Network& net, std::span<const T> init,
                                   Less less, std::uint64_t bits_per_message,
                                   std::uint64_t max_rounds = 0) {
  const std::uint32_t n = net.size();
  GQ_REQUIRE(init.size() == n, "one payload per node required");
  if (max_rounds == 0) max_rounds = spread_rounds_cap(n, net.failures());

  std::vector<T> cur(init.begin(), init.end());
  const T target = *std::max_element(cur.begin(), cur.end(), less);

  GenericSpreadResult<T> out;
  std::vector<T> next(n);
  const auto all_done = [&] {
    return std::all_of(cur.begin(), cur.end(), [&](const T& k) {
      return !less(k, target) && !less(target, k);
    });
  };
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    if (all_done()) {
      out.converged = true;
      break;
    }
    const std::vector<std::uint32_t> peers = net.pull_round(bits_per_message);
    ++out.rounds;
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t p = peers[v];
      next[v] = (p != Network::kNoPeer && less(cur[v], cur[p])) ? cur[p]
                                                                : cur[v];
    }
    cur.swap(next);
  }
  if (!out.converged) out.converged = all_done();
  out.values = std::move(cur);
  return out;
}

using SpreadResult = GenericSpreadResult<Key>;

// Max-spreading: every node ends up with max(init) w.h.p.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] SpreadResult spread_max(Ex& ex, std::span<const Key> init,
                                      std::uint64_t max_rounds = 0) {
  return spread_best(ex, init, std::less<Key>{}, key_bits(ex.size()),
                     max_rounds);
}

// Min-spreading: every node ends up with min(init) w.h.p.
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] SpreadResult spread_min(Ex& ex, std::span<const Key> init,
                                      std::uint64_t max_rounds = 0) {
  return spread_best(ex, init, std::greater<Key>{}, key_bits(ex.size()),
                     max_rounds);
}

}  // namespace gq
