// Uniform pivot sampling: agree, network-wide, on one uniformly random key
// among the candidate nodes.  The standard gossip trick: every candidate
// draws a random priority and the (priority, key) pair with the maximum
// priority is spread to all nodes in O(log n) rounds.  Used by the
// selection endgame of the exact algorithm and by the KDG03 baseline.
//
// Written once over the executor: the priorities are drawn in
// ex.parallel_shards (one shard on Network) and spread with the executor's
// own spread_best kernel.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/spread.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "sim/round_core.hpp"
#include "util/require.hpp"

namespace gq {

struct PivotSample {
  Key pivot = Key::infinite();
  std::uint64_t rounds = 0;
  // False iff the winner's spread did not converge, or no candidate won a
  // priority draw within the draw budget.
  bool found = false;
};

namespace pivot_detail {

// The spread payload: priority 0 marks non-candidates; ties (never expected
// from 64-bit draws) break towards the larger key.  Shared between the
// sequential protocol and the engine kernel so both spread identical pairs.
struct PriorityKey {
  std::uint64_t priority = 0;  // 0 = not a candidate
  Key key = Key::infinite();
};

struct PriorityLess {
  bool operator()(const PriorityKey& a, const PriorityKey& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.key < b.key;
  }
};

// Message size of one (priority, key) pair.
[[nodiscard]] constexpr std::uint64_t priority_key_bits(
    std::uint32_t n) noexcept {
  return 64 + key_bits(n);
}

}  // namespace pivot_detail

// candidate[v] marks whether node v's key inst[v] competes.  A candidate
// whose operation fails in the draw round sits that draw out, which keeps
// the choice uniform over the participating candidates.  If every
// candidate sits out (likely under heavy loss when few remain), the spread
// delivers "no priority" to every node and the draw is repeated in a fresh
// round, up to `max_draws` draws in all.  A genuinely empty candidate set
// therefore costs max_draws rounds; callers pass a budget they already
// have (the exact endgame's phase cap).
template <std::derived_from<RoundCore> Ex>
[[nodiscard]] PivotSample sample_uniform_candidate(
    Ex& ex, std::span<const Key> inst, const std::vector<bool>& candidate,
    std::uint32_t max_draws = 1) {
  using pivot_detail::PriorityKey;
  const std::uint32_t n = ex.size();
  GQ_REQUIRE(inst.size() == n && candidate.size() == n,
             "one key and one candidate flag per node required");

  PivotSample out;
  // Stays all-default across redraws: a draw is repeated only when no
  // node drew a priority.
  std::vector<PriorityKey> pairs(n);
  for (std::uint32_t draw = 0; draw < max_draws; ++draw) {
    ex.begin_round();
    ex.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          for (std::uint32_t v = begin; v < end; ++v) {
            if (!candidate[v]) continue;
            if (ex.node_fails(v)) {
              ++local.failed_operations;
              continue;
            }
            SplitMix64 stream = ex.node_stream(v);
            pairs[v] = PriorityKey{stream() | 1ull, inst[v]};
          }
        });

    const GenericSpreadResult<PriorityKey> spread = spread_best(
        ex, std::span<const PriorityKey>(pairs), pivot_detail::PriorityLess{},
        pivot_detail::priority_key_bits(n));
    out.rounds += 1 + spread.rounds;
    if (!spread.converged) break;
    const PriorityKey& winner = spread.values.front();
    if (winner.priority != 0) {
      out.found = true;
      out.pivot = winner.key;
      break;
    }
  }
  return out;
}

}  // namespace gq
