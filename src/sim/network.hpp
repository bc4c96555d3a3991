// The uniform gossip network simulator: the sequential reference executor.
//
// Network runs the synchronous round model of sim/round_core.hpp one node
// after another.  It is the reference oracle every other executor is
// differentially pinned against (the parallel Engine, engine/engine.hpp,
// shares the same RoundCore).  Messages are O(log n) bits; the simulator
// accounts sizes instead of serializing bytes.
//
// Protocols drive the network through two levels of API:
//   * whole-round helpers (pull_round, push_round) covering the common
//     "every node contacts one random peer" pattern, and
//   * the RoundCore primitives (begin_round / node_stream / sample_peer /
//     node_fails / record_messages) for protocols with richer per-round
//     behaviour such as the token-splitting step of the exact algorithm.
//
// parallel_shards gives executor-generic pipelines the Engine's node-range
// entry point with one shard covering every node.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/failure_model.hpp"
#include "sim/metrics.hpp"
#include "sim/round_core.hpp"

namespace gq {

class Network : public RoundCore {
 public:
  Network(std::uint32_t n, std::uint64_t seed,
          FailureModel failures = FailureModel{})
      : RoundCore(n, seed, std::move(failures)) {}

  // Traffic accounting for the current round.  Bulk form is O(#distinct
  // message sizes), not O(count).
  void record_messages(std::uint64_t count, std::uint64_t bits_each) {
    metrics_.record_messages(count, bits_each);
  }
  void record_message(std::uint64_t bits) { metrics_.record_message(bits); }
  void record_failed_operation() noexcept { ++metrics_.failed_operations; }

  // The sequential form of Engine::parallel_shards: one shard [0, n) with
  // one local Metrics accumulator, folded into the run accounting after fn
  // returns.  fn(begin, end, local) must account traffic only through
  // `local`, exactly as on the Engine.
  template <typename Fn>
  void parallel_shards(Fn&& fn) {
    Metrics local;
    fn(std::uint32_t{0}, n_, local);
    metrics_.merge(local);
  }

  // ---- whole-round helpers ---------------------------------------------

  // One synchronous round in which every node attempts a single pull of a
  // `bits_per_message`-bit message.  out[v] is the contacted peer, or
  // kNoPeer if v's operation failed.
  [[nodiscard]] std::vector<std::uint32_t> pull_round(
      std::uint64_t bits_per_message);

  // One synchronous round in which every node attempts a single push.
  // out[v] is the destination chosen by v, or kNoPeer on failure.  (The
  // mechanics are identical to pull_round; the distinction is which side
  // supplies the message, which matters to the protocol, not the sampler.)
  [[nodiscard]] std::vector<std::uint32_t> push_round(
      std::uint64_t bits_per_message) {
    return pull_round(bits_per_message);
  }
};

}  // namespace gq
