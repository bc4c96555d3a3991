// The uniform gossip network simulator.
//
// Model (Section 1 of the paper): computation proceeds in synchronized
// rounds.  In each round every node performs one push (deliver a message to
// a uniformly random other node) or one pull (receive a message from a
// uniformly random other node).  Messages are O(log n) bits; the simulator
// accounts sizes instead of serializing bytes.  Under the Section-5 failure
// model, node v's operation in round i is lost with probability p_{v,i}.
//
// Determinism: all randomness of node v in round r is a pure function of
// (master seed, r, v).  Two runs with the same seed produce identical
// transcripts, and a node's draws do not depend on the order in which other
// nodes are processed.
//
// Protocols drive the network through two levels of API:
//   * whole-round helpers (pull_round, push_round) covering the common
//     "every node contacts one random peer" pattern, and
//   * low-level primitives (begin_round / node_stream / sample_peer /
//     node_fails / record_messages) for protocols with richer per-round
//     behaviour such as the token-splitting step of the exact algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/failure_model.hpp"
#include "sim/metrics.hpp"
#include "sim/streams.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace gq {

class Network {
 public:
  // Sentinel peer index meaning "this node's operation failed this round".
  static constexpr std::uint32_t kNoPeer = 0xffffffffu;

  Network(std::uint32_t n, std::uint64_t seed,
          FailureModel failures = FailureModel{})
      : n_(n), seed_(seed), failures_(std::move(failures)) {
    GQ_REQUIRE(n >= 2, "a gossip network needs at least two nodes");
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const FailureModel& failures() const noexcept {
    return failures_;
  }

  // ---- adversarial fault injection -------------------------------------

  // Installs a message-level adversary (sim/adversary.hpp).  The strategy is
  // borrowed, not owned — it must outlive the executor — and is bound to
  // (seed, n) here.  It composes with the constructor's failure model, which
  // it never changes: oblivious loss is installed only through the
  // constructor.  Pass nullptr to uninstall.
  void set_adversary(AdversaryStrategy* adversary) {
    adversary_ = adversary;
    if (adversary_ != nullptr) adversary_->bind(seed_, n_);
  }
  [[nodiscard]] AdversaryStrategy* adversary() const noexcept {
    return adversary_;
  }

  // Rebases this executor onto a fresh randomness stream: new master seed,
  // round counter back to zero, installed adversary re-bound.  A run after
  // reset_stream(s) is transcript-identical to one on a Network constructed
  // with seed s — the supervisor's retry attempts (core/supervisor.hpp)
  // rely on this, exactly as warm service queries rely on the Engine's
  // counterpart.  Metrics keep accumulating; callers snapshot/`since` around
  // each attempt.
  void reset_stream(std::uint64_t seed) {
    seed_ = seed;
    round_ = 0;
    if (adversary_ != nullptr) adversary_->bind(seed_, n_);
  }

  // True iff no fault source is installed at all — no failure model and no
  // adversary.  The failure-free pipeline variants key off this (the
  // never_fails() of the pre-adversary era).
  [[nodiscard]] bool faultless() const noexcept {
    return failures_.never_fails() && adversary_ == nullptr;
  }

  // ---- low-level primitives --------------------------------------------

  // Starts the next synchronous round and returns its index.
  std::uint64_t begin_round() noexcept {
    ++round_;
    ++metrics_.rounds;
    return round_;
  }

  // Independent random stream for node v in the current round.  Protocols
  // must draw from it in a fixed program order to stay deterministic.
  // (Shared derivation with the parallel Engine: see sim/streams.hpp.)
  [[nodiscard]] SplitMix64 node_stream(std::uint32_t v) const noexcept {
    return streams::node_stream(seed_, round_, v);
  }

  // Samples whether node v's operation fails in the current round.  Uses a
  // dedicated stream so the failure coin does not perturb peer choices.
  // With an adversary installed, a kDrop, kDelay, or kCrash fault on v also
  // reads as a failed operation here (legacy pipelines have no payload layer
  // to corrupt or mailbox to delay into, and no lifecycle notion — a down
  // node simply loses its rounds; kCorrupt is a no-op at this level — only
  // the adversarial pipelines apply it).
  [[nodiscard]] bool node_fails(std::uint32_t v) const {
    return op_fails(v, round_);
  }

  // Explicit-round variant for fused multi-round kernels that advance the
  // round counter up front (see engine/kernels.cpp).
  [[nodiscard]] bool op_fails(std::uint32_t v, std::uint64_t round) const {
    if (streams::node_fails(seed_, round, v, failures_)) return true;
    if (adversary_ == nullptr) return false;
    const Fault f = adversary_->fault(v, round);
    return f.kind == FaultKind::kDrop || f.kind == FaultKind::kDelay ||
           f.kind == FaultKind::kCrash;
  }

  // Uniformly random node other than v, drawn from `stream`.
  [[nodiscard]] std::uint32_t sample_peer(std::uint32_t v,
                                          SplitMix64& stream) const noexcept {
    return streams::sample_peer(v, n_, stream);
  }

  // Traffic accounting for the current round.  Bulk form is O(#distinct
  // message sizes), not O(count).
  void record_messages(std::uint64_t count, std::uint64_t bits_each) {
    metrics_.record_messages(count, bits_each);
  }
  void record_message(std::uint64_t bits) { metrics_.record_message(bits); }
  void record_failed_operation() noexcept { ++metrics_.failed_operations; }

  // Folds a kernel-accumulated Metrics fragment (messages, failed
  // operations, adversary tallies — never rounds; advance those through
  // begin_round) into the run accounting.  The adversarial kernels batch
  // their per-node accounting per fused block instead of calling
  // record_message once per message.
  void merge_metrics(const Metrics& fragment) { metrics_.merge(fragment); }

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

  // Default message budget of the model: Theta(log n) bits.  Computed as
  // 2*ceil(log2 n) — one value plus one tag word.
  [[nodiscard]] std::uint64_t default_message_bits() const noexcept;

 private:
  std::uint32_t n_;
  std::uint64_t seed_;
  FailureModel failures_;
  AdversaryStrategy* adversary_ = nullptr;  // borrowed; see set_adversary
  std::uint64_t round_ = 0;
  Metrics metrics_;
};

}  // namespace gq
