// The control plane of the synchronous round model, shared by both
// executors.
//
// Model (Section 1 of the paper): computation proceeds in synchronized
// rounds; in each round every node contacts one uniformly random other
// node.  Under the Section-5 failure model node v's operation in round i is
// lost with probability p_{v,i}; the adversarial follow-up (arXiv
// 2502.15320, sim/adversary.hpp) adds message faults to the same rounds.
//
// RoundCore owns everything that defines a transcript — (n, seed), the
// round counter, the run's Metrics, the failure model and the installed
// adversary — plus the primitives every protocol draws through: begin_round,
// node_stream, node_fails/op_fails and sample_peer.  The sequential Network
// (sim/network.hpp) and the parallel Engine (engine/engine.hpp) both
// inherit it, so "how a fault reads" and "how a stream is rebased" exist in
// exactly one place and the two executors cannot drift.  Executors add only
// their execution strategy on top: whole-round helpers and parallel_shards.
//
// Determinism: all randomness of node v in round r is a pure function of
// (seed, r, v) — see sim/streams.hpp.  Two runs with the same seed produce
// identical transcripts, and a node's draws do not depend on the order in
// which other nodes are processed.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/adversary.hpp"
#include "sim/failure_model.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "sim/streams.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace gq {

class RoundCore {
 public:
  // Sentinel peer index meaning "this node's operation failed this round".
  static constexpr std::uint32_t kNoPeer = 0xffffffffu;

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

  // True iff no fault source is installed at all — no failure model and no
  // adversary.  The failure-free pipeline variants key off this.
  [[nodiscard]] bool faultless() const noexcept {
    return failures_.never_fails() && adversary_ == nullptr;
  }

  // Rebases the executor onto a fresh randomness stream: new master seed,
  // round counter back to zero, installed adversary re-bound (bind may
  // allocate, hence no noexcept).  Because every draw is a pure function of
  // (seed, round, node), a run after reset_stream(s) is transcript-identical
  // to one on an executor constructed with seed s.  The supervisor's retry
  // attempts (core/supervisor.hpp) and warm service queries rely on this;
  // the Engine's thread pool and pooled scratch stay warm across it.
  // Metrics keep accumulating; callers snapshot/`since` around each run.
  void reset_stream(std::uint64_t seed) {
    seed_ = seed;
    round_ = 0;
    if (adversary_ != nullptr) adversary_->bind(seed_, n_);
  }

  // ---- per-round primitives --------------------------------------------

  // Starts the next synchronous round and returns its index.
  std::uint64_t begin_round() noexcept {
    ++round_;
    ++metrics_.rounds;
    return round_;
  }

  // Independent random stream for node v in the current round.  Protocols
  // must draw from it in a fixed program order to stay deterministic.
  [[nodiscard]] SplitMix64 node_stream(std::uint32_t v) const noexcept {
    return streams::node_stream(seed_, round_, v);
  }

  // Whether node v's operation fails in the current round.  The failure
  // coin has its own stream, so it does not perturb peer choices.
  [[nodiscard]] bool node_fails(std::uint32_t v) const {
    return op_fails(v, round_);
  }

  // Explicit-round variant for fused multi-round kernels that advance the
  // round counter up front (see engine/kernels.cpp).  With an adversary
  // installed, a kDrop, kDelay or kCrash fault on v also reads as a failed
  // operation: the legacy pipelines have no payload layer to corrupt, no
  // mailbox to delay into and no lifecycle notion — a down node simply
  // loses its rounds.  kCorrupt (and kRecover) read as success here; only
  // the adversarial pipelines apply them.  The faultless() test comes first
  // and the coin reading sits behind it in its own function, so op_fails
  // stays small enough to inline everywhere and a failure-free send loop
  // reduces to one predictable branch whatever else shares its translation
  // unit.
  [[nodiscard]] bool op_fails(std::uint32_t v, std::uint64_t round) const {
    if (faultless()) return false;
    return faulted_op_fails(v, round);
  }

  // Uniformly random node other than v, drawn from `stream`.
  [[nodiscard]] std::uint32_t sample_peer(std::uint32_t v,
                                          SplitMix64& stream) const noexcept {
    return streams::sample_peer(v, n_, stream);
  }

  // Default message budget of the model: Theta(log n) bits, computed as
  // 2*ceil(log2 n) — one value plus one tag word.
  [[nodiscard]] std::uint64_t default_message_bits() const noexcept {
    return gq::default_message_bits(n_);
  }

 protected:
  RoundCore(std::uint32_t n, std::uint64_t seed, FailureModel failures)
      : n_(n), seed_(seed), failures_(std::move(failures)) {
    GQ_REQUIRE(n >= 2, "a gossip network needs at least two nodes");
  }

  // The executors' whole-round helpers account traffic straight into the
  // run's Metrics; everything else is reached through the primitives above.
  std::uint32_t n_;
  Metrics metrics_;

 private:
  // op_fails once a fault source is installed: the failure coin, then the
  // adversary's verdict.
  [[nodiscard]] bool faulted_op_fails(std::uint32_t v,
                                      std::uint64_t round) const {
    if (streams::node_fails(seed_, round, v, failures_)) return true;
    if (adversary_ == nullptr) return false;
    const Fault f = adversary_->fault(v, round);
    return f.kind == FaultKind::kDrop || f.kind == FaultKind::kDelay ||
           f.kind == FaultKind::kCrash;
  }

  std::uint64_t seed_;
  std::uint64_t round_ = 0;
  FailureModel failures_;
  AdversaryStrategy* adversary_ = nullptr;  // borrowed; see set_adversary
};

}  // namespace gq
