// Result structs and typed errors for the quantile protocols.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/key.hpp"
#include "sim/metrics.hpp"

namespace gq {

// A run of the exact pipeline (Algorithm 3) aborted: under heavy faults a
// step misses its w.h.p. guarantee — a spread never reaches eclipsed
// nodes, a count is wrong so bracketing empties, the endgame stalls, or the
// final verification disagrees — and the analysis no longer applies.  This
// is thrown instead of returning a wrong answer.
//
// The error is *recoverable*: the executor (Network or Engine) remains
// fully usable — rounds already consumed stay billed in Metrics, and the
// caller can rerun with a fresh seed, a larger n, or a lighter failure
// model.  Both executors share one copy of the pipeline control flow
// (core/exact_pipeline.hpp), so for the same (input, seed, failure model)
// they throw the same kind at the same point; tests/test_engine_robust.cpp
// pins that.  Derives from std::runtime_error so pre-existing catch sites
// keep working.
class ExactPipelineError : public std::runtime_error {
 public:
  enum class Kind {
    // The selection endgame drew no pivot: the pivot spread did not
    // converge (e.g. eclipsed nodes never pull), or no candidate won any of
    // max_endgame_phases priority draws.
    kEndgameNoPivot,
    // The selection endgame exhausted max_endgame_phases without landing
    // on rank k.
    kEndgameStalled,
    // Bracketing discarded every candidate (rank counts inconsistent).
    kBracketingEmptied,
    // The final answer's measured rank disagreed with the target on every
    // verification attempt.
    kVerificationFailed,
    // Step 7's token split-and-distribute hit its round cap (e.g. an
    // eclipsed node holds a token it can never split or scatter).
    kTokenSplitStalled,
  };

  // Structured context captured at the throw site, so supervisor RunReports
  // and logs can say *which* run aborted *where* without parsing what().
  // Both executors fill it from the shared control flow, so the context —
  // like the kind — is part of the bit-identical differential contract.
  struct Context {
    std::uint64_t seed = 0;   // executor master seed of the aborted run
    std::uint64_t round = 0;  // round counter when the abort fired
    std::uint32_t n = 0;      // network size
    const char* phase = "";   // static phase label, e.g. "selection_endgame"

    // Labels compare by text: the two executors' pipelines are instantiated
    // in different translation units, and nothing makes the linker merge
    // their copies of one literal.
    friend bool operator==(const Context& a, const Context& b) {
      return a.seed == b.seed && a.round == b.round && a.n == b.n &&
             std::string_view(a.phase) == std::string_view(b.phase);
    }
  };

  ExactPipelineError(Kind kind, const char* what, const Context& context)
      : std::runtime_error(format(kind, what, context)),
        kind_(kind),
        context_(context) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const Context& context() const noexcept { return context_; }

 private:
  static const char* kind_name(Kind kind) noexcept {
    switch (kind) {
      case Kind::kEndgameNoPivot: return "endgame-no-pivot";
      case Kind::kEndgameStalled: return "endgame-stalled";
      case Kind::kBracketingEmptied: return "bracketing-emptied";
      case Kind::kVerificationFailed: return "verification-failed";
      case Kind::kTokenSplitStalled: return "token-split-stalled";
    }
    return "unknown";
  }

  static std::string format(Kind kind, const char* what,
                            const Context& context) {
    std::string s = "exact pipeline abort [";
    s += kind_name(kind);
    s += "] phase=";
    s += context.phase;
    s += " round=" + std::to_string(context.round);
    s += " n=" + std::to_string(context.n);
    s += " seed=" + std::to_string(context.seed);
    s += ": ";
    s += what;
    return s;
  }

  Kind kind_;
  Context context_;
};

struct ApproxQuantileResult {
  // outputs[v]: the key node v settles on.  Under the failure model a node
  // can end the protocol without an answer; valid[v] marks served nodes
  // (always all-true in the failure-free model).
  std::vector<Key> outputs;
  std::vector<bool> valid;

  std::size_t phase1_iterations = 0;  // 2-TOURNAMENT iterations executed
  std::size_t phase2_iterations = 0;  // 3-TOURNAMENT iterations executed
  std::uint64_t rounds = 0;           // total gossip rounds consumed
  bool used_exact_fallback = false;   // eps below floor: exact pipeline ran

  [[nodiscard]] std::size_t served_nodes() const {
    std::size_t c = 0;
    for (bool b : valid) c += b ? 1 : 0;
    return c;
  }
};

struct ExactQuantileResult {
  Key answer;                 // the exact phi-quantile of the input
  std::vector<Key> outputs;   // per-node copy of the answer
  std::vector<bool> valid;    // nodes that learned the answer
  std::uint64_t rounds = 0;   // total gossip rounds consumed
  std::size_t iterations = 0; // bracketing iterations executed
  std::size_t endgame_phases = 0;  // selection phases after bracketing
};

struct OwnRankResult {
  // estimates[v]: node v's estimate of its own quantile rank(x_v)/n.
  std::vector<double> estimates;
  std::vector<bool> valid;
  std::uint64_t rounds = 0;
  std::size_t quantile_runs = 0;  // grid targets (one multi_quantile batch)
};

}  // namespace gq
