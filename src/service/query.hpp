// Request/reply types of the streaming quantile service.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/key.hpp"

namespace gq {

enum class QueryKind {
  kQuantile,       // phi-quantile via the approximate tournament pipeline
  kExactQuantile,  // phi-quantile via Algorithm 3 (exact over the instance)
  kRank,           // #{instance keys <= value} via exact gossip counting
  kCdf,            // kRank for a batch of points, three per diffusion
  kMultiQuantile,  // all phi targets in ONE shared tournament schedule
};

// How a reply was produced.  kFull answers ran a gossip pipeline to
// completion; kDegraded answers come from the sealed epoch's centrally
// merged summary sketch after the supervisor exhausted its attempt budget
// (or while the query kind's circuit breaker is open) — see
// quantile_service.hpp "Resilience".  A degraded reply is approximate
// (error_bound says by how much, in rank space) but never an exception.
enum class AnswerQuality : std::uint8_t {
  kFull,
  kDegraded,
};

struct QueryRequest {
  QueryKind kind = QueryKind::kQuantile;

  double phi = 0.5;  // quantile queries

  double value = 0.0;              // kRank: the probe point
  std::vector<double> cdf_points;  // kCdf: the probe points
  std::vector<double> phis;        // kMultiQuantile: targets in [0,1]

  // Per-request overrides of the service-config pipeline defaults;
  // 0 keeps the default.  Any other eps must lie in (0, 1/2).  Requests
  // outside these ranges throw std::invalid_argument before any attempt.
  double eps = 0.0;

  // Engine stream seed for this query.  0 (default) auto-derives a fresh
  // seed from (service seed, query sequence number) — every query consumes
  // an independent stream.  Non-zero pins the stream explicitly: two
  // services in the same epoch state answer a pinned-seed query
  // bit-identically regardless of their query histories (deterministic
  // replay; the churn tests lean on this).
  std::uint64_t seed = 0;
};

struct QueryReply {
  QueryKind kind = QueryKind::kQuantile;
  double phi = 0.0;

  // Quantile queries: the answer key node 0 settles on (kQuantile) or THE
  // instance quantile (kExactQuantile); `value` is answer.value.
  Key answer{};
  double value = 0.0;

  // Rank queries: exact count of instance keys <= the probe, and the
  // fraction count / nodes.  kCdf fills the vectors, one entry per probe.
  std::uint64_t count = 0;
  double fraction = 0.0;
  std::vector<std::uint64_t> cdf_counts;
  std::vector<double> cdf;

  // kMultiQuantile: one answer per request phi (duplicated targets share
  // one gossip lane but still get their own reply slot); `multi_values`
  // mirrors multi_answers[i].value.
  std::vector<Key> multi_answers;
  std::vector<double> multi_values;

  std::uint64_t epoch = 0;   // sealed epoch this query observed
  std::uint64_t seed = 0;    // engine stream seed the query ran under
  std::uint64_t rounds = 0;  // gossip rounds this query consumed
  std::uint32_t nodes = 0;   // contributing nodes (instance size m)
  std::uint32_t served = 0;  // nodes holding a valid output (== nodes when
                             // failure-free)
  bool used_exact_fallback = false;  // approx ran the exact bootstrap route

  // Resilience annotations (see quantile_service.hpp "Resilience").
  // `attempts` counts supervised pipeline attempts consumed (0 when the
  // breaker short-circuited the query straight to the degraded path).  For
  // kDegraded replies `seed` is the query's base seed (no attempt ran to
  // completion) and `error_bound` is the summary sketch's additive rank
  // error as a fraction of the instance — the answer is a phi' quantile for
  // some |phi' - phi| <= error_bound.  kFull replies have error_bound 0.
  AnswerQuality quality = AnswerQuality::kFull;
  double error_bound = 0.0;
  std::uint32_t attempts = 1;

  // FNV-1a over the per-node outputs and valid mask: a compact fingerprint
  // of the full transcript, so tests can pin warm-session replies
  // bit-identical to cold one-shot pipeline runs without shipping the
  // output vectors through the reply.
  std::uint64_t transcript_hash = 0;
};

// The reply fingerprints, shared with the tests' cold-run comparators:
// per-node outputs + valid mask for quantile queries, the per-probe exact
// counts for rank/CDF queries.
[[nodiscard]] std::uint64_t transcript_hash(std::span<const Key> outputs,
                                            const std::vector<bool>& valid);
[[nodiscard]] std::uint64_t transcript_hash_counts(
    std::span<const std::uint64_t> counts);

}  // namespace gq
