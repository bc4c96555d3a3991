#include "sim/adversary.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace gq {

// ---- GreedyTargetedAdversary ----------------------------------------------

GreedyTargetedAdversary::GreedyTargetedAdversary(std::uint32_t budget,
                                                 double inject_value)
    : budget_(budget), inject_value_(inject_value) {}

void GreedyTargetedAdversary::bind(std::uint64_t seed, std::uint32_t n) {
  AdversaryStrategy::bind(seed, n);
  targets_.clear();
  // Deterministic fallback until the first observation: the lowest node ids.
  const std::uint32_t k = std::min(budget_, n);
  targets_.reserve(k);
  for (std::uint32_t v = 0; v < k; ++v) targets_.push_back(v);
}

void GreedyTargetedAdversary::observe(const RoundWindow& window) {
  const std::uint32_t n = window.n;
  const std::uint32_t k = std::min(budget_, n);
  if (k == 0 || n == 0) return;
  // Rank nodes by their current state, smallest first, ties by node id so the
  // selection is total-ordered and executor-independent.
  std::vector<std::pair<double, std::uint32_t>> order;
  order.reserve(n);
  if (!window.keys.empty()) {
    for (std::uint32_t v = 0; v < n; ++v) {
      order.emplace_back(window.keys[v].value, v);
    }
  } else {
    for (std::uint32_t v = 0; v < n; ++v) {
      order.emplace_back(window.values[v], v);
    }
  }
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end());
  targets_.clear();
  for (std::uint32_t i = 0; i < k; ++i) targets_.push_back(order[i].second);
  std::sort(targets_.begin(), targets_.end());
}

Fault GreedyTargetedAdversary::fault(std::uint32_t node,
                                     std::uint64_t /*round*/) const {
  if (std::binary_search(targets_.begin(), targets_.end(), node)) {
    return Fault{.kind = FaultKind::kCorrupt, .value = inject_value_};
  }
  return Fault{};
}

// ---- EclipseAdversary -----------------------------------------------------

EclipseAdversary::EclipseAdversary(std::uint32_t first_target,
                                   std::uint32_t budget)
    : first_target_(first_target), budget_(budget) {}

Fault EclipseAdversary::fault(std::uint32_t node,
                              std::uint64_t /*round*/) const {
  if (node >= first_target_ && node - first_target_ < budget_) {
    return Fault{.kind = FaultKind::kDrop};
  }
  return Fault{};
}

// ---- ScatterCorruptAdversary ----------------------------------------------

ScatterCorruptAdversary::ScatterCorruptAdversary(std::uint32_t budget,
                                                 double inject_value,
                                                 std::uint64_t strategy_seed)
    : budget_(budget),
      inject_value_(inject_value),
      strategy_seed_(strategy_seed) {}

Fault ScatterCorruptAdversary::fault(std::uint32_t node,
                                     std::uint64_t round) const {
  if (budget_ == 0 || n_ == 0) return Fault{};
  // Same wrapping-window scheme as BudgetBurstAdversary: a pure function of
  // (bind seed, strategy seed, round), identical on both executors.
  SplitMix64 gen(derive_seed(seed_ ^ (strategy_seed_ * 0x9e3779b97f4a7c15ULL),
                             round));
  const auto start = static_cast<std::uint32_t>(rand_index(gen, n_));
  const std::uint32_t offset = node >= start ? node - start : node + n_ - start;
  if (offset < budget_) {
    return Fault{.kind = FaultKind::kCorrupt, .value = inject_value_};
  }
  return Fault{};
}

// ---- CrashChurnAdversary --------------------------------------------------

CrashChurnAdversary::CrashChurnAdversary(Config config) : config_(config) {
  GQ_REQUIRE(config.crash_window > 0, "crash window must be positive");
}

CrashChurnAdversary::CrashChurnAdversary(std::vector<CrashEvent> schedule)
    : pinned_(true), schedule_(std::move(schedule)) {
  for (const CrashEvent& event : schedule_) {
    GQ_REQUIRE(event.crash_round < event.recover_round,
               "a crash must precede its recovery");
  }
  std::sort(schedule_.begin(), schedule_.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.node != b.node ? a.node < b.node
                                      : a.crash_round < b.crash_round;
            });
}

std::uint64_t CrashChurnAdversary::budget_per_round() const noexcept {
  return schedule_.size();
}

void CrashChurnAdversary::bind(std::uint64_t seed, std::uint32_t n) {
  AdversaryStrategy::bind(seed, n);
  if (pinned_) return;
  // Regenerate the schedule as a pure function of (seed, strategy seed, n):
  // both executors bind with the same seed and recompute the identical
  // lifecycle plan, so fault() answers match bit for bit.
  schedule_.clear();
  const std::uint32_t k = std::min(config_.crashes, n);
  if (k == 0) return;
  SplitMix64 gen(derive_seed(
      seed ^ (config_.strategy_seed * 0x9e3779b97f4a7c15ULL), 0xc7a54ULL));
  schedule_.reserve(k);
  std::vector<std::uint32_t> victims;
  victims.reserve(k);
  while (victims.size() < k) {
    const auto v = static_cast<std::uint32_t>(rand_index(gen, n));
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  for (const std::uint32_t v : victims) {
    CrashEvent event;
    event.node = v;
    event.crash_round =
        config_.first_round + rand_index(gen, config_.crash_window);
    event.recover_round = config_.down_rounds > 0
                              ? event.crash_round + config_.down_rounds
                              : kNoRecovery;
    schedule_.push_back(event);
  }
  std::sort(schedule_.begin(), schedule_.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.node != b.node ? a.node < b.node
                                      : a.crash_round < b.crash_round;
            });
}

Fault CrashChurnAdversary::fault(std::uint32_t node,
                                 std::uint64_t round) const {
  const auto first = std::lower_bound(
      schedule_.begin(), schedule_.end(), node,
      [](const CrashEvent& event, std::uint32_t v) { return event.node < v; });
  bool recovering = false;
  for (auto it = first; it != schedule_.end() && it->node == node; ++it) {
    if (round >= it->crash_round && round < it->recover_round) {
      return Fault{.kind = FaultKind::kCrash};
    }
    if (round == it->recover_round) recovering = true;
  }
  if (recovering) return Fault{.kind = FaultKind::kRecover};
  return Fault{};
}

// ---- BudgetBurstAdversary -------------------------------------------------

BudgetBurstAdversary::BudgetBurstAdversary(std::uint32_t budget,
                                           std::uint32_t period,
                                           std::uint32_t burst_rounds,
                                           std::uint32_t delay,
                                           std::uint64_t strategy_seed)
    : budget_(budget),
      period_(period),
      burst_rounds_(burst_rounds),
      delay_(delay),
      strategy_seed_(strategy_seed) {
  GQ_REQUIRE(period > 0, "burst period must be positive");
  GQ_REQUIRE(burst_rounds <= period, "burst length cannot exceed the period");
  GQ_REQUIRE(delay > 0, "a zero-round delay is not a fault");
}

Fault BudgetBurstAdversary::fault(std::uint32_t node,
                                  std::uint64_t round) const {
  if (budget_ == 0 || n_ == 0) return Fault{};
  if (round % period_ >= burst_rounds_) return Fault{};
  // Per-round pseudorandom window of `budget_` nodes (wrapping), a pure
  // function of (bind seed, strategy seed, round) — identical on both
  // executors regardless of which shard asks.
  SplitMix64 gen(derive_seed(seed_ ^ (strategy_seed_ * 0x9e3779b97f4a7c15ULL),
                             round));
  const auto start = static_cast<std::uint32_t>(rand_index(gen, n_));
  const std::uint32_t offset = node >= start ? node - start : node + n_ - start;
  if (offset < budget_) {
    return Fault{.kind = FaultKind::kDelay, .delay = delay_};
  }
  return Fault{};
}

}  // namespace gq
