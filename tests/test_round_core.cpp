// The round model's shared control plane (sim/round_core.hpp), checked as
// one contract on every executor: the sequential Network and the Engine at
// 1, 2 and 8 threads.  How a fault kind reads as a failed operation, how
// reset_stream rebases a run, and what uninstalling an adversary restores
// must be the same on all of them — the pipelines' bit-identity rests on it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/adversarial.hpp"
#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "sim/adversary.hpp"
#include "sim/failure_model.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

struct NetworkExecutor {
  static std::unique_ptr<Network> make(std::uint32_t n, std::uint64_t seed,
                                       FailureModel failures = {}) {
    return std::make_unique<Network>(n, seed, std::move(failures));
  }
};

template <unsigned Threads>
struct EngineExecutor {
  static std::unique_ptr<Engine> make(std::uint32_t n, std::uint64_t seed,
                                      FailureModel failures = {}) {
    EngineConfig config;
    config.threads = Threads;
    config.shard_size = 48;  // several shards at test n
    return std::make_unique<Engine>(n, seed, std::move(failures), config);
  }
};

// Emits every FaultKind in turn: round r carries kKinds[r % 6] on every
// node.
constexpr std::array<FaultKind, 6> kKinds = {
    FaultKind::kNone,  FaultKind::kDrop,  FaultKind::kCorrupt,
    FaultKind::kDelay, FaultKind::kCrash, FaultKind::kRecover};
// ...and whether the shared fault rule reads that kind as a failed
// operation.
constexpr std::array<bool, 6> kReadsAsFailure = {false, true,  false,
                                                 true,  true,  false};

class KindByRound final : public AdversaryStrategy {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "kind_by_round";
  }
  [[nodiscard]] std::uint64_t budget_per_round() const noexcept override {
    return n_;
  }
  [[nodiscard]] Fault fault(std::uint32_t, std::uint64_t round) const override {
    return Fault{.kind = kKinds[round % kKinds.size()], .value = 0.0};
  }
};

template <typename Factory>
class RoundCoreContract : public ::testing::Test {};

using Executors =
    ::testing::Types<NetworkExecutor, EngineExecutor<1>, EngineExecutor<2>,
                     EngineExecutor<8>>;
TYPED_TEST_SUITE(RoundCoreContract, Executors);

constexpr std::uint32_t kNodes = 200;

TYPED_TEST(RoundCoreContract, FaultKindsReadAsFailedOperationsByTheOneRule) {
  auto ex = TypeParam::make(kNodes, 5);
  KindByRound strategy;
  ex->set_adversary(&strategy);
  EXPECT_FALSE(ex->faultless());

  const std::uint64_t bits = ex->default_message_bits();
  std::uint64_t expected_failed = 0;
  for (std::uint64_t r = 1; r <= 2 * kKinds.size(); ++r) {
    const bool fails = kReadsAsFailure[r % kKinds.size()];
    // pull_round begins round r; its node loop reads node_fails(v).
    const std::vector<std::uint32_t> peers = ex->pull_round(bits);
    ASSERT_EQ(ex->round(), r);
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      EXPECT_EQ(ex->node_fails(v), fails) << "round " << r << " node " << v;
      EXPECT_EQ(ex->op_fails(v, r), fails) << "round " << r << " node " << v;
      EXPECT_EQ(peers[v] == Network::kNoPeer, fails) << "round " << r;
    }
    if (fails) expected_failed += kNodes;
  }
  EXPECT_EQ(ex->metrics().failed_operations, expected_failed);
  EXPECT_EQ(ex->metrics().rounds, 2 * kKinds.size());
  // kDrop/kDelay/kCrash rounds send nothing; the other three bill n each.
  EXPECT_EQ(ex->metrics().messages, 2 * 3 * kNodes);
}

// reset_stream(s) must leave the executor indistinguishable from a fresh
// one constructed with seed s: the same peers, the same adversary
// randomness (the installed strategy is re-bound), and the same Metrics
// for everything run afterwards.
TYPED_TEST(RoundCoreContract, ResetStreamReproducesAFreshExecutor) {
  constexpr std::uint64_t kFirstSeed = 11;
  constexpr std::uint64_t kSecondSeed = 97;
  const std::vector<Key> keys =
      make_keys(generate_values(Distribution::kUniformReal, kNodes, 3));
  AdversarialQuantileParams params;
  params.eps = 0.2;

  auto reused = TypeParam::make(kNodes, kFirstSeed);
  ScatterCorruptAdversary reused_strategy(8, 1e9, 4);
  reused->set_adversary(&reused_strategy);
  (void)reused->pull_round(reused->default_message_bits());
  (void)adversarial_quantile_keys(*reused, keys, params);
  reused->reset_stream(kSecondSeed);
  EXPECT_EQ(reused->seed(), kSecondSeed);
  EXPECT_EQ(reused->round(), 0u);
  const Metrics before = reused->metrics();

  auto fresh = TypeParam::make(kNodes, kSecondSeed);
  ScatterCorruptAdversary fresh_strategy(8, 1e9, 4);
  fresh->set_adversary(&fresh_strategy);

  for (std::uint64_t r = 1; r <= 6; ++r) {
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      EXPECT_EQ(reused_strategy.fault(v, r).kind,
                fresh_strategy.fault(v, r).kind);
    }
  }
  const std::uint64_t bits = fresh->default_message_bits();
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(reused->pull_round(bits), fresh->pull_round(bits));
  }
  const AdversarialQuantileResult a =
      adversarial_quantile_keys(*reused, keys, params);
  const AdversarialQuantileResult b =
      adversarial_quantile_keys(*fresh, keys, params);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_GT(a.quality.messages_corrupted, 0u);
  EXPECT_EQ(reused->round(), fresh->round());
  EXPECT_EQ(reused->metrics().since(before), fresh->metrics());
}

TYPED_TEST(RoundCoreContract, UninstallingTheAdversaryRestoresFaultless) {
  auto ex = TypeParam::make(kNodes, 8);
  EXPECT_TRUE(ex->faultless());
  KindByRound strategy;
  ex->set_adversary(&strategy);
  EXPECT_FALSE(ex->faultless());
  EXPECT_EQ(ex->adversary(), &strategy);
  ex->set_adversary(nullptr);
  EXPECT_TRUE(ex->faultless());
  EXPECT_EQ(ex->adversary(), nullptr);
  for (std::uint64_t r = 1; r <= kKinds.size(); ++r) {
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      EXPECT_FALSE(ex->op_fails(v, r));
    }
  }

  // The constructor's failure model is not an adversary: uninstalling one
  // leaves the model in place.
  auto lossy = TypeParam::make(kNodes, 8, FailureModel::uniform(0.2));
  lossy->set_adversary(&strategy);
  lossy->set_adversary(nullptr);
  EXPECT_FALSE(lossy->faultless());
  EXPECT_FALSE(lossy->failures().never_fails());
}

}  // namespace
}  // namespace gq
