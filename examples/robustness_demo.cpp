// Fault-injection demo: the same median query under the full adversary
// catalog (sim/adversary.hpp).  Part one is the classic oblivious
// message-loss sweep: each network is constructed with the FailureModel,
// which sizes the robust pipeline's fan-out (at 0% loss the query takes the
// failure-free path).  Part two turns the adaptive strategies of arXiv
// 2502.15320 loose on the filtered pipeline: accuracy and served fraction
// degrade gracefully with the budget, and the quality report says exactly
// how much traffic the adversary touched.
//
//   build/examples/robustness_demo
#include <cstdio>
#include <string>

#include "analysis/rank_stats.hpp"
#include "analysis/theory_bounds.hpp"
#include "core/adversarial.hpp"
#include "core/approx_quantile.hpp"
#include "sim/adversary.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace {

struct Scored {
  double served;
  double accurate;
  double first_output;
};

Scored score(const gq::RankScale& scale, const std::vector<gq::Key>& outputs,
             const std::vector<bool>& valid, double eps) {
  std::size_t accurate = 0, served = 0;
  for (std::size_t v = 0; v < outputs.size(); ++v) {
    if (!valid[v]) continue;
    ++served;
    accurate += scale.within_eps(outputs[v], 0.5, eps) ? 1 : 0;
  }
  const double n = static_cast<double>(outputs.size());
  return {100.0 * static_cast<double>(served) / n,
          served ? 100.0 * static_cast<double>(accurate) /
                       static_cast<double>(served)
                 : 0.0,
          outputs[0].value};
}

}  // namespace

int main() {
  constexpr std::uint32_t kNodes = 8192;
  const auto values = gq::generate_values(
      gq::Distribution::kGaussian, kNodes, /*seed=*/3);
  const gq::RankScale scale(gq::make_keys(values));

  // -- part one: oblivious loss through the network's FailureModel ---------
  std::printf("median query under oblivious message loss (n = %u, "
              "eps = 0.1)\n\n",
              kNodes);
  std::printf("%-6s | %-10s | %-8s | %-9s | %-9s | %s\n", "loss", "pulls/it",
              "rounds", "served", "accurate", "median estimate @node0");
  std::printf("-------|------------|----------|-----------|-----------|------"
              "---------------\n");

  for (const double mu : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    gq::Network net(kNodes, 77,
                    mu > 0.0 ? gq::FailureModel::uniform(mu)
                             : gq::FailureModel{});
    gq::ApproxQuantileParams params;
    params.phi = 0.5;
    params.eps = 0.1;
    params.robust_coverage_rounds = 14;
    const auto r = gq::approx_quantile(net, values, params);
    const Scored s = score(scale, r.outputs, r.valid, 0.1);
    // The robust fan-out; the failure-free path (0% loss) has none.
    const std::string pulls =
        mu > 0.0 ? std::to_string(gq::robust_pull_count(mu, 6.0)) : "-";
    std::printf("%4.0f%%  | %10s | %8llu | %8.2f%% | %8.2f%% | %.3f\n",
                100 * mu, pulls.c_str(),
                static_cast<unsigned long long>(r.rounds), s.served,
                s.accurate, s.first_output);
  }

  // -- part two: adaptive strategies vs the filtered pipeline --------------
  constexpr std::uint32_t kBudget = kNodes / 32;
  gq::GreedyTargetedAdversary greedy(kBudget, 1e9);
  gq::EclipseAdversary eclipse(0, kBudget);
  gq::BudgetBurstAdversary burst(kBudget, 8, 3);
  gq::AdversaryStrategy* strategies[] = {nullptr, &greedy, &eclipse, &burst};

  std::printf("\nadaptive adversaries vs adversarial_quantile "
              "(budget = %u = n/32, eps = 0.1)\n\n",
              kBudget);
  std::printf("%-12s | %-8s | %-3s | %-9s | %-9s | %-9s | %s\n", "strategy",
              "rounds", "ok", "served", "accurate", "exposure",
              "touched msgs");
  std::printf("-------------|----------|-----|-----------|-----------|"
              "-----------|--------------\n");
  for (gq::AdversaryStrategy* strategy : strategies) {
    gq::Network net(kNodes, 77);
    if (strategy != nullptr) net.set_adversary(strategy);
    gq::AdversarialQuantileParams params;
    params.phi = 0.5;
    params.eps = 0.1;
    const auto r = gq::adversarial_quantile(net, values, params);
    const Scored s = score(scale, r.outputs, r.valid, 0.1);
    const auto touched = r.quality.messages_dropped +
                         r.quality.messages_corrupted +
                         r.quality.messages_delayed;
    std::printf("%-12s | %8llu | %-3s | %8.2f%% | %8.2f%% | %8.2f%% | %llu\n",
                strategy ? strategy->name() : "(none)",
                static_cast<unsigned long long>(r.rounds),
                r.quality.ok() ? "yes" : "NO", s.served, s.accurate,
                100.0 * r.quality.corruption_exposure,
                static_cast<unsigned long long>(touched));
  }

  std::printf("\nTrue median: %.3f.  The filtered schedule never grows: a "
              "budget-bounded adversary moves served fraction and exposure, "
              "not rounds.\n",
              scale.exact_quantile(0.5).value);
  return 0;
}
