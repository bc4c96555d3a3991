// E6 — Corollary 1.5: every node learns its own quantile up to +-eps.
// The paper's bound is (1/eps) * O(log log n + log 1/eps) rounds; the
// library asks for all grid targets as one shared-schedule multi_quantile
// batch, so the rounds column stays near one run's while messages carry
// one key per grid target.
#include <cmath>
#include <cstdio>

#include "analysis/rank_stats.hpp"
#include "bench_common.hpp"
#include "core/own_rank.hpp"
#include "util/stats.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

void run() {
  bench::print_header(
      "E6", "own-rank estimation at every node",
      "Corollary 1.5: additive-eps own-quantile for all nodes in "
      "(1/eps) O(log log n + log 1/eps) rounds");
  constexpr std::uint32_t kN = 1 << 14;
  const std::size_t trials = bench::scaled_trials(3);

  bench::Table table({"eps", "grid targets", "rounds", "rounds/target",
                      "success", "mean |err|", "max |err|"});
  for (const double eps : {0.48, 0.4, 0.32}) {
    RunningStats rounds, success, mean_err, max_err;
    std::size_t runs = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto values =
          generate_values(Distribution::kGaussian, kN, 60 + t);
      const auto keys = make_keys(values);
      const RankScale scale(keys);
      Network net(kN, 5100 + 19 * t);
      OwnRankParams params;
      params.eps = eps;
      const auto r = own_rank(net, values, params);
      runs = r.quantile_runs;
      rounds.add(static_cast<double>(r.rounds));
      std::size_t ok = 0;
      double me = 0.0, xe = 0.0;
      for (std::uint32_t v = 0; v < kN; ++v) {
        const double err =
            std::abs(r.estimates[v] - scale.quantile_of(keys[v]));
        ok += err <= eps ? 1 : 0;
        me += err;
        xe = std::max(xe, err);
      }
      success.add(static_cast<double>(ok) / kN);
      mean_err.add(me / kN);
      max_err.add(xe);
    }
    table.add_row({bench::fmt(eps, 2), bench::fmt_u(runs),
                   bench::fmt(rounds.mean(), 0),
                   bench::fmt(rounds.mean() / static_cast<double>(runs), 1),
                   bench::fmt_pct(success.mean()),
                   bench::fmt(mean_err.mean(), 4),
                   bench::fmt(max_err.mean(), 4)});
  }
  table.print();
  std::printf(
      "Shape check: rounds scale linearly with the number of grid runs "
      "(~2/eps), each run costing\nO(log log n + log 1/eps) rounds — the "
      "Corollary 1.5 structure.\n\n");
}

}  // namespace
}  // namespace gq

int main() {
  gq::run();
  return gq::bench::exit_status();
}
