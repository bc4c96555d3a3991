// Direct layer probes: each layer's public functions called on a
// workload's keys and timed from outside.  They run only in the traced run
// and report per-layer figures; answers are still checked.
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/kernels.hpp"
#include "engine/pipelines.hpp"
#include "sim/key_intern.hpp"
#include "sketch/kll.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr double kProbeMu = 0.3;  // the faulted workload's loss rate
// 2-TOURNAMENT runs no iteration at phi = 1/2; probe a tail target.
constexpr double kProbePhi = 0.99;
constexpr std::size_t kSketchK = 64;
constexpr std::size_t kMergeParts = 16;

// Times fn twice on fresh copies of its input and keeps the second run, so
// the pooled buffers' first touch stays out of the figure.
template <typename Fn>
double warm_time(Fn&& fn) {
  fn();
  return timed(fn);
}

void probe_intern(std::span<const gq::Key> keys, Record& rec) {
  gq::KeyInterner interner;
  std::vector<std::uint32_t> ranks(keys.size());
  rec.stat("sim.intern_s", warm_time([&] { interner.intern(keys, ranks); }));
}

void probe_tournaments(std::span<const gq::Key> keys, std::uint64_t seed,
                       Record& rec) {
  const auto n = static_cast<std::uint32_t>(keys.size());
  gq::Engine engine(n, seed, gq::FailureModel{}, engine_config(kThreads));
  std::vector<gq::Key> state;
  gq::TwoTournamentOutcome two;
  rec.stat("engine.two_tournament_s", warm_time([&] {
             state.assign(keys.begin(), keys.end());
             two = gq::two_tournament(engine, state, kProbePhi, 0.1);
           }));
  gq::ThreeTournamentOutcome three;
  rec.stat("engine.three_tournament_s", warm_time([&] {
             state.assign(keys.begin(), keys.end());
             three = gq::three_tournament(engine, state, 0.1);
           }));
  // Bytes the peer gathers touch: one state entry per sample pulled —
  // 2 per node per 2-TOURNAMENT iteration, 3 per 3-TOURNAMENT iteration —
  // a 4-byte rank lane at or above the intern threshold, else a Key.
  const double entry = n >= engine.intern_min_nodes()
                           ? sizeof(std::uint32_t)
                           : sizeof(gq::Key);
  rec.stat("engine.tournament_bytes_gathered",
           static_cast<double>(2 * two.iterations + 3 * three.iterations) *
               static_cast<double>(n) * entry);
}

void probe_robust(std::span<const gq::Key> keys, std::uint64_t seed,
                  Record& rec) {
  const auto n = static_cast<std::uint32_t>(keys.size());
  gq::Engine engine(n, seed, gq::FailureModel::uniform(kProbeMu),
                    engine_config(kThreads));
  std::vector<gq::Key> state;
  std::vector<bool> good;
  rec.stat("engine.robust_two_tournament_s", warm_time([&] {
             state.assign(keys.begin(), keys.end());
             good.assign(n, true);
             (void)gq::robust_two_tournament(engine, state, good, kProbePhi,
                                             0.1);
           }));
  gq::RobustThreeTournamentOutcome three;
  rec.stat("engine.robust_three_tournament_s", warm_time([&] {
             state.assign(keys.begin(), keys.end());
             good.assign(n, true);
             three = gq::robust_three_tournament(engine, state, good, 0.1);
           }));
  std::vector<gq::Key> outputs;
  std::vector<bool> valid;
  rec.stat("engine.robust_coverage_s", warm_time([&] {
             outputs = three.outputs;
             valid = three.valid;
             (void)gq::robust_coverage(engine, outputs, valid, 12);
           }));
}

void probe_agg(std::span<const gq::Key> keys, std::uint64_t seed,
               const Oracle& oracle, Record& rec, Tally& tally) {
  const auto n = static_cast<std::uint32_t>(keys.size());
  gq::Engine engine(n, seed, gq::FailureModel{}, engine_config(kThreads));
  const double probes[3] = {oracle.kth(n / 4), oracle.kth(n / 2),
                            oracle.kth(3 * (n / 4))};
  std::vector<bool> ind[3];
  for (int i = 0; i < 3; ++i) {
    ind[i].resize(n);
    for (std::uint32_t v = 0; v < n; ++v) ind[i][v] = keys[v].value <= probes[i];
  }
  gq::TripleCountResult count;
  rec.stat("agg.count3_s", warm_time([&] {
             count = gq::gossip_count3(engine, ind[0], ind[1], ind[2]);
           }));
  rec.stat("agg.count3_rounds", static_cast<double>(count.rounds));
  tally.check(count.a.front() == oracle.count_le(probes[0]) &&
                  count.b.front() == oracle.count_le(probes[1]) &&
                  count.c.front() == oracle.count_le(probes[2]),
              "gossip_count3 disagrees with the oracle");

  gq::SpreadResult lo, hi;
  rec.stat("agg.spread_s", warm_time([&] {
             lo = gq::spread_min(engine, keys);
             hi = gq::spread_max(engine, keys);
           }));
  rec.stat("agg.spread_rounds", static_cast<double>(lo.rounds + hi.rounds));
  tally.check(lo.converged && hi.converged &&
                  lo.values.front().value == oracle.kth(1) &&
                  hi.values.front().value == oracle.kth(n),
              "spread_min/spread_max did not converge on the extremes");
}

void probe_sketch(std::span<const gq::Key> keys, std::uint64_t seed,
                  const Oracle& oracle, Record& rec, Tally& tally) {
  gq::KllSketch whole(kSketchK, seed);
  const double update_s = timed([&] {
    for (const gq::Key& k : keys) whole.insert(k);
  });
  rec.stat("sketch.update_ns",
           update_s * 1e9 / static_cast<double>(keys.size()));

  std::vector<gq::KllSketch> parts;
  const std::size_t per = (keys.size() + kMergeParts - 1) / kMergeParts;
  for (std::size_t p = 0; p < kMergeParts; ++p) {
    parts.emplace_back(kSketchK, seed + 1 + p);
    for (std::size_t i = p * per; i < std::min(keys.size(), (p + 1) * per); ++i) {
      parts.back().insert(keys[i]);
    }
  }
  gq::KllSketch merged(kSketchK, seed);
  rec.stat("sketch.merge_s", timed([&] {
             for (const gq::KllSketch& part : parts) merged.merge(part);
           }));
  const double median = merged.quantile(0.5).value;
  const double err = oracle.rank_error(median, 0.5);
  tally.check(merged.count() == keys.size() &&
                  err <= merged.rank_error_bound() + 1.0 / oracle.size(),
              "merged KLL median off by " + std::to_string(err));
}

}  // namespace

void probe_layers(std::span<const gq::Key> keys, std::uint64_t seed,
                  Record& rec, Tally& tally) {
  std::vector<double> values(keys.size());
  for (std::size_t v = 0; v < keys.size(); ++v) values[v] = keys[v].value;
  const Oracle oracle(std::move(values));
  probe_intern(keys, rec);
  probe_tournaments(keys, seed, rec);
  probe_robust(keys, seed, rec);
  probe_agg(keys, seed, oracle, rec, tally);
  probe_sketch(keys, seed, oracle, rec, tally);
}

void Workload::write_path(Record& rec) {
  // Each sample covers at least kWriteValues values, the inputs cycled,
  // so that it lasts long enough to time on a shared machine.
  constexpr std::size_t kWriteValues = std::size_t{1} << 20;
  const std::vector<gq::Key> keys = probe_keys();
  const std::size_t reps = (kWriteValues + keys.size() - 1) / keys.size();
  gq::KllSketch summary(kSketchK, 1);
  rec.add_ingest(reps * keys.size(), timed([&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (const gq::Key& k : keys) summary.insert(k);
    }
  }));
  gq::KeyInterner interner;
  std::vector<std::uint32_t> ranks(keys.size());
  const double intern_s = timed([&] {
    for (std::size_t r = 0; r < reps; ++r) interner.intern(keys, ranks);
  });
  rec.seal_ms.add(intern_s / static_cast<double>(reps) * 1e3);
}

}  // namespace perfbench
