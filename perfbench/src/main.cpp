// gqbench: the gossip-quantile benchmark.
//
//   gqbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// One run: generate the workload's inputs from the seed and build the
// systems under test (repeated kSetups times; the median is setup_s), run
// one untimed warm-up batch, then repeat the workload's fixed batch for
// --seconds.  Every answer is checked against a sorted copy of the inputs.
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones (perfbench/README.md lists both).
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace telemetry = gq::telemetry;

constexpr int kSetups = 7;
constexpr int kMinBatches = 3;
constexpr int kWritePaths = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"batch_s.p50", "s"},
    {"query_ms.p50", "ms"},
    {"query_ms.p90", "ms"},
    {"qps", "1/s"},
    {"seal_ms.p50", "ms"},
    {"rounds", "count"},
    {"messages", "count"},
    {"message_bits", "bits"},
    {"served_fraction", "fraction"},
    {"full_answer_share", "fraction"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"host.reference_ms", "ms"},
    {"ingest_mvals_per_s", "Mvals/s"},
    {"workload.generate_s", "s"},
    {"engine.construct_s", "s"},
    {"engine.node_rounds_per_s", "1/s"},
    {"engine.worker_busy_frac", "fraction"},
    {"engine.imbalance", "ratio"},
    {"engine.speedup_2t_vs_1t", "ratio"},
    {"engine.two_tournament_s", "s"},
    {"engine.three_tournament_s", "s"},
    {"engine.tournament_bytes_gathered", "bytes"},
    {"engine.robust_two_tournament_s", "s"},
    {"engine.robust_three_tournament_s", "s"},
    {"engine.robust_coverage_s", "s"},
    {"sim.intern_s", "s"},
    {"sim.adversary.dropped_share", "fraction"},
    {"sim.adversary.corrupted_share", "fraction"},
    {"sim.adversary.crash_dropped_share", "fraction"},
    {"agg.count3_s", "s"},
    {"agg.count3_rounds", "count"},
    {"agg.spread_s", "s"},
    {"agg.spread_rounds", "count"},
    {"agg.scatter_deliver_s", "s"},
    {"core.approx.s", "s"},
    {"core.approx.rounds", "count"},
    {"core.approx.message_bits", "bits"},
    {"core.multi.s", "s"},
    {"core.multi.rounds", "count"},
    {"core.multi.bits_per_lane", "bits"},
    {"core.exact.s", "s"},
    {"core.exact.rounds", "count"},
    {"core.exact.iterations", "count"},
    {"core.exact.endgame_phases", "count"},
    {"core.exact.token_split_s", "s"},
    {"core.own_rank.s", "s"},
    {"core.own_rank.rounds", "count"},
    {"core.own_rank.quantile_runs", "count"},
    {"core.robust.s", "s"},
    {"core.robust.rounds", "count"},
    {"core.adversarial.s", "s"},
    {"core.adversarial.rounds", "count"},
    {"core.adversarial.corruption_exposure", "fraction"},
    {"core.supervisor.attempts_per_query", "count"},
    {"core.supervisor.retries", "count"},
    {"core.rank_error_max", "fraction"},
    {"analysis.rounds_over_bound", "ratio"},
    {"sketch.update_ns", "ns"},
    {"sketch.merge_s", "s"},
    {"sketch.max_node_items", "count"},
    {"service.build_instance_s", "s"},
    {"service.session_extend_s", "s"},
    {"service.session_extends", "count"},
    {"service.session_rebuilds", "count"},
    {"service.query_ms.quantile", "ms"},
    {"service.query_ms.multi_quantile", "ms"},
    {"service.query_ms.rank", "ms"},
    {"service.query_ms.cdf", "ms"},
    {"service.gossip_rounds_per_query", "count"},
    {"service.retry_attempts", "count"},
    {"service.degraded_answers", "count"},
    {"service.breaker_opens", "count"},
    {"telemetry.overhead_frac", "fraction"},
    {"failed_share", "fraction"},
    {"degraded_share", "fraction"},
};

[[nodiscard]] bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload;
}

// Span totals recorded by the program itself, read from the telemetry
// registry after the traced batch and scaled like every other time.
[[nodiscard]] double span_total_s(const std::vector<telemetry::PhaseStat>& stats,
                                  const char* name, std::uint64_t* count) {
  for (const telemetry::PhaseStat& s : stats) {
    if (s.name == name) {
      if (count != nullptr) *count = s.count;
      return static_cast<double>(s.total_ns) * 1e-9 * host::scale();
    }
  }
  if (count != nullptr) *count = 0;
  return 0.0;
}

// Worker utilization over a traced batch on kParallelThreads workers:
// busy time summed per worker slot across every such pool, over the
// batch's wall time.
void read_pools(double wall_s, Record& rec) {
  std::vector<double> busy(kParallelThreads, 0.0);
  for (const telemetry::PoolSample& pool : telemetry::pool_samples()) {
    if (pool.workers.size() != kParallelThreads) continue;
    for (std::size_t w = 0; w < busy.size(); ++w) {
      busy[w] += static_cast<double>(pool.workers[w].busy_ns) * 1e-9;
    }
  }
  double total = 0.0, most = 0.0;
  for (const double b : busy) {
    total += b;
    most = std::max(most, b);
  }
  const double mean = total / static_cast<double>(busy.size());
  rec.stat("engine.worker_busy_frac", wall_s > 0.0 ? mean / wall_s : 0.0);
  rec.stat("engine.imbalance", mean > 0.0 ? most / mean : 0.0);
}

// The traced run after the untraced loop: one traced batch for the
// overhead and the program's own spans, the direct layer probes, then the
// systems rebuilt on kParallelThreads workers for the speedup (untraced)
// and the pool counters (traced).
void traced_layers(Workload& w, const Args& args, double untraced_batch_s,
                   std::uint64_t exact_calls, Record& rec, Tally& tally) {
  telemetry::reset();
  telemetry::enable();
  Record traced;
  (void)w.batch(traced, tally);
  telemetry::disable();
  const double traced_s = traced.program_s;
  rec.stat("telemetry.overhead_frac", traced_s / untraced_batch_s - 1.0);
  if (telemetry::dropped_events() > 0) {
    std::fprintf(stderr, "warning: telemetry dropped %llu span events\n",
                 static_cast<unsigned long long>(telemetry::dropped_events()));
  }
  const std::vector<telemetry::PhaseStat> stats = telemetry::phase_stats();
  rec.stat("agg.scatter_deliver_s",
           span_total_s(stats, "engine/scatter_deliver", nullptr) +
               span_total_s(stats, "engine/scatter_deliver_combining", nullptr));
  const double token_split = span_total_s(stats, "exact/token_split", nullptr);
  rec.stat("core.exact.token_split_s",
           exact_calls > 0 ? token_split / static_cast<double>(exact_calls)
                           : 0.0);
  std::uint64_t count = 0;
  const double build = span_total_s(stats, "service/build_instance", &count);
  rec.stat("service.build_instance_s",
           count > 0 ? build / static_cast<double>(count) : 0.0);
  const double extend = span_total_s(stats, "service/session_extend", &count);
  rec.stat("service.session_extend_s",
           count > 0 ? extend / static_cast<double>(count) : 0.0);
  telemetry::reset();

  probe_layers(w.probe_keys(), args.seed, rec, tally);

  Record parallel;
  (void)w.build(kParallelThreads, parallel);
  (void)w.batch(parallel, tally);
  const double warm_s = parallel.program_s;
  (void)w.batch(parallel, tally);
  rec.stat("engine.speedup_2t_vs_1t",
           untraced_batch_s / (parallel.program_s - warm_s));
  // Pool busy times are unscaled wall times; so is this batch's.
  telemetry::enable();
  const Clock::time_point t0 = Clock::now();
  (void)w.batch(parallel, tally);
  const double traced_parallel_wall_s = seconds_since(t0);
  telemetry::disable();
  read_pools(traced_parallel_wall_s, rec);
}

[[nodiscard]] double mean_or_zero(const Record& rec, const std::string& name) {
  const auto it = rec.stats.find(name);
  if (it == rec.stats.end() || it->second.empty()) return 0.0;
  return it->second.sum() / static_cast<double>(it->second.size());
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.tiny);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Record rec;
  Tally tally;
  Samples setup_s, generate_s, construct_s;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.add(timed([&] {
      generate_s.add(timed([&] { w->generate(args.seed); }));
      construct_s.add(w->build(kThreads, rec));
    }));
  }
  w->build_oracle();

  // Warm-up: untimed, but checked, and its protocol cost is the reference
  // every later batch must reproduce exactly.
  Record warm;
  const Cost first = w->batch(warm, tally);
  const Cost reference = w->reference_cost(first);

  Samples batch_s;
  const Clock::time_point loop_start = Clock::now();
  double last_wall = 0.0;
  std::uint64_t drifted = 0;
  while (batch_s.size() < static_cast<std::size_t>(kMinBatches) ||
         seconds_since(loop_start) + last_wall <= args.seconds) {
    const Clock::time_point t0 = Clock::now();
    const double program_s = rec.program_s;
    const std::size_t queries = rec.query_ms.size();
    const Cost cost = w->batch(rec, tally);
    const double batch = rec.program_s - program_s;
    last_wall = seconds_since(t0);
    batch_s.add(batch);
    rec.batch_qps.add(static_cast<double>(rec.query_ms.size() - queries) /
                      batch);
    std::fprintf(stderr, "  batch %zu: %.4f s scaled, %.4f s wall, x%.3f\n",
                 batch_s.size(), batch, last_wall, host::scale());
    if (!(cost == first)) ++drifted;
  }
  const double loop_s = seconds_since(loop_start);
  tally.check(drifted == 0, "rounds/messages/bits drifted between batches "
                            "of the same seed");
  for (int i = 0; i < kWritePaths; ++i) w->write_path(rec);
  w->service_stats(rec);

  MetricSink sink;
  if (!args.trace) {
    const std::map<std::string, double> values = {
        {"setup_s", setup_s.median()},
        {"batch_s.p50", batch_s.median()},
        {"query_ms.p50", rec.query_ms.median()},
        {"query_ms.p90", rec.query_ms.quantile(0.9)},
        {"qps", rec.batch_qps.median()},
        {"seal_ms.p50", rec.seal_ms.median()},
        {"rounds", static_cast<double>(reference.rounds)},
        {"messages", static_cast<double>(reference.messages)},
        {"message_bits", static_cast<double>(reference.bits)},
        {"served_fraction",
         rec.total_nodes > 0.0 ? rec.served_nodes / rec.total_nodes : 0.0},
        {"full_answer_share",
         rec.answers > 0 ? 1.0 - static_cast<double>(rec.degraded) /
                                     static_cast<double>(rec.answers)
                         : 1.0},
        {"peak_rss_mb", peak_rss_mb()},
    };
    for (const MetricDef& m : kEndToEnd) {
      sink.set(m.name, values.at(m.name), m.unit);
    }
    std::fprintf(stderr, "%s: %zu timed batches, %zu queries in %.2f s\n",
                 args.workload.c_str(), batch_s.size(), rec.query_ms.size(),
                 loop_s);
    for (const auto& [name, samples] : rec.stats) {
      std::fprintf(stderr, "  %-40s mean %.6g over %zu\n", name.c_str(),
                   samples.sum() / static_cast<double>(samples.size()),
                   samples.size());
    }
  } else {
    rec.stat("host.reference_ms", host::reference_median_s() * 1e3);
    rec.stat("ingest_mvals_per_s", rec.ingest_rate.median());
    rec.stat("workload.generate_s", generate_s.median());
    rec.stat("engine.construct_s", construct_s.median());
    rec.stat("engine.node_rounds_per_s",
             rec.gossip_s > 0.0 ? rec.node_rounds / rec.gossip_s : 0.0);
    const auto exact_it = warm.stats.find("core.exact.s");
    traced_layers(*w, args, batch_s.median(),
                  exact_it == warm.stats.end() ? 0 : exact_it->second.size(),
                  rec, tally);
    rec.stat("core.rank_error_max", tally.rank_error_max());
    rec.stat("failed_share", static_cast<double>(tally.failed()) /
                                 static_cast<double>(tally.attempted()));
    rec.stat("degraded_share",
             rec.answers > 0 ? static_cast<double>(rec.degraded) /
                                   static_cast<double>(rec.answers)
                             : 0.0);
    for (const MetricDef& m : kPerLayer) {
      sink.set(m.name, mean_or_zero(rec, m.name), m.unit);
    }
  }
  sink.print(tally);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gqbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gqbench: %s\n", error.what());
    return 1;
  }
}
