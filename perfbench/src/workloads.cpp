// The four workloads.  Each drives the program through its public entry
// points only (engine/pipelines.hpp, QuantileService, workload/
// distributions.hpp) and checks every answer against a sorted copy of the
// inputs it generated.
//
//   tournament_512k  one-shot failure-free approx + multi-quantile, n = 2^19
//   compose_16k      exact quantile and own-rank, n = 2^14
//   service_32k      streaming service: trickle ingest, seal, mixed queries
//   faulted_128k     robust, adversarial and supervised-service runs
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "analysis/theory_bounds.hpp"
#include "engine/pipelines.hpp"
#include "service/quantile_service.hpp"
#include "sim/adversary.hpp"
#include "workload.hpp"
#include "workload/distributions.hpp"

namespace perfbench {
namespace {

using gq::Distribution;
using gq::Engine;
using gq::Key;

[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[nodiscard]] std::vector<Key> keys_of(std::span<const double> values) {
  std::vector<Key> keys(values.size());
  for (std::size_t v = 0; v < values.size(); ++v) {
    keys[v] = Key{values[v], static_cast<std::uint32_t>(v), 0};
  }
  return keys;
}

[[nodiscard]] std::vector<double> values_of(std::span<const Key> keys) {
  std::vector<double> values(keys.size());
  for (std::size_t v = 0; v < keys.size(); ++v) values[v] = keys[v].value;
  return values;
}

// Runs one pipeline call, timing it as a query and counting a throw as a
// failed operation.  Returns false when the call threw.
template <typename Fn>
bool run_query(Record& rec, Tally& tally, const char* what, double& seconds,
               Fn&& fn) {
  try {
    seconds = timed(fn);
  } catch (const std::exception& error) {
    tally.threw(std::string(what) + ": " + error.what());
    return false;
  }
  rec.add_query(seconds);
  return true;
}

// ---- one-shot failure-free workloads --------------------------------------

// Shared by the two one-shot workloads: uniform real inputs on one Engine,
// whose stream is rebased at every batch so each batch repeats exactly.
class OneShotWorkload : public Workload {
 public:
  OneShotWorkload(std::uint32_t n, std::uint64_t salt) : n_(n), salt_(salt) {}

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    values_ = gq::generate_values(Distribution::kUniformReal, n_,
                                  mix_seed(seed, salt_));
  }

  // Constructs the Engine, then runs one approx_quantile on it so the
  // engine's pooled buffers are first touched during set-up.
  double build(unsigned threads, Record& rec) override {
    (void)rec;
    engine_.reset();
    const double construct_s = timed([&] {
      engine_ = std::make_unique<Engine>(n_, mix_seed(seed_, salt_ + 1),
                                         gq::FailureModel{},
                                         engine_config(threads));
    });
    (void)gq::approx_quantile(*engine_, values_, gq::ApproxQuantileParams{});
    return construct_s;
  }

  void build_oracle() override { oracle_ = Oracle(values_); }

  [[nodiscard]] std::vector<Key> probe_keys() const override {
    return keys_of(values_);
  }

 protected:
  [[nodiscard]] gq::Metrics begin_batch() {
    engine_->reset_stream(mix_seed(seed_, salt_ + 2));
    return engine_->metrics();
  }

  std::uint32_t n_;
  std::uint64_t salt_;
  std::uint64_t seed_ = 0;
  std::vector<double> values_;
  std::unique_ptr<Engine> engine_;
  Oracle oracle_;
};

class TournamentWorkload final : public OneShotWorkload {
 public:
  explicit TournamentWorkload(std::uint32_t n) : OneShotWorkload(n, 100) {}

  Cost batch(Record& rec, Tally& tally) override {
    const gq::Metrics start = begin_batch();
    for (const double phi : {0.5, 0.99}) {
      gq::ApproxQuantileParams params;
      params.phi = phi;
      params.eps = kApproxEps;
      const gq::Metrics before = engine_->metrics();
      gq::ApproxQuantileResult res;
      double s = 0.0;
      if (!run_query(rec, tally, "approx_quantile", s, [&] {
            res = gq::approx_quantile(*engine_, values_, params);
          })) {
        continue;
      }
      rec.add_gossip(n_, res.rounds, s);
      rec.add_served(res.served_nodes(), n_);
      rec.stat("core.approx.s", s);
      rec.stat("core.approx.rounds", static_cast<double>(res.rounds));
      rec.stat("core.approx.message_bits",
               static_cast<double>(engine_->metrics().since(before).message_bits));
      rec.stat("analysis.rounds_over_bound",
               static_cast<double>(res.rounds) /
                   gq::lower_bound_rounds(kApproxEps, n_));
      check_window(oracle_, res.outputs, res.valid, phi, kApproxEps, tally,
                   "approx_quantile");
    }
    gq::MultiQuantileParams params;
    params.phis = {0.5, 0.9, 0.99, 0.999};
    params.eps = kMultiEps;
    const gq::Metrics before = engine_->metrics();
    gq::MultiQuantileResult res;
    double s = 0.0;
    if (run_query(rec, tally, "multi_quantile", s, [&] {
          res = gq::multi_quantile(*engine_, values_, params);
        })) {
      rec.add_gossip(n_, res.rounds, s);
      const double bits =
          static_cast<double>(engine_->metrics().since(before).message_bits);
      rec.stat("core.multi.s", s);
      rec.stat("core.multi.rounds", static_cast<double>(res.rounds));
      rec.stat("core.multi.bits_per_lane",
               bits / static_cast<double>(params.phis.size()));
      rec.stat("analysis.rounds_over_bound",
               static_cast<double>(res.rounds) /
                   gq::lower_bound_rounds(kMultiEps, n_));
      for (std::size_t i = 0; i < params.phis.size(); ++i) {
        rec.add_served(res.per_phi[i].served_nodes(), n_);
        check_window(oracle_, res.per_phi[i].outputs, res.per_phi[i].valid,
                     params.phis[i], kMultiEps, tally, "multi_quantile");
      }
    }
    return Cost::of(engine_->metrics().since(start));
  }

 private:
  static constexpr double kApproxEps = 0.1;
  static constexpr double kMultiEps = 0.05;
};

class ComposeWorkload final : public OneShotWorkload {
 public:
  explicit ComposeWorkload(std::uint32_t n) : OneShotWorkload(n, 200) {}

  void build_oracle() override {
    OneShotWorkload::build_oracle();
    own_quantile_.resize(n_);
    for (std::uint32_t v = 0; v < n_; ++v) {
      own_quantile_[v] = static_cast<double>(oracle_.count_le(values_[v])) /
                         static_cast<double>(n_);
    }
  }

  Cost batch(Record& rec, Tally& tally) override {
    const gq::Metrics start = begin_batch();
    for (const double phi : {0.5, 0.99}) {
      gq::ExactQuantileParams params;
      params.phi = phi;
      gq::ExactQuantileResult res;
      double s = 0.0;
      if (!run_query(rec, tally, "exact_quantile", s, [&] {
            res = gq::exact_quantile(*engine_, values_, params);
          })) {
        continue;
      }
      rec.add_gossip(n_, res.rounds, s);
      rec.add_served(static_cast<std::size_t>(
                         std::count(res.valid.begin(), res.valid.end(), true)),
                     n_);
      rec.stat("core.exact.s", s);
      rec.stat("core.exact.rounds", static_cast<double>(res.rounds));
      rec.stat("core.exact.iterations", static_cast<double>(res.iterations));
      rec.stat("core.exact.endgame_phases",
               static_cast<double>(res.endgame_phases));
      rec.stat("analysis.rounds_over_bound",
               static_cast<double>(res.rounds) /
                   std::log2(static_cast<double>(n_)));
      const double truth = oracle_.kth(oracle_.target_rank(phi));
      tally.check(res.answer.value == truth,
                  "exact_quantile phi=" + std::to_string(phi) +
                      " answer is not the ceil(phi n)-th key");
      bool all_hold = true;
      for (std::size_t v = 0; v < res.outputs.size(); ++v) {
        if (res.valid[v] && res.outputs[v].value != truth) all_hold = false;
      }
      tally.check(all_hold, "exact_quantile: a node holds another answer");
    }
    gq::OwnRankParams params;
    params.eps = kOwnRankEps;
    gq::OwnRankResult res;
    double s = 0.0;
    if (run_query(rec, tally, "own_rank", s, [&] {
          res = gq::own_rank(*engine_, values_, params);
        })) {
      rec.add_gossip(n_, res.rounds, s);
      std::size_t served = 0;
      double worst = 0.0;
      for (std::uint32_t v = 0; v < n_; ++v) {
        if (!res.valid[v]) continue;
        ++served;
        worst = std::max(worst, std::abs(res.estimates[v] - own_quantile_[v]));
      }
      rec.add_served(served, n_);
      rec.stat("core.own_rank.s", s);
      rec.stat("core.own_rank.rounds", static_cast<double>(res.rounds));
      rec.stat("core.own_rank.quantile_runs",
               static_cast<double>(res.quantile_runs));
      tally.note_rank_error(worst);
      tally.check(served > 0 && worst <= kOwnRankEps + 1.0 / n_,
                  "own_rank: estimate off by " + std::to_string(worst));
    }
    return Cost::of(engine_->metrics().since(start));
  }

 private:
  // 6 approx runs at eps/4 = 0.0825, just above the tournament floor at
  // n = 2^14 (0.0787); a smaller eps would send every target to the exact
  // fallback.
  static constexpr double kOwnRankEps = 0.33;
  std::vector<double> own_quantile_;  // true quantile of each node's value
};

// ---- streaming service ----------------------------------------------------

// Checks one service reply against the oracle over the sealed instance.
// Full answers must be exact (rank, CDF) or inside the eps window scaled by
// the supervisor's escalation; degraded ones inside their error bound.
void check_reply(const gq::QueryRequest& req, const gq::QueryReply& reply,
                 const Oracle& oracle, double eps, double eps_growth,
                 Tally& tally) {
  const double m = static_cast<double>(oracle.size());
  const bool degraded = reply.quality == gq::AnswerQuality::kDegraded;
  double window = degraded ? reply.error_bound + 1.0 / m : eps;
  if (!degraded) {
    for (std::uint32_t a = 1; a < reply.attempts; ++a) window *= eps_growth;
    window = std::min(window, 0.49) + 1.0 / m;
  }
  const auto check_quantile = [&](double phi, double value, const char* what) {
    const double err = oracle.rank_error(value, phi);
    tally.note_rank_error(err);
    tally.check(err <= window, std::string(what) + " phi=" +
                                   std::to_string(phi) + " rank error " +
                                   std::to_string(err));
  };
  const auto check_count = [&](double probe, std::uint64_t count,
                               const char* what) {
    const double truth = static_cast<double>(oracle.count_le(probe));
    const double slack = degraded ? window * m : 0.0;
    tally.check(std::abs(static_cast<double>(count) - truth) <= slack,
                std::string(what) + " count " + std::to_string(count) +
                    " != oracle " + std::to_string(truth));
  };
  switch (req.kind) {
    case gq::QueryKind::kQuantile:
    case gq::QueryKind::kExactQuantile:
      check_quantile(req.phi, reply.value, "service quantile");
      break;
    case gq::QueryKind::kMultiQuantile:
      tally.check(reply.multi_values.size() == req.phis.size(),
                  "service multi: wrong answer count");
      for (std::size_t i = 0;
           i < std::min(req.phis.size(), reply.multi_values.size()); ++i) {
        check_quantile(req.phis[i], reply.multi_values[i], "service multi");
      }
      break;
    case gq::QueryKind::kRank:
      check_count(req.value, reply.count, "service rank");
      break;
    case gq::QueryKind::kCdf:
      tally.check(reply.cdf_counts.size() == req.cdf_points.size(),
                  "service cdf: wrong probe count");
      for (std::size_t i = 0;
           i < std::min(req.cdf_points.size(), reply.cdf_counts.size()); ++i) {
        check_count(req.cdf_points[i], reply.cdf_counts[i], "service cdf");
      }
      break;
  }
}

[[nodiscard]] const char* kind_name(gq::QueryKind kind) {
  switch (kind) {
    case gq::QueryKind::kQuantile: return "quantile";
    case gq::QueryKind::kExactQuantile: return "exact_quantile";
    case gq::QueryKind::kMultiQuantile: return "multi_quantile";
    case gq::QueryKind::kRank: return "rank";
    case gq::QueryKind::kCdf: return "cdf";
  }
  return "unknown";
}

// A QuantileService under a closed loop: one client ingests a trickle,
// seals the epoch, then issues the epoch's queries one at a time, each
// after the previous reply.
class ServiceDriver {
 public:
  struct Shape {
    std::uint32_t nodes;
    std::uint32_t bulk_per_node;
    std::uint32_t trickle;
    std::uint32_t queries_per_epoch;
    std::vector<gq::QueryRequest> cycle;  // queries cycle through these
  };

  ServiceDriver(Shape shape, std::uint64_t salt)
      : shape_(std::move(shape)), salt_(salt) {}

  void generate(std::uint64_t seed) {
    seed_ = seed;
    bulk_ = gq::generate_values(Distribution::kExponential,
                                static_cast<std::size_t>(shape_.nodes) *
                                    shape_.bulk_per_node,
                                mix_seed(seed, salt_));
  }

  // Builds a fresh service, bulk-ingests every node's values and seals the
  // first epoch.  Returns the engine construction share: the first seal.
  double build(gq::ServiceConfig cfg, Record& rec) {
    service_.reset();
    cfg.seed = mix_seed(seed_, salt_ + 1);
    service_ = std::make_unique<gq::QuantileService>(shape_.nodes, cfg);
    const double ingest_s = timed([&] {
      for (std::uint32_t v = 0; v < shape_.nodes; ++v) {
        service_->ingest(v, std::span<const double>(
                                bulk_.data() + static_cast<std::size_t>(v) *
                                                   shape_.bulk_per_node,
                                shape_.bulk_per_node));
      }
    });
    rec.add_ingest(bulk_.size(), ingest_s);
    epoch_ = 0;
    return timed([&] { (void)service_->seal(); });
  }

  // One epoch: trickle ingest, seal, the epoch's queries.  With `replay`
  // set, every full reply is re-run cold on a fresh Engine over the sealed
  // instance with the reply's stream seed — the service promises warm
  // replies bit-identical to such cold runs — and the cold runs' protocol
  // cost is returned.
  Cost epoch(Record& rec, Tally& tally, bool replay) {
    ++epoch_;
    const std::vector<double> trickle = gq::generate_values(
        Distribution::kExponential, shape_.trickle,
        mix_seed(seed_, salt_ + 10 + epoch_));
    rec.add_call(timed([&] {
      for (std::uint32_t i = 0; i < shape_.trickle; ++i) {
        const std::uint64_t node =
            (epoch_ * 7919 + static_cast<std::uint64_t>(i) * 104729) %
            shape_.nodes;
        service_->ingest(static_cast<std::uint32_t>(node), trickle[i]);
      }
    }));
    double seal_s = 0.0;
    try {
      seal_s = timed([&] { (void)service_->seal(); });
    } catch (const std::exception& error) {
      tally.threw(std::string("seal: ") + error.what());
      return {};
    }
    rec.add_call(seal_s);
    rec.seal_ms.add(seal_s * 1e3);
    const Oracle oracle(values_of(service_->epoch_keys()));
    const double m = static_cast<double>(oracle.size());
    const gq::ServiceConfig& cfg = service_->config();
    Cost cost;
    for (std::uint32_t q = 0; q < shape_.queries_per_epoch; ++q) {
      const gq::QueryRequest& req = shape_.cycle[q % shape_.cycle.size()];
      gq::QueryReply reply;
      double s = 0.0;
      if (!run_query(rec, tally, "service query", s,
                     [&] { reply = service_->query(req); })) {
        continue;
      }
      ++rec.answers;
      rec.stat(std::string("service.query_ms.") + kind_name(req.kind), s * 1e3);
      rec.stat("core.supervisor.attempts_per_query", reply.attempts);
      if (reply.quality == gq::AnswerQuality::kDegraded) {
        ++rec.degraded;
      } else {
        rec.add_gossip(m, reply.rounds, s);
        rec.add_served(reply.served, reply.nodes);
        rec.stat("service.gossip_rounds_per_query",
                 static_cast<double>(reply.rounds));
        if (req.kind == gq::QueryKind::kQuantile && cfg.adversary == nullptr) {
          const double eps = req.eps > 0.0 ? req.eps : cfg.approx.eps;
          rec.stat("analysis.rounds_over_bound",
                   static_cast<double>(reply.rounds) /
                       gq::lower_bound_rounds(eps, oracle.size()));
        }
        if (replay) cost += replay_cold(req, reply, tally);
      }
      check_reply(req, reply, oracle, cfg.approx.eps,
                  cfg.supervisor.eps_growth, tally);
    }
    return cost;
  }

  [[nodiscard]] gq::QuantileService& service() { return *service_; }
  [[nodiscard]] std::span<const Key> epoch_keys() const {
    return service_->epoch_keys();
  }

 private:
  Cost replay_cold(const gq::QueryRequest& req, const gq::QueryReply& warm,
                   Tally& tally) {
    const gq::ServiceConfig& cfg = service_->config();
    const std::span<const Key> keys = service_->epoch_keys();
    const auto m = static_cast<std::uint32_t>(keys.size());
    Engine engine(m, warm.seed, cfg.failures, cfg.engine);
    std::uint64_t rounds = 0;
    const auto indicator = [&](double probe) {
      std::vector<bool> ind(m);
      for (std::uint32_t v = 0; v < m; ++v) ind[v] = keys[v].value <= probe;
      return ind;
    };
    switch (req.kind) {
      case gq::QueryKind::kQuantile: {
        gq::ApproxQuantileParams params = cfg.approx;
        params.phi = req.phi;
        if (req.eps > 0.0) params.eps = req.eps;
        rounds = gq::approx_quantile_keys(engine, keys, params).rounds;
        break;
      }
      case gq::QueryKind::kExactQuantile: {
        gq::ExactQuantileParams params = cfg.exact;
        params.phi = req.phi;
        rounds = gq::exact_quantile_keys(engine, keys, params).rounds;
        break;
      }
      case gq::QueryKind::kMultiQuantile: {
        gq::MultiQuantileParams params;
        params.phis = req.phis;
        params.eps = req.eps > 0.0 ? req.eps : cfg.approx.eps;
        params.final_sample_size = cfg.approx.final_sample_size;
        params.robust_coverage_rounds = cfg.approx.robust_coverage_rounds;
        rounds = gq::multi_quantile_keys(engine, keys, params).rounds;
        break;
      }
      case gq::QueryKind::kRank:
        rounds = gq::gossip_count(engine, indicator(req.value)).rounds;
        break;
      case gq::QueryKind::kCdf: {
        const std::vector<double>& p = req.cdf_points;
        for (std::size_t i = 0; i < p.size(); i += 3) {
          const std::size_t b = std::min(i + 1, p.size() - 1);
          const std::size_t c = std::min(i + 2, p.size() - 1);
          rounds += gq::gossip_count3(engine, indicator(p[i]), indicator(p[b]),
                                      indicator(p[c]))
                        .rounds;
        }
        break;
      }
    }
    tally.check(rounds == warm.rounds,
                std::string("cold replay of a warm ") + kind_name(req.kind) +
                    " reply took " + std::to_string(rounds) + " rounds, not " +
                    std::to_string(warm.rounds));
    return Cost::of(engine.metrics());
  }

  Shape shape_;
  std::uint64_t salt_;
  std::uint64_t seed_ = 0;
  std::vector<double> bulk_;
  std::unique_ptr<gq::QuantileService> service_;
  std::uint64_t epoch_ = 0;
};

[[nodiscard]] std::vector<gq::QueryRequest> service_query_cycle() {
  std::vector<gq::QueryRequest> cycle(5);
  cycle[0].kind = gq::QueryKind::kQuantile;
  cycle[0].phi = 0.5;
  cycle[1].kind = gq::QueryKind::kMultiQuantile;
  cycle[1].phis = {0.5, 0.9, 0.99, 0.999};
  cycle[2].kind = gq::QueryKind::kRank;
  cycle[2].value = 0.7;
  cycle[3].kind = gq::QueryKind::kCdf;
  cycle[3].cdf_points = {0.3, 0.5, 0.6, 0.7, 0.8, 1.0};
  cycle[4].kind = gq::QueryKind::kQuantile;
  cycle[4].phi = 0.99;
  return cycle;
}

void add_service_stats(const gq::QuantileService& service, Record& rec) {
  const gq::ServiceStats st = service.stats();
  rec.stat("sketch.max_node_items", static_cast<double>(st.max_node_items));
  rec.stat("service.session_extends", static_cast<double>(st.session_extends));
  rec.stat("service.session_rebuilds",
           static_cast<double>(st.session_rebuilds));
  rec.stat("service.retry_attempts", static_cast<double>(st.retry_attempts));
  rec.stat("service.degraded_answers",
           static_cast<double>(st.degraded_answers));
  rec.stat("service.breaker_opens", static_cast<double>(st.breaker_opens));
  rec.stat("core.supervisor.retries", static_cast<double>(st.retry_attempts));
}

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(bool tiny)
      : driver_({tiny ? 512u : 1u << 15, 32, 256, 8, service_query_cycle()},
                300) {}

  void generate(std::uint64_t seed) override { driver_.generate(seed); }

  double build(unsigned threads, Record& rec) override {
    gq::ServiceConfig cfg;
    cfg.sketch_k = 64;
    cfg.engine.threads = threads;
    replayed_ = false;
    return driver_.build(cfg, rec);
  }

  void build_oracle() override {}

  Cost batch(Record& rec, Tally& tally) override {
    const bool replay = !replayed_;
    const Cost cost = driver_.epoch(rec, tally, replay);
    if (replay) {
      reference_ = cost;
      replayed_ = true;
    }
    return {};  // epochs differ; the replayed first epoch is the reference
  }

  [[nodiscard]] Cost reference_cost(const Cost& first_batch) const override {
    (void)first_batch;
    return reference_;
  }

  [[nodiscard]] std::vector<Key> probe_keys() const override {
    const std::span<const Key> keys = driver_.epoch_keys();
    return {keys.begin(), keys.end()};
  }

  void service_stats(Record& rec) override {
    add_service_stats(driver_.service(), rec);
  }
  void write_path(Record& rec) override { (void)rec; }

 private:
  ServiceDriver driver_;
  bool replayed_ = false;
  Cost reference_;
};

// ---- faults ---------------------------------------------------------------

class FaultedWorkload final : public Workload {
 public:
  explicit FaultedWorkload(bool tiny)
      : n_robust_(tiny ? 1u << 14 : 1u << 17),
        n_adv_(tiny ? 1024u : 1u << 15),
        // Not shrunk for --tiny: at 256 nodes eps = 0.1 is under the
        // tournament floor, and the crash-churn service's p90/p99 answers
        // then missed the eps window by up to 0.33 in rank.
        n_service_(1u << 13),
        crash_(gq::CrashChurnAdversary::Config{
            .crashes = n_adv_ / 16, .first_round = 1, .crash_window = 32,
            .down_rounds = 8, .strategy_seed = 11}),
        scatter_(n_adv_ / 64, 1e9, 13),
        // A quarter of the service's nodes crash for good, at rounds spread
        // over 400: a ~240-round quantile query keeps ~91% served and
        // passes, the longer multi-quantile query loses them all (75%).
        service_crash_(gq::CrashChurnAdversary::Config{
            .crashes = n_service_ / 4, .first_round = 1,
            .crash_window = 400, .down_rounds = 0, .strategy_seed = 17}),
        driver_({n_service_, 32, 256, 4, faulted_cycle()}, 400) {}

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    values_robust_ = gq::generate_values(Distribution::kUniformReal, n_robust_,
                                         mix_seed(seed, 401));
    values_adv_ = gq::generate_values(Distribution::kUniformReal, n_adv_,
                                      mix_seed(seed, 402));
    driver_.generate(seed);
  }

  double build(unsigned threads, Record& rec) override {
    engine_robust_.reset();
    engine_adv_.reset();
    const double construct_s = timed([&] {
      engine_robust_ = std::make_unique<Engine>(
          n_robust_, mix_seed(seed_, 403), gq::FailureModel::uniform(kMu),
          engine_config(threads));
      engine_adv_ = std::make_unique<Engine>(n_adv_, mix_seed(seed_, 404),
                                             gq::FailureModel{},
                                             engine_config(threads));
    });
    gq::ServiceConfig cfg;
    cfg.sketch_k = 64;
    cfg.engine.threads = threads;
    cfg.adversary = &service_crash_;
    cfg.supervisor.max_attempts = 2;
    cfg.supervisor.min_served_fraction = kServiceMinServed;
    // No circuit breaker: its open/half-open cycle would make batches
    // differ, so every multi-quantile query runs the full attempt budget.
    cfg.breaker.open_after = 0;
    (void)driver_.build(cfg, rec);
    return construct_s;
  }

  void build_oracle() override {
    oracle_robust_ = Oracle(values_robust_);
    oracle_adv_ = Oracle(values_adv_);
  }

  Cost batch(Record& rec, Tally& tally) override {
    engine_robust_->reset_stream(mix_seed(seed_, 405));
    engine_adv_->reset_stream(mix_seed(seed_, 406));
    const gq::Metrics robust_start = engine_robust_->metrics();
    const gq::Metrics adv_start = engine_adv_->metrics();

    gq::ApproxQuantileParams params;
    params.phi = 0.5;
    params.eps = kEps;
    gq::ApproxQuantileResult res;
    double s = 0.0;
    if (run_query(rec, tally, "robust approx_quantile", s, [&] {
          res = gq::approx_quantile(*engine_robust_, values_robust_, params);
        })) {
      rec.add_gossip(n_robust_, res.rounds, s);
      rec.add_served(res.served_nodes(), n_robust_);
      rec.stat("core.robust.s", s);
      rec.stat("core.robust.rounds", static_cast<double>(res.rounds));
      check_window(oracle_robust_, res.outputs, res.valid, params.phi, kEps,
                   tally, "robust approx_quantile");
    }

    for (gq::AdversaryStrategy* adversary :
         {static_cast<gq::AdversaryStrategy*>(&crash_),
          static_cast<gq::AdversaryStrategy*>(&scatter_)}) {
      engine_adv_->set_adversary(adversary);
      gq::AdversarialQuantileParams ap;
      ap.phi = 0.5;
      ap.eps = kEps;
      const gq::Metrics before = engine_adv_->metrics();
      gq::AdversarialQuantileResult ar;
      if (!run_query(rec, tally, "adversarial_quantile", s, [&] {
            ar = gq::adversarial_quantile(*engine_adv_, values_adv_, ap);
          })) {
        continue;
      }
      const gq::Metrics d = engine_adv_->metrics().since(before);
      rec.add_gossip(n_adv_, ar.rounds, s);
      rec.add_served(ar.served_nodes(), n_adv_);
      rec.stat("core.adversarial.s", s);
      rec.stat("core.adversarial.rounds", static_cast<double>(ar.rounds));
      rec.stat("core.adversarial.corruption_exposure",
               ar.quality.corruption_exposure);
      const double total = static_cast<double>(
          std::max<std::uint64_t>(1, ar.quality.messages_total));
      rec.stat("sim.adversary.dropped_share",
               static_cast<double>(d.adversary_dropped) / total);
      rec.stat("sim.adversary.corrupted_share",
               static_cast<double>(d.adversary_corrupted) / total);
      rec.stat("sim.adversary.crash_dropped_share",
               static_cast<double>(d.adversary_crash_dropped) / total);
      tally.check(ar.quality.ok(), std::string("adversarial_quantile under ") +
                                       adversary->name() +
                                       ": quality below threshold");
      check_window(oracle_adv_, ar.outputs, ar.valid, ap.phi, kEps, tally,
                   std::string("adversarial_quantile under ") +
                       adversary->name());
    }
    engine_adv_->set_adversary(nullptr);
    Cost cost = Cost::of(engine_robust_->metrics().since(robust_start));
    cost += Cost::of(engine_adv_->metrics().since(adv_start));

    (void)driver_.epoch(rec, tally, false);
    return cost;
  }

  [[nodiscard]] std::vector<Key> probe_keys() const override {
    return keys_of(values_robust_);
  }

  void service_stats(Record& rec) override {
    add_service_stats(driver_.service(), rec);
  }
  void write_path(Record& rec) override { (void)rec; }

 private:
  static constexpr double kMu = 0.3;
  static constexpr double kEps = 0.1;
  static constexpr double kServiceMinServed = 0.85;

  // Seven queries per batch with the one-shot runs, an odd count, so the
  // median latency sits inside one query kind rather than between two.
  static std::vector<gq::QueryRequest> faulted_cycle() {
    std::vector<gq::QueryRequest> cycle(4);
    cycle[0].kind = gq::QueryKind::kQuantile;
    cycle[0].phi = 0.5;
    cycle[1].kind = gq::QueryKind::kMultiQuantile;
    cycle[1].phis = {0.5, 0.99};
    cycle[2].kind = gq::QueryKind::kQuantile;
    cycle[2].phi = 0.9;
    cycle[3].kind = gq::QueryKind::kQuantile;
    cycle[3].phi = 0.99;
    return cycle;
  }

  std::uint32_t n_robust_;
  std::uint32_t n_adv_;
  std::uint32_t n_service_;
  std::uint64_t seed_ = 0;
  std::vector<double> values_robust_, values_adv_;
  Oracle oracle_robust_, oracle_adv_;
  // The adversaries are borrowed by the engines and the service, so they
  // are declared first and destroyed last.
  gq::CrashChurnAdversary crash_;
  gq::ScatterCorruptAdversary scatter_;
  gq::CrashChurnAdversary service_crash_;
  std::unique_ptr<Engine> engine_robust_, engine_adv_;
  ServiceDriver driver_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny) {
  if (name == "tournament_512k") {
    return std::make_unique<TournamentWorkload>(tiny ? 4096u : 1u << 19);
  }
  if (name == "compose_16k") {
    return std::make_unique<ComposeWorkload>(tiny ? 2048u : 1u << 14);
  }
  if (name == "service_32k") return std::make_unique<ServiceWorkload>(tiny);
  if (name == "faulted_128k") return std::make_unique<FaultedWorkload>(tiny);
  return nullptr;
}

}  // namespace perfbench
