// The workload interface the harness drives, and the record one batch of a
// workload writes its measurements into.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine_config.hpp"

namespace perfbench {

// Engine worker threads of every measured system.  On the shared 4-vCPU
// machine the benchmark was tuned on, a second vCPU was not reliably
// there: identical batches of two exact runs at n = 2^16 took 2.7-4.6 s
// on 2 threads and 4.27-4.32 s on 1.  The traced run measures 2 threads
// beside it.
inline constexpr unsigned kThreads = 1;
inline constexpr unsigned kParallelThreads = 2;

[[nodiscard]] inline gq::EngineConfig engine_config(unsigned threads) {
  gq::EngineConfig cfg;
  cfg.threads = threads;
  return cfg;
}

// What the batches of one phase of a run measured.
struct Record {
  // Time inside the program's calls, the benchmark's own checks left out.
  // A batch's time is what this grew by.
  double program_s = 0.0;
  Samples query_ms;  // latency of every query (pipeline call or service query)
  Samples seal_ms;      // epoch seals
  Samples ingest_rate;  // Mvals/s of each bulk ingest
  Samples batch_qps;    // queries per second of each batch
  double served_nodes = 0.0;  // served outputs across full answers
  double total_nodes = 0.0;
  std::uint64_t answers = 0;   // answers produced, full or degraded
  std::uint64_t degraded = 0;  // answers from the degraded path
  double node_rounds = 0.0;    // sum over gossip calls of nodes x rounds
  double gossip_s = 0.0;       // wall time inside those calls

  // Per-layer figures keyed by per-layer metric name; reported as means.
  std::map<std::string, Samples> stats;
  void stat(const std::string& name, double value) { stats[name].add(value); }

  void add_call(double seconds) { program_s += seconds; }
  void add_query(double seconds) {
    add_call(seconds);
    query_ms.add(seconds * 1e3);
  }
  void add_ingest(std::size_t values, double seconds) {
    ingest_rate.add(static_cast<double>(values) / seconds * 1e-6);
  }
  void add_gossip(double nodes, std::uint64_t rounds, double seconds) {
    node_rounds += nodes * static_cast<double>(rounds);
    gossip_s += seconds;
  }
  void add_served(std::size_t served, std::size_t nodes) {
    served_nodes += static_cast<double>(served);
    total_nodes += static_cast<double>(nodes);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Draws the workload's inputs from the seed.  The same seed gives the
  // same inputs; the program under test sees only these values.
  virtual void generate(std::uint64_t seed) = 0;

  // Builds the systems under test on `threads` engine workers, replacing
  // any previous ones: engines, and services with their bulk ingest and
  // first seal (bulk-ingest rates go to `rec`).  Returns the engine
  // construction time in seconds.
  virtual double build(unsigned threads, Record& rec) = 0;

  // Sorts the inputs into the oracle; called once, after set-up.
  virtual void build_oracle() = 0;

  // One batch of the workload's fixed operations, every answer checked
  // against the oracle.  Returns the protocol cost of the batch's
  // repeatable part, which must be identical in every batch.
  virtual Cost batch(Record& rec, Tally& tally) = 0;

  // The workload's reference protocol cost, reported as rounds, messages
  // and message_bits: by default the first batch's.
  [[nodiscard]] virtual Cost reference_cost(const Cost& first_batch) const {
    return first_batch;
  }

  // The keys the direct layer probes run on: the one-shot inputs, or the
  // sealed service instance.
  [[nodiscard]] virtual std::vector<gq::Key> probe_keys() const = 0;

  // The write path of a workload with no streaming writes: its inputs
  // ingested into a KLL summary (ingest rate) and interned into sorted rank
  // lanes, the sort that makes them queryable (seal time).  Service
  // workloads time their own ingest and seals inside each epoch.
  virtual void write_path(Record& rec);

  // Service-level counters, read after the timed loop.
  virtual void service_stats(Record& rec) { (void)rec; }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      bool tiny);

// Direct calls into each layer's public functions on `keys`, timed from
// outside: the kernels, intern, counting, spreading and the sketch.
void probe_layers(std::span<const gq::Key> keys, std::uint64_t seed,
                  Record& rec, Tally& tally);

}  // namespace perfbench
