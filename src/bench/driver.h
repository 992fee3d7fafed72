// Benchmark driver: prefill + timed mixed-operation phase, matching the
// paper's protocol (§7 Setup: prefill to half the key range, run the mix
// for a fixed wall-clock duration, report throughput; Figure 9 additionally
// reports per-operation-class latency).  Latency is sampled every 32nd op
// to keep clock reads out of the throughput numbers; each sample lands in
// a per-class log-linear histogram, so results carry true p50/p90/p99
// rather than a lone average.
#pragma once

#include <cstdint>
#include <string>

#include "api/ordered_set.h"
#include "bench/latency.h"
#include "bench/workload.h"
#include "util/counters.h"

namespace cbat::bench {

struct RunConfig {
  Workload workload;
  int threads = 4;
  int duration_ms = 200;
  bool prefill = true;  // fill to max_key/2 before timing (paper default)
  std::uint64_t seed = 12345;
};

struct RunResult {
  std::string structure;
  RunConfig config;
  double seconds = 0;
  std::int64_t total_ops = 0;
  std::int64_t updates = 0;  // inserts + deletes
  std::int64_t finds = 0;
  std::int64_t queries = 0;
  // Percentile summaries of the sampled per-operation latencies, one per
  // operation class.
  LatencyStats update_latency;
  LatencyStats find_latency;
  LatencyStats query_latency;
  // The process-wide counters over the timed window alone (Table 3
  // divides by them; the prefill's uniform inserts would pad every ratio).
  Counters::Snapshot counters;

  double mops() const { return total_ops / seconds / 1e6; }
  double throughput() const { return total_ops / seconds; }
};

// Fills the structure with uniform random keys from [0, w.max_key) until
// it holds exactly max_key/2 of them (paper §7 Setup).  Threads claim
// bounded batches of successful inserts, so the final size is exact, not
// overshot by in-flight per-thread counts.
void prefill(api::AbstractOrderedSet& set, const Workload& w, int threads,
             std::uint64_t seed);

// Runs one (structure, config) cell `repeats` times, each on a freshly
// created structure, and keeps the fastest run with its counters.
RunResult run_benchmark(const std::string& structure, const RunConfig& cfg,
                        int repeats = 1);

// Runs on an existing structure: hints the key range, prefills unless
// cfg.prefill is false, then times the mix.  Resets the process-wide
// counters between the prefill and the timed window, so call it while
// nothing else updates a structure.
RunResult run_on(api::AbstractOrderedSet& set, const RunConfig& cfg);

}  // namespace cbat::bench
