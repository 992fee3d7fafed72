// The repository benchmark: three named workloads, one closed-loop run per
// process, end-to-end metrics untraced and per-layer metrics traced.  See
// perfbench/README.md for what each workload and metric is for.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/ordered_set.h"
#include "bench/workload.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  const char* structure;  // StructureRegistry name
  cbat::bench::Workload mix;
  // Traced run: 1 operation in `span_every` per worker is sampled, sized so
  // each worker records 35K-60K operations in the 15 s traced half of a
  // 30 s run.
  int span_every;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

// Post-run check, made at quiescence.  Everything it compares against is
// derived from the set's own point operations and the workers' counts.
struct CheckResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
};

// `expected_size` is the prefill plus successful inserts minus successful
// erases.  A contains() sweep over [0, max_key) gives the final key bitmap;
// size(), rank, select, range_count and range_aggregate (on the workload's
// hot ranges and on random ones of width `rq_size`) are compared against
// it.  Sweeps with `threads` threads.
CheckResult check_set(cbat::api::AbstractOrderedSet& set,
                      const cbat::bench::Workload& w,
                      std::int64_t expected_size, std::uint64_t seed,
                      int threads);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Set up (timed), then stop: no measured window, no check.  Reports
  // setup_s only; run.py starts extra processes in this mode so setup_s is
  // a median of fresh-process set-ups.
  bool setup_only = false;
  std::string span_csv;  // traced run: where the raw spans are written
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample counts and the like, for the log only
};

struct RunReport {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> log;  // human-readable lines printed before JSON
};

// Runs one workload end to end; throws std::runtime_error on a set-up
// error (unknown workload, structure not registered) or when the spans
// cannot be written.
RunReport run(const RunOptions& opt);

}  // namespace perfbench
