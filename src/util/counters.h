// Per-thread event counters for the paper's §7 statistics.
//
// The paper reports, per Propagate call: nodes visited beyond the initial
// search path, nil versions filled in, CASes attempted, and delegations.
// Counters are plain per-thread slots (padded; no synchronization on the hot
// path) aggregated on demand by `snapshot()`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "util/padded.h"
#include "util/thread_registry.h"

namespace cbat {

enum class Counter : int {
  kPropagateCalls = 0,
  kPropagateNodes,       // nodes refreshed or traversed by Propagate
  kPropagateExtraNodes,  // nodes beyond the initial root-to-leaf search path
  kSearchPathNodes,      // nodes on the initial search path
  kRefreshCas,           // CAS attempts on version pointers
  kRefreshCasFail,
  kNilRefreshes,         // RefreshNil version installs
  kDelegations,
  kDelegationTimeouts,
  kScxAttempts,
  kScxFailures,
  kRebalanceSteps,
  // Read-side cache (src/shard/aggregate_cache.h): per-shard range-
  // aggregate lookups that validated against the pinned root's stamp
  // (hit) or had to recompute (miss).
  kAggCacheHits,
  kAggCacheMisses,
  // Hot-shard rebalancing (src/shard/): completed boundary migrations, keys
  // moved by them (counted at the pre-copy), and the controller's
  // imbalance samples (hottest shard's rate over the mean, in milli-units,
  // summed — divide by the sample count for the average the bench
  // reports).
  kShardMigrations,
  kShardMigratedKeys,
  kShardImbalanceSumMilli,
  kShardImbalanceSamples,
  // No code bumps this: EBR reclaims on its periodic schedule alone.  The
  // enumerator survives, as SnapshotPolicy does, because perfbench's
  // `reclamation.ebr_pressure_events` metric names it.
  kEbrPressureEvents,
  kNumCounters
};

class Counters {
 public:
  static constexpr int kN = static_cast<int>(Counter::kNumCounters);

  static void bump(Counter c, std::uint64_t n = 1) {
    (*slots_[ThreadRegistry::thread_id()])[static_cast<int>(c)] += n;
  }

  struct Snapshot {
    std::array<std::uint64_t, kN> v{};
    std::uint64_t operator[](Counter c) const { return v[static_cast<int>(c)]; }
  };

  // Sums all thread slots (approximate while threads run; exact at quiescence).
  static Snapshot snapshot();

  // Zeroes all slots; call only while no worker threads run.
  static void reset();

 private:
  static Padded<std::array<std::uint64_t, kN>> slots_[kMaxThreads];
};

}  // namespace cbat
