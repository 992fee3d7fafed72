#include "bench/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

namespace cbat::bench {

namespace {

using Clock = std::chrono::steady_clock;

struct ThreadTotals {
  std::int64_t ops = 0;
  std::int64_t updates = 0;
  std::int64_t finds = 0;
  std::int64_t queries = 0;
  LatencyHistogram update_hist;
  LatencyHistogram find_hist;
  LatencyHistogram query_hist;
};

void worker(api::AbstractOrderedSet& set, const RunConfig& cfg, int tid,
            std::atomic<int>& ready, std::atomic<bool>& go,
            std::atomic<bool>& stop, std::atomic<std::int64_t>& sorted_ctr,
            ThreadTotals& out) {
  const Workload& w = cfg.workload;
  // Stock this thread's object pools before the first sampled operation,
  // so cold-allocation jitter stays out of the latency percentiles (the
  // pools are per-thread; prefill warmed other threads).
  set.warm_up(1u << 12);
  OpStream stream(w, cfg.seed + 7919ULL * static_cast<std::uint64_t>(tid + 1),
                  &sorted_ctr);
  stream.set_size_hint(w.max_key / 2);
  ThreadTotals tt;
  // Sample latency on every 32nd operation to keep clock overhead out of
  // the throughput numbers.
  int sample_countdown = 32 + tid;
  // Start barrier: warm-up and stream construction must not eat into the
  // measured window (they produce zero ops, and only some structures
  // implement warm_up — unbarriered they would bias the cross-structure
  // figures).  The driver takes t0 once every worker has checked in.
  ready.fetch_add(1, std::memory_order_release);
  while (!go.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Stop is polled after each operation, so a worker the scheduler keeps
  // off the CPU for a whole short window still records one.
  do {
    const auto op = stream.next_op();
    const bool sample = --sample_countdown == 0;
    Clock::time_point t0;
    if (sample) t0 = Clock::now();
    switch (op) {
      case OpStream::Op::kInsert:
        set.insert(stream.next_key());
        ++tt.updates;
        break;
      case OpStream::Op::kDelete:
        set.erase(stream.next_key());
        ++tt.updates;
        break;
      case OpStream::Op::kFind:
        set.contains(stream.next_key());
        ++tt.finds;
        break;
      case OpStream::Op::kQuery: {
        switch (w.query_kind) {
          case QueryKind::kRange: {
            const Key lo = stream.next_range_lo();
            set.range_count(lo, lo + static_cast<Key>(w.rq_size) - 1);
            break;
          }
          case QueryKind::kRank:
            set.rank(stream.next_key());
            break;
          case QueryKind::kSelect: {
            const std::int64_t n =
                std::max<std::int64_t>(stream.snapshot_size_hint(), 1);
            set.select_query(1 +
                             static_cast<std::int64_t>(stream.next_key()) % n);
            break;
          }
          case QueryKind::kRangeAgg: {
            const Key lo = stream.next_hot_range_lo();
            set.range_aggregate(lo, lo + static_cast<Key>(w.rq_size) - 1);
            break;
          }
        }
        ++tt.queries;
        break;
      }
    }
    if (sample) {
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      if (op == OpStream::Op::kQuery) {
        tt.query_hist.record(ns);
      } else if (op == OpStream::Op::kFind) {
        tt.find_hist.record(ns);
      } else {
        tt.update_hist.record(ns);
      }
      sample_countdown = 32;
    }
    ++tt.ops;
    // relaxed: stop polling; one late iteration is harmless and the join
    // below synchronizes the final counts.
  } while (!stop.load(std::memory_order_relaxed));
  out = tt;
}

}  // namespace

void prefill(api::AbstractOrderedSet& set, const Workload& w, int threads,
             std::uint64_t seed) {
  const std::int64_t target = w.max_key / 2;
  // Threads claim batches of successful inserts up front, with the last
  // batch bounded by the remaining target, so the prefilled size is
  // *exactly* target.  (The previous per-thread 256-op local counters were
  // invisible to the other threads' termination checks, overshooting the
  // target by up to threads*256 and skewing small-tree cells.)
  constexpr std::int64_t kBatch = 256;
  std::atomic<std::int64_t> claimed{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      set.warm_up(static_cast<std::size_t>(
          std::max<std::int64_t>(target / threads, 1)));
      Xoshiro256 rng(seed + 1000003ULL * static_cast<std::uint64_t>(t));
      while (true) {
        // relaxed: batch ticket counter; only uniqueness matters and
        // fetch_add is atomic at any ordering.
        const std::int64_t got =
            claimed.fetch_add(kBatch, std::memory_order_relaxed);
        if (got >= target) break;
        const std::int64_t batch = std::min(kBatch, target - got);
        for (std::int64_t done = 0; done < batch;) {
          const Key k = static_cast<Key>(
              rng.below(static_cast<std::uint64_t>(w.max_key)));
          if (set.insert(k)) ++done;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
}

RunResult run_on(api::AbstractOrderedSet& set, const RunConfig& cfg) {
  // Let keyspace-aware structures (the shard layer) align their key map to
  // the workload before any key goes in, through the unified configure()
  // front door (structures without a use for the hint ignore it).
  api::SetOptions opts;
  opts.key_range_hint = cfg.workload.max_key;
  set.configure(opts);
  if (cfg.prefill) prefill(set, cfg.workload, cfg.threads, cfg.seed ^ 0xabcd);
  // The prefill's threads have joined and no worker has started, so the
  // counters read after the join below count the timed window alone.
  Counters::reset();

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> sorted_ctr{0};
  std::vector<ThreadTotals> totals(cfg.threads);
  std::vector<std::thread> ts;
  for (int t = 0; t < cfg.threads; ++t) {
    ts.emplace_back(worker, std::ref(set), std::cref(cfg), t, std::ref(ready),
                    std::ref(go), std::ref(stop), std::ref(sorted_ctr),
                    std::ref(totals[t]));
  }
  while (ready.load(std::memory_order_acquire) < cfg.threads) {
    std::this_thread::yield();
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
  // relaxed: see the worker's stop poll; join() publishes everything.
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : ts) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();

  RunResult r;
  r.structure = set.name();
  r.config = cfg;
  r.seconds = secs;
  r.counters = Counters::snapshot();
  LatencyHistogram update_hist, find_hist, query_hist;
  for (const auto& tt : totals) {
    r.total_ops += tt.ops;
    r.updates += tt.updates;
    r.finds += tt.finds;
    r.queries += tt.queries;
    update_hist.merge(tt.update_hist);
    find_hist.merge(tt.find_hist);
    query_hist.merge(tt.query_hist);
  }
  r.update_latency = LatencyStats::from(update_hist);
  r.find_latency = LatencyStats::from(find_hist);
  r.query_latency = LatencyStats::from(query_hist);
  return r;
}

RunResult run_benchmark(const std::string& structure, const RunConfig& cfg,
                        int repeats) {
  RunResult best;
  for (int rep = 0; rep < std::max(repeats, 1); ++rep) {
    auto set = api::StructureRegistry::instance().create(structure);
    if (!set) {
      best.structure = "UNKNOWN:" + structure;
      return best;
    }
    RunResult r = run_on(*set, cfg);
    if (rep == 0 || r.throughput() > best.throughput()) best = std::move(r);
  }
  return best;
}

}  // namespace cbat::bench
