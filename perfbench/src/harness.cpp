#include "harness.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench/driver.h"
#include "core/bat_tree.h"
#include "reclamation/ebr.h"
#include "shard/sharded_set.h"
#include "spans.h"
#include "stats.h"
#include "util/counters.h"
#include "util/random.h"

namespace perfbench {

using cbat::Counter;
using cbat::Key;
using cbat::api::AbstractOrderedSet;
using cbat::bench::KeyDist;
using cbat::bench::OpStream;
using cbat::bench::QueryKind;
using cbat::bench::Workload;

namespace {

// Every workload prefills max_key/2 of 1M uniform keys: ~500K leaves plus
// their version trees, far larger than the last-level cache.
constexpr Key kMaxKey = 1'000'000;
constexpr int kThreads = 4;               // closed-loop workers, one per core
constexpr int kWarmupOps = 1 << 14;      // per worker, part of set-up
// Throughput and latency percentiles are taken per interval and reported
// as medians over intervals, so a burst of outside load that stalls the
// workers for a few seconds moves few of them.
constexpr int kIntervalMs = 500;
constexpr int kTicksPerInterval = 5;     // main thread wakes every 100 ms
constexpr std::size_t kLatencyReservoir = 2048;  // per thread/class/interval
constexpr std::size_t kSpanCapacity = 1 << 19;   // per worker, traced run
// Spans of one sampled operation, at most: the op, the generator and three
// layer calls.
constexpr std::size_t kMaxSpansPerOp = 5;

Workload make_mix(double ins, double del, double find, double query,
                  QueryKind kind, KeyDist dist) {
  Workload w;
  w.insert_pct = ins;
  w.delete_pct = del;
  w.find_pct = find;
  w.query_pct = query;
  w.query_kind = kind;
  w.dist = dist;
  w.zipf_theta = 0.99;
  w.max_key = kMaxKey;
  w.rq_size = 10'000;
  return w;
}

// The traced run calls the layers directly, so it binds the concrete types
// behind the two registry names; run() checks the binding before it
// measures anything.
using TreeT = cbat::BatEagerDel<cbat::SizeAug>;
using ForestT = cbat::ShardedSet<cbat::Bat<cbat::SizeAug>, 16,
                                 cbat::SnapshotPolicy::kLinearizable>;

// Layer views with one shape for the single tree and the forest.  On the
// single tree "route" is the identity and the snapshot is the tree's own
// root snapshot, so the shard spans read what that step costs there.
struct TreeLayers {
  TreeT& t;
  using Snapshot = TreeT::Snapshot;
  static constexpr int kShards = 1;
  int route(Key) const { return 0; }
  bool insert(int, Key k) { return t.insert(k); }
  bool erase(int, Key k) { return t.erase(k); }
  bool contains(int, Key k) const { return t.contains(k); }
  std::uint64_t epoch() const { return 0; }
};

struct ForestLayers {
  ForestT& t;
  using Snapshot = ForestT::Snapshot;
  static constexpr int kShards = ForestT::num_shards();
  int route(Key k) const { return t.shard_of(k); }
  bool insert(int s, Key k) { return t.shard_at(s).insert(k); }
  bool erase(int s, Key k) { return t.shard_at(s).erase(k); }
  bool contains(int s, Key k) const { return t.shard_at(s).contains(k); }
  std::uint64_t epoch() const { return t.current_epoch(); }
};

constexpr int kMaxShards = ForestLayers::kShards;

// Operation classes, in the order the latency metrics are named.
enum Cls { kUpd = 0, kFnd = 1, kQry = 2, kNumCls = 3 };

struct Op {
  OpStream::Op kind;
  Key a = 0;
  Key b = 0;
};

Op next_op(OpStream& s, const Workload& w) {
  Op o{s.next_op()};
  if (o.kind == OpStream::Op::kQuery && w.query_kind == QueryKind::kRangeAgg) {
    o.a = s.next_hot_range_lo();
    o.b = o.a + static_cast<Key>(w.rq_size) - 1;
  } else {
    o.a = s.next_key();
  }
  return o;
}

Cls cls_of(OpStream::Op k) {
  switch (k) {
    case OpStream::Op::kInsert:
    case OpStream::Op::kDelete:
      return kUpd;
    case OpStream::Op::kFind:
      return kFnd;
    case OpStream::Op::kQuery:
      break;
  }
  return kQry;
}

// One worker's state.  Only `ops` is read while the worker runs.
struct alignas(64) Worker {
  std::atomic<std::uint64_t> ops{0};
  alignas(64) std::int64_t inserted = 0;  // updates that returned true
  std::int64_t erased = 0;
  std::array<std::int64_t, kNumCls> done{};
  std::array<std::int64_t, kMaxShards> shard_updates{};
  std::int64_t sink = 0;
  std::vector<Reservoir> lat;  // untraced run: [interval * kNumCls + class]
  std::unique_ptr<SpanBuffer> spans;  // traced run
};

struct Shared {
  AbstractOrderedSet* set = nullptr;
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  int intervals = 0;
  std::barrier<> sync;
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::atomic<bool> pause{false};
  std::atomic<int> interval{0};
  explicit Shared(int parties) : sync(parties) {}
};

void apply(AbstractOrderedSet& set, const Workload& w, const Op& o,
           Worker& wk) {
  switch (o.kind) {
    case OpStream::Op::kInsert:
      if (set.insert(o.a)) ++wk.inserted;
      break;
    case OpStream::Op::kDelete:
      if (set.erase(o.a)) ++wk.erased;
      break;
    case OpStream::Op::kFind:
      wk.sink += set.contains(o.a) ? 1 : 0;
      break;
    case OpStream::Op::kQuery:
      wk.sink += w.query_kind == QueryKind::kRangeAgg
                     ? set.range_aggregate(o.a, o.b)
                     : set.rank(o.a);
      break;
  }
}

// The untraced operation: the public AbstractOrderedSet API, timed on a
// per-class stride.
void api_op(Shared& sh, OpStream& s, Worker& wk,
            std::array<int, kNumCls>& countdown,
            const std::array<int, kNumCls>& stride) {
  const Op o = next_op(s, sh.spec->mix);
  const Cls c = cls_of(o.kind);
  const bool timed = --countdown[c] == 0;
  const std::int64_t t0 = timed ? now_ns() : 0;
  apply(*sh.set, sh.spec->mix, o, wk);
  if (timed) {
    const std::int64_t ns = now_ns() - t0;
    // relaxed: which interval a sample lands in needs no ordering.
    const int i = std::min(sh.interval.load(std::memory_order_relaxed),
                           sh.intervals - 1);
    wk.lat[static_cast<std::size_t>(i * kNumCls + c)].add(
        static_cast<double>(ns));
    countdown[c] = stride[c];
  }
  ++wk.done[c];
}

// Spans of one sampled operation.  Children tile the op span: one clock
// read ends a child and starts the next.  With a null buffer (the plain
// intervals of the traced run) nothing is read or recorded, so those
// intervals run the same code as the traced ones, minus the spans.
struct Tracer {
  SpanBuffer* buf;
  std::uint64_t op_id;
  std::int32_t root = -1;
  std::int32_t child = -1;

  void begin() {
    if (!buf) return;
    const std::int64_t t = now_ns();
    root = buf->open(SpanName::kOp, -1, op_id, t);
    child = buf->open(SpanName::kOpGen, root, op_id, t);
  }
  void step(SpanName next) {
    if (!buf) return;
    const std::int64_t t = now_ns();
    buf->close(child, t);
    child = buf->open(next, root, op_id, t);
  }
  void end() {
    if (!buf) return;
    const std::int64_t t = now_ns();
    buf->close(child, t);
    buf->close(root, t);
  }
};

constexpr std::array<SpanName, kNumCls> kApiSpan = {
    SpanName::kApiUpdate, SpanName::kApiFind, SpanName::kApiQuery};
constexpr std::array<SpanName, kNumCls> kDirectSpan = {
    SpanName::kDirectUpdate, SpanName::kDirectFind, SpanName::kDirectQuery};

// Sampled operation through the API: the call api_op makes, as one span.
void traced_api_op(Shared& sh, OpStream& s, Worker& wk, Tracer& tr) {
  tr.begin();
  const Op o = next_op(s, sh.spec->mix);
  const Cls c = cls_of(o.kind);
  tr.step(kApiSpan[c]);
  apply(*sh.set, sh.spec->mix, o, wk);
  tr.end();
  ++wk.done[c];
}

// Sampled operation through the layers' own calls: the same work as the
// API call, either as one span (timed exactly as traced_api_op times the
// API call, so the two differ only by the API's own code) or, when
// `split`, one span per layer call.
template <class L>
void layered_op(L& l, Shared& sh, OpStream& s, Worker& wk, Tracer& tr,
                bool split) {
  const Workload& w = sh.spec->mix;
  tr.begin();
  const Op o = next_op(s, w);
  const Cls c = cls_of(o.kind);
  if (!split) tr.step(kDirectSpan[c]);
  const auto layer = [&](SpanName n) {
    if (split) tr.step(n);
  };
  if (c == kUpd || c == kFnd) {
    layer(SpanName::kRoute);
    const int shard = l.route(o.a);
    if (c == kFnd) {
      layer(SpanName::kFind);
      wk.sink += l.contains(shard, o.a) ? 1 : 0;
    } else {
      ++wk.shard_updates[static_cast<std::size_t>(shard)];
      layer(SpanName::kUpdate);
      if (o.kind == OpStream::Op::kInsert) {
        if (l.insert(shard, o.a)) ++wk.inserted;
      } else {
        if (l.erase(shard, o.a)) ++wk.erased;
      }
    }
  } else {
    std::optional<typename L::Snapshot> snap;
    layer(SpanName::kSnapshotAcquire);
    snap.emplace(l.t);
    layer(SpanName::kVersionQuery);
    wk.sink += w.query_kind == QueryKind::kRangeAgg
                   ? snap->range_aggregate(o.a, o.b)
                   : snap->rank(o.a);
    layer(SpanName::kSnapshotRelease);
    snap.reset();
  }
  tr.end();
  ++wk.done[c];
}

// Worker thread: warm-up, then the measured closed loop.  Two barrier
// phases: "set-up done" and "go".  The untraced run (`layers` null) makes
// every operation through api_op.  The traced run makes them in turn
// through the API, through the layers as one span, and through the layers
// split per call, and records spans for 1 operation in span_every.
template <class L>
void worker_main(Shared& sh, L* layers, int tid, Worker& wk) {
  AbstractOrderedSet& set = *sh.set;
  const Workload& w = sh.spec->mix;
  set.warm_up(1u << 12);
  OpStream s(w, sh.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(tid),
             nullptr);
  std::array<int, kNumCls> stride{};
  const std::array<double, kNumCls> share = {
      w.insert_pct + w.delete_pct, w.find_pct, w.query_pct};
  // Rare classes are timed on every operation so their p99 has enough
  // samples; common ones on every 16th, to keep clock reads out of the
  // throughput.
  for (int c = 0; c < kNumCls; ++c) stride[c] = share[c] <= 10 ? 1 : 16;
  std::array<int, kNumCls> countdown = stride;
  for (int i = 0; i < kWarmupOps; ++i) apply(set, w, next_op(s, w), wk);
  sh.sync.arrive_and_wait();  // set-up done
  sh.sync.arrive_and_wait();  // go
  const int span_every = sh.spec->span_every;
  int sample_countdown = span_every + tid;
  std::uint64_t n = 0;
  std::uint64_t sampled = 0;
  // relaxed: stop, pause and tracing are polled flags; one late operation
  // on either side of a flip is harmless, the pause handshake is ordered
  // by the barrier, and join() publishes the counts.
  while (!sh.stop.load(std::memory_order_relaxed)) {
    if (sh.pause.load(std::memory_order_relaxed)) {
      sh.sync.arrive_and_wait();  // parked: the main thread reads gauges
      sh.sync.arrive_and_wait();
    }
    if (layers == nullptr) {
      api_op(sh, s, wk, countdown, stride);
    } else {
      // Traced run: operations take the three paths in turn, so each
      // path's code is as warm as the others'.  A sampled operation takes
      // them in turn too, and records spans in traced intervals only.
      Tracer tr{nullptr, (static_cast<std::uint64_t>(tid) << 48) | n};
      std::uint64_t path = n;
      if (--sample_countdown == 0) {
        sample_countdown = span_every;
        path = sampled++;
        if (sh.tracing.load(std::memory_order_relaxed) &&
            wk.spans->begin_op(kMaxSpansPerOp)) {
          tr.buf = wk.spans.get();
        }
      }
      switch (path % 3) {
        case 0:
          traced_api_op(sh, s, wk, tr);
          break;
        case 1:
          layered_op(*layers, sh, s, wk, tr, /*split=*/false);
          break;
        default:
          layered_op(*layers, sh, s, wk, tr, /*split=*/true);
      }
    }
    ++n;
    // relaxed: a progress gauge the main thread samples; single writer.
    wk.ops.store(n, std::memory_order_relaxed);
  }
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Log note for a per-interval median; `n` (timed samples) is omitted when 0.
std::string samples_note(std::uint64_t n, int intervals) {
  return (n > 0 ? "n=" + std::to_string(n) + " timed ops, " : "") +
         "median of " + std::to_string(intervals) + " " +
         std::to_string(kIntervalMs) + "-ms intervals";
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> w = {
      {"tree_update", "BAT-EagerDel",
       make_mix(49, 49, 1, 1, QueryKind::kRank, KeyDist::kUniform), 32},
      {"forest_skew_mixed", "Sharded16-BAT-Lin",
       make_mix(25, 25, 40, 10, QueryKind::kRank, KeyDist::kZipf), 64},
      {"forest_read_agg", "Sharded16-BAT-Lin",
       make_mix(1, 1, 1, 97, QueryKind::kRangeAgg, KeyDist::kUniform), 512},
  };
  return w;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

CheckResult check_set(AbstractOrderedSet& set, const Workload& w,
                      std::int64_t expected_size, std::uint64_t seed,
                      int threads) {
  const Key n = w.max_key;
  std::vector<std::uint8_t> present(static_cast<std::size_t>(n));
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        const Key lo = n * t / threads;
        const Key hi = n * (t + 1) / threads;
        for (Key k = lo; k < hi; ++k) {
          present[static_cast<std::size_t>(k)] = set.contains(k) ? 1 : 0;
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  // prefix[k] = keys present in [0, k).
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (Key k = 0; k < n; ++k) {
    prefix[static_cast<std::size_t>(k) + 1] =
        prefix[static_cast<std::size_t>(k)] + present[static_cast<std::size_t>(k)];
  }
  const auto below = [&](Key k) {  // keys present in [0, k]
    return prefix[static_cast<std::size_t>(std::clamp<Key>(k + 1, 0, n))];
  };
  const std::int64_t count = prefix.back();

  CheckResult r;
  const auto expect = [&](const char* what, Key a, Key b, std::int64_t got,
                          std::int64_t want) {
    ++r.attempted;
    if (got == want) return;
    ++r.failed;
    if (r.failures.size() < 8) {
      r.failures.push_back(std::string(what) + "(" + std::to_string(a) + ", " +
                           std::to_string(b) + ") = " + std::to_string(got) +
                           ", want " + std::to_string(want));
    }
  };
  expect("size", 0, 0, set.size(), expected_size);
  expect("contains_sweep_count", 0, n - 1, count, expected_size);

  constexpr int kSamples = 1000;
  cbat::Xoshiro256 rng(seed ^ 0xc0ffee);
  const auto rq = static_cast<std::uint64_t>(std::max<std::int64_t>(w.rq_size, 1));
  for (int i = 0; i < kSamples; ++i) {
    const Key k = static_cast<Key>(rng.below(static_cast<std::uint64_t>(n)));
    expect("rank", k, 0, set.rank(k), below(k));
    if (count > 0) {
      const auto idx = 1 + static_cast<std::int64_t>(
                               rng.below(static_cast<std::uint64_t>(count)));
      // The idx-th key is the first k with prefix[k + 1] >= idx.
      const auto it = std::lower_bound(prefix.begin() + 1, prefix.end(), idx);
      expect("select", idx, 0, set.select_query(idx),
             static_cast<Key>(it - prefix.begin() - 1));
    }
    const Key lo = static_cast<Key>(rng.below(static_cast<std::uint64_t>(n)));
    const Key hi = lo + static_cast<Key>(rng.below(2 * rq));
    expect("range_count", lo, hi, set.range_count(lo, hi),
           below(hi) - below(lo - 1));
    expect("range_aggregate", lo, hi, set.range_aggregate(lo, hi),
           below(hi) - below(lo - 1));
  }
  // The workload's own hot ranges, drawn by the generator the workers use.
  OpStream hot(w, seed, nullptr);
  for (int i = 0; i < 8 * OpStream::kHotRanges; ++i) {
    const Key lo = hot.next_hot_range_lo();
    const Key hi = lo + static_cast<Key>(w.rq_size) - 1;
    expect("hot_range_aggregate", lo, hi, set.range_aggregate(lo, hi),
           below(hi) - below(lo - 1));
  }
  return r;
}

RunReport run(const RunOptions& opt) {
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) throw std::runtime_error("unknown workload " + opt.workload);
  auto& registry = cbat::api::StructureRegistry::instance();
  if (!registry.contains(spec->structure)) {
    throw std::runtime_error(std::string("structure not registered: ") +
                             spec->structure);
  }
  const Workload& w = spec->mix;
  const int intervals = std::max(opt.seconds * 1000 / kIntervalMs, 2);

  Shared sh(kThreads + 1);
  sh.spec = spec;
  sh.seed = opt.seed;
  sh.intervals = intervals;

  std::vector<std::unique_ptr<Worker>> workers;
  for (int t = 0; t < kThreads; ++t) {
    auto wk = std::make_unique<Worker>();
    if (opt.trace) {
      wk->spans = std::make_unique<SpanBuffer>(kSpanCapacity);
    } else {
      for (int i = 0; i < intervals * kNumCls; ++i) {
        wk->lat.emplace_back(kLatencyReservoir,
                             opt.seed ^ (0x1234567ULL * (i + 1) + t));
      }
    }
    workers.push_back(std::move(wk));
  }

  // Set-up, timed: construction, configure, prefill and each worker's
  // warm-up.  The workers then stay parked at "go".
  const std::int64_t t0 = now_ns();
  const std::unique_ptr<AbstractOrderedSet> set =
      registry.create(spec->structure);
  cbat::api::SetOptions o;
  o.key_range_hint = w.max_key;
  set->configure(o);
  cbat::bench::prefill(*set, w, kThreads, opt.seed);
  sh.set = set.get();
  std::optional<TreeLayers> tree_layers;
  std::optional<ForestLayers> forest_layers;
  if (opt.trace) {
    if (auto* m = dynamic_cast<cbat::api::SetModel<TreeT>*>(set.get())) {
      tree_layers.emplace(TreeLayers{m->tree()});
    } else if (auto* f =
                   dynamic_cast<cbat::api::SetModel<ForestT>*>(set.get())) {
      forest_layers.emplace(ForestLayers{f->tree()});
    } else {
      throw std::runtime_error(std::string(spec->structure) +
                               " is not the type the traced run binds");
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    Worker& wk = *workers[static_cast<std::size_t>(t)];
    if (tree_layers) {
      threads.emplace_back(worker_main<TreeLayers>, std::ref(sh),
                           &*tree_layers, t, std::ref(wk));
    } else if (forest_layers) {
      threads.emplace_back(worker_main<ForestLayers>, std::ref(sh),
                           &*forest_layers, t, std::ref(wk));
    } else {
      threads.emplace_back(worker_main<TreeLayers>, std::ref(sh), nullptr, t,
                           std::ref(wk));
    }
  }
  sh.sync.arrive_and_wait();  // set-up done
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  RunReport rep;
  if (opt.setup_only) {
    sh.stop.store(true, std::memory_order_relaxed);  // relaxed: the barrier
    sh.sync.arrive_and_wait();                       // orders it ("go")
    for (auto& th : threads) th.join();
    rep.metrics.push_back({"setup_s", setup_s, "s", "one set-up"});
    return rep;
  }

  // Workers are parked at the "go" barrier: nothing runs, so the counters
  // can be zeroed and the epoch read exactly.
  cbat::Counters::reset();
  const std::uint64_t epoch0 = forest_layers ? forest_layers->epoch() : 0;
  std::vector<double> rate(static_cast<std::size_t>(intervals));
  std::vector<bool> traced_interval(static_cast<std::size_t>(intervals));
  std::size_t limbo_max = 0;
  const auto sum_ops = [&] {
    std::uint64_t s = 0;
    // relaxed: gauge read of each worker's single-writer progress count.
    for (const auto& wk : workers) s += wk->ops.load(std::memory_order_relaxed);
    return s;
  };
  sh.sync.arrive_and_wait();  // go
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t prev_ops = 0;
  auto prev_t = start;
  for (int i = 0; i < intervals; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    traced_interval[static_cast<std::size_t>(i)] = traced;
    // relaxed: polled flags, see worker_main.
    sh.tracing.store(traced, std::memory_order_relaxed);
    sh.interval.store(i, std::memory_order_relaxed);
    for (int tick = 1; tick <= kTicksPerInterval; ++tick) {
      std::this_thread::sleep_until(
          start + std::chrono::milliseconds((i * kTicksPerInterval + tick) *
                                            kIntervalMs / kTicksPerInterval));
      // Ebr::pending() reads every thread's limbo bags unsynchronized, so
      // it is only read with the workers parked between operations.  The
      // traced run alone pays for that pause.
      if (opt.trace) {
        sh.pause.store(true, std::memory_order_relaxed);  // relaxed: the
        sh.sync.arrive_and_wait();  // barrier orders it
        limbo_max = std::max(limbo_max, cbat::Ebr::pending());
        sh.pause.store(false, std::memory_order_relaxed);  // relaxed: same
        sh.sync.arrive_and_wait();
      }
    }
    const std::uint64_t ops = sum_ops();
    const auto t = std::chrono::steady_clock::now();
    rate[static_cast<std::size_t>(i)] =
        static_cast<double>(ops - prev_ops) /
        std::chrono::duration<double>(t - prev_t).count();
    prev_ops = ops;
    prev_t = t;
  }
  sh.stop.store(true, std::memory_order_relaxed);  // relaxed: polled flag
  for (auto& th : threads) th.join();
  threads.clear();
  const double rss_mb = peak_rss_mb();
  const cbat::Counters::Snapshot ctr = cbat::Counters::snapshot();
  const std::uint64_t epoch1 = forest_layers ? forest_layers->epoch() : 0;

  std::int64_t expected = w.max_key / 2;
  std::array<std::int64_t, kNumCls> done{};
  std::array<std::int64_t, kMaxShards> shard_updates{};
  for (const auto& wk : workers) {
    expected += wk->inserted - wk->erased;
    for (int c = 0; c < kNumCls; ++c) done[c] += wk->done[c];
    for (int s = 0; s < kMaxShards; ++s) shard_updates[s] += wk->shard_updates[s];
  }
  const CheckResult check = check_set(*set, w, expected, opt.seed, kThreads);

  rep.attempted = check.attempted;
  rep.failed = check.failed;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "workload=%s structure=%s threads=%d seed=%llu seconds=%d "
                "trace=%d mix=%s dist=%s query=%s max_key=%lld",
                spec->name, spec->structure, kThreads,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, w.mix_string().c_str(),
                cbat::bench::key_dist_name(w.dist),
                cbat::bench::query_kind_name(w.query_kind),
                static_cast<long long>(w.max_key));
  rep.log.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "ops: updates=%lld finds=%lld queries=%lld; check: %lld of "
                "%lld failed (check_error_share=%g)",
                static_cast<long long>(done[kUpd]),
                static_cast<long long>(done[kFnd]),
                static_cast<long long>(done[kQry]),
                static_cast<long long>(check.failed),
                static_cast<long long>(check.attempted),
                ratio(static_cast<double>(check.failed),
                      static_cast<double>(check.attempted)));
  rep.log.push_back(buf);
  for (const auto& f : check.failures) rep.log.push_back("check failed: " + f);

  std::vector<double> plain, traced;
  for (int i = 0; i < intervals; ++i) {
    (traced_interval[static_cast<std::size_t>(i)] ? traced : plain)
        .push_back(rate[static_cast<std::size_t>(i)]);
  }
  const auto q = quartiles(plain);
  std::snprintf(buf, sizeof(buf),
                "throughput per %d-ms interval: q1=%.0f median=%.0f q3=%.0f "
                "ops/s over %zu intervals",
                kIntervalMs, q[0], q[1], q[2], plain.size());
  rep.log.push_back(buf);

  if (!opt.trace) {
    rep.metrics.push_back({"throughput_ops_s", q[1], "ops/s",
                           samples_note(0, static_cast<int>(plain.size()))});
    static const char* kClsName[kNumCls] = {"update", "find", "query"};
    for (int c = 0; c < kNumCls; ++c) {
      std::vector<double> p50, p99;
      std::uint64_t seen = 0;
      for (int i = 0; i < intervals; ++i) {
        std::vector<double> v;
        for (const auto& wk : workers) {
          const Reservoir& r = wk->lat[static_cast<std::size_t>(i * kNumCls + c)];
          v.insert(v.end(), r.values().begin(), r.values().end());
          seen += r.seen();
        }
        if (v.empty()) continue;
        p50.push_back(percentile(v, 50) / 1e3);
        p99.push_back(percentile(v, 99) / 1e3);
      }
      const std::string note = samples_note(seen, static_cast<int>(p50.size()));
      rep.metrics.push_back({std::string(kClsName[c]) + "_p50_us", median(p50),
                             "us", note});
      rep.metrics.push_back({std::string(kClsName[c]) + "_p99_us", median(p99),
                             "us", note});
    }
    rep.metrics.push_back({"setup_s", setup_s, "s", "this process's set-up"});
    rep.metrics.push_back({"peak_rss_mb", rss_mb, "MB", "VmHWM"});
    return rep;
  }

  // --- traced run: per-layer metrics ---------------------------------------
  std::array<std::vector<double>, static_cast<int>(SpanName::kCount)> dur;
  std::uint64_t dropped = 0;
  std::size_t nspans = 0;
  std::size_t nops = 0;
  std::FILE* csv = std::fopen(opt.span_csv.c_str(), "w");
  if (csv == nullptr) throw std::runtime_error("cannot write " + opt.span_csv);
  for (const auto& wk : workers) {
    const auto& spans = wk->spans->spans();
    nspans += spans.size();
    dropped += wk->spans->dropped();
    for (const Span& sp : spans) {
      dur[static_cast<int>(sp.name)].push_back(
          static_cast<double>(sp.end - sp.start));
      if (sp.parent < 0) ++nops;
    }
    dump_spans(csv, spans);
  }
  std::fclose(csv);
  std::snprintf(buf, sizeof(buf),
                "trace: %zu spans over %zu sampled ops (1 in %d), %llu "
                "dropped",
                nspans, nops, spec->span_every,
                static_cast<unsigned long long>(dropped));
  rep.log.push_back(buf);
  rep.log.push_back("spans written to " + opt.span_csv);
  auto& m = rep.metrics;
  const auto span_pct = [&](const char* name, SpanName n, double p) {
    auto& v = dur[static_cast<int>(n)];
    const std::string note = "n=" + std::to_string(v.size()) + " spans";
    m.push_back({name, smoothed_percentile(v, p), "ns", note});
  };
  const auto count = [&](Counter c) { return static_cast<double>(ctr[c]); };
  const double updates = static_cast<double>(done[kUpd]);
  const double calls = count(Counter::kPropagateCalls);
  std::int64_t hot = 0, routed = 0;
  for (const auto u : shard_updates) {
    hot = std::max(hot, u);
    routed += u;
  }
  span_pct("shard.snapshot_acquire_ns_p50", SpanName::kSnapshotAcquire, 50);
  span_pct("shard.snapshot_acquire_ns_p99", SpanName::kSnapshotAcquire, 99);
  m.push_back({"shard.epoch_advances_per_query",
               ratio(static_cast<double>(epoch1 - epoch0),
                     static_cast<double>(done[kQry])),
               "per_query", ""});
  span_pct("shard.route_ns_p50", SpanName::kRoute, 50);
  m.push_back({"shard.hot_shard_update_share",
               ratio(static_cast<double>(hot), static_cast<double>(routed)),
               "share", "n=" + std::to_string(routed) + " routed updates"});
  span_pct("core.update_ns_p50", SpanName::kUpdate, 50);
  span_pct("core.update_ns_p99", SpanName::kUpdate, 99);
  span_pct("core.version_query_ns_p50", SpanName::kVersionQuery, 50);
  m.push_back({"core.propagate_nodes_per_call",
               ratio(count(Counter::kPropagateNodes), calls), "per_call", ""});
  m.push_back({"core.refresh_cas_per_call",
               ratio(count(Counter::kRefreshCas), calls), "per_call", ""});
  m.push_back({"core.refresh_cas_fail_ratio",
               ratio(count(Counter::kRefreshCasFail),
                     count(Counter::kRefreshCas)),
               "ratio", ""});
  m.push_back({"core.nil_refreshes_per_call",
               ratio(count(Counter::kNilRefreshes), calls), "per_call", ""});
  m.push_back({"core.delegations_per_call",
               ratio(count(Counter::kDelegations), calls), "per_call", ""});
  m.push_back({"core.delegation_timeouts",
               count(Counter::kDelegationTimeouts), "count", ""});
  m.push_back({"llxscx.scx_attempts_per_update",
               ratio(count(Counter::kScxAttempts), updates), "per_update", ""});
  m.push_back({"llxscx.scx_fail_ratio",
               ratio(count(Counter::kScxFailures), count(Counter::kScxAttempts)),
               "ratio", ""});
  m.push_back({"chromatic.rebalance_steps_per_update",
               ratio(count(Counter::kRebalanceSteps), updates), "per_update",
               ""});
  m.push_back({"reclamation.limbo_depth_max", static_cast<double>(limbo_max),
               "count", "max of Ebr::pending(), sampled every 100 ms"});
  m.push_back({"reclamation.ebr_pressure_events",
               count(Counter::kEbrPressureEvents), "count", ""});
  std::vector<ClassSpans> by_class(kNumCls);
  for (int c = 0; c < kNumCls; ++c) {
    auto& api = dur[static_cast<int>(kApiSpan[c])];
    auto& direct = dur[static_cast<int>(kDirectSpan[c])];
    std::snprintf(buf, sizeof(buf),
                  "%s p50 %.1f ns (n=%zu), %s p50 %.1f ns (n=%zu)",
                  span_name(kApiSpan[c]), smoothed_percentile(api, 50),
                  api.size(), span_name(kDirectSpan[c]),
                  smoothed_percentile(direct, 50), direct.size());
    rep.log.push_back(buf);
    by_class[c] = {api, direct, static_cast<double>(done[c])};
  }
  m.push_back({"api.self_ns_p50", api_self_ns(by_class), "ns",
               "API call minus the same layer calls made directly"});
  const auto& gen = dur[static_cast<int>(SpanName::kOpGen)];
  m.push_back({"bench.opgen_ns_per_op", mean(gen), "ns",
               "n=" + std::to_string(gen.size()) + " spans"});
  const double base = median(plain);
  m.push_back({"trace_overhead_pct",
               base > 0 ? (base - median(traced)) / base * 100.0 : 0, "%",
               "median traced vs plain intervals, same code"});
  return rep;
}

}  // namespace perfbench
