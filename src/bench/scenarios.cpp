#include "bench/scenarios.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "bench/table.h"
#include "chromatic/chromatic_set.h"
#include "core/bat_tree.h"
#include "frbst/frbst.h"
#include "llxscx/llx_scx.h"
#include "reclamation/ebr.h"
#include "util/counters.h"
#include "util/flat_set.h"
#include "util/random.h"
#include "util/zipf.h"

namespace cbat::bench {

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Context helpers: the paper-scale / CI-scale / smoke-scale parameter
// defaults previously spread across bench/bench_common.h and the binaries.
// Explicit flags always win over the mode defaults.
// ---------------------------------------------------------------------------

long pick(const Args& a, const char* flag, long full, long smoke, long def) {
  if (a.full_scale()) return a.get_long(flag, full);
  if (a.smoke()) return a.get_long(flag, smoke);
  return a.get_long(flag, def);
}

std::vector<long> pick_list(const Args& a, const char* flag,
                            std::vector<long> full, std::vector<long> smoke,
                            std::vector<long> def) {
  if (a.full_scale()) return a.get_list(flag, std::move(full));
  if (a.smoke()) return a.get_list(flag, std::move(smoke));
  return a.get_list(flag, std::move(def));
}

// Best-of-N repetition: scheduler interference only ever slows a run
// down, so keeping the best repetition removes most one-sided noise.
// Smoke mode (the CI regression gate) defaults to 2 repetitions.
int repeats_for(const Args& args) {
  return static_cast<int>(
      args.get_long("--repeat", args.smoke() ? 2 : 1));
}

RunRecord& add_run(ScenarioOutput& out, std::string table, std::string x_label,
                   std::string x, std::string series, RunResult r) {
  RunRecord rec;
  rec.table = std::move(table);
  rec.x_label = std::move(x_label);
  rec.x = std::move(x);
  rec.series = std::move(series);
  rec.has_result = true;
  rec.result = std::move(r);
  out.runs.push_back(std::move(rec));
  return out.runs.back();
}

// Runs structure x xvalue sweeps and records one throughput cell each,
// series-major like the old bench_common.h sweep.
void sweep_throughput(ScenarioContext& ctx, const std::string& table,
                      const std::string& x_label,
                      const std::vector<std::string>& structures,
                      const std::vector<long>& xs,
                      const std::function<RunConfig(long)>& config_for) {
  for (const auto& s : structures) {
    for (long x : xs) {
      ctx.record(table, x_label, std::to_string(x), s, s, config_for(x));
    }
  }
}

}  // namespace

std::vector<long> ScenarioContext::thread_sweep() const {
  // Smoke uses a single uniform thread count: mixing 1- and 2-thread
  // cells would break compare_bench.py --normalize's assumption of one
  // machine-speed ratio when the baseline and CI runner core counts
  // differ.
  return pick_list(*args, "--threads", {1, 12, 24, 48, 96, 144, 192}, {2},
                   {1, 2, 4, 8});
}

int ScenarioContext::cell_ms(int ci_default) const {
  // Smoke cells are 150 ms: short enough for a ~30 s full sweep, long
  // enough that scheduler noise stays well inside the CI gate threshold.
  return static_cast<int>(pick(*args, "--ms", 3000, 150, ci_default));
}

long ScenarioContext::fixed_threads() const {
  // Figures 6, 7, 9, 10 and Table 3 fix TT=120 in the paper.
  return pick(*args, "--tt", 120, 2, 4);
}

RunRecord& ScenarioContext::record(const std::string& table,
                                   const std::string& x_label,
                                   const std::string& x,
                                   const std::string& series,
                                   const std::string& structure,
                                   const RunConfig& cfg, int repeats) {
  RunRecord& rec = add_run(
      *out, table, x_label, x, series,
      run_benchmark(structure, cfg, std::max(repeats_for(*args), repeats)));
  out->add_cell(table, x_label, x, series,
                fmt_throughput(rec.result.throughput()));
  std::fprintf(stderr, "  [%s %s=%s] %.3f Mop/s\n", series.c_str(),
               x_label.c_str(), x.c_str(), rec.result.mops());
  return rec;
}

// ---------------------------------------------------------------------------
// Figure scenarios (one per paper plot; parameters and comments carried
// over from the former standalone binaries).
// ---------------------------------------------------------------------------

namespace {

// The cross-structure comparison set the paper plots in Figures 6-9
// (BAT-EagerDel, its best variant, against the four baselines); Figure 10
// additionally includes plain BAT, and Figure 5 sweeps the BAT variants.
const std::vector<std::string> kPaperComparisonSet = {
    "BAT-EagerDel", "FR-BST", "VcasBST", "VerlibBTree", "BundledCitrusTree"};
const std::vector<std::string> kBatVariantsAndFrBst = {
    "BAT", "BAT-Del", "BAT-EagerDel", "FR-BST"};

std::vector<std::string> with_plain_bat(std::vector<std::string> set) {
  set.insert(set.begin(), "BAT");
  return set;
}

// Figure 5a: update-only throughput vs thread count, uniform keys
// (50-50-0-0, MK 10M).  Balancing should beat the unbalanced FR-BST, and
// delegation should add ~2x on top once threads contend.
void run_fig5a(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long maxkey = pick(args, "--maxkey", 10000000, 20000, 100000);
  const int ms = ctx.cell_ms();
  sweep_throughput(
      ctx,
      "Figure 5a: MK " + std::to_string(maxkey) +
          ", 50-50-0-0, uniform — throughput (ops/s)",
      "threads", kBatVariantsAndFrBst, ctx.thread_sweep(), [&](long t) {
        RunConfig cfg;
        cfg.workload.insert_pct = 50;
        cfg.workload.delete_pct = 50;
        cfg.workload.max_key = maxkey;
        cfg.threads = static_cast<int>(t);
        cfg.duration_ms = ms;
        return cfg;
      });
}

// Figure 5b: insert-only throughput vs thread count with the *sorted* key
// distribution and no prefill (100-0-0-0).  FR-BST degenerates to a path
// while the BAT variants stay logarithmic.
void run_fig5b(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long maxkey = pick(args, "--maxkey", 10000000, 20000, 100000);
  const int ms = ctx.cell_ms();
  sweep_throughput(
      ctx,
      "Figure 5b: MK " + std::to_string(maxkey) +
          ", 100-0-0-0, sorted keys, no prefill — throughput (ops/s)",
      "threads", kBatVariantsAndFrBst, ctx.thread_sweep(), [&](long t) {
        RunConfig cfg;
        cfg.workload.insert_pct = 100;
        cfg.workload.delete_pct = 0;
        cfg.workload.max_key = maxkey;
        cfg.workload.dist = KeyDist::kSorted;
        cfg.threads = static_cast<int>(t);
        cfg.duration_ms = ms;
        cfg.prefill = false;  // paper: Figure 5b has no prefilling
        return cfg;
      });
}

// Figure 5c: throughput vs thread count for rank, select and range queries
// on BAT-EagerDel (5-5-0-90, RQ 50K, MK 10M).
void run_fig5c(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long maxkey = pick(args, "--maxkey", 10000000, 20000, 100000);
  const long rq = pick(args, "--rq", 50000, 1000, 5000);
  const int ms = ctx.cell_ms();
  const std::string table = "Figure 5c: BAT-EagerDel, RQ " +
                            std::to_string(rq) + ", MK " +
                            std::to_string(maxkey) +
                            ", 5-5-0-90 — throughput (ops/s)";
  const std::pair<const char*, QueryKind> kinds[] = {
      {"Rank", QueryKind::kRank},
      {"RangeQuery", QueryKind::kRange},
      {"Select", QueryKind::kSelect},
  };
  for (const auto& [label, kind] : kinds) {
    for (long t : ctx.thread_sweep()) {
      RunConfig cfg;
      cfg.workload.insert_pct = 5;
      cfg.workload.delete_pct = 5;
      cfg.workload.query_pct = 90;
      cfg.workload.query_kind = kind;
      cfg.workload.rq_size = rq;
      cfg.workload.max_key = maxkey;
      cfg.threads = static_cast<int>(t);
      cfg.duration_ms = ms;
      ctx.record(table, "threads", std::to_string(t), label, "BAT-EagerDel",
                 cfg);
    }
  }
}

// Figure 6: throughput vs range-query size on a mixed workload
// (10-10-40-40, TT 120), for a small (6a) and a large (6b) tree.
void run_fig6(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long tt = ctx.fixed_threads();
  const int ms = ctx.cell_ms();
  const auto rqs =
      pick_list(args, "--rq", {8, 64, 256, 1024, 4096, 16384, 65536},
                {8, 512, 8192}, {8, 64, 512, 4096, 16384});
  const long small_mk =
      pick(args, "--maxkey-small", 100000, 20000, 100000);
  const long large_mk = pick(args, "--maxkey", 10000000, 50000, 400000);

  const std::vector<std::string>& structures = kPaperComparisonSet;

  for (const auto& [fig, maxkey] :
       {std::pair<const char*, long>{"6a (small tree)", small_mk},
        std::pair<const char*, long>{"6b (large tree)", large_mk}}) {
    sweep_throughput(
        ctx,
        std::string("Figure ") + fig + ": TT " + std::to_string(tt) +
            ", MK " + std::to_string(maxkey) +
            ", 10-10-40-40 — throughput (ops/s)",
        "rq_size", structures, rqs, [&, maxkey](long rq) {
          RunConfig cfg;
          cfg.workload.insert_pct = 10;
          cfg.workload.delete_pct = 10;
          cfg.workload.find_pct = 40;
          cfg.workload.query_pct = 40;
          cfg.workload.query_kind = QueryKind::kRange;
          cfg.workload.rq_size = rq;
          cfg.workload.max_key = maxkey;
          cfg.threads = static_cast<int>(tt);
          cfg.duration_ms = ms;
          return cfg;
        });
  }
}

// Figure 7: throughput vs percentage of rank queries, remaining ops split
// evenly between inserts and deletes (TT 120; 7a small, 7b large tree).
void run_fig7(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long tt = ctx.fixed_threads();
  const int ms = ctx.cell_ms();
  const std::vector<double> percents =
      args.smoke() ? std::vector<double>{0.1, 10}
                   : std::vector<double>{0.01, 0.1, 1, 10, 100};
  const long small_mk = pick(args, "--maxkey-small", 100000, 20000, 50000);
  const long large_mk = pick(args, "--maxkey", 10000000, 50000, 400000);

  const std::vector<std::string>& structures = kPaperComparisonSet;

  for (const auto& [fig, maxkey] :
       {std::pair<const char*, long>{"7a (small tree)", small_mk},
        std::pair<const char*, long>{"7b (large tree)", large_mk}}) {
    const std::string table =
        std::string("Figure ") + fig + ": TT " + std::to_string(tt) +
        ", MK " + std::to_string(maxkey) +
        ", (100-x)/2-(100-x)/2-0-x rank — throughput (ops/s)";
    for (const auto& s : structures) {
      for (double p : percents) {
        char xbuf[16];
        std::snprintf(xbuf, sizeof(xbuf), "%g%%", p);
        RunConfig cfg;
        cfg.workload.insert_pct = (100 - p) / 2;
        cfg.workload.delete_pct = (100 - p) / 2;
        cfg.workload.query_pct = p;
        cfg.workload.query_kind = QueryKind::kRank;
        cfg.workload.max_key = maxkey;
        cfg.threads = static_cast<int>(tt);
        cfg.duration_ms = ms;
        ctx.record(table, "rank_pct", xbuf, s, s, cfg);
      }
    }
  }
}

// Figure 8: throughput vs thread count with large range queries: 8a
// low-update (YCSB-B-like) and 8b high-update (YCSB-A-like) mixes.
void run_fig8(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long maxkey = pick(args, "--maxkey", 10000000, 50000, 200000);
  const long rq = pick(args, "--rq", 50000, 2000, 10000);
  const int ms = ctx.cell_ms();

  const std::vector<std::string>& structures = kPaperComparisonSet;

  struct Mix {
    const char* name;
    double i, d, f, q;
  };
  const Mix mixes[] = {
      {"8a (low update)", 2.5, 2.5, 47.5, 47.5},
      {"8b (high update)", 25, 25, 25, 25},
  };
  for (const Mix& m : mixes) {
    sweep_throughput(
        ctx,
        std::string("Figure ") + m.name + ": RQ " + std::to_string(rq) +
            ", MK " + std::to_string(maxkey) + " — throughput (ops/s)",
        "threads", structures, ctx.thread_sweep(), [&](long t) {
          RunConfig cfg;
          cfg.workload.insert_pct = m.i;
          cfg.workload.delete_pct = m.d;
          cfg.workload.find_pct = m.f;
          cfg.workload.query_pct = m.q;
          cfg.workload.query_kind = QueryKind::kRange;
          cfg.workload.rq_size = rq;
          cfg.workload.max_key = maxkey;
          cfg.threads = static_cast<int>(t);
          cfg.duration_ms = ms;
          return cfg;
        });
  }
}

// Figure 9: per-operation-class latency vs range-query size on the
// Figure 6b workload: 9a update latency, 9b range-query latency.  With the
// histogram driver each cell shows "p50 (p99)".
void run_fig9(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long tt = ctx.fixed_threads();
  const long maxkey = pick(args, "--maxkey", 10000000, 50000, 400000);
  const int ms = ctx.cell_ms();
  const auto rqs =
      pick_list(args, "--rq", {8, 64, 256, 1024, 4096, 16384, 65536},
                {8, 512, 8192}, {8, 64, 512, 4096, 16384});

  const std::vector<std::string>& structures = kPaperComparisonSet;

  const std::string t9a = "Figure 9a: TT " + std::to_string(tt) + ", MK " +
                          std::to_string(maxkey) +
                          ", 10-10-40-40 — update latency p50 (p99)";
  const std::string t9b =
      "Figure 9b: same workload — range-query latency p50 (p99)";

  auto cell_text = [](const LatencyStats& s) {
    return fmt_latency_ns(s.p50_ns) + " (" + fmt_latency_ns(s.p99_ns) + ")";
  };
  for (const auto& s : structures) {
    for (long rq : rqs) {
      RunConfig cfg;
      cfg.workload.insert_pct = 10;
      cfg.workload.delete_pct = 10;
      cfg.workload.find_pct = 40;
      cfg.workload.query_pct = 40;
      cfg.workload.query_kind = QueryKind::kRange;
      cfg.workload.rq_size = rq;
      cfg.workload.max_key = maxkey;
      cfg.threads = static_cast<int>(tt);
      cfg.duration_ms = ms;
      const std::string x = std::to_string(rq);
      const RunRecord& rec =
          add_run(*ctx.out, t9a, "rq_size", x, s,
                  run_benchmark(s, cfg, repeats_for(*ctx.args)));
      const RunResult& r = rec.result;
      ctx.out->add_cell(t9a, "rq_size", x, s, cell_text(r.update_latency));
      ctx.out->add_cell(t9b, "rq_size", x, s, cell_text(r.query_latency));
      std::fprintf(stderr, "  [%s rq=%ld] upd p50=%s rq p50=%s\n", s.c_str(),
                   rq, fmt_latency_ns(r.update_latency.p50_ns).c_str(),
                   fmt_latency_ns(r.query_latency.p50_ns).c_str());
    }
  }
}

// Figure 10: throughput vs data-structure size under the high-update mixed
// workload with Zipfian (theta=0.95) keys.
void run_fig10(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long tt = ctx.fixed_threads();
  const long rq = pick(args, "--rq", 50000, 1000, 5000);
  const int ms = ctx.cell_ms();
  const auto maxkeys =
      pick_list(args, "--maxkey", {100000, 1000000, 10000000},
                {10000, 50000}, {20000, 100000, 400000});

  const std::vector<std::string> structures =
      with_plain_bat(kPaperComparisonSet);

  sweep_throughput(
      ctx,
      "Figure 10: TT " + std::to_string(tt) + ", RQ " + std::to_string(rq) +
          ", 25-25-25-25, Zipfian 0.95 — throughput (ops/s)",
      "max_key", structures, maxkeys, [&](long mk) {
        RunConfig cfg;
        cfg.workload.insert_pct = 25;
        cfg.workload.delete_pct = 25;
        cfg.workload.find_pct = 25;
        cfg.workload.query_pct = 25;
        cfg.workload.query_kind = QueryKind::kRange;
        cfg.workload.rq_size = std::min<long>(rq, mk / 4);
        cfg.workload.max_key = mk;
        cfg.workload.dist = KeyDist::kZipf;
        cfg.workload.zipf_theta = 0.95;
        cfg.threads = static_cast<int>(tt);
        cfg.duration_ms = ms;
        return cfg;
      });
}

// §7 "Why Balancing Improves Throughput": per-Propagate statistics on a
// 25-25-25-25 workload under uniform and Zipfian (0.99) distributions.
void run_table3(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long tt = ctx.fixed_threads();
  const long maxkey = pick(args, "--maxkey", 100000, 20000, 100000);
  const long rq = pick(args, "--rq", 50000, 1000, 5000);
  const int ms = ctx.cell_ms(200);

  const std::vector<std::string>& structures = kBatVariantsAndFrBst;
  struct Dist {
    const char* name;
    KeyDist dist;
    double theta;
  };
  const Dist dists[] = {
      {"uniform", KeyDist::kUniform, 0},
      {"zipf-0.99", KeyDist::kZipf, 0.99},
  };

  const std::string table = "Table 3: propagate statistics (TT " +
                            std::to_string(tt) + ", MK " +
                            std::to_string(maxkey) + ", RQ " +
                            std::to_string(rq) + ", 25-25-25-25)";
  for (const auto& d : dists) {
    for (const auto& s : structures) {
      RunConfig cfg;
      cfg.workload.insert_pct = 25;
      cfg.workload.delete_pct = 25;
      cfg.workload.find_pct = 25;
      cfg.workload.query_pct = 25;
      cfg.workload.query_kind = QueryKind::kRange;
      cfg.workload.rq_size = std::min<long>(rq, maxkey / 4);
      cfg.workload.max_key = maxkey;
      cfg.workload.dist = d.dist;
      cfg.workload.zipf_theta = d.theta;
      cfg.threads = static_cast<int>(tt);
      cfg.duration_ms = ms;
      // One repetition; its counters cover the timed window alone.
      RunResult run = run_benchmark(s, cfg);
      const Counters::Snapshot& c = run.counters;
      const double props = std::max<double>(
          1, static_cast<double>(c[Counter::kPropagateCalls]));
      const double search = static_cast<double>(c[Counter::kSearchPathNodes]);
      const double extra =
          static_cast<double>(c[Counter::kPropagateExtraNodes]);
      const double nodes_per_prop =
          static_cast<double>(c[Counter::kPropagateNodes]) / props;
      const double extra_pct = search > 0 ? 100.0 * extra / search : 0.0;
      const double nil_per_prop =
          static_cast<double>(c[Counter::kNilRefreshes]) / props;
      const double cas_per_prop =
          static_cast<double>(c[Counter::kRefreshCas]) / props;
      const double deleg_per_prop =
          static_cast<double>(c[Counter::kDelegations]) / props;

      const std::string series = std::string(s) + " / " + d.name;
      RunRecord& rec =
          add_run(*ctx.out, table, "dist", d.name, series, std::move(run));
      rec.metrics = {{"nodes_per_prop", nodes_per_prop},
                     {"extra_pct", extra_pct},
                     {"nil_per_prop", nil_per_prop},
                     {"cas_per_prop", cas_per_prop},
                     {"deleg_per_prop", deleg_per_prop}};
      char buf[32];
      auto cell = [&](const char* metric, const char* fmt, double v) {
        std::snprintf(buf, sizeof(buf), fmt, v);
        ctx.out->add_cell(table, "metric", metric, series, buf);
      };
      cell("nodes/prop", "%.2f", nodes_per_prop);
      cell("extra%", "%.2f%%", extra_pct);
      cell("nil/prop", "%.4f", nil_per_prop);
      cell("cas/prop", "%.2f", cas_per_prop);
      cell("deleg/prop", "%.4f", deleg_per_prop);
      std::fprintf(stderr, "  [%s] %.2f nodes/prop, %.2f cas/prop\n",
                   series.c_str(), nodes_per_prop, cas_per_prop);
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-layer scenarios (ROADMAP: sharding).  Both emit the standard
// schema_version-1 JSON document like every figure scenario.
// ---------------------------------------------------------------------------

// shard_sweep: throughput vs shard count under an update-heavy mix with
// cross-shard range queries (45-45-0-10), for uniform and Zipfian keys.
// Sharded1-BAT is the single-shard control; near-linear separation from it
// is the win the shard layer exists for, and the Zipfian series shows it
// shrinking as the hot shard serializes updates.
void run_shard_sweep(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long maxkey = pick(args, "--maxkey", 10000000, 20000, 100000);
  const long rq = pick(args, "--rq", 50000, 1000, 5000);
  const long tt = ctx.fixed_threads();
  const int ms = ctx.cell_ms();
  const auto shard_counts =
      pick_list(args, "--shards", {1, 4, 16, 64}, {1, 16}, {1, 4, 16});

  struct Dist {
    const char* name;
    KeyDist dist;
    double theta;
  };
  const Dist dists[] = {
      {"uniform", KeyDist::kUniform, 0},
      {"zipf-0.95", KeyDist::kZipf, 0.95},
  };

  const std::string table = "shard_sweep: TT " + std::to_string(tt) +
                            ", MK " + std::to_string(maxkey) + ", RQ " +
                            std::to_string(rq) +
                            ", 45-45-0-10 — throughput (ops/s)";
  for (const Dist& d : dists) {
    for (long n : shard_counts) {
      const std::string structure = "Sharded" + std::to_string(n) + "-BAT";
      if (!api::StructureRegistry::instance().contains(structure)) {
        std::fprintf(stderr, "  [skip] %s is not registered\n",
                     structure.c_str());
        continue;
      }
      RunConfig cfg;
      cfg.workload.insert_pct = 45;
      cfg.workload.delete_pct = 45;
      cfg.workload.query_pct = 10;
      cfg.workload.query_kind = QueryKind::kRange;
      cfg.workload.rq_size = std::min<long>(rq, maxkey / 4);
      cfg.workload.max_key = maxkey;
      cfg.workload.dist = d.dist;
      cfg.workload.zipf_theta = d.theta;
      cfg.threads = static_cast<int>(tt);
      cfg.duration_ms = ms;
      ctx.record(table, "shards", std::to_string(n), d.name, structure, cfg);
    }
  }
}

// shard_hotspot: Zipf theta sweep of Sharded16-BAT against a single BAT on
// a pure-update mix.  Contiguous sharding sends the Zipf head keys to one
// shard, so rising skew concentrates updates there and erases the sharding
// win; the crossover theta is the number this scenario exists to plot.
void run_shard_hotspot(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long maxkey = pick(args, "--maxkey", 10000000, 20000, 100000);
  const long tt = ctx.fixed_threads();
  const int ms = ctx.cell_ms();
  const std::vector<double> thetas =
      args.full_scale()
          ? std::vector<double>{0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.1}
          : (args.smoke() ? std::vector<double>{0.6, 0.99}
                          : std::vector<double>{0.6, 0.8, 0.99});

  const std::string table = "shard_hotspot: TT " + std::to_string(tt) +
                            ", MK " + std::to_string(maxkey) +
                            ", 50-50-0-0 Zipfian — throughput (ops/s)";
  for (const char* s : {"BAT", "Sharded16-BAT"}) {
    for (double theta : thetas) {
      char xbuf[16];
      std::snprintf(xbuf, sizeof(xbuf), "%g", theta);
      RunConfig cfg;
      cfg.workload.insert_pct = 50;
      cfg.workload.delete_pct = 50;
      cfg.workload.max_key = maxkey;
      cfg.workload.dist = KeyDist::kZipf;
      cfg.workload.zipf_theta = theta;
      cfg.threads = static_cast<int>(tt);
      cfg.duration_ms = ms;
      ctx.record(table, "theta", xbuf, s, s, cfg);
    }
  }
}

// read_burst: the forest's read side on query-dominated mixes — one epoch
// cut per query, and the epoch-stamped per-shard aggregate cache
// (src/shard/aggregate_cache.h).  Two mixes (95/5 rank, 99/1
// range_aggregate) on Sharded16-BAT.  Each cell whose queries consulted
// the cache records `agg_cache_hit_rate` (stamp-validated lookups served
// without recomputation), which compare_bench.py gates.  The rank mix
// never consults the cache — rank reads per-shard sizes, not range
// pieces — so it times the cut and the resolve walk alone.
void run_read_burst(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const long maxkey = pick(args, "--maxkey", 1000000, 4000, 100000);
  const int ms = static_cast<int>(pick(args, "--ms", 3000, 600, 120));
  // Smoke runs 16 threads (oversubscribed on small CI runners) so readers
  // and writers interleave on every shard even there.
  const auto thread_counts =
      args.full_scale()
          ? args.get_list("--threads", {1, 12, 24, 48, 96})
          : args.get_list("--threads",
                          {args.smoke() ? 16L : ctx.fixed_threads()});

  struct Mix {
    long query_pct;
    QueryKind kind;
    const char* label;
  };
  // The 99/1 mix queries range_aggregate over the hot-range working set
  // (OpStream::kHotRanges fixed windows) rather than uniform range_count:
  // range_count composes from two rank descents and never consults the
  // cache, while the aggregate path's boundary descents are exactly what
  // the cache memoizes.
  const Mix mixes[] = {
      {95, QueryKind::kRank, "95/5 rank"},
      {99, QueryKind::kRangeAgg, "99/1 range-agg"},
  };
  const char* const structure = "Sharded16-BAT";

  for (const Mix& mix : mixes) {
    const std::string table =
        "read_burst: MK " + std::to_string(maxkey) + ", " + mix.label +
        " — throughput (ops/s)";
    auto config_for = [&](long threads) {
      RunConfig cfg;
      cfg.workload.insert_pct =
          static_cast<double>(100 - mix.query_pct) / 2;
      cfg.workload.delete_pct =
          static_cast<double>(100 - mix.query_pct) / 2;
      cfg.workload.query_pct = static_cast<double>(mix.query_pct);
      cfg.workload.query_kind = mix.kind;
      cfg.workload.max_key = maxkey;
      cfg.threads = static_cast<int>(threads);
      cfg.duration_ms = ms;
      return cfg;
    };
    for (long threads : thread_counts) {
      // Five rounds minimum in smoke: the CI host's run-to-run noise
      // (±10-15% between identical rounds) would otherwise dominate the
      // gate's comparison against the baseline.
      RunRecord& rec =
          ctx.record(table, "threads", std::to_string(threads), structure,
                     structure, config_for(threads), args.smoke() ? 5 : 1);
      // The kept run's cache counters.
      const Counters::Snapshot& c = rec.result.counters;
      const double hits = static_cast<double>(c[Counter::kAggCacheHits]);
      const double misses = static_cast<double>(c[Counter::kAggCacheMisses]);
      // Emitted only when the cell's queries consulted the cache at all:
      // reporting a synthetic 0.0 for the rank cells would trip the
      // hit-rate gate on a path that has no cache to hit.
      if (hits + misses == 0) continue;
      const double hit_rate = hits / (hits + misses);
      rec.metrics = {{"agg_cache_hit_rate", hit_rate}};
      std::fprintf(stderr, "    hit rate %.3f\n", hit_rate);
    }
  }
}

// rebalance: one forest type with its hot-shard controller on
// ("Sharded16-BAT-Adapt") and off ("Sharded16-BAT") on a pure-update
// Zipfian mix.  The even split sends the Zipf head to shard 0, which at
// theta >= 1.2 absorbs nearly all updates; with the controller on, the
// forest detects the hot shard from its update-rate counters and migrates
// key ranges (epoch-cut key migration, src/shard/) to the cool neighbors
// until no further median split helps.  Each adaptive cell records
// `migrations` / `migrated_keys` / `shard_imbalance` (hot-shard rate over
// the mean, averaged over policy checks) / `migration_aborts` into the
// schema-1 JSON; scripts/compare_bench.py requires `migrations` on every
// adaptive run (missing = schema error) and gates on the adaptive series
// not collapsing to the controller-off one at theta >= 1.2.  Smoke
// oversubscribes: the hot-shard penalty is runnable threads convoying on
// one shard's root refresh.
void run_rebalance(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  // 256K keys: wide enough that 1/16 of the keyspace is a meaningful Zipf
  // tail cut, small enough that a migration's bulk move finishes well
  // inside a smoke cell.  Cells shorter than ~1s hide the adaptive win
  // under the migration transient, so smoke runs a full second.
  const long maxkey = pick(args, "--maxkey", 1048576, 262144, 262144);
  const int ms = static_cast<int>(pick(args, "--ms", 3000, 1200, 400));
  const auto thread_counts =
      args.full_scale()
          ? args.get_list("--threads", {12, 24, 48, 96})
          : args.get_list("--threads", {args.smoke() ? 16L : 8L});
  const std::vector<double> thetas =
      args.full_scale()
          ? std::vector<double>{1.05, 1.2, 1.35, 1.5, 1.65}
          : (args.smoke() ? std::vector<double>{1.2, 1.4, 1.6}
                          : std::vector<double>{1.2, 1.4});

  struct Series {
    const char* structure;
    bool adaptive;
  };
  const Series series[] = {
      {"Sharded16-BAT", false},
      {"Sharded16-BAT-Adapt", true},
  };

  for (long threads : thread_counts) {
    const std::string table =
        "rebalance: TT " + std::to_string(threads) + ", MK " +
        std::to_string(maxkey) + ", 50-50-0-0 Zipfian — throughput (ops/s)";
    for (double theta : thetas) {
      char xbuf[16];
      std::snprintf(xbuf, sizeof(xbuf), "%g", theta);
      RunConfig cfg;
      cfg.workload.insert_pct = 50;
      cfg.workload.delete_pct = 50;
      cfg.workload.max_key = maxkey;
      cfg.workload.dist = KeyDist::kZipf;
      cfg.workload.zipf_theta = theta;
      cfg.threads = static_cast<int>(threads);
      cfg.duration_ms = ms;
      for (const Series& s : series) {
        // At least 3 repetitions even in smoke: a single oversubscribed
        // rep is too noisy for the adaptive-vs-static CI gate.
        RunRecord& rec =
            ctx.record(table, "theta", xbuf, s.structure, s.structure, cfg, 3);
        if (!s.adaptive) continue;
        // The kept run's migration counters.
        const Counters::Snapshot& c = rec.result.counters;
        const double migrations =
            static_cast<double>(c[Counter::kShardMigrations]);
        const double moved =
            static_cast<double>(c[Counter::kShardMigratedKeys]);
        const double imb_sum =
            static_cast<double>(c[Counter::kShardImbalanceSumMilli]);
        const double imb_n =
            static_cast<double>(c[Counter::kShardImbalanceSamples]);
        const double imbalance = imb_n > 0 ? imb_sum / 1000.0 / imb_n : 0.0;
        const double aborts =
            static_cast<double>(c[Counter::kShardMigrationAborts]);
        rec.metrics = {{"migrations", migrations},
                       {"migrated_keys", moved},
                       {"shard_imbalance", imbalance},
                       {"migration_aborts", aborts}};
        std::fprintf(stderr,
                     "    %g migrations, %g keys moved, imbalance %.1fx\n",
                     migrations, moved, imbalance);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Micro-kernel scenarios: the former google-benchmark binaries, re-hosted
// on a plain calibrated timing loop so they need no external library and
// share the JSON schema.
// ---------------------------------------------------------------------------

template <class T>
inline void do_not_optimize(const T& v) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "g"(&v) : "memory");
#else
  // volatile: deliberate optimizer barrier (fallback sink for compilers
  // without the asm escape above); never read, never raced.
  static volatile const void* sink;
  sink = &v;
#endif
}

// Runs `fn` in batches until ~target_ms of wall clock has elapsed and
// records one RunRecord + "ns/op" display cell for the kernel.
template <class Fn>
void record_micro(ScenarioContext& ctx, const std::string& table,
                  const std::string& kernel, int target_ms, Fn&& fn) {
  for (int i = 0; i < 64; ++i) fn();  // warmup
  const auto limit = std::chrono::milliseconds(target_ms);
  std::int64_t iters = 0;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < 256; ++i) fn();
    iters += 256;
  } while (Clock::now() - t0 < limit);
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double ns_per_op = secs * 1e9 / static_cast<double>(iters);

  RunRecord rec;
  rec.table = table;
  rec.x_label = "kernel";
  rec.x = kernel;
  rec.series = kernel;
  rec.has_result = true;
  rec.result.structure = kernel;
  rec.result.seconds = secs;
  rec.result.total_ops = iters;
  rec.result.config.threads = 1;
  rec.result.config.duration_ms = target_ms;
  rec.result.config.prefill = false;
  rec.metrics = {{"ns_per_op", ns_per_op}};
  ctx.out->runs.push_back(std::move(rec));
  ctx.out->add_cell(table, "kernel", kernel, "ns/op",
                    fmt_latency_ns(ns_per_op));
  std::fprintf(stderr, "  [%s] %.1f ns/op\n", kernel.c_str(), ns_per_op);
}

// Micro-benchmarks for the building blocks whose costs drive the
// end-to-end numbers: the EBR guard, the Zipf sampler, the flat pointer
// set, Propagate-carrying updates, and the order-statistic queries.
void run_micro_components(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const int ms = static_cast<int>(pick(args, "--ms", 500, 60, 100));
  const long n = args.smoke() ? 10000 : 50000;
  const long range = args.smoke() ? 20000 : 100000;
  const std::string table = "Micro: component kernels — ns/op";

  {
    record_micro(ctx, table, "EbrGuard", ms, [] {
      EbrGuard g;
      do_not_optimize(g);
    });
  }
  {
    Xoshiro256 rng(3);
    ZipfGenerator zipf(args.smoke() ? 100000 : 10000000, 0.99);
    record_micro(ctx, table, "ZipfNext", ms,
                 [&] { do_not_optimize(zipf.next(rng)); });
  }
  {
    FlatPtrSet set;
    std::vector<int> storage(64);
    record_micro(ctx, table, "FlatSetInsertClear", ms, [&] {
      for (auto& x : storage) set.insert(&x);
      set.clear();
    });
  }
  auto prefill_tree = [&](auto& t) {
    Xoshiro256 rng(7);
    for (long i = 0; i < n; ++i) {
      t.insert(static_cast<Key>(rng.below(static_cast<std::uint64_t>(range))));
    }
  };
  {
    Bat<SizeAug> t;
    prefill_tree(t);
    Xoshiro256 rng(9);
    record_micro(ctx, table, "BatUpdateWithPropagate", ms, [&] {
      const Key k =
          static_cast<Key>(rng.below(static_cast<std::uint64_t>(range)));
      t.insert(k);
      t.erase(k);
    });
  }
  {
    FrBst<SizeAug> t;
    prefill_tree(t);
    Xoshiro256 rng(9);
    record_micro(ctx, table, "FrBstUpdateWithPropagate", ms, [&] {
      const Key k =
          static_cast<Key>(rng.below(static_cast<std::uint64_t>(range)));
      t.insert(k);
      t.erase(k);
    });
  }
  {
    Bat<SizeAug> t;
    prefill_tree(t);
    Xoshiro256 rng(11);
    record_micro(ctx, table, "BatRank", ms, [&] {
      do_not_optimize(t.rank(
          static_cast<Key>(rng.below(static_cast<std::uint64_t>(range)))));
    });
  }
  {
    Bat<SizeAug> t;
    prefill_tree(t);
    for (long rq : {64L, 1024L, 16384L}) {
      if (rq >= range) continue;
      Xoshiro256 rng(13);
      record_micro(ctx, table, "BatRangeCount/" + std::to_string(rq), ms,
                   [&, rq] {
                     const Key lo = static_cast<Key>(
                         rng.below(static_cast<std::uint64_t>(range - rq)));
                     do_not_optimize(
                         t.range_count(lo, lo + static_cast<Key>(rq) - 1));
                   });
    }
  }
  {
    Bat<SizeAug> t;
    prefill_tree(t);
    const auto sz = std::max<std::int64_t>(t.size(), 1);
    Xoshiro256 rng(15);
    record_micro(ctx, table, "BatSelect", ms, [&] {
      do_not_optimize(t.select(
          1 + static_cast<std::int64_t>(
                  rng.below(static_cast<std::uint64_t>(sz)))));
    });
  }
}

// Micro-benchmarks for the LLX/SCX substrate: an uncontended LLX, a full
// LLX+SCX child swing, and chromatic-tree point operations on top.
void run_micro_llxscx(ScenarioContext& ctx) {
  const Args& args = *ctx.args;
  const int ms = static_cast<int>(pick(args, "--ms", 500, 60, 100));
  const long n = args.smoke() ? 2000 : 10000;
  const long range = 2 * n;
  const std::string table = "Micro: LLX/SCX substrate — ns/op";

  {
    EbrGuard g;
    Node* a = new Node(1, 1, nullptr, nullptr);
    Node* b = new Node(5, 1, nullptr, nullptr);
    Node* p = new Node(5, 1, a, b);
    record_micro(ctx, table, "LlxUncontended", ms, [&] {
      LlxSnap s;
      do_not_optimize(llx(p, &s));
    });
    release_node_info(p);
    release_node_info(a);
    release_node_info(b);
    delete p;
    delete a;
    delete b;
  }
  {
    // Inner scope: Ebr::drain() requires quiescence, so the guard must
    // end before it runs or the epoch never advances past the retired
    // nodes from the measurement loop.
    {
      EbrGuard g;
      Node* cell = new Node(0, 1, nullptr, nullptr);
      Node* right = new Node(100, 1, nullptr, nullptr);
      Node* p = new Node(100, 1, cell, right);
      record_micro(ctx, table, "ScxChildSwing", ms, [&] {
        LlxSnap ps, cs;
        if (llx(p, &ps) != LlxStatus::kOk) return;
        Node* cur = ps.left();
        if (llx(cur, &cs) != LlxStatus::kOk) return;
        Node* next = new Node(cur->key + 1, 1, nullptr, nullptr);
        LlxSnap v[2] = {ps, cs};
        if (scx(v, 2, 1, &p->child[0], next)) {
          Ebr::retire(cur, [](void* q) {
            Node* nn = static_cast<Node*>(q);
            release_node_info(nn);
            delete nn;
          });
        } else {
          release_node_info(next);
          delete next;
        }
      });
      release_node_info(p);
      release_node_info(right);
      Node* last = p->child[0].load();
      release_node_info(last);
      delete last;
      delete p;
      delete right;
    }
    Ebr::drain();
  }
  {
    ChromaticSet set;
    Xoshiro256 rng(1);
    for (long i = 0; i < n; ++i) {
      set.insert(
          static_cast<Key>(rng.below(static_cast<std::uint64_t>(range))));
    }
    record_micro(ctx, table, "ChromaticInsertErase", ms, [&] {
      const Key k =
          static_cast<Key>(rng.below(static_cast<std::uint64_t>(range)));
      set.insert(k);
      set.erase(k);
    });
  }
  {
    ChromaticSet set;
    Xoshiro256 rng(2);
    for (long i = 0; i < n; ++i) {
      set.insert(
          static_cast<Key>(rng.below(static_cast<std::uint64_t>(range))));
    }
    record_micro(ctx, table, "ChromaticContains", ms, [&] {
      do_not_optimize(set.contains(
          static_cast<Key>(rng.below(static_cast<std::uint64_t>(range)))));
    });
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

ScenarioRegistry::ScenarioRegistry()
    : scenarios_{
          {"fig5a",
           "Figure 5a: update-only throughput vs threads, uniform keys",
           run_fig5a},
          {"fig5b",
           "Figure 5b: insert-only throughput vs threads, sorted keys, no "
           "prefill",
           run_fig5b},
          {"fig5c",
           "Figure 5c: rank/select/range query scalability on BAT-EagerDel",
           run_fig5c},
          {"fig6",
           "Figure 6: throughput vs range-query size (small & large tree)",
           run_fig6},
          {"fig7",
           "Figure 7: throughput vs rank-query percentage (small & large "
           "tree)",
           run_fig7},
          {"fig8",
           "Figure 8: throughput vs threads with large range queries "
           "(low/high update)",
           run_fig8},
          {"fig9",
           "Figure 9: p50/p99 update and range-query latency vs range size",
           run_fig9},
          {"fig10",
           "Figure 10: throughput vs structure size under Zipfian skew",
           run_fig10},
          {"table3",
           "Table 3: per-Propagate statistics (nodes, nil fills, CASes, "
           "delegations)",
           run_table3},
          {"shard_sweep",
           "Shard layer: throughput vs shard count, uniform and Zipfian "
           "keys",
           run_shard_sweep},
          {"shard_hotspot",
           "Shard layer: Zipf theta sweep showing where a hot shard erases "
           "the win",
           run_shard_hotspot},
          {"read_burst",
           "Read side: per-query epoch cuts and the epoch-stamped "
           "aggregate cache on query-heavy mixes",
           run_read_burst},
          {"rebalance",
           "Hot-shard rebalancing: one forest with its controller on vs "
           "off under Zipf skew",
           run_rebalance},
          {"micro_components",
           "Micro: component kernels (EBR guard, Zipf, flat set, propagate, "
           "queries)",
           run_micro_components},
          {"micro_llxscx",
           "Micro: LLX/SCX substrate and chromatic point operations",
           run_micro_llxscx}} {}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* reg = new ScenarioRegistry();
  return *reg;
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  return out;
}

// ---------------------------------------------------------------------------
// Rendering and JSON emission
// ---------------------------------------------------------------------------

void render_tables(const ScenarioOutput& out, bool csv) {
  std::vector<std::string> order;
  for (const auto& c : out.cells) {
    if (std::find(order.begin(), order.end(), c.table) == order.end()) {
      order.push_back(c.table);
    }
  }
  for (const auto& name : order) {
    std::string x_label;
    std::vector<std::string> columns;
    for (const auto& c : out.cells) {
      if (c.table != name) continue;
      if (x_label.empty()) x_label = c.x_label;
      if (std::find(columns.begin(), columns.end(), c.x) == columns.end()) {
        columns.push_back(c.x);
      }
    }
    Table t(name, x_label);
    t.set_columns(columns);
    for (const auto& c : out.cells) {
      if (c.table == name) t.add_cell(c.series, c.text);
    }
    if (csv) {
      t.print_csv();
    } else {
      t.print();
    }
  }
}

namespace {

void append_latency_json(JsonWriter& w, const LatencyStats& s) {
  w.begin_object();
  w.kv("count", s.count);
  w.kv("mean", s.mean_ns);
  w.kv("p50", s.p50_ns);
  w.kv("p90", s.p90_ns);
  w.kv("p99", s.p99_ns);
  w.kv("max", s.max_ns);
  w.end_object();
}

void append_run_json(JsonWriter& w, const RunRecord& rec) {
  // Static capabilities, straight from the registry's type-derived
  // StructureInfo — consumers (scripts/compare_bench.py) read these
  // instead of parsing structure names.  Absent for micro kernels and any
  // other non-registry series.
  const std::optional<api::StructureInfo> info =
      rec.has_result
          ? api::StructureRegistry::instance().info(rec.result.structure)
          : std::nullopt;
  w.begin_object();
  w.kv("table", rec.table);
  w.kv("x_label", rec.x_label);
  w.kv("x", rec.x);
  w.kv("series", rec.series);
  // How range aggregates were answered: "cached" through a forest's
  // epoch-stamped aggregate cache, or "direct" from the pinned roots.
  w.kv("read_path", info && info->cached_reads ? "cached" : "direct");
  if (rec.has_result) {
    const RunResult& r = rec.result;
    const Workload& wl = r.config.workload;
    w.kv("structure", r.structure);
    if (info) {
      // Schema 1 is append-only, so the consistency and rankedness keys
      // stay in every structure's record: every registered structure is
      // ranked and linearizable.  Micro kernels carry neither.
      w.kv("consistency", "linearizable");
      w.key("capabilities");
      w.begin_object();
      w.kv("ranked", true);
      w.kv("consistency", "linearizable");
      // The same holds for these two: no registered structure combines
      // updates or reads.
      w.kv("combining", false);
      w.kv("read_combining", false);
      w.kv("adaptive", info->adaptive);
      w.kv("shards", static_cast<std::int64_t>(info->shards));
      w.end_object();
    }
    w.key("config");
    w.begin_object();
    w.kv("mix", wl.mix_string());
    w.kv("insert_pct", wl.insert_pct);
    w.kv("delete_pct", wl.delete_pct);
    w.kv("find_pct", wl.find_pct);
    w.kv("query_pct", wl.query_pct);
    w.kv("query_kind", query_kind_name(wl.query_kind));
    w.kv("dist", key_dist_name(wl.dist));
    w.kv("zipf_theta", wl.zipf_theta);
    w.kv("max_key", static_cast<std::int64_t>(wl.max_key));
    w.kv("rq_size", rec.result.config.workload.rq_size);
    w.kv("threads", r.config.threads);
    w.kv("duration_ms", r.config.duration_ms);
    w.kv("prefill", r.config.prefill);
    w.kv("seed", static_cast<std::uint64_t>(r.config.seed));
    w.end_object();
    w.kv("seconds", r.seconds);
    w.kv("total_ops", r.total_ops);
    w.kv("updates", r.updates);
    w.kv("finds", r.finds);
    w.kv("queries", r.queries);
    w.kv("throughput_ops_per_sec", r.seconds > 0 ? r.throughput() : 0.0);
    w.kv("mops", r.seconds > 0 ? r.mops() : 0.0);
    w.key("latency_ns");
    w.begin_object();
    w.key("update");
    append_latency_json(w, r.update_latency);
    w.key("find");
    append_latency_json(w, r.find_latency);
    w.key("query");
    append_latency_json(w, r.query_latency);
    w.end_object();
  }
  if (!rec.metrics.empty()) {
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : rec.metrics) w.kv(k, v);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string current_git_sha() {
  if (const char* env = std::getenv("CBAT_GIT_SHA")) {
    if (env[0] != '\0') return env;
  }
  std::string sha = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  if (std::FILE* p = ::popen("git rev-parse --short=12 HEAD 2>/dev/null",
                             "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
        s.pop_back();
      }
      if (!s.empty()) sha = s;
    }
    ::pclose(p);
  }
#endif
  return sha;
}

std::string bench_json_document(
    const std::vector<std::pair<std::string, ScenarioOutput>>& scenarios,
    const Args& args) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("tool", "cbat_bench");
  w.kv("git_sha", current_git_sha());
  w.kv("mode", args.mode_name());
  w.kv("hardware_threads",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.key("scenarios");
  w.begin_array();
  for (const auto& [name, out] : scenarios) {
    w.begin_object();
    w.kv("name", name);
    const Scenario* s = ScenarioRegistry::instance().find(name);
    w.kv("title", s != nullptr ? s->title : "");
    w.key("runs");
    w.begin_array();
    for (const auto& rec : out.runs) append_run_json(w, rec);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string doc = w.take();
  doc += '\n';
  return doc;
}

// ---------------------------------------------------------------------------
// Shared main
// ---------------------------------------------------------------------------

namespace {

void print_usage(std::FILE* f) {
  std::fprintf(
      f,
      "cbat_bench — unified scenario suite for the paper's figures\n"
      "\n"
      "usage:\n"
      "  cbat_bench --list [--verbose]\n"
      "  cbat_bench --scenario NAME[,NAME...] [options]\n"
      "  cbat_bench --all [options]\n"
      "\n"
      "options:\n"
      "  --smoke          minimal parameters (CI smoke bench)\n"
      "  --full           paper-scale parameters (or CBAT_BENCH_FULL=1)\n"
      "  --json PATH      write structured results (BENCH_*.json schema)\n"
      "  --csv            CSV tables instead of aligned console tables\n"
      "  --ms N           per-cell measured duration override\n"
      "  --threads a,b,c  thread sweep override\n"
      "  --maxkey N       key-range override\n"
      "  --rq N           range-query size override\n"
      "  --tt N           fixed thread count override (figs 6/7/9/10)\n"
      "  --repeat N       best-of-N repetitions per cell (smoke default: "
      "2)\n");
}

}  // namespace

int scenario_main(int argc, char** argv) {
  Args args(argc, argv);
  ScenarioRegistry& reg = ScenarioRegistry::instance();

  if (args.has("--help") || args.has("-h")) {
    print_usage(stdout);
    return 0;
  }
  if (args.has("--list")) {
    for (const auto& s : reg.all()) {
      std::printf("%-18s %s\n", s.name.c_str(), s.title.c_str());
    }
    if (args.has("--verbose")) {
      // The registered structures with their type-derived capabilities
      // (api::StructureInfo) — the same facts the JSON runs record.
      std::printf("\nstructures:\n");
      auto& sr = api::StructureRegistry::instance();
      for (const auto& name : sr.names()) {
        const auto info = sr.info(name);
        if (!info) continue;
        std::printf("  %-32s shards=%d%s%s\n", name.c_str(), info->shards,
                    info->adaptive ? ", adaptive" : "",
                    info->cached_reads ? ", cached reads" : "");
      }
    }
    return 0;
  }

  const std::vector<std::string> names =
      args.has("--all") ? reg.names() : args.get_str_list("--scenario");
  if (names.empty()) {
    print_usage(stderr);
    return 2;
  }
  for (const auto& n : names) {
    if (reg.find(n) == nullptr) {
      std::fprintf(stderr, "error: unknown scenario '%s'; available:\n",
                   n.c_str());
      for (const auto& s : reg.all()) {
        std::fprintf(stderr, "  %s\n", s.name.c_str());
      }
      return 1;
    }
  }

  // Validate --json before running anything: `--json` as the last
  // argument (forgotten path) must not silently discard the results of a
  // potentially hours-long run.
  const std::string json_path = args.get_str("--json", "");
  if (args.has("--json") && json_path.empty()) {
    std::fprintf(stderr, "error: --json requires a file path\n");
    return 2;
  }

  std::vector<std::pair<std::string, ScenarioOutput>> results;
  for (const auto& n : names) {
    const Scenario* s = reg.find(n);
    std::fprintf(stderr, "== %s (%s mode): %s ==\n", s->name.c_str(),
                 args.mode_name(), s->title.c_str());
    ScenarioOutput out;
    ScenarioContext ctx{&args, &out};
    s->run(ctx);
    render_tables(out, args.csv());
    results.emplace_back(n, std::move(out));
  }

  if (!json_path.empty()) {
    if (!write_file(json_path, bench_json_document(results, args))) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace cbat::bench
