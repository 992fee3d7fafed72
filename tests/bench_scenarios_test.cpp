// Tests for the scenario registry: every paper scenario is listed, lookup
// works, and dispatching a scenario actually runs benchmark cells and
// produces JSON the shared schema promises.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/args.h"
#include "bench/scenarios.h"
#include "mini_json.h"
#include "util/counters.h"

namespace cbat::bench {
namespace {

using cbat::testjson::parse;
using cbat::testjson::Value;

Args make_args(std::vector<std::string> words) {
  static std::vector<std::string> storage;  // keeps c_str()s alive
  storage = std::move(words);
  static std::vector<char*> argv;
  argv.clear();
  static char name[] = "test";
  argv.push_back(name);
  for (auto& w : storage) argv.push_back(w.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ScenarioRegistry, ListsAllPaperScenarios) {
  const std::vector<std::string> expected = {
      "fig5a",  "fig5b",  "fig5c",  "fig6",
      "fig7",   "fig8",   "fig9",   "fig10",
      "table3", "shard_sweep", "shard_hotspot", "read_burst",
      "rebalance", "micro_components", "micro_llxscx"};
  const auto names = ScenarioRegistry::instance().names();
  EXPECT_EQ(names.size(), expected.size());
  for (const auto& e : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), e), names.end()) << e;
  }
  EXPECT_EQ(std::find(names.begin(), names.end(), "combine_sweep"),
            names.end());
  for (const auto& s : ScenarioRegistry::instance().all()) {
    EXPECT_FALSE(s.title.empty()) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.run)) << s.name;
  }
}

TEST(MicroTiming, ReportsTheMedianWindowAndItsRange) {
  // {iters, seconds}: 9, 3, 7, 100 and 5 ns/op.  The windows differ in
  // length, so the median is chosen by ns/op, not by iters or seconds.
  const MicroTiming odd = summarize_micro_windows(
      {{1000, 9e-6}, {4000, 12e-6}, {2000, 14e-6}, {100, 10e-6},
       {3000, 15e-6}});
  EXPECT_EQ(odd.median.iters, 2000);
  EXPECT_DOUBLE_EQ(odd.median.seconds, 14e-6);
  EXPECT_DOUBLE_EQ(odd.median.ns_per_op(), 7.0);
  EXPECT_DOUBLE_EQ(odd.min_ns, 3.0);
  EXPECT_DOUBLE_EQ(odd.max_ns, 100.0);
  // An even count reports the upper of the middle two.
  const MicroTiming even = summarize_micro_windows(
      {{1000, 4e-6}, {1000, 1e-6}, {1000, 3e-6}, {1000, 2e-6}});
  EXPECT_DOUBLE_EQ(even.median.ns_per_op(), 3.0);
  EXPECT_DOUBLE_EQ(even.min_ns, 1.0);
  EXPECT_DOUBLE_EQ(even.max_ns, 4.0);
  const MicroTiming one = summarize_micro_windows({{500, 3e-6}});
  EXPECT_DOUBLE_EQ(one.median.ns_per_op(), 6.0);
}

TEST(ScenarioRegistry, FindIsExactAndUnknownIsNull) {
  EXPECT_NE(ScenarioRegistry::instance().find("fig8"), nullptr);
  EXPECT_NE(ScenarioRegistry::instance().find("table3"), nullptr);
  EXPECT_EQ(ScenarioRegistry::instance().find("fig11"), nullptr);
  EXPECT_EQ(ScenarioRegistry::instance().find("FIG8"), nullptr);
  EXPECT_EQ(ScenarioRegistry::instance().find(""), nullptr);
}

TEST(ArgsScenarioFlags, StringListAndModes) {
  Args a = make_args({"--scenario", "fig5a", "--scenario", "fig8,table3"});
  const auto list = a.get_str_list("--scenario");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "fig5a");
  EXPECT_EQ(list[1], "fig8");
  EXPECT_EQ(list[2], "table3");
  EXPECT_EQ(a.get_str("--json", ""), "");
  EXPECT_STREQ(a.mode_name(), "default");

  Args smoke = make_args({"--smoke"});
  EXPECT_TRUE(smoke.smoke());
  EXPECT_STREQ(smoke.mode_name(), "smoke");

  Args both = make_args({"--smoke", "--full"});
  EXPECT_FALSE(both.smoke());  // --full wins
  EXPECT_STREQ(both.mode_name(), "full");

  Args eq = make_args({"--json=/tmp/x.json"});
  EXPECT_EQ(eq.get_str("--json", ""), "/tmp/x.json");
}

// A numeric value that does not parse is an error, never a zero or a
// partial list, and the getters return their defaults on it rather than
// looping on the unparsed character.
TEST(Args, MalformedNumbersAreRejected) {
  for (const char* bad : {"x", "4,x", "4;8", "4x", ""}) {
    Args a = make_args({"--threads", bad});
    EXPECT_STREQ(a.malformed_number(), "--threads") << "'" << bad << "'";
    EXPECT_EQ(a.get_list("--threads", {7}), std::vector<long>{7}) << bad;
  }
  Args ms = make_args({"--ms", "x"});
  EXPECT_STREQ(ms.malformed_number(), "--ms");
  EXPECT_EQ(ms.get_long("--ms", 9), 9);

  const std::pair<std::vector<std::string>, std::vector<long>> good[] = {
      {{"--threads", "2,4"}, {2, 4}},
      {{"--threads=2,4"}, {2, 4}},
      {{"--threads", "4,"}, {4}},
  };
  for (const auto& [words, want] : good) {
    Args a = make_args(words);
    EXPECT_EQ(a.malformed_number(), nullptr) << words.back();
    EXPECT_EQ(a.get_list("--threads", {}), want) << words.back();
    EXPECT_EQ(a.get_long("--threads", 0), want.front()) << words.back();
  }

  // scenario_main refuses the run with exit code 2 before any cell runs.
  std::string cli[] = {"cbat_bench", "--scenario", "fig5a", "--threads", "x"};
  char* argv[] = {cli[0].data(), cli[1].data(), cli[2].data(), cli[3].data(),
                  cli[4].data()};
  EXPECT_EQ(scenario_main(5, argv), 2);
}

// Dispatch test: run the cheapest real scenario end to end with tiny
// overrides and check the output is fully populated.
TEST(ScenarioDispatch, Fig5aProducesRunsAndCells) {
  const Scenario* s = ScenarioRegistry::instance().find("fig5a");
  ASSERT_NE(s, nullptr);
  Args args = make_args(
      {"--smoke", "--ms", "5", "--threads", "1", "--maxkey", "2000"});
  ScenarioOutput out;
  ScenarioContext ctx{&args, &out};
  s->run(ctx);

  // 4 structures x 1 thread count.
  ASSERT_EQ(out.runs.size(), 4u);
  ASSERT_EQ(out.cells.size(), 4u);
  std::vector<std::string> series;
  for (const auto& r : out.runs) {
    EXPECT_TRUE(r.has_result);
    EXPECT_EQ(r.x_label, "threads");
    EXPECT_EQ(r.x, "1");
    EXPECT_EQ(r.series, r.result.structure);
    EXPECT_GT(r.result.total_ops, 0) << r.series;
    EXPECT_GT(r.result.seconds, 0) << r.series;
    EXPECT_EQ(r.result.config.threads, 1);
    EXPECT_EQ(r.result.config.workload.max_key, 2000);
    series.push_back(r.series);
  }
  for (const char* want : {"BAT", "BAT-Del", "BAT-EagerDel", "FR-BST"}) {
    EXPECT_NE(std::find(series.begin(), series.end(), want), series.end())
        << want;
  }
}

TEST(ScenarioDispatch, JsonDocumentContainsScenarioRuns) {
  const Scenario* s = ScenarioRegistry::instance().find("fig5a");
  ASSERT_NE(s, nullptr);
  Args args = make_args(
      {"--smoke", "--ms", "5", "--threads", "1", "--maxkey", "2000"});
  ScenarioOutput out;
  ScenarioContext ctx{&args, &out};
  s->run(ctx);

  const std::string doc =
      bench_json_document({{"fig5a", std::move(out)}}, args);
  const auto v = parse(doc);
  EXPECT_EQ(v->at("mode").str, "smoke");
  const Value& sc = v->at("scenarios").item(0);
  EXPECT_EQ(sc.at("name").str, "fig5a");
  ASSERT_EQ(sc.at("runs").arr.size(), 4u);
  for (const auto& run : sc.at("runs").arr) {
    EXPECT_GT(run->at("throughput_ops_per_sec").num, 0);
    EXPECT_GE(run->at("latency_ns").at("update").at("p50").num, 0);
    EXPECT_GE(run->at("latency_ns").at("update").at("p99").num,
              run->at("latency_ns").at("update").at("p50").num);
    // Every measured run reports its composite-query guarantee; fig5a
    // runs single trees, which are linearizable.
    EXPECT_EQ(run->at("consistency").str, "linearizable");
  }
}

// A cell's counters cover its timed window only (Table 3 divides by
// them), for whichever repetition run_benchmark keeps.  Every BAT insert
// or erase either runs exactly one Propagate or, failed with a root that
// already agrees, answers from the root instead, never both, so the two
// counts sum to the kept run's updates; counting the prefill would add at
// least its max_key/2 successful inserts.
TEST(RunBenchmark, CountsTheTimedWindowOnly) {
  RunConfig cfg;
  cfg.workload.insert_pct = 25;
  cfg.workload.delete_pct = 25;
  cfg.workload.find_pct = 25;
  cfg.workload.query_pct = 25;
  cfg.workload.query_kind = QueryKind::kRange;
  cfg.workload.rq_size = 100;
  cfg.workload.max_key = 2000;
  cfg.threads = 2;
  cfg.duration_ms = 20;

  for (int repeats : {1, 3}) {
    const RunResult r = run_benchmark("BAT", cfg, repeats);
    ASSERT_GT(r.updates, 0) << repeats;
    EXPECT_EQ(r.counters[Counter::kPropagateCalls] +
                  r.counters[Counter::kRootAnsweredUpdates],
              static_cast<std::uint64_t>(r.updates))
        << repeats;
    EXPECT_TRUE(r.config.prefill) << repeats;
  }
}

// The three scenarios that read counters fill their metrics from the kept
// run: Table 3's per-Propagate ratios and the share of updates that
// propagate, read_burst's cache hit rate (only where the queries consult
// the cache), and rebalance's migration figures (only with the controller
// on).
TEST(ScenarioDispatch, CountedScenariosKeepTheirMetrics) {
  using Names = std::vector<std::string>;
  auto metric_names = [](const RunRecord& r) {
    Names out;
    for (const auto& m : r.metrics) out.push_back(m.first);
    return out;
  };
  Args args = make_args({"--ms", "20", "--threads", "2", "--tt", "2",
                         "--maxkey", "4000", "--rq", "100"});
  auto run = [&](const char* name) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    EXPECT_NE(s, nullptr) << name;
    ScenarioOutput out;
    if (s == nullptr) return out;
    ScenarioContext ctx{&args, &out};
    s->run(ctx);
    EXPECT_FALSE(out.runs.empty()) << name;
    return out;
  };

  for (const RunRecord& r : run("table3").runs) {
    ASSERT_EQ(metric_names(r),
              (Names{"nodes_per_prop", "extra_pct", "nil_per_prop",
                     "cas_per_prop", "deleg_per_prop", "prop_per_update"}))
        << r.series;
    EXPECT_GE(r.metrics[0].second, 1.0) << r.series;
    EXPECT_GT(r.metrics[5].second, 0.0) << r.series;
    EXPECT_LE(r.metrics[5].second, 1.0) << r.series;
  }

  const ScenarioOutput burst = run("read_burst");
  ASSERT_EQ(burst.runs.size(), 2u);
  for (const RunRecord& r : burst.runs) {
    if (r.result.config.workload.query_kind == QueryKind::kRangeAgg) {
      ASSERT_EQ(metric_names(r), Names{"agg_cache_hit_rate"});
      EXPECT_GT(r.metrics[0].second, 0.0);
      EXPECT_LE(r.metrics[0].second, 1.0);
    } else {
      EXPECT_EQ(r.result.config.workload.query_kind, QueryKind::kRank);
      EXPECT_TRUE(r.metrics.empty()) << r.table;
    }
  }

  int adaptive = 0;
  for (const RunRecord& r : run("rebalance").runs) {
    if (r.series != "Sharded16-BAT-Adapt") {
      EXPECT_TRUE(r.metrics.empty()) << r.series << " x=" << r.x;
      continue;
    }
    ++adaptive;
    EXPECT_EQ(metric_names(r),
              (Names{"migrations", "migrated_keys", "shard_imbalance"}))
        << r.x;
  }
  EXPECT_GT(adaptive, 0);
}

}  // namespace
}  // namespace cbat::bench
