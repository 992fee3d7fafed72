// Unit tests for the dependency-free JSON writer, the latency histogram's
// percentile math, and the round-trippability of the BENCH_*.json schema.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "bench/json.h"
#include "bench/latency.h"
#include "bench/scenarios.h"
#include "mini_json.h"

namespace cbat::bench {
namespace {

using cbat::testjson::parse;
using cbat::testjson::Value;

TEST(JsonEscape, EscapesWhatJsonRequires) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab\rcr"),
            "line\\nbreak\\ttab\\rcr");
  EXPECT_EQ(json_escape(std::string("nul\x01" "byte")), "nul\\u0001byte");
  EXPECT_EQ(json_escape("b\bf\f"), "b\\bf\\f");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(json_escape("λ → ∞"), "λ → ∞");
}

TEST(JsonWriter, WritesNestedStructure) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "fig8");
  w.kv("threads", 4);
  w.kv("mops", 1.5);
  w.kv("ok", true);
  w.key("none");
  w.null_value();
  w.key("xs");
  w.begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.kv("a", "b");
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"fig8\",\"threads\":4,\"mops\":1.5,\"ok\":true,"
            "\"none\":null,\"xs\":[1,2,3],\"nested\":{\"a\":\"b\"}}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.key("o");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
}

TEST(JsonDouble, RoundTripsAndHandlesNonFinite) {
  for (double v : {0.0, 1.0, -1.0, 0.1, 1.5, 1e-9, 1e300, 123456.789,
                   3.141592653589793}) {
    const std::string s = json_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, Int64Extremes) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.end_array();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,9223372036854775807,"
            "18446744073709551615]");
}

TEST(JsonWriter, OutputParsesBackToSameValues) {
  JsonWriter w;
  w.begin_object();
  w.kv("s", "quote \" and \\ and \n end");
  w.kv("i", 42);
  w.kv("d", 0.25);
  w.key("a");
  w.begin_array();
  w.value("x");
  w.value(false);
  w.null_value();
  w.end_array();
  w.end_object();

  const auto v = parse(w.str());
  EXPECT_EQ(v->at("s").str, "quote \" and \\ and \n end");
  EXPECT_EQ(v->at("i").num, 42);
  EXPECT_EQ(v->at("d").num, 0.25);
  EXPECT_EQ(v->at("a").item(0).str, "x");
  EXPECT_EQ(v->at("a").item(1).b, false);
  EXPECT_TRUE(v->at("a").item(2).is_null());
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  // 32 samples 0..31; every value below kSubBuckets has its own bucket.
  EXPECT_EQ(h.count(), 32);
  EXPECT_DOUBLE_EQ(h.percentile(100), 31);
  EXPECT_DOUBLE_EQ(h.percentile(50), 15);  // 16th of 32 samples
  EXPECT_DOUBLE_EQ(h.mean(), 15.5);
  EXPECT_EQ(h.max(), 31u);
}

TEST(LatencyHistogram, BucketIndexIsMonotoneAndContinuous) {
  int prev = LatencyHistogram::bucket_index(0);
  EXPECT_EQ(prev, 0);
  for (std::uint64_t v = 1; v <= 8192; ++v) {
    const int idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << v;
    EXPECT_LE(idx - prev, 1) << v;  // adjacent values never skip a bucket
    prev = idx;
  }
  for (std::uint64_t v = 8192; v < (1ULL << 62); v *= 2) {
    EXPECT_LT(LatencyHistogram::bucket_index(v),
              LatencyHistogram::bucket_index(v * 2));
  }
  // The top of the range still maps inside the table.
  EXPECT_LT(LatencyHistogram::bucket_index(
                std::numeric_limits<std::uint64_t>::max()),
            LatencyHistogram::kBucketCount);
}

TEST(LatencyHistogram, PercentilesOnUniformDistribution) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  // Log-linear buckets with 32 sub-buckets bound relative error by ~3%;
  // allow 5% slack.
  EXPECT_NEAR(h.percentile(50), 50000, 2500);
  EXPECT_NEAR(h.percentile(90), 90000, 4500);
  EXPECT_NEAR(h.percentile(99), 99000, 5000);
  EXPECT_DOUBLE_EQ(h.mean(), 50000.5);
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_EQ(h.count(), 100000);
}

TEST(LatencyHistogram, PercentilesOnBimodalDistribution) {
  LatencyHistogram h;
  for (int i = 0; i < 900; ++i) h.record(100);
  for (int i = 0; i < 100; ++i) h.record(1000000);
  EXPECT_NEAR(h.percentile(50), 100, 5);
  EXPECT_NEAR(h.percentile(90), 100, 5);
  EXPECT_NEAR(h.percentile(99), 1000000, 40000);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    (v % 2 == 0 ? a : b).record(v * 17);
    both.record(v * 17);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
  EXPECT_DOUBLE_EQ(a.percentile(50), both.percentile(50));
  EXPECT_DOUBLE_EQ(a.percentile(99), both.percentile(99));
  EXPECT_EQ(a.max(), both.max());
}

TEST(LatencyStats, SummarizesHistogram) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const LatencyStats s = LatencyStats::from(h);
  EXPECT_EQ(s.count, 1000);
  EXPECT_NEAR(s.p50_ns, 500, 25);
  EXPECT_NEAR(s.p90_ns, 900, 45);
  EXPECT_NEAR(s.p99_ns, 990, 50);
  EXPECT_LE(s.p50_ns, s.p90_ns);
  EXPECT_LE(s.p90_ns, s.p99_ns);
  EXPECT_DOUBLE_EQ(s.mean_ns, 500.5);
  EXPECT_DOUBLE_EQ(s.max_ns, 1000);
}

TEST(LatencyHistogram, PercentileNeverExceedsMax) {
  LatencyHistogram h;
  h.record(1000001);  // lands low in a wide log-linear bucket
  EXPECT_DOUBLE_EQ(h.percentile(50), 1000001);
  EXPECT_DOUBLE_EQ(h.percentile(99), 1000001);
  h.record(3);
  EXPECT_LE(h.percentile(99), static_cast<double>(h.max()));
}

TEST(LatencyHistogram, EmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
}

TEST(LatencyHistogram, PercentileBoundaries) {
  LatencyHistogram one;
  one.record(7);
  // count=1: every percentile is the single sample.
  EXPECT_DOUBLE_EQ(one.percentile(0), 7);
  EXPECT_DOUBLE_EQ(one.percentile(50), 7);
  EXPECT_DOUBLE_EQ(one.percentile(100), 7);

  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  // p=0 clamps to the first sample, p=100 to the last.
  EXPECT_DOUBLE_EQ(h.percentile(0), 1);
  EXPECT_DOUBLE_EQ(h.percentile(100), 10);
  // Exact-integer targets: p/100*count integral must not round up.
  EXPECT_DOUBLE_EQ(h.percentile(10), 1);   // target exactly 1
  EXPECT_DOUBLE_EQ(h.percentile(50), 5);   // target exactly 5
  EXPECT_DOUBLE_EQ(h.percentile(90), 9);   // target exactly 9
  // Fractional targets take the ceiling.
  EXPECT_DOUBLE_EQ(h.percentile(51), 6);   // ceil(5.1) = 6
  EXPECT_DOUBLE_EQ(h.percentile(0.1), 1);  // ceil(0.01) = 1
}

TEST(LatencyHistogram, PercentileTargetIsExactIntegerCeiling) {
  using H = LatencyHistogram;
  // Small exact cases.
  EXPECT_EQ(H::percentile_target(0, 100), 1);    // clamped up to 1
  EXPECT_EQ(H::percentile_target(100, 100), 100);
  EXPECT_EQ(H::percentile_target(50, 100), 50);  // exact, no round-up
  EXPECT_EQ(H::percentile_target(50, 101), 51);  // ceil(50.5)
  EXPECT_EQ(H::percentile_target(99, 1), 1);
  EXPECT_EQ(H::percentile_target(99.99, 10000), 9999);
  EXPECT_EQ(H::percentile_target(99.99, 10001), 10000);  // ceil(10000.0001)
  EXPECT_EQ(H::percentile_target(100, 0), 0);
  // Counts beyond double's integer resolution (2^53): the old
  // float-epsilon hack (int(p/100*count + 0.9999999)) loses the epsilon
  // and misses the ceiling here.
  const std::int64_t big = (1LL << 54) + 2;
  EXPECT_EQ(H::percentile_target(50, big), (1LL << 53) + 1);
  EXPECT_EQ(H::percentile_target(100, big), big);
  EXPECT_EQ(H::percentile_target(25, (1LL << 54) + 4), (1LL << 52) + 1);
}

// ---------------------------------------------------------------------------
// Schema round trip: a synthetic RunRecord through bench_json_document and
// back through the parser, checking the fields scripts/compare_bench.py
// keys on.
// ---------------------------------------------------------------------------

TEST(BenchJsonSchema, DocumentRoundTrips) {
  ScenarioOutput out;
  RunRecord rec;
  rec.table = "Figure 8a (low update)";
  rec.x_label = "threads";
  rec.x = "4";
  rec.series = "BAT-EagerDel";
  rec.has_result = true;
  rec.result.structure = "BAT-EagerDel";
  rec.result.seconds = 0.5;
  rec.result.total_ops = 1000000;
  rec.result.updates = 250000;
  rec.result.finds = 250000;
  rec.result.queries = 500000;
  rec.result.config.threads = 4;
  rec.result.config.duration_ms = 500;
  rec.result.config.workload.query_kind = QueryKind::kRange;
  rec.result.config.workload.dist = KeyDist::kZipf;
  rec.result.update_latency = {100, 220.5, 200, 400, 900, 1500};
  rec.result.query_latency = {100, 5000, 4500, 9000, 20000, 30000};
  rec.metrics = {{"cas_per_prop", 22.2}};
  out.runs.push_back(rec);

  // Second run: the read-side fields — the hot-range query kind and the
  // cache hit-rate metric compare_bench.py gates on — on a registered
  // forest, so its capabilities and its cached read path are emitted.
  RunRecord rc = rec;
  rc.series = "Sharded16-BAT";
  rc.result.structure = "Sharded16-BAT";
  rc.result.config.workload.query_kind = QueryKind::kRangeAgg;
  rc.metrics = {{"agg_cache_hit_rate", 0.97}};
  out.runs.push_back(rc);

  char fake_argv0[] = "test";
  char smoke[] = "--smoke";
  char* argv[] = {fake_argv0, smoke};
  Args args(2, argv);
  setenv("CBAT_GIT_SHA", "deadbeef1234", 1);
  const std::string doc =
      bench_json_document({{"fig8", std::move(out)}}, args);
  unsetenv("CBAT_GIT_SHA");

  const auto v = parse(doc);
  EXPECT_EQ(v->at("schema_version").num, 1);
  EXPECT_EQ(v->at("tool").str, "cbat_bench");
  EXPECT_EQ(v->at("git_sha").str, "deadbeef1234");
  EXPECT_EQ(v->at("mode").str, "smoke");
  const Value& sc = v->at("scenarios").item(0);
  EXPECT_EQ(sc.at("name").str, "fig8");
  EXPECT_FALSE(sc.at("title").str.empty());
  const Value& run = sc.at("runs").item(0);
  EXPECT_EQ(run.at("table").str, "Figure 8a (low update)");
  EXPECT_EQ(run.at("x").str, "4");
  EXPECT_EQ(run.at("series").str, "BAT-EagerDel");
  EXPECT_DOUBLE_EQ(run.at("throughput_ops_per_sec").num, 2000000);
  EXPECT_DOUBLE_EQ(run.at("mops").num, 2);
  EXPECT_EQ(run.at("config").at("query_kind").str, "range");
  EXPECT_EQ(run.at("config").at("dist").str, "zipf");
  EXPECT_EQ(run.at("config").at("threads").num, 4);
  const Value& lat = run.at("latency_ns");
  EXPECT_DOUBLE_EQ(lat.at("update").at("p50").num, 200);
  EXPECT_DOUBLE_EQ(lat.at("update").at("p99").num, 900);
  EXPECT_DOUBLE_EQ(lat.at("query").at("p90").num, 9000);
  EXPECT_DOUBLE_EQ(lat.at("find").at("count").num, 0);
  EXPECT_DOUBLE_EQ(run.at("metrics").at("cas_per_prop").num, 22.2);
  // Every run carries a read_path, derived from the structure's type: a
  // single tree reads its pinned root directly...
  EXPECT_EQ(run.at("read_path").str, "direct");

  const Value& rcr = sc.at("runs").item(1);
  EXPECT_EQ(rcr.at("series").str, "Sharded16-BAT");
  // ...and every forest serves range aggregates through its cache.
  EXPECT_EQ(rcr.at("read_path").str, "cached");
  EXPECT_EQ(rcr.at("config").at("query_kind").str, "range_agg");
  EXPECT_DOUBLE_EQ(rcr.at("metrics").at("agg_cache_hit_rate").num, 0.97);
  const Value& caps = rcr.at("capabilities");
  EXPECT_EQ(caps.at("shards").num, 16);
  EXPECT_FALSE(caps.at("adaptive").b);
  // Schema 1 is append-only: the combining keys stay, always false.
  EXPECT_EQ(caps.at("combining").kind, Value::Kind::kBool);
  EXPECT_FALSE(caps.at("combining").b);
  EXPECT_FALSE(caps.at("read_combining").b);
}

}  // namespace
}  // namespace cbat::bench
