// Self-tests for the benchmark's own code: the statistics it reports, the
// span buffer and API self time, and the post-run correctness check (which must flag a set that
// answers wrongly).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "api/ordered_set.h"
#include "bench/driver.h"
#include "harness.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from Python's statistics.quantiles(v, n=4).
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  const auto q5 = quartiles({10, 1, 7, 3, 5});  // unsorted input
  EXPECT_DOUBLE_EQ(q5[0], 2.0);
  EXPECT_DOUBLE_EQ(q5[1], 5.0);
  EXPECT_DOUBLE_EQ(q5[2], 8.5);
  // n = 2 exercises the clamp of j before delta: [0.75, 1.5, 2.25].
  const auto q2 = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q2[0], 0.75);
  EXPECT_DOUBLE_EQ(q2[1], 1.5);
  EXPECT_DOUBLE_EQ(q2[2], 2.25);
  EXPECT_DOUBLE_EQ(median({4, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  std::vector<double> three = {30, 10, 20};
  EXPECT_DOUBLE_EQ(percentile(three, 50), 20);  // ceil(1.5) = 2nd
  EXPECT_DOUBLE_EQ(percentile(three, 99), 30);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(percentile(none, 50), 0);
}

TEST(Stats, SmoothedPercentileAveragesAHalfPointBand) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  // Ranks [495, 505) hold 496..505; [985, 995) hold 986..995.
  EXPECT_DOUBLE_EQ(smoothed_percentile(v, 50), 500.5);
  EXPECT_DOUBLE_EQ(smoothed_percentile(v, 99), 990.5);
  std::vector<double> one = {42};
  EXPECT_DOUBLE_EQ(smoothed_percentile(one, 99), 42);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(smoothed_percentile(none, 50), 0);
}

TEST(Stats, ReservoirKeepsCapacityAndCountsEverything) {
  Reservoir r(100, 7);
  for (int i = 0; i < 10000; ++i) r.add(i);
  EXPECT_EQ(r.values().size(), 100u);
  EXPECT_EQ(r.seen(), 10000u);
  // A uniform sample of 0..9999 has its mean near 5000.
  EXPECT_NEAR(mean(r.values()), 5000, 1000);
}

TEST(Spans, ApiSelfTimeIsTheWeightedP50Difference) {
  // Updates: API calls 110..119 ns against direct calls 100..109 ns, so
  // 10 ns each; queries: 50 ns each.  Weighted 3:1 by operation count.
  ClassSpans upd, qry;
  for (int i = 0; i < 10; ++i) {
    upd.api.push_back(119 - i);
    upd.direct.push_back(100 + i);
    qry.api.push_back(250 + i);
    qry.direct.push_back(200 + i);
  }
  upd.ops = 3;
  qry.ops = 1;
  EXPECT_DOUBLE_EQ(api_self_ns({upd, qry}), (3 * 10.0 + 50.0) / 4);
  // A class with no direct samples (or no operations) has no say.
  ClassSpans lone;
  lone.api = {1000};
  lone.ops = 100;
  EXPECT_DOUBLE_EQ(api_self_ns({upd, lone}), 10.0);
  EXPECT_DOUBLE_EQ(api_self_ns({lone}), 0.0);
  // The API may be the faster path; the difference keeps its sign.
  std::swap(upd.api, upd.direct);
  EXPECT_DOUBLE_EQ(api_self_ns({upd}), -10.0);
}

TEST(Spans, BufferRecordsUntilFull) {
  SpanBuffer b(3);
  ASSERT_TRUE(b.begin_op(2));
  const auto a = b.open(SpanName::kOp, -1, 1, 10);
  const auto c = b.open(SpanName::kOpGen, a, 1, 10);
  b.close(c, 15);
  b.close(a, 20);
  EXPECT_FALSE(b.begin_op(2));  // one slot left: the op is skipped whole
  EXPECT_EQ(b.dropped(), 1u);
  const auto d = b.open(SpanName::kOp, -1, 2, 30);
  EXPECT_EQ(b.open(SpanName::kOpGen, d, 2, 30), -1);
  b.close(-1, 40);  // closing an unrecorded span is a no-op
  ASSERT_EQ(b.spans().size(), 3u);
  EXPECT_EQ(b.spans()[1].parent, 0);
  EXPECT_EQ(b.spans()[1].end, 15);
  EXPECT_EQ(b.spans()[0].end, 20);
}

// A locked std::set: a correct reference, and, with `Wrong`, a set whose
// rank is off by one above the middle of the keyspace.
template <bool Wrong>
class LockedSet {
 public:
  bool insert(cbat::Key k) {
    std::lock_guard<std::mutex> g(mu_);
    return s_.insert(k).second;
  }
  bool erase(cbat::Key k) {
    std::lock_guard<std::mutex> g(mu_);
    return s_.erase(k) > 0;
  }
  bool contains(cbat::Key k) const {
    std::lock_guard<std::mutex> g(mu_);
    return s_.count(k) > 0;
  }
  std::int64_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return static_cast<std::int64_t>(s_.size());
  }
  std::int64_t rank(cbat::Key k) const {
    std::lock_guard<std::mutex> g(mu_);
    const auto r = static_cast<std::int64_t>(
        std::distance(s_.begin(), s_.upper_bound(k)));
    return Wrong && k > 500 ? r + 1 : r;
  }
  std::int64_t range_count(cbat::Key lo, cbat::Key hi) const {
    if (lo > hi) return 0;
    std::lock_guard<std::mutex> g(mu_);
    return static_cast<std::int64_t>(
        std::distance(s_.lower_bound(lo), s_.upper_bound(hi)));
  }
  std::optional<cbat::Key> select(std::int64_t i) const {
    std::lock_guard<std::mutex> g(mu_);
    if (i < 1 || i > static_cast<std::int64_t>(s_.size())) return std::nullopt;
    return *std::next(s_.begin(), i - 1);
  }

 private:
  mutable std::mutex mu_;
  std::set<cbat::Key> s_;
};

CheckResult prefill_and_check(const char* name) {
  auto set = cbat::api::StructureRegistry::instance().create(name);
  cbat::bench::Workload w = find_workload("forest_read_agg")->mix;
  w.max_key = 1000;
  w.rq_size = 50;
  cbat::bench::prefill(*set, w, 2, 3);
  return check_set(*set, w, w.max_key / 2, 3, 2);
}

TEST(Check, PassesACorrectSet) {
  cbat::api::StructureRegistry::instance().register_type<LockedSet<false>>(
      "test-LockedSet");
  const CheckResult r = prefill_and_check("test-LockedSet");
  EXPECT_GT(r.attempted, 4000);
  EXPECT_EQ(r.failed, 0) << (r.failures.empty() ? "" : r.failures[0]);
}

TEST(Check, PassesTheBenchmarkedStructures) {
  for (const char* name : {"BAT-EagerDel", "Sharded16-BAT-Lin"}) {
    const CheckResult r = prefill_and_check(name);
    EXPECT_EQ(r.failed, 0) << name;
  }
}

TEST(Check, FlagsAWrongSet) {
  cbat::api::StructureRegistry::instance().register_type<LockedSet<true>>(
      "test-WrongRankSet");
  const CheckResult r = prefill_and_check("test-WrongRankSet");
  EXPECT_GT(r.failed, 0);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_EQ(r.failures[0].rfind("rank(", 0), 0u) << r.failures[0];
}

TEST(Check, FlagsASizeThatDisagreesWithTheWorkersCounts) {
  auto set = cbat::api::StructureRegistry::instance().create("BAT-EagerDel");
  cbat::bench::Workload w = find_workload("tree_update")->mix;
  w.max_key = 1000;
  cbat::bench::prefill(*set, w, 2, 3);
  // One more successful insert than the set holds.
  const CheckResult r = check_set(*set, w, w.max_key / 2 + 1, 3, 2);
  EXPECT_EQ(r.failed, 2);  // size() and the contains sweep's count
}

TEST(Workloads, AreTheDocumentedThree) {
  ASSERT_EQ(workloads().size(), 3u);
  for (const auto& w : workloads()) {
    EXPECT_TRUE(cbat::api::StructureRegistry::instance().contains(w.structure))
        << w.structure;
    const auto& m = w.mix;
    EXPECT_DOUBLE_EQ(m.insert_pct + m.delete_pct + m.find_pct + m.query_pct,
                     100);
    // Every end-to-end latency metric needs its class in every workload.
    EXPECT_GT(m.insert_pct + m.delete_pct, 0);
    EXPECT_GT(m.find_pct, 0);
    EXPECT_GT(m.query_pct, 0);
    EXPECT_EQ(m.max_key, 1'000'000);
  }
  EXPECT_EQ(find_workload("nope"), nullptr);
}

}  // namespace
}  // namespace perfbench
