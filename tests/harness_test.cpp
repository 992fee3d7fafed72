// Tests for the benchmark harness itself: workload streams, the pool, and
// the driver (a harness bug would silently invalidate every figure).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "bench/driver.h"
#include "bench/workload.h"
#include "reclamation/pool.h"

namespace cbat {
namespace {

using namespace cbat::bench;

TEST(Workload, MixProportionsRespected) {
  Workload w;
  w.insert_pct = 10;
  w.delete_pct = 10;
  w.find_pct = 40;
  w.query_pct = 40;
  std::atomic<std::int64_t> ctr{0};
  OpStream s(w, 42, &ctr);
  int counts[4] = {};
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[static_cast<int>(s.next_op())];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.10, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.10, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.40, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.40, 0.01);
}

TEST(Workload, FractionalPercentages) {
  // Figure 7 uses mixes like 0.01% rank queries.
  Workload w;
  w.insert_pct = 49.995;
  w.delete_pct = 49.995;
  w.query_pct = 0.01;
  std::atomic<std::int64_t> ctr{0};
  OpStream s(w, 7, &ctr);
  int queries = 0;
  constexpr int kN = 2000000;
  for (int i = 0; i < kN; ++i) {
    if (s.next_op() == OpStream::Op::kQuery) ++queries;
  }
  EXPECT_GT(queries, 50);   // ~200 expected
  EXPECT_LT(queries, 800);
}

TEST(Workload, UniformKeysInRange) {
  Workload w;
  w.max_key = 1000;
  std::atomic<std::int64_t> ctr{0};
  OpStream s(w, 3, &ctr);
  for (int i = 0; i < 10000; ++i) {
    const Key k = s.next_key();
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 1000);
  }
}

TEST(Workload, SortedKeysAscendInBatches) {
  Workload w;
  w.dist = KeyDist::kSorted;
  std::atomic<std::int64_t> ctr{0};
  OpStream a(w, 1, &ctr), b(w, 2, &ctr);
  // Each stream takes batches of 100 from the shared counter.
  Key last_a = a.next_key();
  for (int i = 1; i < 100; ++i) {
    const Key k = a.next_key();
    EXPECT_EQ(k, last_a + 1);
    last_a = k;
  }
  const Key first_b = b.next_key();
  EXPECT_EQ(first_b, 100);  // the second batch
  const Key next_a = a.next_key();
  EXPECT_EQ(next_a, 200);  // a's second batch comes after b's
}

TEST(Workload, ZipfKeysSkewed) {
  Workload w;
  w.dist = KeyDist::kZipf;
  w.zipf_theta = 0.99;
  w.max_key = 100000;
  std::atomic<std::int64_t> ctr{0};
  OpStream s(w, 5, &ctr);
  int low = 0;
  for (int i = 0; i < 50000; ++i) {
    if (s.next_key() < 100) ++low;
  }
  // Under uniform, P(key < 100) = 0.1%; under Zipf 0.99 it is large.
  EXPECT_GT(low, 5000);
}

TEST(Workload, RangeLoLeavesRoomForRq) {
  Workload w;
  w.max_key = 1000;
  w.rq_size = 900;
  std::atomic<std::int64_t> ctr{0};
  OpStream s(w, 9, &ctr);
  for (int i = 0; i < 1000; ++i) {
    const Key lo = s.next_range_lo();
    ASSERT_GE(lo, 0);
    ASSERT_LE(lo + w.rq_size, w.max_key + w.rq_size);  // sane bounds
    ASSERT_LT(lo, w.max_key);
  }
}

TEST(Pool, RecyclesMemory) {
  struct Small {
    std::int64_t a, b;
  };
  void* p1 = Pool<Small>::alloc();
  Pool<Small>::dealloc(p1);
  void* p2 = Pool<Small>::alloc();
  EXPECT_EQ(p1, p2);  // same thread, LIFO free list
  Pool<Small>::dealloc(p2);
}

TEST(Pool, PoolNewRunsConstructor) {
  struct Init {
    int x = 7;
    int y;
  };
  Init* p = pool_new<Init>();
  EXPECT_EQ(p->x, 7);
  pool_delete(p);
}

TEST(Pool, RetireDefersToGrace) {
  struct Small {
    std::int64_t a;
  };
  auto* p = pool_new<Small>();
  p->a = 123;
  {
    EbrGuard g;
    pool_retire(p);
    // Still readable inside the same epoch.
    EXPECT_EQ(p->a, 123);
  }
  Ebr::drain();
}

TEST(Driver, RunsAndCountsOps) {
  RunConfig cfg;
  cfg.workload.insert_pct = 25;
  cfg.workload.delete_pct = 25;
  cfg.workload.find_pct = 25;
  cfg.workload.query_pct = 25;
  cfg.workload.max_key = 2000;
  cfg.workload.rq_size = 100;
  cfg.threads = 2;
  cfg.duration_ms = 60;
  const RunResult r = run_benchmark("BAT-EagerDel", cfg);
  EXPECT_GT(r.total_ops, 0);
  EXPECT_GT(r.updates, 0);
  EXPECT_GT(r.finds, 0);
  EXPECT_GT(r.queries, 0);
  EXPECT_GT(r.seconds, 0.05);
  EXPECT_NEAR(static_cast<double>(r.updates) / r.total_ops, 0.5, 0.1);
  EXPECT_GT(r.update_latency.count, 0);
  EXPECT_GT(r.update_latency.p50_ns, 0);
  EXPECT_LE(r.update_latency.p50_ns, r.update_latency.p99_ns);
  EXPECT_GT(r.query_latency.count, 0);
  EXPECT_GT(r.query_latency.p50_ns, 0);
  EXPECT_LE(r.query_latency.p50_ns, r.query_latency.p99_ns);
  EXPECT_GT(r.find_latency.count, 0);
}

TEST(Driver, PrefillReachesTarget) {
  RunConfig cfg;
  cfg.workload.max_key = 10000;
  cfg.threads = 2;
  cfg.duration_ms = 20;
  auto set = api::StructureRegistry::instance().create("BAT");
  ASSERT_NE(set, nullptr);
  const RunResult r = run_on(*set, cfg);
  // Prefill target is max_key/2; the run adds/removes a balanced mix, so
  // the final size should be near 5000.
  EXPECT_NEAR(static_cast<double>(set->size()), 5000.0, 1500.0);
}

TEST(Driver, AllStructureNamesConstructible) {
  for (const char* name :
       {"BAT", "BAT-Del", "BAT-EagerDel", "FR-BST", "VcasBST", "VerlibBTree",
        "BundledCitrusTree"}) {
    auto set = api::StructureRegistry::instance().create(name);
    ASSERT_NE(set, nullptr) << name;
    EXPECT_TRUE(set->insert(1));
    EXPECT_TRUE(set->contains(1));
    EXPECT_EQ(set->range_count(0, 10), 1);
    EXPECT_EQ(set->rank(5), 1);
    EXPECT_EQ(set->select_query(1), 1);
  }
  EXPECT_EQ(api::StructureRegistry::instance().create("nope"), nullptr);
}

}  // namespace
}  // namespace cbat
