// Tests for FR-BST (augmented unbalanced lock-free BST).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "frbst/frbst.h"
#include "util/counters.h"
#include "util/random.h"

namespace cbat {
namespace {

using Tree = FrBst<SizeAug>;

TEST(FrBst, EmptyTree) {
  Tree t;
  EXPECT_EQ(t.size(), 0);
  EXPECT_FALSE(t.contains(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.select(1), std::nullopt);
}

TEST(FrBst, BasicInsertEraseContains) {
  Tree t;
  EXPECT_TRUE(t.insert(5));
  EXPECT_FALSE(t.insert(5));
  EXPECT_TRUE(t.contains(5));
  EXPECT_EQ(t.size(), 1);
  EXPECT_TRUE(t.insert(3));
  EXPECT_TRUE(t.insert(7));
  EXPECT_EQ(t.size(), 3);
  EXPECT_TRUE(t.erase(5));
  EXPECT_FALSE(t.contains(5));
  EXPECT_TRUE(t.contains(3));
  EXPECT_TRUE(t.contains(7));
  EXPECT_EQ(t.size(), 2);
}

TEST(FrBst, MatchesStdSetSequential) {
  Tree t;
  std::set<Key> ref;
  Xoshiro256 rng(21);
  for (int i = 0; i < 15000; ++i) {
    const Key k = static_cast<Key>(rng.below(400));
    switch (rng.below(4)) {
      case 0:
        ASSERT_EQ(t.insert(k), ref.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(t.erase(k), ref.erase(k) > 0);
        break;
      case 2:
        ASSERT_EQ(t.contains(k), ref.count(k) > 0);
        break;
      default:
        ASSERT_EQ(t.rank(k), static_cast<std::int64_t>(std::distance(
                                 ref.begin(), ref.upper_bound(k))));
    }
  }
  EXPECT_EQ(t.size(), static_cast<std::int64_t>(ref.size()));
  EbrGuard g;
  EXPECT_TRUE(version_tree_valid<SizeAug>(t.root_version_unsafe(),
                                          std::numeric_limits<Key>::min(),
                                          kInf2));
}

TEST(FrBst, OrderStatisticsMatchBat) {
  Tree t;
  for (Key k = 0; k < 1000; k += 7) t.insert(k);
  EXPECT_EQ(t.rank(6), 1);
  EXPECT_EQ(t.rank(7), 2);
  EXPECT_EQ(t.select(1), std::make_optional<Key>(0));
  EXPECT_EQ(t.select(3), std::make_optional<Key>(14));
  EXPECT_EQ(t.range_count(7, 21), 3);
}

TEST(FrBst, UnbalancedHeightOnSortedInsert) {
  // The defining weakness of FR-BST vs BAT (paper Fig. 5b): sorted inserts
  // give linear height.
  Tree t;
  constexpr Key kN = 512;
  for (Key k = 0; k < kN; ++k) t.insert(k);
  EXPECT_GE(t.height_slow(), static_cast<int>(kN / 2));
}

TEST(FrBst, SnapshotImmutableUnderUpdates) {
  FrBst<SizeAug> t;
  for (Key k = 0; k < 50; ++k) t.insert(k * 2);
  EbrGuard g;
  const auto* snap = t.root_version_unsafe();
  const auto before = version_size<SizeAug>(snap);
  for (Key k = 0; k < 50; ++k) t.insert(k * 2 + 1);
  EXPECT_EQ(version_size<SizeAug>(snap), before);
  EXPECT_EQ(t.size(), 100);
}

TEST(FrBst, GenericAugmentationSum) {
  FrBst<SizeSumAug> t;
  for (Key k = 1; k <= 50; ++k) t.insert(k);
  const auto agg = t.range_aggregate(10, 20);
  EXPECT_EQ(agg.first, 11);
  EXPECT_EQ(agg.second, (10 + 20) * 11 / 2);
}

// Single-threaded, every refresh CAS succeeds first time: a successful
// update's Propagate does one CAS per path node, and a failed update,
// whose root always agrees with it, answers from the root with no
// Propagate (see bat_test's BatPropagateWork).
TEST(FrBst, PropagateCasesOncePerPathNode) {
  Tree t;
  Xoshiro256 rng(23);
  constexpr std::uint64_t kRange = 10000;
  while (t.size() < 5000) t.insert(static_cast<Key>(rng.below(kRange)));
  int failed = 0;
  for (int i = 0; i < 2000; ++i) {
    const Key k = static_cast<Key>(rng.below(kRange));
    const auto before = Counters::snapshot();
    const bool changed = rng.below(2) == 0 ? t.insert(k) : t.erase(k);
    const auto after = Counters::snapshot();
    const auto delta = [&](Counter c) { return after[c] - before[c]; };
    if (!changed) {
      ++failed;
      ASSERT_EQ(delta(Counter::kPropagateCalls), 0u) << "op " << i;
      ASSERT_EQ(delta(Counter::kPropagateNodes), 0u) << "op " << i;
      ASSERT_EQ(delta(Counter::kRefreshCas), 0u) << "op " << i;
      ASSERT_EQ(delta(Counter::kRootAnsweredUpdates), 1u) << "op " << i;
      continue;
    }
    ASSERT_EQ(delta(Counter::kPropagateCalls), 1u) << "op " << i;
    ASSERT_GT(delta(Counter::kPropagateNodes), 0u) << "op " << i;
    ASSERT_EQ(delta(Counter::kRefreshCas), delta(Counter::kPropagateNodes))
        << "op " << i << " key " << k;
    ASSERT_EQ(delta(Counter::kRootAnsweredUpdates), 0u) << "op " << i;
  }
  // A uniform mix on a half-full range exercises both outcomes.
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, 2000);
}

TEST(FrBstConcurrent, DisjointRangesDeterministic) {
  Tree t;
  constexpr int kThreads = 8;
  constexpr Key kPer = 1200;
  std::atomic<bool> failed{false};
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] {
      const Key base = i * kPer;
      for (Key k = base; k < base + kPer; ++k) {
        if (!t.insert(k)) failed = true;
      }
      for (Key k = base + 1; k < base + kPer; k += 2) {
        if (!t.erase(k)) failed = true;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(t.size(), kThreads * kPer / 2);
  EbrGuard g;
  EXPECT_TRUE(version_tree_valid<SizeAug>(t.root_version_unsafe(),
                                          std::numeric_limits<Key>::min(),
                                          kInf2));
}

TEST(FrBstConcurrent, MixedWorkloadQuiescentConsistency) {
  Tree t;
  constexpr int kThreads = 6;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] {
      Xoshiro256 rng(42 + i);
      for (int op = 0; op < 10000; ++op) {
        const Key k = static_cast<Key>(rng.below(256));
        if (rng.below(2) == 0) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // Version tree consistent and matches membership queries.
  const auto keys = t.range_collect(0, 256);
  EXPECT_EQ(t.size(), static_cast<std::int64_t>(keys.size()));
  for (Key k : keys) EXPECT_TRUE(t.contains(k));
  EbrGuard g;
  EXPECT_TRUE(version_tree_valid<SizeAug>(t.root_version_unsafe(),
                                          std::numeric_limits<Key>::min(),
                                          kInf2));
}

TEST(FrBstConcurrent, QueriesSeeConsistentSnapshots) {
  Tree t;
  for (Key k = 0; k < 1000; k += 2) t.insert(k);
  std::atomic<bool> stop{false};
  std::atomic<long> bad{0};
  std::thread updater([&] {
    Xoshiro256 rng(1);
    while (!stop.load()) {
      const Key k = static_cast<Key>(rng.below(500)) * 2 + 1;
      if (rng.below(2) == 0) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  for (int i = 0; i < 2000; ++i) {
    EbrGuard g;
    const auto* v = t.root_version_unsafe();
    const auto n = version_size<SizeAug>(v);
    if (version_rank<SizeAug>(v, 999) != n) bad.fetch_add(1);
    if (!version_contains<SizeAug>(v, 500)) bad.fetch_add(1);
  }
  stop = true;
  updater.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace cbat
