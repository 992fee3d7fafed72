// Tests for BAT (plain variant): sequential semantics, order-statistic
// queries, snapshot consistency, version-tree invariants and concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/bat_tree.h"
#include "frbst/frbst.h"
#include "util/counters.h"
#include "util/random.h"

namespace cbat {
namespace {

using Tree = Bat<SizeAug>;

TEST(Bat, EmptyTreeQueries) {
  Tree t;
  EXPECT_EQ(t.size(), 0);
  EXPECT_FALSE(t.contains(1));
  EXPECT_EQ(t.rank(100), 0);
  EXPECT_EQ(t.select(1), std::nullopt);
  EXPECT_EQ(t.range_count(0, 1000), 0);
}

TEST(Bat, InsertContainsEraseBasics) {
  Tree t;
  EXPECT_TRUE(t.insert(10));
  EXPECT_TRUE(t.insert(20));
  EXPECT_FALSE(t.insert(10));
  EXPECT_TRUE(t.contains(10));
  EXPECT_FALSE(t.contains(15));
  EXPECT_EQ(t.size(), 2);
  EXPECT_TRUE(t.erase(10));
  EXPECT_FALSE(t.erase(10));
  EXPECT_FALSE(t.contains(10));
  EXPECT_EQ(t.size(), 1);
}

TEST(Bat, RankSelectRangeOnKnownSet) {
  Tree t;
  // keys 10, 20, ..., 1000
  for (Key k = 10; k <= 1000; k += 10) ASSERT_TRUE(t.insert(k));
  EXPECT_EQ(t.size(), 100);
  EXPECT_EQ(t.rank(9), 0);
  EXPECT_EQ(t.rank(10), 1);
  EXPECT_EQ(t.rank(15), 1);
  EXPECT_EQ(t.rank(1000), 100);
  EXPECT_EQ(t.rank(99999), 100);
  for (std::int64_t i = 1; i <= 100; ++i) {
    ASSERT_EQ(t.select(i), std::make_optional<Key>(i * 10)) << i;
  }
  EXPECT_EQ(t.select(0), std::nullopt);
  EXPECT_EQ(t.select(101), std::nullopt);
  EXPECT_EQ(t.range_count(10, 1000), 100);
  EXPECT_EQ(t.range_count(15, 25), 1);
  EXPECT_EQ(t.range_count(10, 10), 1);
  EXPECT_EQ(t.range_count(11, 19), 0);
  EXPECT_EQ(t.range_count(995, 2000), 1);
  EXPECT_EQ(t.range_count(500, 100), 0);  // inverted range
}

TEST(Bat, RangeCollectOrdered) {
  Tree t;
  std::vector<Key> keys = {5, 1, 9, 3, 7, 2, 8};
  for (Key k : keys) t.insert(k);
  auto got = t.range_collect(2, 8);
  std::vector<Key> want = {2, 3, 5, 7, 8};
  EXPECT_EQ(got, want);
  auto limited = t.range_collect(1, 9, 3);
  EXPECT_EQ(limited.size(), 3u);
  EXPECT_TRUE(std::is_sorted(limited.begin(), limited.end()));
}

TEST(Bat, MatchesStdSetWithQueriesSequential) {
  Tree t;
  std::set<Key> ref;
  Xoshiro256 rng(99);
  for (int i = 0; i < 15000; ++i) {
    const Key k = static_cast<Key>(rng.below(400));
    switch (rng.below(5)) {
      case 0:
        ASSERT_EQ(t.insert(k), ref.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(t.erase(k), ref.erase(k) > 0);
        break;
      case 2:
        ASSERT_EQ(t.contains(k), ref.count(k) > 0);
        break;
      case 3: {
        // rank(k) == number of ref elements <= k
        const auto want = static_cast<std::int64_t>(
            std::distance(ref.begin(), ref.upper_bound(k)));
        ASSERT_EQ(t.rank(k), want) << "rank " << k;
        break;
      }
      default: {
        const Key hi = k + static_cast<Key>(rng.below(50));
        const auto want = static_cast<std::int64_t>(std::distance(
            ref.lower_bound(k), ref.upper_bound(hi)));
        ASSERT_EQ(t.range_count(k, hi), want) << "count " << k << " " << hi;
      }
    }
    if (i % 1000 == 0) {
      ASSERT_EQ(t.size(), static_cast<std::int64_t>(ref.size()));
    }
  }
}

TEST(Bat, VersionTreeSatisfiesInvariant24) {
  Tree t;
  Xoshiro256 rng(3);
  for (int i = 0; i < 3000; ++i) t.insert(static_cast<Key>(rng.below(5000)));
  for (int i = 0; i < 1000; ++i) t.erase(static_cast<Key>(rng.below(5000)));
  EbrGuard g;
  const auto* v = t.root_version_unsafe();
  EXPECT_TRUE(version_tree_valid<SizeAug>(v, std::numeric_limits<Key>::min(),
                                          kInf2));
}

TEST(Bat, SnapshotIsImmutableUnderUpdates) {
  Tree t;
  for (Key k = 0; k < 100; ++k) t.insert(k);
  typename Tree::Snapshot snap(t);
  EXPECT_EQ(snap.size(), 100);
  // Mutate heavily after the snapshot.
  for (Key k = 0; k < 100; k += 2) t.erase(k);
  for (Key k = 200; k < 300; ++k) t.insert(k);
  // Snapshot still answers from the frozen version tree.
  EXPECT_EQ(snap.size(), 100);
  EXPECT_EQ(snap.rank(99), 100);
  EXPECT_TRUE(snap.contains(42));
  EXPECT_FALSE(snap.contains(250));
  EXPECT_EQ(t.size(), 150);
}

TEST(Bat, SnapshotQueriesMutuallyConsistent) {
  Tree t;
  for (Key k = 1; k <= 500; ++k) t.insert(k * 3);
  typename Tree::Snapshot snap(t);
  const auto n = snap.size();
  for (std::int64_t i = 1; i <= n; i += 37) {
    const auto k = snap.select(i);
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(snap.rank(*k), i);  // select and rank are inverses
  }
  EXPECT_EQ(snap.range_count(3, 1500), n);
}

TEST(Bat, GenericAugmentationSum) {
  BatTree<SizeSumAug> t;
  std::int64_t want_sum = 0;
  for (Key k = 1; k <= 100; ++k) {
    t.insert(k);
    want_sum += k;
  }
  const auto whole = t.range_aggregate(1, 100);
  EXPECT_EQ(whole.first, 100);        // size part
  EXPECT_EQ(whole.second, want_sum);  // sum part
  const auto part = t.range_aggregate(10, 20);
  EXPECT_EQ(part.first, 11);
  EXPECT_EQ(part.second, (10 + 20) * 11 / 2);
  t.erase(15);
  const auto after = t.range_aggregate(10, 20);
  EXPECT_EQ(after.first, 10);
  EXPECT_EQ(after.second, (10 + 20) * 11 / 2 - 15);
}

TEST(Bat, GenericAugmentationMinMax) {
  BatTree<MinMaxAug> t;
  for (Key k : {50, 10, 90, 30, 70}) t.insert(k);
  const auto mm = t.range_aggregate(20, 80);
  EXPECT_EQ(mm.min, 30);
  EXPECT_EQ(mm.max, 70);
  const auto all = t.range_aggregate(std::numeric_limits<Key>::min(),
                                     kMaxUserKey);
  EXPECT_EQ(all.min, 10);
  EXPECT_EQ(all.max, 90);
}

// --- Propagate's per-call work ---------------------------------------------
//
// Single-threaded, no refresh can lose, so each successful update's
// Propagate refreshes exactly the internal nodes on k's search path (root
// included), once each, with one successful CAS apiece.  No update is ever
// in flight, so the root always agrees with a failed update, which then
// answers from it: no Propagate, no refresh, one root-answered count.
// Changes to how Propagate reaches memory must change its cost, never this
// work.
template <class T>
void ExpectPropagateRefreshesSearchPathOnce() {
  T t;
  Xoshiro256 rng(17);
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
    EbrGuard g;
    const auto depth =
        static_cast<std::uint64_t>(t.node_tree().search(k).depth);
    ASSERT_EQ(delta(Counter::kPropagateNodes), depth)
        << "op " << i << " key " << k;
    ASSERT_EQ(delta(Counter::kRefreshCas), delta(Counter::kPropagateNodes))
        << "op " << i << " key " << k;
    ASSERT_EQ(delta(Counter::kRefreshCasFail), 0u) << "op " << i;
    ASSERT_EQ(delta(Counter::kPropagateExtraNodes), 0u) << "op " << i;
    ASSERT_EQ(delta(Counter::kRootAnsweredUpdates), 0u) << "op " << i;
  }
  // A uniform mix on a half-full range exercises both outcomes.
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, 2000);
}

TEST(BatPropagateWork, PlainRefreshesSearchPathOnce) {
  ExpectPropagateRefreshesSearchPathOnce<Bat<SizeAug>>();
}

TEST(BatPropagateWork, EagerDelRefreshesSearchPathOnce) {
  ExpectPropagateRefreshesSearchPathOnce<BatEagerDel<SizeAug>>();
}

// --- failed updates whose root lags ----------------------------------------
//
// An update made on node_tree() alone skips Propagate, which leaves the
// node tree ahead of Root.version: the state a failed update meets when
// the update that made it fail has not yet propagated.  The failed update
// must not answer from that root.  It must propagate, so that once it has
// returned every read counts the lagging update.
template <class T>
class BatFailedUpdate : public ::testing::Test {};
using BatVariants =
    ::testing::Types<Bat<SizeAug>, BatDel<SizeAug>, BatEagerDel<SizeAug>>;
TYPED_TEST_SUITE(BatFailedUpdate, BatVariants);

TYPED_TEST(BatFailedUpdate, LaggingRootSendsAFailedUpdateThroughPropagate) {
  TypeParam t;
  for (Key k = 0; k < 100; k += 2) ASSERT_TRUE(t.insert(k));  // 50 evens
  // Runs one update; returns its result and the Propagate calls it made.
  const auto counted = [](auto&& update) {
    const auto before = Counters::snapshot();
    const bool result = update();
    const auto after = Counters::snapshot();
    EXPECT_EQ(after[Counter::kRootAnsweredUpdates],
              before[Counter::kRootAnsweredUpdates]);
    return std::make_pair(result, after[Counter::kPropagateCalls] -
                                      before[Counter::kPropagateCalls]);
  };

  constexpr Key kAdded = 51;
  {
    EbrGuard g;
    ASSERT_TRUE(t.node_tree().insert(kAdded));
    ASSERT_TRUE(t.node_tree().contains(kAdded));
  }
  ASSERT_FALSE(t.contains(kAdded)) << "the root already counts the insert";
  const auto [inserted, insert_props] =
      counted([&] { return t.insert(kAdded); });
  EXPECT_FALSE(inserted);
  EXPECT_EQ(insert_props, 1u);
  EXPECT_TRUE(t.contains(kAdded));
  EXPECT_EQ(t.size(), 51);
  EXPECT_EQ(t.rank(kAdded), 27);  // 0, 2, ..., 50 and 51

  constexpr Key kRemoved = 50;
  {
    EbrGuard g;
    ASSERT_TRUE(t.node_tree().erase(kRemoved));
    ASSERT_FALSE(t.node_tree().contains(kRemoved));
  }
  ASSERT_TRUE(t.contains(kRemoved)) << "the root already counts the erase";
  const auto [erased, erase_props] =
      counted([&] { return t.erase(kRemoved); });
  EXPECT_FALSE(erased);
  EXPECT_EQ(erase_props, 1u);
  EXPECT_FALSE(t.contains(kRemoved));
  EXPECT_EQ(t.size(), 50);
  EXPECT_EQ(t.rank(kRemoved), 25);  // 0, 2, ..., 48
}

// --- leaves in version trees -----------------------------------------------
//
// A version names a leaf child by the leaf node itself (VersionRef), so a
// leaf must outlive its unlink for as long as a reader can still reach it
// through a root version.

// Retires n throwaway objects on a fresh thread.  Every 256th retire tries
// an epoch advance, which succeeds while no thread holds a guard from an
// older epoch.
void retire_on_helper_thread(int n) {
  std::thread([n] {
    for (int i = 0; i < n; ++i) pool_retire(pool_new<PropStatus>());
  }).join();
}

template <class T>
class BatLeafLifetime : public ::testing::Test {};
TYPED_TEST_SUITE(BatLeafLifetime, BatVariants);

// node_tree().erase(k) alone unlinks and retires k's leaf while the root
// still names it, since nothing propagates.  After the epoch moves past the
// unlink, this thread's bags are reclaimed at its next outermost guard
// entry, the Snapshot's, which is when a leaf kept one grace period would
// be freed.  The snapshot then reads that root, so the leaf must survive
// until the snapshot ends.  Under ASan a freed leaf is poisoned, and the
// walks report use-after-poison; elsewhere, nodes allocated after the
// snapshot would reuse a freed leaf's slot and change its key.
TYPED_TEST(BatLeafLifetime, PinnedSnapshotKeepsAnUnlinkedLeafReadable) {
  TypeParam t;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(t.insert(k));
  constexpr Key kGone = 21;
  {
    EbrGuard g;
    ASSERT_TRUE(t.node_tree().erase(kGone));
  }
  retire_on_helper_thread(1024);
  typename TypeParam::Snapshot s(t);
  retire_on_helper_thread(4096);
  EXPECT_TRUE(s.contains(kGone));
  EXPECT_EQ(s.rank(kGone), kGone + 1);
  EXPECT_EQ(s.range_count(kGone, kGone), 1);
  std::vector<Node*> reused(1024);
  for (Node*& n : reused) n = pool_new<Node>(Key{-1}, 1, nullptr, nullptr);
  EXPECT_TRUE(s.contains(kGone));
  EXPECT_EQ(s.rank(kGone), kGone + 1);
  for (Node* n : reused) pool_delete(n);
}

// Walks a node tree beside the version tree that names it, at quiescence:
// each internal node's version carries the node's key, and each leaf
// position holds the leaf node's own tagged address.  Counts the internal
// nodes.
template <class N, class Aug>
void ExpectVersionTreeMirrors(const N* n, VersionRef<Aug> c,
                              std::size_t* internal) {
  if (n->is_leaf()) {
    EXPECT_EQ(c, VersionRef<Aug>::leaf(n)) << "leaf " << n->key;
    return;
  }
  ++*internal;
  ASSERT_TRUE(c && !c.is_leaf()) << "internal node " << n->key;
  EXPECT_EQ(c.version()->key, n->key);
  // relaxed: single-threaded walk at quiescence.
  ExpectVersionTreeMirrors(n->child[0].load(std::memory_order_relaxed),
                           c.version()->left, internal);
  ExpectVersionTreeMirrors(n->child[1].load(std::memory_order_relaxed),
                           c.version()->right, internal);
}

// Number of Version objects reachable from c.
template <class Aug>
std::size_t CountVersions(VersionRef<Aug> c) {
  if (c.is_leaf()) return 0;
  return 1 + CountVersions(c.version()->left) +
         CountVersions(c.version()->right);
}

template <class T>
const auto* NodeRoot(const T& t) {
  return t.node_tree().root();
}
template <class Aug>
const auto* NodeRoot(const FrBst<Aug>& t) {
  return t.root_node();
}

template <class T>
class VersionTreeShape : public ::testing::Test {};
using AugmentedTrees =
    ::testing::Types<Bat<SizeAug>, BatDel<SizeAug>, BatEagerDel<SizeAug>,
                     FrBst<SizeAug>>;
TYPED_TEST_SUITE(VersionTreeShape, AugmentedTrees);

TYPED_TEST(VersionTreeShape, OneVersionPerInternalNodeAndNonePerLeaf) {
  TypeParam t;
  Xoshiro256 rng(29);
  constexpr std::uint64_t kRange = 10000;
  while (t.size() < 5000) t.insert(static_cast<Key>(rng.below(kRange)));
  for (int i = 0; i < 2000; ++i) {
    const Key k = static_cast<Key>(rng.below(kRange));
    if (rng.below(2) == 0) {
      t.insert(k);
    } else {
      t.erase(k);
    }
  }
  EbrGuard g;
  const auto* root = t.root_version_unsafe();
  std::size_t internal = 0;
  ExpectVersionTreeMirrors<>(NodeRoot(t), VersionRef<SizeAug>(root),
                             &internal);
  EXPECT_EQ(CountVersions(VersionRef<SizeAug>(root)), internal);
  EXPECT_GT(internal, 4000u);
}

// --- concurrency -----------------------------------------------------------

TEST(BatConcurrent, DisjointRangesDeterministic) {
  Tree t;
  constexpr int kThreads = 8;
  constexpr Key kPer = 1500;
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
  // Version tree agrees with node tree after quiescence.
  EbrGuard g;
  EXPECT_TRUE(version_tree_valid<SizeAug>(t.root_version_unsafe(),
                                          std::numeric_limits<Key>::min(),
                                          kInf2));
  const auto report = t.node_tree().check_invariants();
  EXPECT_TRUE(report.structurally_ok());
  EXPECT_EQ(report.real_keys, static_cast<std::size_t>(kThreads * kPer / 2));
}

// Queries running concurrently with updates must always see consistent
// snapshots: size/rank/select must agree with each other within a snapshot.
TEST(BatConcurrent, QueriesSeeConsistentSnapshots) {
  Tree t;
  for (Key k = 0; k < 2000; k += 2) t.insert(k);  // evens
  std::atomic<bool> stop{false};
  std::atomic<long> bad{0};

  std::thread updater([&] {
    Xoshiro256 rng(1);
    while (!stop.load()) {
      const Key k = static_cast<Key>(rng.below(1000)) * 2 + 1;  // odds
      if (rng.below(2) == 0) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });

  std::thread querier([&] {
    for (int i = 0; i < 3000; ++i) {
      typename Tree::Snapshot snap(t);
      const auto n = snap.size();
      // Every key (evens 0..1998, odds up to 1999) is <= 1999, so the
      // whole-range rank is exactly the snapshot size.  (This used to
      // probe 1998, which undercounts whenever the updater's largest odd
      // key 1999 is present in the snapshot.)
      if (snap.rank(1999) != n) bad.fetch_add(1);
      if (n > 0) {
        const auto k = snap.select(n);
        if (!k.has_value() || snap.rank(*k) != n) bad.fetch_add(1);
      }
      // Evens never disappear.
      if (!snap.contains(1000)) bad.fetch_add(1);
      if (snap.range_count(0, 1999) != n) bad.fetch_add(1);
    }
  });

  querier.join();
  stop = true;
  updater.join();
  EXPECT_EQ(bad.load(), 0);
}

// Mixed random workload; afterwards version tree == node tree.
TEST(BatConcurrent, VersionTreeMatchesNodeTreeAfterQuiescence) {
  Tree t;
  constexpr int kThreads = 6;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] {
      Xoshiro256 rng(500 + i);
      for (int op = 0; op < 12000; ++op) {
        const Key k = static_cast<Key>(rng.below(300));
        if (rng.below(2) == 0) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();

  // Collect keys from the node tree (ground truth) and compare with the
  // version-tree snapshot.
  const auto snap_keys = t.range_collect(std::numeric_limits<Key>::min(),
                                         kMaxUserKey);
  std::set<Key> node_keys;
  for (Key k = 0; k < 300; ++k) {
    if (t.node_tree().contains(k)) node_keys.insert(k);
  }
  EXPECT_EQ(std::set<Key>(snap_keys.begin(), snap_keys.end()), node_keys);
  EXPECT_EQ(t.size(), static_cast<std::int64_t>(node_keys.size()));
  EbrGuard g;
  EXPECT_TRUE(version_tree_valid<SizeAug>(t.root_version_unsafe(),
                                          std::numeric_limits<Key>::min(),
                                          kInf2));
}

// Same-key contention: insert/erase successes must alternate.
TEST(BatConcurrent, SameKeyLinearizable) {
  Tree t;
  constexpr int kThreads = 8;
  std::atomic<long> ins{0}, del{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] {
      Xoshiro256 rng(i);
      for (int op = 0; op < 3000; ++op) {
        if (rng.below(2) == 0) {
          if (t.insert(5)) ins.fetch_add(1);
        } else {
          if (t.erase(5)) del.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  const long diff = ins.load() - del.load();
  EXPECT_TRUE(diff == 0 || diff == 1);
  EXPECT_EQ(t.size(), diff);
  EXPECT_EQ(t.contains(5), diff == 1);
}

}  // namespace
}  // namespace cbat
