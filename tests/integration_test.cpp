// Cross-structure integration tests: every tree in the repository must
// implement the exact same abstract set, so a single random operation
// sequence applied to all of them (plus a std::set oracle) must produce
// identical results, operation by operation.  This is the repository-level
// equivalence check behind Table 1.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "api/ordered_set.h"
#include "core/bat_tree.h"
#include "frbst/frbst.h"
#include "util/random.h"

namespace cbat {
namespace {

const std::vector<std::string>& names() {
  static const std::vector<std::string> v = {
      "BAT",     "BAT-Del",     "BAT-EagerDel",      "FR-BST",
      "VcasBST", "VerlibBTree", "BundledCitrusTree", "Sharded16-BAT"};
  return v;
}

TEST(Integration, AllStructuresAgreeOnRandomSequence) {
  std::vector<std::unique_ptr<api::AbstractOrderedSet>> sets;
  for (const auto& n : names()) {
    sets.push_back(api::StructureRegistry::instance().create(n));
  }
  std::set<Key> oracle;
  Xoshiro256 rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const Key k = static_cast<Key>(rng.below(500));
    switch (rng.below(5)) {
      case 0: {
        const bool want = oracle.insert(k).second;
        for (auto& s : sets) {
          ASSERT_EQ(s->insert(k), want) << s->name() << " insert " << k;
        }
        break;
      }
      case 1: {
        const bool want = oracle.erase(k) > 0;
        for (auto& s : sets) {
          ASSERT_EQ(s->erase(k), want) << s->name() << " erase " << k;
        }
        break;
      }
      case 2: {
        const bool want = oracle.count(k) > 0;
        for (auto& s : sets) {
          ASSERT_EQ(s->contains(k), want) << s->name() << " contains " << k;
        }
        break;
      }
      case 3: {
        const auto want = static_cast<std::int64_t>(
            std::distance(oracle.begin(), oracle.upper_bound(k)));
        for (auto& s : sets) {
          ASSERT_EQ(s->rank(k), want) << s->name() << " rank " << k;
        }
        break;
      }
      default: {
        const Key hi = k + static_cast<Key>(rng.below(100));
        const auto want = static_cast<std::int64_t>(
            std::distance(oracle.lower_bound(k), oracle.upper_bound(hi)));
        for (auto& s : sets) {
          ASSERT_EQ(s->range_count(k, hi), want)
              << s->name() << " count [" << k << "," << hi << "]";
        }
      }
    }
  }
  for (auto& s : sets) {
    EXPECT_EQ(s->size(), static_cast<std::int64_t>(oracle.size()))
        << s->name();
  }
}

// Concurrent smoke across all structures at once: disjoint per-thread key
// blocks keep results deterministic per structure.
TEST(Integration, AllStructuresSurviveConcurrencySideBySide) {
  for (const auto& n : names()) {
    auto set = api::StructureRegistry::instance().create(n);
    constexpr int kThreads = 4;
    constexpr Key kPer = 800;
    std::atomic<bool> failed{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        const Key base = t * kPer;
        for (Key k = base; k < base + kPer; ++k) {
          if (!set->insert(k)) failed = true;
        }
        for (Key k = base; k < base + kPer; k += 2) {
          if (!set->erase(k)) failed = true;
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_FALSE(failed.load()) << n;
    EXPECT_EQ(set->size(), kThreads * kPer / 2) << n;
    EXPECT_EQ(set->range_count(0, kThreads * kPer), kThreads * kPer / 2)
        << n;
  }
}

// The augmented trees must answer order statistics identically on the same
// content — including after structural churn that exercises rotations in
// BAT but not in FR-BST.
TEST(Integration, AugmentedTreesAgreeOnOrderStatistics) {
  Bat<SizeAug> bat;
  BatEagerDel<SizeAug> eager;
  FrBst<SizeAug> fr;
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const Key k = static_cast<Key>(rng.below(3000));
    if (rng.below(3) == 0) {
      bat.erase(k);
      eager.erase(k);
      fr.erase(k);
    } else {
      bat.insert(k);
      eager.insert(k);
      fr.insert(k);
    }
  }
  ASSERT_EQ(bat.size(), fr.size());
  ASSERT_EQ(bat.size(), eager.size());
  for (std::int64_t i = 1; i <= bat.size(); i += 97) {
    ASSERT_EQ(bat.select(i), fr.select(i)) << i;
    ASSERT_EQ(bat.select(i), eager.select(i)) << i;
  }
  for (Key k = 0; k < 3000; k += 131) {
    ASSERT_EQ(bat.rank(k), fr.rank(k)) << k;
    ASSERT_EQ(bat.rank(k), eager.rank(k)) << k;
    ASSERT_EQ(bat.floor(k), eager.floor(k)) << k;
  }
}

// Balance contrast: identical sorted insertions, radically different
// heights — the repository-level restatement of Figure 5b's cause.
TEST(Integration, BalanceContrastOnSortedKeys) {
  BatEagerDel<SizeAug> bat;
  FrBst<SizeAug> fr;
  constexpr Key kN = 2048;
  for (Key k = 0; k < kN; ++k) {
    bat.insert(k);
    fr.insert(k);
  }
  const auto report = bat.node_tree().check_invariants();
  EXPECT_TRUE(report.structurally_ok());
  EXPECT_LE(report.height, 2 * 12 + 4);       // logarithmic
  EXPECT_GE(fr.height_slow(), static_cast<int>(kN / 2));  // linear
  EXPECT_EQ(bat.size(), fr.size());
}

}  // namespace
}  // namespace cbat
