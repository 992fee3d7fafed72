// Targeted tests for the chromatic-tree rebalancing machinery: each
// transformation class (BLK, RB1, RB2, PUSH, W-FAR, W-NEAR, RED-SIB and
// their mirrors) is exercised by adversarial insertion/deletion patterns,
// and the weighted-path invariant is checked after every phase.  These are
// the invariants of Brown–Ellen–Ruppert (PPoPP 2014) and Nurmi &
// Soisalon-Soininen (1996); a wrong weight in any transformation breaks
// path_sums_equal immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "chromatic/chromatic_set.h"
#include "util/random.h"

namespace cbat {
namespace {

using Report = ChromaticTree<NoVersionPolicy>::InvariantReport;

void expect_clean(const ChromaticSet& s, const char* what) {
  const Report r = s.check_invariants();
  EXPECT_TRUE(r.bst_order) << what;
  EXPECT_TRUE(r.leaf_oriented) << what;
  EXPECT_TRUE(r.path_sums_equal) << what;
  EXPECT_TRUE(r.leaves_positive_weight) << what;
  EXPECT_EQ(r.red_red_violations, 0u) << what;
  EXPECT_EQ(r.overweight_violations, 0u) << what;
}

// Ascending inserts drive RB1/BLK on the right spine (and their mirrors on
// descending runs): every insert makes a red leaf-parent chain that the
// cleanup must resolve.
TEST(Rebalance, AscendingRunsExerciseRightSpineFixes) {
  ChromaticSet s;
  for (Key k = 0; k < 3000; ++k) {
    ASSERT_TRUE(s.insert(k));
    if (k % 500 == 499) expect_clean(s, "ascending");
  }
  const Report r = s.check_invariants();
  EXPECT_LE(r.height, 2 * 12 + 4);
}

TEST(Rebalance, DescendingRunsExerciseLeftSpineFixes) {
  ChromaticSet s;
  for (Key k = 3000; k > 0; --k) {
    ASSERT_TRUE(s.insert(k));
    if (k % 500 == 1) expect_clean(s, "descending");
  }
  EXPECT_LE(s.check_invariants().height, 2 * 12 + 4);
}

// Zig-zag insertion (alternating ends of a shrinking interval) forces the
// inner-child red-red case (RB2) in both directions.
TEST(Rebalance, ZigZagInsertionExercisesDoubleRotations) {
  ChromaticSet s;
  Key lo = 0, hi = 100000;
  while (lo < hi) {
    ASSERT_TRUE(s.insert(lo));
    ASSERT_TRUE(s.insert(hi));
    lo += 13;
    hi -= 17;
  }
  expect_clean(s, "zigzag");
}

// Deletions create overweight nodes; deleting a whole contiguous block
// funnels every weight case (PUSH and the rotations) through one region.
TEST(Rebalance, BlockDeletionExercisesWeightCases) {
  ChromaticSet s;
  for (Key k = 0; k < 4096; ++k) ASSERT_TRUE(s.insert(k));
  // Left block, right-to-left: overweight fixes with right siblings.
  for (Key k = 1023; k >= 0; --k) ASSERT_TRUE(s.erase(k));
  expect_clean(s, "left block");
  // Right block, left-to-right: the mirror cases.
  for (Key k = 3072; k < 4096; ++k) ASSERT_TRUE(s.erase(k));
  expect_clean(s, "right block");
  EXPECT_EQ(s.size_slow(), 2048u);
}

// Alternating keys then deleting every other one stresses PUSH (sibling
// subtrees of equal weight) across the whole tree.
TEST(Rebalance, CombDeletionStressesPush) {
  ChromaticSet s;
  for (Key k = 0; k < 8192; ++k) ASSERT_TRUE(s.insert(k));
  for (Key k = 0; k < 8192; k += 2) ASSERT_TRUE(s.erase(k));
  expect_clean(s, "comb");
  EXPECT_EQ(s.size_slow(), 4096u);
  EXPECT_LE(s.check_invariants().height, 2 * 13 + 4);
}

// Shrink to (almost) empty repeatedly: the root-adjacent special cases
// (weight clamping at root.left, sentinel handling) run constantly.
TEST(Rebalance, GrowShrinkCyclesNearEmpty) {
  ChromaticSet s;
  Xoshiro256 rng(17);
  for (int cycle = 0; cycle < 30; ++cycle) {
    std::vector<Key> keys;
    const int n = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < n; ++i) {
      const Key k = static_cast<Key>(rng.below(1000));
      if (s.insert(k)) keys.push_back(k);
    }
    for (Key k : keys) ASSERT_TRUE(s.erase(k));
    expect_clean(s, "cycle");
    EXPECT_EQ(s.size_slow(), 0u);
  }
}

// fix_to_key must be idempotent and harmless on a clean tree.
TEST(Rebalance, FixToKeyOnCleanTreeIsNoop) {
  ChromaticSet s;
  for (Key k = 0; k < 500; ++k) s.insert(k * 3);
  const Report before = s.check_invariants();
  {
    EbrGuard g;
    for (Key k = 0; k < 1500; k += 7) s.tree().fix_to_key(k);
  }
  const Report after = s.check_invariants();
  EXPECT_EQ(before.real_keys, after.real_keys);
  EXPECT_TRUE(after.path_sums_equal);
  EXPECT_EQ(after.red_red_violations, 0u);
  EXPECT_EQ(after.overweight_violations, 0u);
}

// Height stays logarithmic across a long adversarial mix: ascending runs,
// descending runs, block deletes, uniform churn.
TEST(Rebalance, HeightBoundedUnderAdversarialMix) {
  ChromaticSet s;
  Xoshiro256 rng(23);
  std::set<Key> ref;
  auto apply = [&](Key k, bool ins) {
    if (ins) {
      ASSERT_EQ(s.insert(k), ref.insert(k).second);
    } else {
      ASSERT_EQ(s.erase(k), ref.erase(k) > 0);
    }
  };
  for (int phase = 0; phase < 6; ++phase) {
    switch (phase % 3) {
      case 0:
        for (Key k = phase * 1000; k < phase * 1000 + 900; ++k) {
          apply(k, true);
        }
        break;
      case 1:
        for (Key k = phase * 1000 + 900; k >= phase * 1000; --k) {
          apply(k, (k % 3) != 0);
        }
        break;
      default:
        for (int i = 0; i < 2000; ++i) {
          apply(static_cast<Key>(rng.below(8000)), rng.below(2) == 0);
        }
    }
    const Report r = s.check_invariants();
    ASSERT_TRUE(r.structurally_ok()) << "phase " << phase;
    ASSERT_EQ(r.red_red_violations, 0u);
    ASSERT_EQ(r.overweight_violations, 0u);
    ASSERT_EQ(r.real_keys, ref.size());
    // 2*log2(n+1) + slack; n <= 8000.
    ASSERT_LE(r.height, 2 * 13 + 4);
  }
}

// Concurrent rebalancing: threads hammer adjacent ascending runs so their
// cleanup windows overlap constantly; the final tree must be clean.
TEST(Rebalance, ConcurrentAscendingRunsStayClean) {
  ChromaticSet s;
  constexpr int kThreads = 6;
  constexpr Key kPer = 3000;
  std::vector<std::thread> ts;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      // Interleaved ascending sequences: thread t inserts t, t+T, t+2T, ...
      for (Key k = t; k < kThreads * kPer; k += kThreads) {
        if (!s.insert(k)) failed = true;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(failed.load());
  const Report r = s.check_invariants();
  EXPECT_TRUE(r.structurally_ok());
  EXPECT_EQ(r.real_keys, static_cast<std::size_t>(kThreads * kPer));
  EXPECT_EQ(r.red_red_violations, 0u);
  EXPECT_EQ(r.overweight_violations, 0u);
  EXPECT_LE(r.height, 2 * 15 + 6);
}

TEST(Rebalance, ConcurrentMixedChurnStaysClean) {
  ChromaticSet s;
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(31 * t + 5);
      for (int i = 0; i < 15000; ++i) {
        const Key k = static_cast<Key>(rng.below(1024));
        if (rng.below(2) == 0) {
          s.insert(k);
        } else {
          s.erase(k);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  const Report r = s.check_invariants();
  EXPECT_TRUE(r.structurally_ok());
  EXPECT_EQ(r.red_red_violations, 0u);
  EXPECT_EQ(r.overweight_violations, 0u);
}

}  // namespace
}  // namespace cbat
