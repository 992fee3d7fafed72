// Tests for the shard layer (src/shard/sharded_set.h): shard-map algebra,
// a std::set-oracle equivalence check for the cross-shard order statistics
// and the cached range aggregates (exercising keys and ranges that
// straddle shard boundaries), snapshot multi-query consistency, and a
// multi-threaded consistency check that is run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/bat_tree.h"
#include "shard/aggregate_cache.h"
#include "shard/sharded_set.h"
#include "util/counters.h"
#include "util/random.h"

namespace cbat {
namespace {

using Sharded4 = ShardedSet<Bat<SizeAug>, 4>;
using Sharded16 = ShardedSet<Bat<SizeAug>, 16>;

TEST(ShardedSet, ShardMapIsMonotoneAndCoversTheKeyspace) {
  Sharded4 s(1000);
  EXPECT_EQ(s.keyspace(), 1000);
  EXPECT_EQ(s.num_shards(), 4);
  int prev = 0;
  for (Key k = 0; k < 1200; ++k) {
    const int sh = s.shard_of(k);
    ASSERT_GE(sh, prev) << k;  // monotone: order statistics compose
    ASSERT_LT(sh, 4) << k;
    prev = sh;
  }
  EXPECT_EQ(s.shard_of(0), 0);
  EXPECT_EQ(s.shard_of(-5), 0);        // out-of-range keys clamp
  EXPECT_EQ(s.shard_of(999), 3);
  EXPECT_EQ(s.shard_of(1000000), 3);
  EXPECT_EQ(s.shard_of(kMaxUserKey), 3);
}

TEST(ShardedSet, HugeKeyspaceDoesNotOverflowTheShardMap) {
  // A keyspace near INT64_MAX must not wrap the ceiling in the width
  // computation (which would make shard_of negative: out-of-bounds).
  ShardedSet<Bat<SizeAug>, 64> s(kMaxUserKey);
  EXPECT_EQ(s.shard_of(0), 0);
  EXPECT_EQ(s.shard_of(kMaxUserKey / 2), 31);
  EXPECT_EQ(s.shard_of(kMaxUserKey), 63);
  EXPECT_TRUE(s.insert(kMaxUserKey));
  EXPECT_TRUE(s.contains(kMaxUserKey));
  EXPECT_EQ(s.rank(kMaxUserKey), 1);
  EXPECT_EQ(s.select(1), kMaxUserKey);
}

TEST(ShardedSet, KeyRangeHintOnlyWhileEmpty) {
  Sharded4 s(1000);
  EXPECT_TRUE(s.key_range_hint(4000));
  EXPECT_EQ(s.keyspace(), 4000);
  EXPECT_FALSE(s.key_range_hint(0));
  EXPECT_FALSE(s.key_range_hint(-7));
  EXPECT_TRUE(s.insert(17));
  EXPECT_FALSE(s.key_range_hint(8000)) << "populated set must refuse";
  EXPECT_EQ(s.keyspace(), 4000);
  EXPECT_TRUE(s.erase(17));
  EXPECT_TRUE(s.key_range_hint(8000)) << "empty again, hint applies";
}

TEST(ShardedSet, EveryShardCountStartsAtTheDefaultKeyspace) {
  EXPECT_EQ(Sharded4().keyspace(), kDefaultKeyspace);
  EXPECT_EQ(Sharded16().keyspace(), kDefaultKeyspace);
}

// Reference implementation of every order statistic on a std::set.
struct Oracle {
  std::set<Key> s;

  std::int64_t rank(Key k) const {
    return static_cast<std::int64_t>(
        std::distance(s.begin(), s.upper_bound(k)));
  }
  std::optional<Key> select(std::int64_t i) const {
    if (i < 1 || i > static_cast<std::int64_t>(s.size())) return std::nullopt;
    auto it = s.begin();
    std::advance(it, i - 1);
    return *it;
  }
  std::int64_t range_count(Key lo, Key hi) const {
    if (lo > hi) return 0;
    return static_cast<std::int64_t>(
        std::distance(s.lower_bound(lo), s.upper_bound(hi)));
  }
};

// Two inputs: sparse checks after long update runs, and checks a few
// updates apart, so the hot ranges' pieces are served from the aggregate
// cache between the updates that re-stamp their shards.
TEST(ShardedSet, OracleEquivalenceAcrossShardBoundaries) {
  constexpr Key kKeyspace = 4000;  // shard width 1000 in Sharded4
  const struct {
    std::uint64_t seed;
    int steps;
    int check_every;
  } inputs[] = {{42, 6000, 100}, {1234, 4000, 5}};
  for (const auto& in : inputs) {
    SCOPED_TRACE(testing::Message() << "seed " << in.seed);
    Sharded4 set(kKeyspace);
    Oracle oracle;
    Xoshiro256 rng(in.seed);

    // Mixed random inserts/erases, biased around the three shard
    // boundaries (1000/2000/3000) so boundary keys and straddling ranges
    // are common.
    for (int step = 0; step < in.steps; ++step) {
      Key k;
      if (rng.below(4) == 0) {
        const Key boundary = 1000 * static_cast<Key>(1 + rng.below(3));
        k = boundary - 3 + static_cast<Key>(rng.below(7));
      } else {
        k = static_cast<Key>(rng.below(kKeyspace));
      }
      if (rng.below(3) == 0) {
        EXPECT_EQ(set.erase(k), oracle.s.erase(k) > 0) << k;
      } else {
        EXPECT_EQ(set.insert(k), oracle.s.insert(k).second) << k;
      }

      if (step % in.check_every != in.check_every - 1) continue;
      ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.s.size()));
      // Point queries at and around the boundaries.
      for (Key q : {Key{0}, Key{999}, Key{1000}, Key{1001}, Key{2500},
                    Key{3999}, Key{4500}}) {
        ASSERT_EQ(set.contains(q), oracle.s.count(q) > 0) << q;
        ASSERT_EQ(set.rank(q), oracle.rank(q)) << q;
      }
      // Selects across the whole size range, plus both out-of-range sides.
      const std::int64_t n = set.size();
      for (std::int64_t i : {std::int64_t{0}, std::int64_t{1}, n / 4, n / 2,
                             n, n + 1}) {
        ASSERT_EQ(set.select(i), oracle.select(i)) << i;
      }
      // Ranges inside one shard and straddling one, two, and three
      // boundaries, plus empty and degenerate ones.  range_aggregate
      // (SizeAug: the key count) goes through the partial pin and the
      // aggregate cache.
      const struct {
        Key lo, hi;
      } ranges[] = {{900, 1100},  {500, 2500},  {0, 3999},  {1000, 2999},
                    {2500, 2500}, {3000, 2000}, {-50, 800}, {3900, 9999}};
      for (const auto& r : ranges) {
        const std::int64_t want = oracle.range_count(r.lo, r.hi);
        ASSERT_EQ(set.range_count(r.lo, r.hi), want) << r.lo << ".." << r.hi;
        ASSERT_EQ(set.range_aggregate(r.lo, r.hi), want)
            << r.lo << ".." << r.hi;
      }
    }
  }
}

TEST(ShardedSet, CompositeQueriesAgreeOnOneSnapshot) {
  Sharded4 set(4000);
  for (Key k = 0; k < 4000; k += 7) set.insert(k);

  Sharded4::Snapshot snap(set);
  const std::int64_t n = snap.size();
  ASSERT_GT(n, 0);
  EXPECT_EQ(snap.range_count(std::numeric_limits<Key>::min(), kMaxUserKey),
            n);
  // select and rank are inverse on a snapshot.
  for (std::int64_t i = 1; i <= n; i += 97) {
    const auto k = snap.select(i);
    ASSERT_TRUE(k.has_value()) << i;
    EXPECT_EQ(snap.rank(*k), i) << i;
  }
  // select_in_range equals filtering by hand.
  EXPECT_EQ(snap.select_in_range(995, 2005, 1), snap.ceiling(995));
  EXPECT_EQ(snap.select_in_range(995, 2005, snap.range_count(995, 2005)),
            snap.floor(2005));
  EXPECT_EQ(snap.select_in_range(995, 2005, snap.range_count(995, 2005) + 1),
            std::nullopt);
  // keys() is sorted and consistent with range_count.
  const auto keys = snap.keys(900, 3100);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(static_cast<std::int64_t>(keys.size()),
            snap.range_count(900, 3100));
  // Updates after the snapshot stay invisible to it.
  const Key fresh = 4001;
  ASSERT_TRUE(set.insert(fresh));
  EXPECT_FALSE(snap.contains(fresh));
  EXPECT_EQ(snap.size(), n);
  EXPECT_TRUE(set.contains(fresh));
}

// A sized int64 augmentation that also carries a key sum: the low 32
// bits count keys, the high bits sum them (both stay small here, so the
// packed addition never carries between the halves).  Forests require an
// int64 aggregate; this is how a test composes a non-count one.
struct PackedCountSumAug {
  using Value = std::int64_t;
  static Value leaf(Key k) { return k * (Value{1} << 32) + 1; }
  static Value sentinel() { return 0; }
  static Value combine(Value l, Value r) { return l + r; }
  static std::int64_t size_of(Value v) { return v & 0xffffffff; }
  static std::int64_t sum_of(Value v) { return v >> 32; }
};

TEST(ShardedSet, RangeAggregateComposesAcrossShards) {
  using Aug = PackedCountSumAug;
  ShardedSet<Bat<Aug>, 4> set(4000);
  std::int64_t sum = 0;
  for (Key k = 10; k < 4000; k += 10) {
    set.insert(k);
    if (k >= 500 && k <= 3500) sum += k;
  }
  // Twice: the second read is served from the aggregate cache.
  for (int i = 0; i < 2; ++i) {
    const auto agg = set.range_aggregate(500, 3500);
    EXPECT_EQ(Aug::size_of(agg), set.range_count(500, 3500));
    EXPECT_EQ(Aug::sum_of(agg), sum);
  }
}

// Concurrent mixed updates with concurrent snapshot readers; each
// reader's snapshot must be internally consistent at all times, and after
// quiescence the forest must equal a sequential replay oracle cross-checked
// per shard.  TSan runs this in CI.
TEST(ShardedSet, MultiThreadedQuiescentConsistency) {
  constexpr Key kKeyspace = 1 << 14;
  constexpr int kUpdaters = 3;
  constexpr int kOpsPerThread = 20000;
  Sharded16 set(kKeyspace);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&set, t] {
      // Each thread owns keys congruent to t mod kUpdaters, so the final
      // contents are deterministic despite interleaving.
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key k = static_cast<Key>(rng.below(kKeyspace) /
                                       kUpdaters * kUpdaters) +
                      t;
        if (rng.below(3) == 0) {
          set.erase(k);
        } else {
          set.insert(k);
        }
      }
    });
  }
  std::thread reader([&set, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      Sharded16::Snapshot snap(set);
      const std::int64_t n = snap.size();
      // Internal consistency of one pinned snapshot.
      ASSERT_EQ(snap.range_count(std::numeric_limits<Key>::min(),
                                 kMaxUserKey),
                n);
      ASSERT_EQ(snap.rank(kMaxUserKey), n);
      if (n > 0) {
        const auto mid = snap.select((n + 1) / 2);
        ASSERT_TRUE(mid.has_value());
        ASSERT_EQ(snap.rank(*mid), (n + 1) / 2);
        ASSERT_TRUE(snap.contains(*mid));
      }
      ASSERT_EQ(snap.select(n + 1), std::nullopt);
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Quiesced: replay each thread's deterministic stream sequentially.
  std::set<Key> oracle;
  for (int t = 0; t < kUpdaters; ++t) {
    Xoshiro256 rng(1000 + t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const Key k = static_cast<Key>(rng.below(kKeyspace) /
                                     kUpdaters * kUpdaters) +
                    t;
      if (rng.below(3) == 0) {
        oracle.erase(k);
      } else {
        oracle.insert(k);
      }
    }
  }
  ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.size()));
  const auto keys = Sharded16::Snapshot(set).keys();
  ASSERT_EQ(keys.size(), oracle.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin()));
}

// --- the epoch-stamped aggregate cache -------------------------------------

// The cache's only correctness job is refusing entries whose stamp or
// bounds are not the caller's; everything else is best effort.
TEST(AggregateCache4, ValidatesByStampIdentity) {
  AggregateCache<4> cache;
  std::int64_t v = -1;
  // Empty entries never hit, whatever stamp is probed (kEpochTbd == 0 is
  // the unstamped sentinel and must be unmatchable).
  EXPECT_FALSE(cache.load_range(0, 100, 900, 0, &v));
  EXPECT_FALSE(cache.load_range(0, 100, 900, 7, &v));

  cache.store_range(0, 100, 900, /*stamp=*/5, /*v=*/17);
  EXPECT_TRUE(cache.load_range(0, 100, 900, 5, &v));
  EXPECT_EQ(v, 17);
  EXPECT_FALSE(cache.load_range(0, 100, 900, 6, &v))
      << "stamp mismatch must miss";
  EXPECT_FALSE(cache.load_range(1, 100, 900, 5, &v))
      << "other shards unaffected";
  // A colliding way must miss on bounds, never return another range's
  // aggregate.
  EXPECT_FALSE(cache.load_range(0, 100, 901, 5, &v));
  EXPECT_FALSE(cache.load_range(0, 101, 900, 5, &v));

  // A refill under a new stamp supersedes the old entry entirely.
  cache.store_range(0, 100, 900, 9, 18);
  EXPECT_FALSE(cache.load_range(0, 100, 900, 5, &v));
  EXPECT_TRUE(cache.load_range(0, 100, 900, 9, &v));
  EXPECT_EQ(v, 18);
}

// Cache accounting: the first range_aggregate of a range misses, and
// undisturbed repeats hit.
TEST(ShardedSet, CacheCountersAdvance) {
  constexpr Key kKeyspace = 4000;
  Sharded4 set(kKeyspace);
  for (Key k = 0; k < kKeyspace; k += 5) set.insert(k);
  const auto before = Counters::snapshot();
  for (int i = 0; i < 200; ++i) set.range_aggregate(1000, 2999);
  const auto after = Counters::snapshot();
  EXPECT_GT(after[Counter::kAggCacheMisses], before[Counter::kAggCacheMisses])
      << "the first read of a range fills the cache";
  EXPECT_GT(after[Counter::kAggCacheHits], before[Counter::kAggCacheHits])
      << "undisturbed repeats must hit";
}

// --- hot-shard rebalancing (epoch-cut key migration) -----------------------

// rebalance_once argument guards: non-adjacent pairs, out-of-bounds
// indices, and shards too small to split must all refuse without
// touching the map.
TEST(AdaptiveShardedSet, RebalanceOnceRefusesBadMoves) {
  Sharded4 set(4096);
  EXPECT_EQ(set.map_generation(), 1u);
  EXPECT_FALSE(set.rebalance_once(0, 2)) << "not adjacent";
  EXPECT_FALSE(set.rebalance_once(0, 0)) << "not adjacent";
  EXPECT_FALSE(set.rebalance_once(-1, 0));
  EXPECT_FALSE(set.rebalance_once(3, 4));
  EXPECT_FALSE(set.rebalance_once(0, 1)) << "empty shard: nothing to split";
  for (Key k = 0; k < 10; ++k) ASSERT_TRUE(set.insert(k));
  EXPECT_FALSE(set.rebalance_once(0, 1)) << "below the split minimum";
  EXPECT_EQ(set.map_generation(), 1u);
  for (Key k = 10; k < 64; ++k) ASSERT_TRUE(set.insert(k));
  const auto before = Counters::snapshot();
  EXPECT_TRUE(set.rebalance_once(0, 1));
  EXPECT_EQ(set.map_generation(), 2u);
  const auto after = Counters::snapshot();
  EXPECT_EQ(after[Counter::kShardMigrations],
            before[Counter::kShardMigrations] + 1);
  EXPECT_GT(after[Counter::kShardMigratedKeys],
            before[Counter::kShardMigratedKeys]);
  // Membership survived the move.
  for (Key k = 0; k < 64; ++k) EXPECT_TRUE(set.contains(k)) << k;
  EXPECT_EQ(set.size(), 64);
  // shard_of names the owner on the current map: the moved half now
  // lives in shard 1, not where the even division puts it.
  for (Key k = 0; k < 64; ++k) {
    EXPECT_TRUE(set.shard_at(set.shard_of(k)).contains(k)) << k;
  }
}

// The piggybacked policy alone (no explicit rebalance_once) must detect a
// single-shard hotspot and move its keys: all traffic lands in shard 0,
// so the update-rate counters cross the hot-factor threshold within a
// few check periods.
TEST(AdaptiveShardedSet, PolicyMigratesUnderSkewedUpdates) {
  Sharded4 set(4096);
  set.set_adaptive_enabled(true);  // the controller is off by default
  Xoshiro256 rng(5);
  for (int step = 0; step < 20000 && set.map_generation() == 1; ++step) {
    const Key k = static_cast<Key>(rng.below(1024));  // shard 0 only
    if (rng.below(2) == 0) {
      set.insert(k);
    } else {
      set.erase(k);
    }
  }
  EXPECT_GT(set.map_generation(), 1u)
      << "a pure shard-0 workload must trigger the controller";
}

// The controller's sampling and policy checks are paced per forest: one
// thread alternating the same shard-0 stream between two forests must
// see both migrate, exactly as one forest fed that stream alone does.
// (Paced per thread, every 8th-update sample could land on one forest
// and every policy check on the other, and neither would ever move.)
TEST(AdaptiveShardedSet, ControllerIsPerInstance) {
  constexpr int kUpdates = 40000;
  const auto feed = [](std::vector<Sharded4*> sets) {
    Xoshiro256 rng(5);
    for (int step = 0; step < kUpdates; ++step) {
      const Key k = static_cast<Key>(rng.below(1024));  // shard 0 only
      const bool insert = rng.below(2) == 0;
      for (Sharded4* s : sets) {
        if (insert) {
          s->insert(k);
        } else {
          s->erase(k);
        }
      }
    }
  };
  Sharded4 alone(4096);
  alone.set_adaptive_enabled(true);
  feed({&alone});
  EXPECT_GT(alone.map_generation(), 1u);

  Sharded4 a(4096);
  Sharded4 b(4096);
  a.set_adaptive_enabled(true);
  b.set_adaptive_enabled(true);
  feed({&a, &b});
  EXPECT_GT(a.map_generation(), 1u);
  EXPECT_GT(b.map_generation(), 1u);
}

// Migrations racing real update/reader traffic (TSan-gated in CI, with
// the rest of this suite).  Updaters own disjoint key classes so
// the final contents replay deterministically; a migrator thread
// ping-pongs the 0/1 boundary through entire protocol cycles while the
// policy (short check period) is free to add its own moves; a reader
// checks snapshot-internal consistency throughout.  After quiescence the
// forest must equal the sequential oracle exactly — every key exactly
// once, wherever it lives now.
TEST(AdaptiveShardedSet, MigrateUnderLoadStaysExact) {
  constexpr Key kKeyspace = 1 << 12;
  constexpr int kUpdaters = 2;
  constexpr int kOpsPerThread = 12000;
  Sharded4 set(kKeyspace);
  set.set_adaptive_enabled(true);  // the policy adds its own moves
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&set, t] {
      // Zipf-ish skew by construction: three quarters of the traffic in
      // the lowest shard, so migrations have something to chase.
      Xoshiro256 rng(77 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t span = rng.below(4) == 0 ? kKeyspace : 1024;
        const Key k =
            static_cast<Key>(rng.below(span) / kUpdaters * kUpdaters) + t;
        if (rng.below(3) == 0) {
          set.erase(k);
        } else {
          set.insert(k);
        }
      }
    });
  }
  std::thread migrator([&set, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      set.rebalance_once(0, 1);
      set.rebalance_once(1, 0);
      set.rebalance_once(1, 2);
      set.rebalance_once(2, 1);
    }
  });
  std::thread reader([&set, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      Sharded4::Snapshot snap(set);
      const std::int64_t n = snap.size();
      ASSERT_GE(n, 0);
      ASSERT_EQ(snap.range_count(std::numeric_limits<Key>::min(),
                                 kMaxUserKey),
                n);
      if (n > 0) {
        const auto mid = snap.select((n + 1) / 2);
        ASSERT_TRUE(mid.has_value());
        ASSERT_EQ(snap.rank(*mid), (n + 1) / 2);
        ASSERT_TRUE(snap.contains(*mid));
      }
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  migrator.join();
  reader.join();

  EXPECT_GT(set.map_generation(), 1u) << "no migration ever completed";

  std::set<Key> oracle;
  for (int t = 0; t < kUpdaters; ++t) {
    Xoshiro256 rng(77 + t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::uint64_t span = rng.below(4) == 0 ? kKeyspace : 1024;
      const Key k =
          static_cast<Key>(rng.below(span) / kUpdaters * kUpdaters) + t;
      if (rng.below(3) == 0) {
        oracle.erase(k);
      } else {
        oracle.insert(k);
      }
    }
  }
  ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.size()));
  const auto keys = Sharded4::Snapshot(set).keys();
  ASSERT_EQ(keys.size(), oracle.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin()));
  // Per-key sweep through the post-migration routing map.
  for (Key k = 0; k < 1024; ++k) {
    ASSERT_EQ(set.contains(k), oracle.count(k) > 0) << k;
  }
}

}  // namespace
}  // namespace cbat
