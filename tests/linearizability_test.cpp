// History-based linearizability checking for cross-shard composite
// queries (ISSUE 5 / ROADMAP "cross-shard linearizable snapshots").
//
// The history class is deliberately restricted so the check is exact and
// cheap: ONE writer thread applies a known sequence of updates over a
// small tracked key set, readers observe the full tracked-key membership
// through one Snapshot each.  For such histories a legal total order
// exists iff every observation equals some prefix of the writer's
// sequence, where the prefix index is bounded below by the number of
// writer ops already *completed* when the snapshot was acquired and above
// by the number already *begun* when its queries returned (the real-time
// constraint of linearizability).
//
// The deterministic tests inject two sequential inserts (a then b, landing
// in the first and last shard) after the first shard's root is read.  A
// naive cut that reads the raw shard roots one after another — built in
// the negative-control test itself — then observes {b present, a absent}:
// b's insert began after a's completed, so no prefix matches and the
// checker rejects the history.  The forest's Snapshot, driven through its
// mid-acquire test hook, resolves the last shard's root back past its
// epoch cut and observes the empty prefix: same interleaving,
// linearizable history.  The concurrent tests run the same checker over
// free-running writer/reader schedules (TSan-gated in CI alongside the
// sharded_set suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "core/bat_tree.h"
#include "shard/sharded_set.h"
#include "util/counters.h"
#include "util/random.h"

namespace cbat {
namespace {

using Sharded4 = ShardedSet<Bat<SizeAug>, 4>;

// One reader observation: the membership of every tracked key as seen
// through a single Snapshot, plus the real-time bounds on which writer
// prefix may explain it.
struct TrackedObservation {
  std::int64_t done_at_inv = 0;     // writer ops completed before acquire
  std::int64_t started_at_resp = 0;  // writer ops begun when queries ended
  std::vector<bool> members;
};

// prefix_states[j] is the tracked-key membership after the writer's first
// j operations.  The observation linearizes iff some in-bounds prefix
// reproduces it exactly.
bool observation_linearizes(
    const std::vector<std::vector<bool>>& prefix_states,
    const TrackedObservation& o) {
  const auto hi = std::min<std::int64_t>(
      o.started_at_resp, static_cast<std::int64_t>(prefix_states.size()) - 1);
  for (std::int64_t j = o.done_at_inv; j <= hi; ++j) {
    if (prefix_states[static_cast<std::size_t>(j)] == o.members) return true;
  }
  return false;
}

// --- deterministic interleaving through the mid-acquire hook --------------

constexpr Key kKeyspace = 4000;  // Sharded4 width 1000
constexpr Key kKeyA = 100;       // shard 0
constexpr Key kKeyB = 3900;      // shard 3

// Writer sequence: insert a, then insert b (sequential, so a's completion
// precedes b's invocation).  Prefix states over {a, b}.
std::vector<std::vector<bool>> pair_prefix_states() {
  return {{false, false}, {true, false}, {true, true}};
}

// Real-time bounds of one observation taken across the injected inserts:
// no tracked op had completed at acquisition, both had begun by the
// response.
TrackedObservation across_both_inserts() {
  TrackedObservation o;
  o.done_at_inv = 0;
  o.started_at_resp = 2;
  return o;
}

// Acquires one Snapshot of a set holding no tracked key, injecting both
// inserts after shard 0's root is pinned and before shard 1's is read.
TrackedObservation observe_with_mid_acquire_writes() {
  Sharded4 set(kKeyspace);
  const auto hook = [](void* ctx, int next_shard) {
    if (next_shard != 1) return;
    auto* s = static_cast<Sharded4*>(ctx);
    s->insert(kKeyA);  // completes before insert(kKeyB) is invoked
    s->insert(kKeyB);
  };
  Sharded4::Snapshot snap(set, hook, &set);
  TrackedObservation o = across_both_inserts();
  o.members = {snap.contains(kKeyA), snap.contains(kKeyB)};
  // Whatever the cut, one pinned snapshot must at least be internally
  // consistent: size agrees with the tracked memberships (the set never
  // holds untracked keys here).
  EXPECT_EQ(snap.size(),
            static_cast<std::int64_t>(o.members[0]) +
                static_cast<std::int64_t>(o.members[1]));
  return o;
}

// The negative control: a naive cut that reads the shard roots one after
// another, with no epoch cut and no resolve walk, observes the *second*
// insert while missing the *first* — a state no prefix of the writer's
// sequence explains.  This is the violation the epoch cut exists to
// close; if the checker ever accepts it, the checker cannot tell the
// forest's cut from the sweep it replaced.
TEST(CrossShardLinearizability, CheckerRejectsQuiescentCut) {
  Sharded4 set(kKeyspace);
  TrackedObservation o = across_both_inserts();
  {
    EbrGuard g;
    std::array<const Version<SizeAug>*, 4> roots{};
    for (int i = 0; i < 4; ++i) {
      if (i == 1) {
        set.insert(kKeyA);  // completes before insert(kKeyB) is invoked
        set.insert(kKeyB);
      }
      roots[i] = set.shard_at(i).root_version_unsafe();
    }
    o.members = {
        version_contains<SizeAug>(roots[set.shard_of(kKeyA)], kKeyA),
        version_contains<SizeAug>(roots[set.shard_of(kKeyB)], kKeyB)};
  }
  EXPECT_FALSE(o.members[0]) << "shard 0 was read before insert(a)";
  EXPECT_TRUE(o.members[1]) << "shard 3 was read after insert(b)";
  EXPECT_FALSE(observation_linearizes(pair_prefix_states(), o))
      << "{b without a} must not linearize: insert(a) completed before "
         "insert(b) began";
}

// Same interleaving, through the forest's Snapshot: both inserts mint
// stamps above the snapshot's cut, so resolving shard 3's root walks its
// history back past b's installation and the observation is the (legal)
// empty prefix.
TEST(CrossShardLinearizability, CheckerAcceptsEpochStampedCut) {
  const TrackedObservation o = observe_with_mid_acquire_writes();
  EXPECT_FALSE(o.members[0]);
  EXPECT_FALSE(o.members[1]) << "b's root must resolve past the cut";
  EXPECT_TRUE(observation_linearizes(pair_prefix_states(), o));
}

// --- epoch bookkeeping ----------------------------------------------------

// Every stamp mints a fresh epoch.  The clock starts at 1 and the
// constructor mints one stamp per shard for the initial roots (2..5);
// after that every insert here installs one root and mints one stamp, and
// a cut returns the newest minted stamp without advancing the clock.
TEST(CrossShardLinearizability, EpochAdvancesPerAcquisitionAndCutsPin) {
  Sharded4 set(kKeyspace);
  EXPECT_EQ(set.current_epoch(), 5u);
  ASSERT_TRUE(set.insert(kKeyA));  // mints 6
  EXPECT_EQ(set.current_epoch(), 6u);

  Sharded4::Snapshot s1(set);
  EXPECT_EQ(s1.epoch(), 6u);
  EXPECT_EQ(set.current_epoch(), 6u);
  // Completed before acquisition: included.
  EXPECT_TRUE(s1.contains(kKeyA));
  EXPECT_EQ(s1.size(), 1);

  ASSERT_TRUE(set.insert(kKeyB));  // mints 7
  Sharded4::Snapshot s2(set);
  EXPECT_EQ(s2.epoch(), 7u);
  EXPECT_EQ(set.current_epoch(), 7u);
  EXPECT_TRUE(s2.contains(kKeyB));
  EXPECT_EQ(s2.size(), 2);
  // The older cut is immutable.
  EXPECT_FALSE(s1.contains(kKeyB));
  EXPECT_EQ(s1.size(), 1);
}

// A cut never writes the clock.  A read burst with no update shares one
// epoch; one completed insert between two cuts mints one stamp, and the
// cut after it returns that stamp and sees the insert.
TEST(CrossShardLinearizability, ReadBurstSharesOneEpoch) {
  Sharded4 set(kKeyspace);
  ASSERT_TRUE(set.insert(kKeyA));
  std::uint64_t e0 = 0;
  {
    Sharded4::Snapshot s(set);
    e0 = s.epoch();
    EXPECT_TRUE(s.contains(kKeyA));
  }
  const std::uint64_t c0 = set.current_epoch();
  EXPECT_EQ(c0, e0);

  for (int i = 0; i < 8; ++i) {
    Sharded4::Snapshot s(set);
    EXPECT_EQ(s.epoch(), e0) << i;
    EXPECT_TRUE(s.contains(kKeyA)) << i;
  }
  // The public composite queries and point reads cut (or read) without
  // stamping too.
  EXPECT_EQ(set.size(), 1);
  EXPECT_EQ(set.rank(kKeyA), 1);
  EXPECT_EQ(set.range_aggregate(0, kKeyspace - 1), 1);
  EXPECT_TRUE(set.contains(kKeyA));
  EXPECT_EQ(set.current_epoch(), c0) << "a read burst advanced the clock";

  Sharded4::Snapshot before(set);
  EXPECT_EQ(before.epoch(), e0);
  ASSERT_TRUE(set.insert(kKeyB));  // mints c0 + 1
  Sharded4::Snapshot after(set);
  EXPECT_EQ(after.epoch(), c0 + 1);
  EXPECT_EQ(set.current_epoch(), c0 + 1);
  EXPECT_FALSE(before.contains(kKeyB));
  EXPECT_TRUE(after.contains(kKeyB));
  EXPECT_EQ(after.size(), 2);
}

// A read that observes an installed root must finalize its stamp before
// returning: an updater stamps its new root only after the install CAS,
// and if a reader answered from the unstamped root, a cut taken next (by
// the same thread, so strictly later) would help-stamp that root past its
// own epoch and resolve back to the predecessor — losing an update the
// reader already saw.  The root-install seam parks an updater right
// between its root CAS and its stamp.  Three first readers of such a root
// are checked, each followed by a cut that must agree with it: contains(a)
// beside a parked insert(a); a failed insert(a), beside a second parked
// insert(a), which answers from the root it reads; and a failed erase(b),
// beside a second updater parked inside erase(b).
TEST(CrossShardLinearizability, ReadsFinalizeTheRootStampTheyObserve) {
  struct Park {
    std::atomic<bool> armed{false};
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};

    // Arms the seam and runs `update` on a thread that parks in it.
    std::thread start(std::function<void()> update) {
      parked.store(false);
      release.store(false);
      armed.store(true);
      std::thread t(std::move(update));
      while (!parked.load()) std::this_thread::yield();
      return t;
    }
  };
  const auto hook = [](void* ctx) {
    auto* p = static_cast<Park*>(ctx);
    if (!p->armed.exchange(false)) return;
    p->parked.store(true);
    while (!p->release.load()) std::this_thread::yield();
  };
  Sharded4 set(kKeyspace);
  Park park_a;  // shard 0
  Park park_b;  // shard 3
  set.shard_at(0).set_root_install_hook(hook, &park_a);
  set.shard_at(3).set_root_install_hook(hook, &park_b);
  const auto root_answers = [] {
    return Counters::snapshot()[Counter::kRootAnsweredUpdates];
  };

  std::thread updater =
      park_a.start([&] { EXPECT_TRUE(set.insert(kKeyA)); });
  // insert(a) is still running; its root is installed but unstamped.
  const bool seen = set.contains(kKeyA);
  EXPECT_TRUE(seen) << "the parked root already carries a";
  {
    Sharded4::Snapshot snap(set);
    EXPECT_EQ(snap.contains(kKeyA), seen)
        << "a cut taken after a read that saw a must see a";
    EXPECT_EQ(snap.size(), 1);
  }
  EXPECT_EQ(set.range_count(0, kKeyspace - 1), 1);
  park_a.release.store(true);
  updater.join();

  // A failed insert(a) is the first to read a parked insert(a)'s root.
  ASSERT_TRUE(set.erase(kKeyA));
  updater = park_a.start([&] { EXPECT_TRUE(set.insert(kKeyA)); });
  std::uint64_t answered = root_answers();
  EXPECT_FALSE(set.insert(kKeyA));
  EXPECT_EQ(root_answers(), answered + 1) << "answered from the parked root";
  {
    Sharded4::Snapshot snap(set);
    EXPECT_TRUE(snap.contains(kKeyA))
        << "a cut taken after a failed insert(a) must see a";
  }

  // A failed erase(b) is the first to read a parked erase(b)'s root, while
  // insert(a) stays parked in shard 0.
  EXPECT_TRUE(set.insert(kKeyB));
  std::thread eraser = park_b.start([&] { EXPECT_TRUE(set.erase(kKeyB)); });
  answered = root_answers();
  EXPECT_FALSE(set.erase(kKeyB));
  EXPECT_EQ(root_answers(), answered + 1) << "answered from the parked root";
  {
    Sharded4::Snapshot snap(set);
    EXPECT_FALSE(snap.contains(kKeyB))
        << "a cut taken after a failed erase(b) must miss b";
    EXPECT_TRUE(snap.contains(kKeyA));
  }

  park_a.release.store(true);
  park_b.release.store(true);
  updater.join();
  eraser.join();
  set.shard_at(0).set_root_install_hook(nullptr, nullptr);
  set.shard_at(3).set_root_install_hook(nullptr, nullptr);
}

// Resolution must hand back the current root in the no-race case even
// after the counter has advanced far past the stamps in the tree: a
// std::set oracle equivalence run with snapshots interleaved to keep the
// epoch moving.
TEST(CrossShardLinearizability, LinearizableForestMatchesOracle) {
  Sharded4 set(kKeyspace);
  std::set<Key> oracle;
  Xoshiro256 rng(2026);
  for (int step = 0; step < 4000; ++step) {
    const Key k = static_cast<Key>(rng.below(kKeyspace));
    if (rng.below(3) == 0) {
      ASSERT_EQ(set.erase(k), oracle.erase(k) > 0) << k;
    } else {
      ASSERT_EQ(set.insert(k), oracle.insert(k).second) << k;
    }
    if (step % 200 != 199) continue;
    Sharded4::Snapshot snap(set);
    ASSERT_EQ(snap.size(), static_cast<std::int64_t>(oracle.size()));
    for (Key q : {Key{0}, Key{999}, Key{1000}, Key{2500}, Key{3999}}) {
      ASSERT_EQ(snap.contains(q), oracle.count(q) > 0) << q;
      ASSERT_EQ(snap.rank(q),
                static_cast<std::int64_t>(std::distance(
                    oracle.begin(), oracle.upper_bound(q))))
          << q;
    }
    const std::int64_t n = snap.size();
    if (n > 0) {
      const auto mid = snap.select((n + 1) / 2);
      ASSERT_TRUE(mid.has_value());
      ASSERT_EQ(snap.rank(*mid), (n + 1) / 2);
    }
    // range_aggregate (SizeAug: the key count) through the forest's own
    // partial pin and through the full snapshot: one shard, a shard's
    // exact span, a boundary pair, several shards, all shards, and an
    // empty range.
    const auto check_range = [&](Key lo, Key hi) {
      const auto want = static_cast<std::int64_t>(
          std::distance(oracle.lower_bound(lo), oracle.upper_bound(hi)));
      ASSERT_EQ(set.range_aggregate(lo, hi), want) << lo << ".." << hi;
      ASSERT_EQ(snap.range_aggregate(lo, hi), want) << lo << ".." << hi;
    };
    check_range(100, 900);
    check_range(1000, 1999);
    check_range(999, 1000);
    check_range(500, 3500);
    check_range(0, kKeyspace - 1);
    ASSERT_EQ(set.range_aggregate(2000, 1000), 0);
  }
}

// --- concurrent history check (TSan-gated in CI) --------------------------

// Free-running schedule: one writer applies a precomputed toggle sequence
// over tracked keys spread across all four shards, publishing begun /
// completed counts; readers acquire linearizable snapshots and record the
// tracked membership with those counts as real-time bounds.  Every
// recorded observation must be explained by an in-bounds writer prefix.
TEST(CrossShardLinearizability, ConcurrentSingleWriterHistoryLinearizes) {
  constexpr int kTracked = 8;
  constexpr int kOps = 6000;
  constexpr int kReaders = 2;
  std::vector<Key> tracked;
  for (int i = 0; i < kTracked; ++i) {
    tracked.push_back(static_cast<Key>(i * 500 + 100));  // 2 keys per shard
  }

  // Precompute the toggle sequence and every prefix state.
  std::vector<std::vector<bool>> prefix_states;
  std::vector<std::pair<int, bool>> ops;  // (tracked index, is_insert)
  {
    std::vector<bool> state(kTracked, false);
    prefix_states.push_back(state);
    Xoshiro256 rng(7);
    for (int j = 0; j < kOps; ++j) {
      const int i = static_cast<int>(rng.below(kTracked));
      const bool is_insert = !state[static_cast<std::size_t>(i)];
      ops.emplace_back(i, is_insert);
      state[static_cast<std::size_t>(i)] = is_insert;
      prefix_states.push_back(state);
    }
  }

  Sharded4 set(kKeyspace);
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int j = 0; j < kOps; ++j) {
      started.store(j + 1, std::memory_order_seq_cst);
      const auto [i, is_insert] = ops[static_cast<std::size_t>(j)];
      const Key k = tracked[static_cast<std::size_t>(i)];
      // The toggle sequence makes every update effective, so prefix
      // states track the set exactly.
      ASSERT_TRUE(is_insert ? set.insert(k) : set.erase(k)) << j;
      done.store(j + 1, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::vector<TrackedObservation>> logs(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto& log = logs[static_cast<std::size_t>(r)];
      log.reserve(4096);
      // do-while: on a single-core host the writer may finish before this
      // thread first runs; one post-quiescence observation is still a
      // valid (and checkable) history entry.
      do {
        TrackedObservation o;
        o.done_at_inv = done.load(std::memory_order_seq_cst);
        Sharded4::Snapshot snap(set);
        o.members.reserve(kTracked);
        std::int64_t present = 0;
        for (const Key k : tracked) {
          const bool m = snap.contains(k);
          o.members.push_back(m);
          present += m ? 1 : 0;
        }
        // Internal consistency of the pinned cut: only tracked keys ever
        // enter the set.
        ASSERT_EQ(snap.size(), present);
        o.started_at_resp = started.load(std::memory_order_seq_cst);
        log.push_back(std::move(o));
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  std::size_t checked = 0;
  for (const auto& log : logs) {
    for (const auto& o : log) {
      ASSERT_TRUE(observation_linearizes(prefix_states, o))
          << "observation #" << checked << " bounds [" << o.done_at_inv
          << ", " << o.started_at_resp << "]";
      ++checked;
    }
  }
  ASSERT_GT(checked, 0u);
}

// One writer's toggle sequence over `n` tracked keys: (index, is_insert)
// per operation, and the tracked membership after each prefix.  Toggling
// makes every update effective, so prefix states track the set exactly.
void toggle_history(std::size_t n, int ops, std::uint64_t seed,
                    std::vector<std::pair<std::size_t, bool>>* out,
                    std::vector<std::vector<bool>>* prefix) {
  std::vector<bool> state(n, false);
  prefix->push_back(state);
  Xoshiro256 rng(seed);
  for (int j = 0; j < ops; ++j) {
    const std::size_t i = rng.below(n);
    const bool is_insert = !state[i];
    out->emplace_back(i, is_insert);
    state[i] = is_insert;
    prefix->push_back(state);
  }
}

// Two writers over *disjoint* tracked key sets, each spanning all four
// shards of a forest: writer A toggles one key per shard, writer B two
// keys per shard, each one key at a time through the forest's point
// updates, so their root installations and stamps interleave on every
// shard.  Disjoint ownership keeps the check exact — each writer's
// projection of an observation must independently match that writer's
// history within its own real-time bounds.
TEST(CrossShardLinearizability, ConcurrentTwoWriterHistoryLinearizes) {
  constexpr int kShards = 4;
  constexpr int kOpsA = 4000;
  constexpr int kOpsB = 4000;

  std::vector<Key> keys_a;
  std::vector<Key> keys_b;
  for (int i = 0; i < kShards; ++i) {
    keys_a.push_back(i * 1000 + 100);
    keys_b.push_back(i * 1000 + 350);
    keys_b.push_back(i * 1000 + 600);
  }
  std::vector<std::vector<bool>> prefix_a, prefix_b;
  std::vector<std::pair<std::size_t, bool>> ops_a, ops_b;
  toggle_history(keys_a.size(), kOpsA, 100, &ops_a, &prefix_a);
  toggle_history(keys_b.size(), kOpsB, 101, &ops_b, &prefix_b);

  Sharded4 set(kKeyspace);
  std::atomic<std::int64_t> started_a{0}, done_a{0};
  std::atomic<std::int64_t> started_b{0}, done_b{0};
  std::atomic<int> writers_left{2};
  std::atomic<bool> stop{false};
  const auto run_writer = [&](const std::vector<Key>& keys,
                              const std::vector<std::pair<std::size_t, bool>>&
                                  ops,
                              std::atomic<std::int64_t>& started,
                              std::atomic<std::int64_t>& done) {
    for (std::size_t j = 0; j < ops.size(); ++j) {
      started.store(static_cast<std::int64_t>(j) + 1,
                    std::memory_order_seq_cst);
      const auto [i, is_insert] = ops[j];
      EXPECT_TRUE(is_insert ? set.insert(keys[i]) : set.erase(keys[i])) << j;
      done.store(static_cast<std::int64_t>(j) + 1, std::memory_order_seq_cst);
    }
    if (writers_left.fetch_sub(1) == 1) {
      stop.store(true, std::memory_order_release);
    }
  };
  std::thread writer_a([&] { run_writer(keys_a, ops_a, started_a, done_a); });
  std::thread writer_b([&] { run_writer(keys_b, ops_b, started_b, done_b); });

  std::vector<TrackedObservation> log_a, log_b;
  std::thread reader([&] {
    // do-while, like the single-writer test: never record zero history.
    do {
      const std::int64_t inv_a = done_a.load(std::memory_order_seq_cst);
      const std::int64_t inv_b = done_b.load(std::memory_order_seq_cst);
      Sharded4::Snapshot snap(set);
      TrackedObservation oa, ob;
      std::int64_t present = 0;
      for (const Key k : keys_a) {
        oa.members.push_back(snap.contains(k));
        present += oa.members.back() ? 1 : 0;
      }
      for (const Key k : keys_b) {
        ob.members.push_back(snap.contains(k));
        present += ob.members.back() ? 1 : 0;
      }
      // Internal consistency of the pinned cut: only tracked keys ever
      // enter the set.
      ASSERT_EQ(snap.size(), present);
      oa.done_at_inv = inv_a;
      ob.done_at_inv = inv_b;
      oa.started_at_resp = started_a.load(std::memory_order_seq_cst);
      ob.started_at_resp = started_b.load(std::memory_order_seq_cst);
      log_a.push_back(std::move(oa));
      log_b.push_back(std::move(ob));
    } while (!stop.load(std::memory_order_acquire));
  });
  writer_a.join();
  writer_b.join();
  reader.join();

  ASSERT_GT(log_a.size(), 0u);
  for (const auto& o : log_a) {
    ASSERT_TRUE(observation_linearizes(prefix_a, o))
        << "writer A bounds [" << o.done_at_inv << ", " << o.started_at_resp
        << "]";
  }
  for (const auto& o : log_b) {
    ASSERT_TRUE(observation_linearizes(prefix_b, o))
        << "writer B bounds [" << o.done_at_inv << ", " << o.started_at_resp
        << "]";
  }
  // Quiescence: both histories fully applied.
  Sharded4::Snapshot snap(set);
  for (std::size_t i = 0; i < keys_a.size(); ++i) {
    EXPECT_EQ(snap.contains(keys_a[i]), prefix_a.back()[i]) << keys_a[i];
  }
  for (std::size_t i = 0; i < keys_b.size(); ++i) {
    EXPECT_EQ(snap.contains(keys_b[i]), prefix_b.back()[i]) << keys_b[i];
  }
}

// --- stale cache races a root CAS (epoch-stamped aggregate cache) ---------

// The aggregate cache accepts an entry only when its stored stamp equals
// the stamp of the root the *caller* has pinned (aggregate_cache.h).  The
// deterministic test below constructs the exact interleaving that check
// exists for — a cache fill racing a root CAS — and fails if the stamp
// validation is removed (make load_range ignore `stamp` and it turns
// red).

// Range cache: a snapshot pins shard 0's root, an update CASes that root
// mid-acquisition, and the snapshot then answers (correctly, on its old
// cut) and MEMOIZES that answer under the old root's stamp — a stale
// entry written into the cache after the root has already moved.  A
// fresh query, whose pinned root carries the new minted stamp,
// probes the same entry and must reject it: with the stamp check gone it
// would serve the pre-update aggregate.
TEST(StaleAggregateCache, RangeEntryOutlivedByRootCas) {
  constexpr Key kLo = 100, kHi = 900;  // inside shard 0 (width 1000)
  Sharded4 set(kKeyspace);
  for (Key k = kLo; k <= kHi; k += 100) ASSERT_TRUE(set.insert(k));
  const std::int64_t before = 9;
  ASSERT_EQ(set.range_aggregate(kLo, kHi), before);

  // Pin shard 0, then land an in-range insert before shard 1 is read.
  const auto hook = [](void* ctx, int next_shard) {
    if (next_shard != 1) return;
    ASSERT_TRUE(static_cast<Sharded4*>(ctx)->insert(kLo + 50));
  };
  Sharded4::Snapshot snap(set, hook, &set);
  // The snapshot's cut predates the insert; its answer — which it also
  // stores into the range cache under the OLD root's stamp — is `before`.
  EXPECT_EQ(snap.range_aggregate(kLo, kHi), before);
  // A fresh read pins the post-CAS root: the cached entry's stamp no
  // longer matches and the aggregate must be recomputed.
  EXPECT_EQ(set.range_aggregate(kLo, kHi), before + 1);
}

// Concurrent variant (TSan-gated in CI with the rest of this suite): the
// cached read path must serve linearizable answers while updates re-stamp
// roots under it.  Single writer, known toggle sequence; readers observe
// through the PUBLIC composite-query API — size(), range_count() and a
// whole-keyspace range_aggregate(), the last through the epoch-stamped
// cache — and every observation must equal the tracked population of
// some writer prefix within its real-time bounds.
TEST(StaleAggregateCache, ConcurrentCachedReadsLinearize) {
  constexpr int kTracked = 8;
  constexpr int kOps = 6000;
  constexpr int kReaders = 2;
  std::vector<Key> tracked;
  for (int i = 0; i < kTracked; ++i) {
    tracked.push_back(static_cast<Key>(i * 500 + 100));
  }
  std::vector<std::int64_t> prefix_pop;  // population after j writer ops
  std::vector<std::pair<int, bool>> ops;
  {
    std::vector<bool> state(kTracked, false);
    std::int64_t pop = 0;
    prefix_pop.push_back(pop);
    Xoshiro256 rng(11);
    for (int j = 0; j < kOps; ++j) {
      const int i = static_cast<int>(rng.below(kTracked));
      const bool is_insert = !state[static_cast<std::size_t>(i)];
      ops.emplace_back(i, is_insert);
      state[static_cast<std::size_t>(i)] = is_insert;
      pop += is_insert ? 1 : -1;
      prefix_pop.push_back(pop);
    }
  }

  Sharded4 set(kKeyspace);
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int j = 0; j < kOps; ++j) {
      started.store(j + 1, std::memory_order_seq_cst);
      const auto [i, is_insert] = ops[static_cast<std::size_t>(j)];
      const Key k = tracked[static_cast<std::size_t>(i)];
      ASSERT_TRUE(is_insert ? set.insert(k) : set.erase(k)) << j;
      done.store(j + 1, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<std::int64_t> checked{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(77 + static_cast<std::uint64_t>(r));
      do {
        // One observation per query: each composite read linearizes at
        // its own instant, so each gets its own real-time bounds.
        const std::int64_t inv = done.load(std::memory_order_seq_cst);
        std::int64_t obs;
        switch (rng.below(3)) {
          case 0:
            obs = set.size();
            break;
          case 1:
            obs = set.range_aggregate(0, kKeyspace - 1);
            break;
          default:
            obs = set.range_count(0, kKeyspace - 1);
            break;
        }
        const std::int64_t resp = started.load(std::memory_order_seq_cst);
        bool ok = false;
        const auto hi = std::min<std::int64_t>(
            resp, static_cast<std::int64_t>(prefix_pop.size()) - 1);
        for (std::int64_t j = inv; j <= hi && !ok; ++j) {
          ok = prefix_pop[static_cast<std::size_t>(j)] == obs;
        }
        ASSERT_TRUE(ok) << "population " << obs << " not reachable in ["
                        << inv << ", " << resp << "]";
        // relaxed: statistics counter, read after join().
        checked.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_GT(checked.load(), 0);

  // Quiescence: with the writer joined, every read path — the cache
  // included, from this thread and a fresh one — must agree on the final
  // state.
  const std::int64_t final_pop = prefix_pop.back();
  EXPECT_EQ(set.size(), final_pop);
  EXPECT_EQ(set.range_aggregate(0, kKeyspace - 1), final_pop);
  std::thread([&] { EXPECT_EQ(set.size(), final_pop); }).join();
}

// --- migration protocol: epoch-cut key moves (ISSUE 7) --------------------

// A forest moves key ranges between shards while updates and snapshots
// run.  These tests drive the real migrate() through its
// phase hook (set_migration_hook) and check that the cut stays
// linearizable at EVERY protocol boundary.  They are written to fail if
// the sealed diff is disabled: the hook lands updates inside the moving
// range after the pre-copy, and only the diff against the sealed source
// makes the destination's copy exact — drop either half of diff_range()
// and the post-flip membership diverges from the oracle.

// Shared state for the deterministic hook: the set, a same-thread oracle,
// and the per-stage updates to apply.  The hook runs on the migrator's
// own thread, so in-range updates are legal only while the range is not
// sealed (kCopyBegin/kCopied before the seal, kOpened/kCleaned after it
// clears); sealed stages apply out-of-range updates, which never park.
struct MigHookState {
  Sharded4* set = nullptr;
  std::set<Key>* oracle = nullptr;
  std::vector<int> stages;
};

// Every move here is between shards 0 and 1.  The window opens before
// the bulk copy and closes once the cleanup's erases have returned, so a
// fresh snapshot treats both shards as dirty from kCopied to kOpened and
// no shard as dirty at kCopyBegin or kCleaned.
constexpr std::uint64_t kWindow01 = 0b11;
std::uint64_t dirty_at(int stage) {
  return stage == Sharded4::kMigHookCopyBegin ||
                 stage == Sharded4::kMigHookCleaned
             ? 0
             : kWindow01;
}

void check_against_oracle(const Sharded4& set, const std::set<Key>& oracle,
                          int stage, std::uint64_t dirty) {
  // Single-threaded history: a linearizable snapshot taken between
  // operations must equal the oracle exactly, whatever migration phase
  // the forest is in.
  Sharded4::Snapshot snap(set);
  ASSERT_EQ(snap.dirty_shards(), dirty) << "stage " << stage;
  ASSERT_EQ(snap.size(), static_cast<std::int64_t>(oracle.size()))
      << "stage " << stage;
  for (Key k : {Key{100}, Key{506}, Key{515}, Key{650}, Key{705}, Key{905},
                Key{996}, Key{2105}, Key{3900}}) {
    ASSERT_EQ(snap.contains(k), oracle.count(k) > 0)
        << "key " << k << " at stage " << stage;
  }
  ASSERT_EQ(snap.range_count(0, kKeyspace - 1),
            static_cast<std::int64_t>(oracle.size()))
      << "stage " << stage;
}

void mig_stage_hook(void* ctx, int stage) {
  auto* st = static_cast<MigHookState*>(ctx);
  st->stages.push_back(stage);
  Sharded4& set = *st->set;
  std::set<Key>& oracle = *st->oracle;
  // Every stage op TOGGLES its key, so it is effective (and asserted so)
  // no matter how many migrations ran before — a silently lost update
  // cannot hide behind an already-correct membership.
  auto toggle = [&](Key k) {
    if (oracle.count(k) > 0) {
      ASSERT_TRUE(set.erase(k)) << k << " at stage " << stage;
      oracle.erase(k);
    } else {
      ASSERT_TRUE(set.insert(k)) << k << " at stage " << stage;
      oracle.insert(k);
    }
  };
  switch (stage) {
    case Sharded4::kMigHookCopyBegin:
      // Before the pre-copy: in-range updates land in the source shard,
      // and the pre-copy's cut already includes them.
      toggle(996);
      toggle(515);
      break;
    case Sharded4::kMigHookCopied:
      // AFTER the pre-copy seeded the destination: these land in the
      // source and reach the destination only through the sealed diff.
      // 705 erases a key the pre-copy already moved and 506 inserts one
      // it never saw, so they are exactly the keys the diff must erase
      // and insert.
      toggle(705);
      toggle(506);
      break;
    case Sharded4::kMigHookSealed:
    case Sharded4::kMigHookReplayed:
    case Sharded4::kMigHookFlipped:
      // Range sealed: in-range updates would park on this very thread,
      // so exercise out-of-range ones (they must never block).
      toggle(2105 + static_cast<Key>(stage));
      break;
    case Sharded4::kMigHookOpened:
      // Seal cleared: in-range updates resume and must route by the NEW
      // map (the key now lives in the destination shard).
      toggle(996);
      toggle(650);
      break;
    case Sharded4::kMigHookCleaned:
      toggle(650);
      break;
    default:
      break;
  }
  check_against_oracle(set, oracle, stage, dirty_at(stage));
}

// After a completed move the raw shards hold every key exactly once: a
// copy left behind in either shard double-counts.
std::int64_t raw_size(const Sharded4& set) {
  std::int64_t n = 0;
  for (int s = 0; s < 4; ++s) n += set.shard_at(s).size();
  return n;
}

// One forced boundary move with updates and snapshots injected at every
// protocol stage; membership and the dirty shards must match the oracle
// at each cut and after the move (both migration directions).
TEST(MigrationLinearizability, EveryCutStageMatchesOracle) {
  Sharded4 set(kKeyspace);
  std::set<Key> oracle;
  for (Key k = 5; k < 1000; k += 10) {  // 100 keys, all in shard 0
    ASSERT_TRUE(set.insert(k));
    oracle.insert(k);
  }
  ASSERT_TRUE(set.insert(3900));
  oracle.insert(3900);

  MigHookState st{&set, &oracle, {}};
  set.set_migration_hook(&mig_stage_hook, &st);
  ASSERT_EQ(set.map_generation(), 1u);
  ASSERT_TRUE(set.rebalance_once(0, 1));  // move shard 0's upper half right
  ASSERT_EQ(set.map_generation(), 2u);
  // The hook fired at every protocol boundary, in order.
  ASSERT_EQ(st.stages,
            (std::vector<int>{
                Sharded4::kMigHookCopyBegin, Sharded4::kMigHookCopied,
                Sharded4::kMigHookSealed, Sharded4::kMigHookReplayed,
                Sharded4::kMigHookFlipped, Sharded4::kMigHookOpened,
                Sharded4::kMigHookCleaned}));
  check_against_oracle(set, oracle, /*stage=*/-1, 0);
  ASSERT_EQ(raw_size(set), static_cast<std::int64_t>(oracle.size()));

  // Move the range back (dst == src - 1 exercises the other median
  // branch); the same per-stage checks run again on the reverse cut.
  st.stages.clear();
  ASSERT_TRUE(set.rebalance_once(1, 0));
  ASSERT_EQ(set.map_generation(), 3u);
  ASSERT_EQ(st.stages.size(), 7u);
  check_against_oracle(set, oracle, /*stage=*/-2, 0);
  ASSERT_EQ(raw_size(set), static_cast<std::int64_t>(oracle.size()));

  // Full membership sweep through the per-key read path: source-shard
  // stale copies must have been retired, destination copies adopted.
  set.set_migration_hook(nullptr, nullptr);
  for (Key k = 0; k < kKeyspace; ++k) {
    ASSERT_EQ(set.contains(k), oracle.count(k) > 0) << k;
  }
}

// Free-running history check (TSan-gated in CI): one writer toggles
// tracked keys inside the migrating range, a migrator ping-pongs the
// boundary between shards 0 and 1, readers snapshot and record
// real-time-bounded observations.  Every observation must be explained
// by an in-bounds writer prefix — cuts before, during, and after a move
// all accept; an update the diff failed to carry over shows up as an
// inexplicable mixed state.
TEST(MigrationLinearizability, ConcurrentHistoryLinearizesAcrossMoves) {
  constexpr int kTracked = 8;
  constexpr int kOps = 4000;
  std::vector<Key> tracked;
  for (int i = 0; i < kTracked; ++i) {
    tracked.push_back(static_cast<Key>(i * 125 + 2));  // shard 0, not %5==0
  }
  std::vector<std::vector<bool>> prefix_states;
  std::vector<std::pair<int, bool>> ops;
  {
    std::vector<bool> state(kTracked, false);
    prefix_states.push_back(state);
    Xoshiro256 rng(19);
    for (int j = 0; j < kOps; ++j) {
      const int i = static_cast<int>(rng.below(kTracked));
      const bool is_insert = !state[static_cast<std::size_t>(i)];
      ops.emplace_back(i, is_insert);
      state[static_cast<std::size_t>(i)] = is_insert;
      prefix_states.push_back(state);
    }
  }

  Sharded4 set(kKeyspace);  // the migrator thread drives moves
  // Static ballast in shard 0 so every boundary move has keys to split;
  // multiples of 5 never collide with the tracked keys.
  std::int64_t ballast = 0;
  for (Key k = 0; k < 1000; k += 5) {
    ASSERT_TRUE(set.insert(k));
    ++ballast;
  }

  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int j = 0; j < kOps; ++j) {
      started.store(j + 1, std::memory_order_seq_cst);
      const auto [i, is_insert] = ops[static_cast<std::size_t>(j)];
      const Key k = tracked[static_cast<std::size_t>(i)];
      ASSERT_TRUE(is_insert ? set.insert(k) : set.erase(k)) << j;
      done.store(j + 1, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });

  std::atomic<int> moves{0};
  std::thread migrator([&] {
    // Keep going past `stop` until at least one move has landed: on a
    // single-hardware-thread host the writer can finish its whole run
    // before this thread is ever scheduled, and a zero-move pass would
    // make the history check vacuous.  Once the writer is done the set
    // is quiescent and the ballast keeps shard 0 above the split
    // minimum, so a move is guaranteed to succeed and the loop exits.
    while (!stop.load(std::memory_order_acquire) || moves.load() == 0) {
      if (set.rebalance_once(0, 1)) moves.fetch_add(1);
      if (set.rebalance_once(1, 0)) moves.fetch_add(1);
    }
  });

  std::vector<TrackedObservation> log;
  std::thread reader([&] {
    do {
      TrackedObservation o;
      o.done_at_inv = done.load(std::memory_order_seq_cst);
      Sharded4::Snapshot snap(set);
      std::int64_t present = 0;
      for (const Key k : tracked) {
        const bool m = snap.contains(k);
        o.members.push_back(m);
        present += m ? 1 : 0;
      }
      // A cut mid-migration must still count every key exactly once
      // (duplicates in the destination shard are outside its owned range
      // until the flip; stale source copies outside it after).
      ASSERT_EQ(snap.size(), ballast + present);
      o.started_at_resp = started.load(std::memory_order_seq_cst);
      log.push_back(std::move(o));
    } while (!stop.load(std::memory_order_acquire));
  });

  writer.join();
  migrator.join();
  reader.join();

  ASSERT_GT(moves.load(), 0) << "no boundary move ever ran";
  ASSERT_GT(log.size(), 0u);
  for (const auto& o : log) {
    ASSERT_TRUE(observation_linearizes(prefix_states, o))
        << "bounds [" << o.done_at_inv << ", " << o.started_at_resp << "]";
  }
  // Quiescent final sweep: membership equals the last writer prefix.
  const std::vector<bool>& fin = prefix_states.back();
  for (int i = 0; i < kTracked; ++i) {
    ASSERT_EQ(set.contains(tracked[static_cast<std::size_t>(i)]),
              fin[static_cast<std::size_t>(i)])
        << i;
  }
}

}  // namespace
}  // namespace cbat
