// ShardedSet — a keyspace-partitioned forest of BATs (ROADMAP: sharding).
//
// The key range is split into NumShards contiguous sub-ranges, each served
// by its own inner tree (default `Bat<SizeAug>`).  Updates touch exactly one
// shard, so update throughput scales with the shard count instead of
// serializing on one root Propagate; the price is that composite queries
// must merge per-shard snapshots.  The merge is exactly the per-subtree
// aggregate composition of Sela & Petrank's concurrent aggregate queries:
//
//   * size / range_count / range_aggregate: sum (combine) the per-shard
//     answers — contiguity makes every middle shard a fully-covered subtree
//     whose answer is its root version's supplementary field, O(1);
//   * rank: prefix-sum the sizes of the shards entirely below the key's
//     shard, then one O(log n) rank descent inside it;
//   * select: binary-search the shard-size prefix sums for the owning
//     shard, then one O(log n) `version_select` descent inside it.
//
// Consistency: every query is linearizable.  Each shard is a BAT, so every
// single-shard operation is; cross-shard composite queries read a
// `Snapshot`, which pins shard root versions under one EBR guard, so all
// queries through one Snapshot see the same immutable forest (multi-query
// consistency).  The set owns an EpochClock that every shard-root
// installation stamps (BatTree::set_epoch_source, vcas-style deferred
// timestamps as in Wei et al.'s constant-time snapshots), and every stamp
// mints a fresh epoch.  Acquisition is two-phase: take a cut of the clock —
// the snapshot's linearization point, one load that never writes — then
// resolve each pinned shard's root to the newest version stamped at or
// before the cut's epoch, walking the root's prev_root history backward
// when an installation raced past the cut.  A read burst with no update in
// between therefore shares one epoch.  Updates pay one minted stamp per
// root refresh; acquisition pays the cut plus a usually-empty history walk
// per pinned shard, and range_aggregate pins only the shards its range
// covers.
//
// Shard map.  Routing goes through a ShardMap: an immutable table of owned
// upper bounds behind one atomic pointer.  The first map splits the
// keyspace evenly (width = ceil(keyspace / NumShards)); the keyspace
// defaults to `kDefaultKeyspace` and can be adapted to a workload with
// `key_range_hint(max_key)` *while the set is empty* (the benchmark driver
// calls this before prefilling).  Every map is monotone, so order
// statistics compose across shards by construction; keys outside
// [0, keyspace) are legal and land in the first or last shard.  A lookup
// guesses the shard by the even division and steps to the owner on the
// map: exact, with no step, until a boundary moves.
//
// Hot-shard rebalancing (ROADMAP: hot-shard rebalancing).  The even split
// leaves a Zipfian hot shard reserializing updates.  Every forest tracks
// per-shard update rates for a piggybacked RebalanceController — off by
// default, switched per instance (set_adaptive_enabled) — that sheds half
// of a hot shard's owned keys to a cooler adjacent neighbor (a local rule
// in the spirit of Bampas et al.'s self-stabilizing containment-tree
// balancing: no global coordinator, convergence while traffic continues).
// A boundary move runs the epoch-cut migration protocol
// (docs/ARCHITECTURE.md "How a key migration works"): pre-copy the keys on
// a linearizable epoch cut with per-key inserts while updates keep
// applying to the source, seal the range for one grace period, patch the
// copy by diffing it against the sealed source range, then publish the new
// map and erase the moved keys' source-shard copies.
//
// Clean and dirty shards.  A migration's copies and leftovers are keys a
// shard holds outside its owned range.  Each map carries a mask of the
// shards that may hold such keys, and a migration brackets its window with
// maps: the mask {src, dst} before the first copy, an empty mask once the
// leftovers are erased.  A snapshot reads the mask of the map it pinned: a
// clean shard answers from its root fields as if no boundary had ever
// moved, and only a window's two shards pay descents restricted to their
// owned range — a key's copies outside its owning shard's range are
// invisible on every cut, so any (map, roots) pair a snapshot can assemble
// is consistent.
//
// Range-aggregate cache (ROADMAP: read-side scaling).  The per-shard
// pieces of a range_aggregate — the boundary descents, the only O(log n)
// part — are memoized in an AggregateCache keyed by the pinned root's
// epoch stamp (src/shard/aggregate_cache.h).  Stamps are unique, so stamp
// equality implies root identity: a root CAS re-stamps its shard and a
// stale entry is recomputed, never served.  Answers are exactly those of
// an uncached read.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "core/bat_tree.h"
#include "core/version_queries.h"
#include "reclamation/ebr.h"
#include "shard/aggregate_cache.h"
#include "util/counters.h"
#include "util/fault.h"
#include "util/padded.h"
#include "util/thread_annotations.h"

namespace cbat {

// 2^20 keys: large enough that the default map is not degenerate for the
// paper's small-tree workloads, small enough that hinted workloads always
// override it.  Every ShardedSet starts from it, whatever its shard count.
inline constexpr Key kDefaultKeyspace = Key{1} << 20;

// The inner structure must expose a *sized* int64 augmentation (the
// cross-shard prefix sums are shard sizes, and an aggregate cache entry
// carries one 64-bit aggregate), a pinned-root view, and root
// installations that stamp the forest's epoch clock (set_epoch_source);
// the BAT variants do.  (root_version_unsafe is safe here: every caller
// holds an EbrGuard for the lifetime of the returned pointer.)
template <class Inner>
concept ShardableInner =
    requires(Inner t, const Inner ct, Key k, EpochClock* c) {
      typename Inner::AugType;
      requires SizedAugmentation<typename Inner::AugType>;
      requires std::same_as<typename Inner::AugType::Value, std::int64_t>;
      { t.insert(k) } -> std::same_as<bool>;
      { t.erase(k) } -> std::same_as<bool>;
      { ct.contains(k) } -> std::same_as<bool>;
      { ct.root_version_unsafe() };
      t.set_epoch_source(c);
    };

// Selects nothing: every forest takes epoch cuts.  The one enumerator
// survives so that spellings naming it keep compiling — perfbench's
// traced run binds `ShardedSet<Bat<SizeAug>, 16,
// SnapshotPolicy::kLinearizable>` by type.
enum class SnapshotPolicy { kLinearizable };

// NumShards <= 64: a map's dirty mask is one 64-bit word.
template <class Inner = Bat<SizeAug>, int NumShards = 16,
          SnapshotPolicy = SnapshotPolicy::kLinearizable>
  requires ShardableInner<Inner> && (NumShards >= 1) && (NumShards <= 64)
class ShardedSet {
 public:
  using Aug = typename Inner::AugType;
  using AugValue = typename Aug::Value;
  using V = Version<Aug>;

  // The atomically-swappable boundary table.  Shard s owns the inclusive
  // key range [lo_of(s), hi_of(s)]; upper[NumShards-1] is pinned to
  // kMaxUserKey so the table always covers the keyspace.  Bit s of `dirty`
  // is set when shard s may hold keys outside its owned range (a
  // migration's window, see migrate).  Maps are immutable once published:
  // a migration installs a fresh table whose `prev` points at the one it
  // replaced and whose `flip_epoch` is stamped after installation
  // (kEpochTbd until then, help-stamped by readers — the same
  // deferred-timestamp discipline as root stamps), so snapshots resolve
  // the map chain to the newest table at or before their cut.  Replaced
  // tables are EBR-retired; an accepted table's `prev` is never
  // dereferenced, which is what bounds the walk to live memory (see
  // resolve_map_epoch).
  struct ShardMap {
    // shared: stamped once at installation; cold after publication.
    mutable std::atomic<std::uint64_t> flip_epoch{kEpochTbd};
    std::uint64_t dirty = 0;             // shards that may hold strays
    std::uint64_t gen = 1;               // 1 + completed boundary moves
    const ShardMap* prev = nullptr;
    std::array<Key, NumShards> upper{};  // inclusive owned upper bounds

    // The owner of k, stepping from any shard index `s` (the caller's
    // guess) over the monotone bounds.
    int owner(Key k, int s) const {
      // A one-shard forest has one owner; saying so also keeps g++'s
      // -Warray-bounds from flagging the dead upper[s - 1] read below.
      if constexpr (NumShards == 1) return 0;
      while (s > 0 && k <= upper[s - 1]) --s;
      while (s < NumShards - 1 && k > upper[s]) ++s;
      return s;
    }
    bool is_dirty(int s) const { return ((dirty >> s) & 1) != 0; }
    Key lo_of(int s) const {
      return s == 0 ? std::numeric_limits<Key>::min() : upper[s - 1] + 1;
    }
    Key hi_of(int s) const { return upper[s]; }
  };

  // Migration phase-hook stages (test seam, like Snapshot's
  // MidAcquireHook): the migrator calls the hook at every protocol
  // boundary so tests can interleave queries and updates at each phase.
  static constexpr int kMigHookCopyBegin = 0;  // cut chosen, pre-copy
  static constexpr int kMigHookCopied = 1;     // bulk copy applied to dst
  static constexpr int kMigHookSealed = 2;     // range sealed, pre-diff
  static constexpr int kMigHookReplayed = 3;   // diff applied to dst
  static constexpr int kMigHookFlipped = 4;    // new map installed+stamped
  static constexpr int kMigHookOpened = 5;     // seal cleared, range live
  static constexpr int kMigHookCleaned = 6;    // source copies erased
  using MigrationHook = void (*)(void* ctx, int stage);

  ShardedSet() : ShardedSet(kDefaultKeyspace) {}
  explicit ShardedSet(Key keyspace) {
    repartition(keyspace);
    // Attach the epoch clock before any update can run, so every root
    // the forest ever installs is stamped, and mint the initial empty
    // roots' stamps here too: the aggregate cache keys on root stamps,
    // and a read then never mints one for a shard no update has touched.
    EbrGuard g;
    for (auto& s : shards_) {
      s->set_epoch_source(&epoch_);
      version_epoch<Aug>(s->root_version_unsafe(), epoch_);
    }
  }

  ~ShardedSet() {
    // Only the current map is owned here; every replaced map was
    // EBR-retired at its replacement and the reclaimer frees it
    // independently (its deleter does not touch this set).
    delete map_.load(std::memory_order_acquire);
  }

  static constexpr int num_shards() { return NumShards; }

  Key keyspace() const { return keyspace_; }

  // Current epoch of the snapshot clock: the newest minted stamp (tests).
  std::uint64_t current_epoch() const { return epoch_.now(); }

  // Adapts the shard map to keys drawn from [0, max_key).  Only honored
  // while the set is empty — repartitioning a populated forest would strand
  // keys in the wrong shard.  Not thread-safe against concurrent updates;
  // call it before handing the set to worker threads.
  bool key_range_hint(Key max_key) {
    if (max_key <= 0) return false;
    if (size() != 0) return false;
    repartition(max_key);
    return true;
  }

  // --- updates: exactly one shard, one EBR-guarded BAT update -------------

  bool insert(Key k) { return update(k, /*is_insert=*/true); }
  bool erase(Key k) { return update(k, /*is_insert=*/false); }

  // --- queries -------------------------------------------------------------

  bool contains(Key k) const {
    // Route by the current map, under a guard so the map stays live.
    // Correct in every migration phase: before the flip the old map
    // routes a migrating key to its source shard, which stays
    // authoritative until the range is sealed and diffed; after the flip
    // the new map routes to the destination, which the diff made
    // identical to the source while updates to the range were parked —
    // at the flip instant both routes give the same answer.
    EbrGuard g;
    return shards_[route(map_.load(std::memory_order_acquire), k)]->contains(
        k);
  }

  // All composite queries pin one Snapshot so their per-shard reads merge a
  // single consistent forest (see the header comment for the guarantee).
  // Named Snapshot locals (never temporaries) throughout: TSA tracks
  // scoped capabilities only for named local variables, so
  // `Snapshot(*this).x()` would not prove ebr_capability held for x().
  std::int64_t size() const {
    const Snapshot snap(*this);
    return snap.size();
  }
  std::int64_t rank(Key k) const {
    const Snapshot snap(*this);
    return snap.rank(k);
  }
  std::optional<Key> select(std::int64_t i) const {
    const Snapshot snap(*this);
    return snap.select(i);
  }
  std::int64_t range_count(Key lo, Key hi) const {
    const Snapshot snap(*this);
    return snap.range_count(lo, hi);
  }
  AugValue range_aggregate(Key lo, Key hi) const {
    // Pin only the shards the range covers on the pinned map, routing lo
    // and hi once: the answer reads no other root, so resolving them
    // would be pure acquisition cost.  (rank, select and size read the
    // prefix sums over every shard and keep the single all-shard pass.)
    if (lo > hi) return Aug::sentinel();
    const Snapshot snap(*this, lo, hi);
    return snap.aggregate(lo, hi, snap.first_, snap.last_);
  }
  std::optional<Key> select_in_range(Key lo, Key hi, std::int64_t i) const {
    const Snapshot snap(*this);
    return snap.select_in_range(lo, hi, i);
  }
  std::optional<Key> floor(Key k) const {
    const Snapshot snap(*this);
    return snap.floor(k);
  }
  std::optional<Key> ceiling(Key k) const {
    const Snapshot snap(*this);
    return snap.ceiling(k);
  }
  std::vector<Key> range_collect(Key lo, Key hi, std::size_t limit = 0) const {
    const Snapshot snap(*this);
    return snap.keys(lo, hi, limit);
  }

  // Pins every shard's root version under ONE EBR guard: `guard_` is
  // declared (and therefore constructed) before the root-pinning loop in
  // the constructor runs, and it spans every query made through the
  // snapshot — composite queries never re-enter the EBR per shard.  The
  // pinning loop is the second phase of the two-phase acquisition: phase
  // one takes a cut of the owner's epoch clock (the snapshot's
  // linearization point) and resolves the map against it, phase two
  // resolves each shard's root against the cut's epoch, walking the
  // root's prev_root history backward past any installation stamped after
  // the cut.  The forest's own range_aggregate builds a partial snapshot
  // that pins only the shards its range covers.  The shard-size prefix
  // sums are materialized lazily, once, on the first query that needs
  // them (rank/select/size); order-free queries such as floor or
  // range_aggregate skip the O(NumShards) size reads entirely.
  //
  // For Thread Safety Analysis the Snapshot IS a scoped ebr_capability
  // (its guard_ member pins the epoch for its whole lifetime), and every
  // query method is CBAT_REQUIRES(ebr_capability) because it dereferences
  // the pinned roots.
  class CBAT_SCOPED_CAPABILITY Snapshot {
   public:
    // Test-only seam: called with the shard index right before that
    // shard's root is read, letting deterministic interleaving tests
    // (tests/linearizability_test.cpp) run updates mid-acquisition.
    using MidAcquireHook = void (*)(void* ctx, int next_shard);

    explicit Snapshot(const ShardedSet& s) CBAT_ACQUIRE(ebr_capability)
        : Snapshot(s, nullptr, nullptr) {}
    Snapshot(const ShardedSet& s, MidAcquireHook hook, void* hook_ctx)
        CBAT_ACQUIRE(ebr_capability)
        : owner_(&s) {
      // guard: guard_ is constructed before this body runs (it is the
      // first member); TSA does not track member-subobject guards, so
      // assert the capability it already pinned.
      ebr_assert_held();
      take_cut();
      pin(hook, hook_ctx);
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    ~Snapshot() CBAT_RELEASE() {}

    // The cut's epoch.  All composite queries on this snapshot linearize
    // at the cut that returned it.
    std::uint64_t epoch() const { return epoch_; }

    // The shards this cut treats as dirty: bit s set when shard s may
    // hold keys outside its owned range on the pinned map, so its answers
    // are restricted to that range.  Zero outside a migration's window.
    std::uint64_t dirty_shards() const CBAT_REQUIRES(ebr_capability) {
      return map_->dirty;
    }

    bool contains(Key k) const CBAT_REQUIRES(ebr_capability) {
      return version_contains<Aug>(root_of(k), k);
    }

    std::int64_t size() const CBAT_REQUIRES(ebr_capability) {
      return prefix()[NumShards];
    }

    // Keys <= k: the full shards below k's shard, by prefix sum, plus one
    // rank descent inside it.  A dirty shard subtracts its keys below its
    // owned range — the routing map guarantees k itself lies inside the
    // owning shard's range, so only the low side needs the clamp.
    std::int64_t rank(Key k) const CBAT_REQUIRES(ebr_capability) {
      const int s = snap_shard_of(k);
      const std::int64_t r = prefix()[s] + version_rank<Aug>(roots_[s], k);
      if (!map_->is_dirty(s)) return r;
      return r - version_rank_less<Aug>(roots_[s], map_->lo_of(s));
    }

    // Keys < k.
    std::int64_t rank_less(Key k) const CBAT_REQUIRES(ebr_capability) {
      const int s = snap_shard_of(k);
      const std::int64_t r =
          prefix()[s] + version_rank_less<Aug>(roots_[s], k);
      if (!map_->is_dirty(s)) return r;
      return r - version_rank_less<Aug>(roots_[s], map_->lo_of(s));
    }

    // i-th smallest key overall (1-based): binary-search the prefix sums
    // for the owning shard, then select inside it.
    std::optional<Key> select(std::int64_t i) const
        CBAT_REQUIRES(ebr_capability) {
      const auto& pre = prefix();
      if (i < 1 || i > pre[NumShards]) return std::nullopt;
      const auto it = std::lower_bound(pre.begin() + 1, pre.end(), i);
      const int s = static_cast<int>(it - pre.begin()) - 1;
      if (!map_->is_dirty(s)) return version_select<Aug>(roots_[s], i - pre[s]);
      return version_select_in_range<Aug>(roots_[s], map_->lo_of(s),
                                          map_->hi_of(s), i - pre[s]);
    }

    // Keys in [lo, hi]: two composite rank descents (the middle shards are
    // absorbed by the prefix sums).
    std::int64_t range_count(Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability) {
      if (lo > hi) return 0;
      return rank(hi) - rank_less(lo);
    }

    // Aggregate over [lo, hi]; see aggregate().
    AugValue range_aggregate(Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability) {
      if (lo > hi) return Aug::sentinel();
      return aggregate(lo, hi, snap_shard_of(lo), snap_shard_of(hi));
    }

    // i-th smallest key within [lo, hi] (1-based), all on this snapshot.
    std::optional<Key> select_in_range(Key lo, Key hi, std::int64_t i) const
        CBAT_REQUIRES(ebr_capability) {
      if (lo > hi || i < 1) return std::nullopt;
      const std::int64_t before = rank_less(lo);
      if (i > rank(hi) - before) return std::nullopt;
      return select(before + i);
    }

    // Largest key <= k: try k's shard, then walk down over empty-below
    // shards (usually zero or one extra probe).  Each probe is clamped to
    // the shard's owned range and rejects answers below it — a stray copy
    // must neither be returned nor end the walk.
    std::optional<Key> floor(Key k) const CBAT_REQUIRES(ebr_capability) {
      for (int s = snap_shard_of(k); s >= 0; --s) {
        const Key cap = std::min(k, map_->hi_of(s));
        if (auto r = version_floor<Aug>(roots_[s], cap)) {
          if (*r >= map_->lo_of(s)) return r;
        }
      }
      return std::nullopt;
    }

    // Smallest key >= k.
    std::optional<Key> ceiling(Key k) const CBAT_REQUIRES(ebr_capability) {
      for (int s = snap_shard_of(k); s < NumShards; ++s) {
        const Key flo = std::max(k, map_->lo_of(s));
        if (auto r = version_ceiling<Aug>(roots_[s], flo)) {
          if (*r <= map_->hi_of(s)) return r;
        }
      }
      return std::nullopt;
    }

    // All keys in [lo, hi] in order; shard contiguity makes per-shard
    // concatenation, each clamped to the shard's owned slice of [lo, hi],
    // sorted.
    std::vector<Key> keys(Key lo = std::numeric_limits<Key>::min(),
                          Key hi = kMaxUserKey, std::size_t limit = 0) const
        CBAT_REQUIRES(ebr_capability) {
      std::vector<Key> out;
      for (int s = 0; s < NumShards; ++s) {
        const Key l = std::max(lo, map_->lo_of(s));
        const Key h = std::min(hi, map_->hi_of(s));
        if (l <= h) version_collect_range<Aug>(roots_[s], l, h, &out, limit);
        if (limit > 0 && out.size() >= limit) break;
      }
      return out;
    }

   private:
    friend ShardedSet;

    // Pins only the shards [lo, hi] covers on the resolved map; the
    // forest's own range_aggregate takes this partial snapshot, whose
    // answer reads no other root.
    Snapshot(const ShardedSet& s, Key lo, Key hi) CBAT_ACQUIRE(ebr_capability)
        : owner_(&s) {
      // guard: as in the public constructor.
      ebr_assert_held();
      take_cut();
      first_ = snap_shard_of(lo);
      last_ = snap_shard_of(hi);
      pin(nullptr, nullptr);
    }

    // Phase one.  Every update whose response preceded this call was
    // stamped <= epoch_, so it resolves inside the cut, and every root
    // stamped after the cut reads a larger epoch, so it resolves past it
    // (EpochClock::cut; the walk's reclamation argument is at
    // version_resolve_epoch).  The map resolves the same way as the
    // roots: newest table installed at or before the cut, whose dirty
    // mask covers every shard holding strays at the cut (see migrate).
    void take_cut() CBAT_REQUIRES(ebr_capability) {
      epoch_ = owner_->epoch_.cut();
      map_ = owner_->resolve_map_epoch(
          owner_->map_.load(std::memory_order_seq_cst), epoch_);
    }

    // Phase two: resolve shards first_..last_.
    void pin(MidAcquireHook hook, void* hook_ctx)
        CBAT_REQUIRES(ebr_capability) {
      for (int i = first_; i <= last_; ++i) {
        if (hook != nullptr) hook(hook_ctx, i);
        roots_[i] = version_resolve_epoch<Aug>(
            owner_->shards_[i]->root_version_unsafe(), epoch_,
            owner_->epoch_);
      }
    }

    // Shard routing on THIS snapshot's map (the live map may change while
    // the snapshot is open).
    int snap_shard_of(Key k) const CBAT_REQUIRES(ebr_capability) {
      return owner_->route(map_, k);
    }

    const V* root_of(Key k) const CBAT_REQUIRES(ebr_capability) {
      return roots_[snap_shard_of(k)];
    }

    // Aggregate over [lo, hi], with lo in shard slo and hi in shard shi:
    // boundary shards answer partially, every fully-covered middle shard
    // contributes in key order — a clean one its root's supplementary
    // field in O(1), a dirty one a descent over its owned range.  The
    // descents are the only O(log n) part, so they are what the range
    // cache memoizes (shard_range_agg).  A clean boundary piece leaves its
    // outer bound open: it has no strays to exclude, and an open low
    // bound descends one path fewer.
    AugValue aggregate(Key lo, Key hi, int slo, int shi) const
        CBAT_REQUIRES(ebr_capability) {
      if (slo == shi) return shard_range_agg(slo, lo, hi);
      AugValue acc = shard_range_agg(
          slo, lo, map_->is_dirty(slo) ? map_->hi_of(slo) : kMaxUserKey);
      for (int s = slo + 1; s < shi; ++s) {
        acc = Aug::combine(
            acc, map_->is_dirty(s)
                     ? shard_range_agg(s, map_->lo_of(s), map_->hi_of(s))
                     : roots_[s]->aug);
      }
      return Aug::combine(
          acc, shard_range_agg(shi,
                               map_->is_dirty(shi)
                                   ? map_->lo_of(shi)
                                   : std::numeric_limits<Key>::min(),
                               hi));
    }

    // Lazy prefix-sum materialization, once per snapshot, guarded by a
    // plain flag: one Snapshot is used by one thread (a thread that wants
    // its own view takes its own Snapshot), so no cross-thread
    // once-initialization is needed.
    const std::array<std::int64_t, NumShards + 1>& prefix() const
        CBAT_REQUIRES(ebr_capability) {
      if (prefix_ready_) return prefix_;
      // Straight fill from the pinned roots, one aug load per clean shard
      // — deliberately NOT memoized by stamp.  A root's epoch stamp lives
      // on the same version-node cache line as its aug field, so
      // validating a memoized size by stamp touches the same NumShards
      // lines as refilling it and then pays the compare on top.  A dirty
      // shard counts only its owned range: a migration's copies (pre-flip)
      // and leftovers (post-flip) live outside it, and version_size would
      // double-count exactly them.
      prefix_[0] = 0;
      for (int i = 0; i < NumShards; ++i) {
        prefix_[i + 1] =
            prefix_[i] +
            (map_->is_dirty(i)
                 ? version_range_count<Aug>(roots_[i], map_->lo_of(i),
                                            map_->hi_of(i))
                 : version_size<Aug>(roots_[i]));
      }
      prefix_ready_ = true;
      return prefix_;
    }

    // Partial range aggregate of shard s over [lo, hi], cached per shard
    // for the hot ranges.  The (lo, hi) pair is part of the entry, so
    // boundary pieces of different ranges that hash together only cost
    // each other misses, never wrong answers.
    AugValue shard_range_agg(int s, Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability) {
      const std::uint64_t stamp = version_epoch<Aug>(roots_[s], owner_->epoch_);
      std::int64_t v;
      if (owner_->cache_.load_range(s, lo, hi, stamp, &v)) {
        Counters::bump(Counter::kAggCacheHits);
        return v;
      }
      Counters::bump(Counter::kAggCacheMisses);
      const AugValue fresh = version_range_aggregate<Aug>(roots_[s], lo, hi);
      owner_->cache_.store_range(s, lo, hi, stamp, fresh);
      return fresh;
    }

    EbrGuard guard_;
    const ShardedSet* owner_;
    std::uint64_t epoch_ = 0;
    // The boundary table this snapshot routes and restricts by.  Pinned
    // by guard_ like the roots.
    const ShardMap* map_ = nullptr;
    // The pinned shards: all of them, or a partial range_aggregate's.
    int first_ = 0;
    int last_ = NumShards - 1;
    std::array<const V*, NumShards> roots_;
    mutable bool prefix_ready_ = false;
    mutable std::array<std::int64_t, NumShards + 1> prefix_;
  };

  // Shard index owning key k on the current map; monotone non-decreasing
  // in k, which is what lets rank/select compose by prefix sums.  A
  // migration may move k's owner right after the call returns.
  int shard_of(Key k) const {
    EbrGuard g;
    return route(map_.load(std::memory_order_acquire), k);
  }

  Inner& shard_at(int i) { return *shards_[i]; }
  const Inner& shard_at(int i) const { return *shards_[i]; }

  // Pool warm-up passthrough.  The object pools are type-keyed and
  // per-thread (process-wide, not per-tree), so stocking them through one
  // shard covers every shard of the forest.
  void warm_up(std::size_t expected_updates)
    requires requires(Inner t, std::size_t n) { t.warm_up(n); }
  {
    shards_[0]->warm_up(expected_updates);
  }

  // --- hot-shard rebalancing API --------------------------------------------

  // Switches this forest's piggybacked controller (off by default); the
  // protocol machinery stays armed either way (rebalance_once works).
  void set_adaptive_enabled(bool on) {
    // relaxed: policy switch; no data is published with it.
    mig_.enabled.store(on, std::memory_order_relaxed);
  }

  // Test seam, mirroring Snapshot::MidAcquireHook: called at every
  // protocol boundary of a migration (the kMigHook* stages) so
  // deterministic interleaving tests can run queries and updates against
  // each phase.  Always invoked outside any EBR guard.
  void set_migration_hook(MigrationHook h, void* ctx) {
    // relaxed: ctx is published by the hook release store below.
    mig_.hook_ctx.store(ctx, std::memory_order_relaxed);
    mig_.hook.store(h, std::memory_order_release);
  }

  // Force one boundary move from shard `src` to an ADJACENT `dst` now
  // (tests and benchmarks; the policy path takes the same route).  False
  // when another migration is in flight, the pair is not adjacent, or src
  // owns too few keys to split.
  bool rebalance_once(int src, int dst) {
    if (src < 0 || src >= NumShards || dst < 0 || dst >= NumShards ||
        (dst != src - 1 && dst != src + 1)) {
      return false;
    }
    if (!mig_.gate.try_acquire()) return false;
    const bool moved = migrate(src, dst);
    mig_.gate.release();
    return moved;
  }

  // Current map generation (1 + completed boundary moves); tests use it
  // to await convergence without poking at counters.
  std::uint64_t map_generation() const {
    EbrGuard g;
    return map_.load(std::memory_order_acquire)->gen;
  }

 private:
  // Even-division guess on the first map's width: exact until a boundary
  // moves, and never more than the moved boundaries away after.
  int guess(Key k) const {
    if (k <= 0) return 0;
    const Key s = k / width_;
    return s >= NumShards ? NumShards - 1 : static_cast<int>(s);
  }
  int route(const ShardMap* m, Key k) const { return m->owner(k, guess(k)); }

  // --- the epoch-cut migration protocol ------------------------------------
  //
  // One migration descriptor per forest (moves are serialized by the
  // migration gate).  The seal flag is the updater-facing contract:
  //
  //   clear  — updates route by the current map.  A pre-copy may be
  //            running: updates in its range still apply to src (the map
  //            has not flipped), and the post-seal diff carries them to
  //            dst.
  //   sealed — updates in [lo, hi] park OUTSIDE their guard until the
  //            flag clears; one grace period after sealing, the range is
  //            quiescent and the diff makes dst exact.
  //
  // The flag's stores are seq_cst, and the seal store is followed by
  // mig_quiesce(): "all updates that saw the flag clear have finished".
  // The barrier is a dedicated per-thread in-flight array, not an EBR
  // grace period: it waits only for updates to this forest, where a
  // grace period would also wait out every other guard in the process
  // (long snapshot reads of unrelated structures included).  An updater
  // announces its slot (seq_cst) BEFORE reading the flag, so an updater
  // observed idle either finished its operation or started a new one
  // that already sees the seal.
  // Single-migrator election gate, modeled as a TSA capability: the
  // protocol bodies (migrate, diff_range) are CBAT_REQUIRES(mig_.gate),
  // so reaching them without winning the election is a compile error
  // under -DCBAT_THREAD_SAFETY=ON.  Losers skip, not wait — try_acquire
  // is the whole election.
  class CBAT_CAPABILITY("migration gate") MigrationGate {
   public:
    // acq_rel: a winner must see the previous migration's protocol
    // writes (acquire) and publish its own claim (release) in one RMW.
    bool try_acquire() CBAT_TRY_ACQUIRE(true) {
      return !active_.exchange(true, std::memory_order_acq_rel);
    }
    void release() CBAT_RELEASE() {
      active_.store(false, std::memory_order_release);
    }

   private:
    // shared: single word flipped twice per migration; contention is nil.
    std::atomic<bool> active_{false};
  };

  struct Migration {
    // Don't split shards with fewer owned keys than this.
    static constexpr std::int64_t kMinSplitKeys = 16;
    // Controller policy: a shard migrates when its update rate exceeds
    // kHotFactor times the mean, checked every kCheckPeriod-th update a
    // thread makes to this forest.
    static constexpr double kHotFactor = 2.0;
    static constexpr std::uint64_t kCheckPeriod = 512;

    // shared: seal flag; seq_cst-stored by the single migrator, rare.
    std::atomic<bool> sealed{false};
    // shared: sealed bounds; written once per migration, before the seal.
    std::atomic<Key> lo{0};
    std::atomic<Key> hi{0};
    // Per-thread in-flight update announcements: (ops << 1) | active,
    // where ops counts the thread's announcements to this forest.  The
    // count makes every announcement distinct, so the migrator's quiesce
    // wait is a simple "changed or idle" check with no ABA, and it paces
    // the controller's sampling and policy checks per forest.
    std::array<Padded<std::atomic<std::uint64_t>>, kMaxThreads> inflight{};
    // Single-migrator gate; also what serializes map installs.
    MigrationGate gate;
    // Per-shard update-rate estimators (sampled 1-in-8 by note_update).
    std::array<Padded<std::atomic<std::uint64_t>>, NumShards> rate{};
    // shared: policy switch (set_adaptive_enabled); read-mostly.
    std::atomic<bool> enabled{false};
    // shared: test seam (set_migration_hook); idle in production.
    std::atomic<MigrationHook> hook{nullptr};
    std::atomic<void*> hook_ctx{nullptr};
  };

  // Announce / retire one in-flight update in this thread's idle slot,
  // counting it.  The announce is seq_cst and MUST precede the seal read
  // (that ordering is the whole barrier: an updater that read the flag
  // clear is visibly active to a migrator that scans after its seal
  // store).
  static void announce_inflight(std::atomic<std::uint64_t>& slot) {
    // relaxed: reads back this thread's own slot; coherence suffices.
    const std::uint64_t ops = (slot.load(std::memory_order_relaxed) >> 1) + 1;
    slot.store((ops << 1) | 1, std::memory_order_seq_cst);
  }
  static void retire_inflight(std::atomic<std::uint64_t>& slot) {
    // Release: the tree op's response is published before the slot
    // reads idle.
    // relaxed: reads back this thread's own slot; coherence suffices.
    slot.store(slot.load(std::memory_order_relaxed) & ~1ULL,
               std::memory_order_release);
  }

  // Waits until every update announced before the call has finished.
  // Caller must have its own slot idle (the piggybacked migrator calls
  // this from note_update, after its update retired).  A slot that
  // changes at all has moved on: either to idle, or to a NEW operation —
  // which read the seal flag after our caller's store to it.
  void mig_quiesce() {
    const int n = ThreadRegistry::instance().max_id();
    for (int t = 0; t < n && t < kMaxThreads; ++t) {
      auto& s = mig_.inflight[t].value;
      const std::uint64_t v = s.load(std::memory_order_seq_cst);
      if ((v & 1) == 0) continue;
      while (s.load(std::memory_order_acquire) == v) {
        std::this_thread::yield();
      }
    }
  }

  // Apply one update through the migration protocol.  The in-flight slot
  // stays announced across the whole routed operation so the migrator's
  // quiesce orders against us; a sealed-range updater parks with its slot
  // retired (spinning announced would deadlock the migrator's own
  // quiesce).
  bool update(Key k, bool is_insert) {
    auto& slot = mig_.inflight[ThreadRegistry::thread_id()].value;
    bool r;
    int routed;
    for (;;) {
      announce_inflight(slot);
      // Acquire on the bounds: a seal read set synchronizes with the
      // bounds stored before it, and a bound from the next move (newer
      // than the seal read) synchronizes with its release store, which
      // follows this move's flip — so the route below never uses a
      // pre-flip map.
      if (!mig_.sealed.load(std::memory_order_seq_cst) ||
          k < mig_.lo.load(std::memory_order_acquire) ||
          k > mig_.hi.load(std::memory_order_acquire)) {
        r = route_update(k, is_insert, &routed);
        retire_inflight(slot);
        break;
      }
      // Sealed and in range: wait for the seal to clear, then re-run the
      // protocol (the retry routes by the NEW map — the map store
      // precedes the clearing store, both seq_cst).
      retire_inflight(slot);
      while (mig_.sealed.load(std::memory_order_seq_cst)) {
        std::this_thread::yield();
      }
    }
    note_update(routed, slot);
    return r;
  }

  // One guard keeps the map live for the lookup and spans the shard
  // update, whose own guard then only nests (one epoch announcement per
  // update instead of two).  The in-flight slot, not the guard, orders
  // the update against the migrator.
  bool route_update(Key k, bool is_insert, int* routed) {
    EbrGuard g;
    const int s = route(map_.load(std::memory_order_acquire), k);
    *routed = s;
    Inner& t = *shards_[s];
    return is_insert ? t.insert(k) : t.erase(k);
  }

  // Rate tracking + piggybacked policy check; called after every update,
  // with the caller's in-flight slot retired, outside any guard, and a
  // no-op while the controller is off.  The slot's announcement count
  // paces sampling and checks, so both are per forest, not per thread.
  // Sampling 1-in-8 keeps the hot shard's rate counter off the update
  // fast path's critical line budget.
  void note_update(int shard, const std::atomic<std::uint64_t>& slot) {
    // relaxed: policy switch; a stale read defers or adds one sample.
    if (!mig_.enabled.load(std::memory_order_relaxed)) return;
    // relaxed: reads back this thread's own slot; coherence suffices.
    const std::uint64_t ops = slot.load(std::memory_order_relaxed) >> 1;
    if ((ops & 7u) == 0) {
      // `shard` is the index the op actually routed to — no second map
      // lookup (and no guard) needed here.
      // relaxed: statistical estimator; lost or reordered bumps are noise.
      mig_.rate[shard]->fetch_add(8, std::memory_order_relaxed);
    }
    if (ops % Migration::kCheckPeriod == 0) maybe_rebalance();
  }

  // The RebalanceController's local rule: if the hottest shard's rate
  // exceeds kHotFactor x mean and an adjacent neighbor runs at half the
  // hot rate or less, shed half of the hot shard's keys to that neighbor.
  // Piggybacked on updater threads — no coordinator thread; the election
  // gate makes losers skip, not wait.
  void maybe_rebalance() {
    if (!mig_.gate.try_acquire()) return;
    std::array<std::uint64_t, NumShards> r;
    std::uint64_t total = 0;
    int hot = 0;
    // relaxed: estimator reads; the policy tolerates any approximate view.
    for (int i = 0; i < NumShards; ++i) {
      r[i] = mig_.rate[i]->load(std::memory_order_relaxed);
      total += r[i];
      if (r[i] > r[hot]) hot = i;
    }
    // Need enough samples for the mean to be meaningful.
    if (total >= static_cast<std::uint64_t>(NumShards) * 64) {
      const std::uint64_t mean =
          std::max<std::uint64_t>(total / NumShards, 1);
      Counters::bump(Counter::kShardImbalanceSumMilli,
                     r[hot] * 1000 / mean);
      Counters::bump(Counter::kShardImbalanceSamples);
      const double hot_rate = static_cast<double>(r[hot]);
      if (NumShards > 1 &&
          hot_rate > Migration::kHotFactor * static_cast<double>(mean)) {
        // Cooler adjacent neighbor, the cooler of the two if both
        // qualify; require it to run at <= half the hot rate so the move
        // cannot ping-pong.
        int dst = -1;
        if (hot > 0 && r[hot - 1] * 2 <= r[hot]) dst = hot - 1;
        if (hot < NumShards - 1 && r[hot + 1] * 2 <= r[hot] &&
            (dst < 0 || r[hot + 1] < r[dst])) {
          dst = hot + 1;
        }
        if (dst >= 0 && migrate(hot, dst)) {
          // relaxed: estimator reset; racing bumps may survive or vanish.
          for (auto& c : mig_.rate) c->store(0, std::memory_order_relaxed);
        }
      }
      // Decay so the estimator tracks the CURRENT distribution: without
      // it a workload shift would be invisible behind accumulated history.
      if (total > (1u << 16)) {
        // relaxed: estimator decay; racing bumps may be halved or not.
        for (auto& c : mig_.rate) {
          c->store(c->load(std::memory_order_relaxed) / 2,
                   std::memory_order_relaxed);
        }
      }
    }
    mig_.gate.release();
  }

  // Resolve shard s's root to the newest version stamped at or before
  // epoch e.  Caller holds a guard.
  const V* resolve_root(int s, std::uint64_t e) const
      CBAT_REQUIRES(ebr_capability) {
    return version_resolve_epoch<Aug>(shards_[s]->root_version_unsafe(), e,
                                      epoch_);
  }

  // Walk the map chain to the newest table whose installation was stamped
  // at or before epoch e.  The same deferred-timestamp argument as the
  // root history walk (version_resolve_epoch) makes the prev dereference
  // safe under the caller's guard: the migrator finalizes flip_epoch
  // BEFORE retiring the replaced table, so a stamp observed > e was minted
  // after this snapshot's cut read the clock — which means the retire of
  // the table we are stepping to happened after our guard was announced,
  // and EBR keeps it live for us.  A table we accept is never walked past.
  const ShardMap* resolve_map_epoch(const ShardMap* m, std::uint64_t e) const
      CBAT_REQUIRES(ebr_capability) {
    while (epoch_.finalize(m->flip_epoch) > e && m->prev != nullptr) {
      m = m->prev;
    }
    return m;
  }

  // Replaces the current map `m` with a table of bounds `upper`,
  // generation `gen` and dirty mask `dirty`: store it, finalize its
  // stamp, THEN retire `m` — the order resolve_map_epoch's safety
  // argument rests on.  Only the gate holder installs maps, so `m` cannot
  // be retired under the caller.  Returns the new map.
  const ShardMap* install_map(const ShardMap* m,
                              const std::array<Key, NumShards>& upper,
                              std::uint64_t gen, std::uint64_t dirty)
      CBAT_REQUIRES(mig_.gate) {
    auto* nm = new ShardMap;
    nm->dirty = dirty;
    nm->gen = gen;
    nm->prev = m;
    nm->upper = upper;
    map_.store(nm, std::memory_order_seq_cst);
    epoch_.finalize(nm->flip_epoch);
    ebr_retire(const_cast<ShardMap*>(m));
    return nm;
  }

  void run_hook(int stage) {
    const MigrationHook h = mig_.hook.load(std::memory_order_acquire);
    if (h != nullptr) h(mig_.hook_ctx.load(std::memory_order_acquire), stage);
  }

  // Applies one-sided per-key updates to shard s, concurrently with
  // ordinary updates to the same shard.  Each is a plain BAT update, so
  // each has returned — its covering root stamped — before the next
  // starts.
  void apply_bulk(int s, const std::vector<Key>& keys, bool is_insert) {
    Inner& t = *shards_[s];
    for (const Key k : keys) {
      if (is_insert) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  }

  // One boundary move, start to finish.  Caller holds the migration gate
  // (statically enforced) and no EBR guard.  Numbered comments match
  // docs/ARCHITECTURE.md.  Every refusal (false) comes before
  // kMigHookCopyBegin; a move that opens its window always completes.
  bool migrate(int src, int dst) CBAT_REQUIRES(mig_.gate) {
    // Only the migrator swaps the map and we ARE the migrator (we hold
    // the gate), so the current map cannot be retired under us.
    const ShardMap* m = map_.load(std::memory_order_acquire);
    const Key slo = m->lo_of(src);
    const Key shi = m->hi_of(src);
    if (slo > shi) return false;  // empty owned range, nothing to split

    // (1) Median-key split: shed the half of src's OWNED KEYS adjacent
    // to dst.  Splitting by keys rather than by keyspace midpoint is
    // what makes convergence geometric under any skew — each move halves
    // the hot shard's population no matter how the keys are distributed.
    Key cut_lo, cut_hi, new_upper;
    {
      EbrGuard g;
      const V* r = shards_[src]->root_version_unsafe();
      const std::int64_t cnt = version_range_count<Aug>(r, slo, shi);
      if (cnt < Migration::kMinSplitKeys) return false;
      const std::int64_t half = cnt / 2;
      std::optional<Key> med;
      if (dst == src + 1) {
        med = version_select_in_range<Aug>(r, slo, shi, cnt - half);
        if (!med || *med >= shi) return false;
        cut_lo = *med + 1;
        cut_hi = shi;
      } else {
        med = version_select_in_range<Aug>(r, slo, shi, half);
        if (!med || *med >= shi) return false;
        cut_lo = slo;
        cut_hi = *med;
      }
      new_upper = *med;
    }
    run_hook(kMigHookCopyBegin);

    // (2) Open the window, then pre-copy on a linearizable cut: collect
    // src's range at E0 and insert it into dst key by key, while updates
    // to the range keep applying to src (the diff in step 4 carries
    // them over).  The window map (old bounds, src and dst dirty) is
    // stamped before the first copy, so every root holding a copy is
    // stamped after it: a cut that pins an older map sees no copy.  dst's
    // copies stay invisible until the flip (the old bounds exclude the
    // range from dst's owned slice).
    const std::uint64_t window = (std::uint64_t{1} << src) |
                                 (std::uint64_t{1} << dst);
    m = install_map(m, m->upper, m->gen, window);
    std::vector<Key> moved;
    {
      EbrGuard g;
      const std::uint64_t e0 = epoch_.cut();
      version_collect_range<Aug>(resolve_root(src, e0), cut_lo, cut_hi,
                                 &moved, 0);
    }
    apply_bulk(dst, moved, /*is_insert=*/true);
    run_hook(kMigHookCopied);
    CBAT_FAULT_POINT("mig.copied");

    // (3) Seal the range.  After the grace period every update that read
    // the flag clear has finished, so src's range is frozen; new in-range
    // updates park until the flag clears.  The bounds' release stores
    // pair with the updaters' acquire loads (see update()).
    mig_.lo.store(cut_lo, std::memory_order_release);
    mig_.hi.store(cut_hi, std::memory_order_release);
    mig_.sealed.store(true, std::memory_order_seq_cst);
    mig_quiesce();
    run_hook(kMigHookSealed);
    CBAT_FAULT_POINT("mig.sealed");

    // (4) Diff the sealed source range against the copy, making dst's
    // copy of the range exact.
    diff_range(src, dst, cut_lo, cut_hi);
    run_hook(kMigHookReplayed);
    CBAT_FAULT_POINT("mig.flip");

    // (5) Flip: publish the new bounds, still with the window's mask.  The
    // aggregate cache keeps its entries: each is keyed by a root stamp and
    // explicit bounds, which answer one way whatever the map says.
    {
      std::array<Key, NumShards> upper = m->upper;
      upper[dst == src + 1 ? src : dst] = new_upper;
      m = install_map(m, upper, m->gen + 1, window);
    }
    run_hook(kMigHookFlipped);
    CBAT_FAULT_POINT("mig.flipped");

    // (6) Open the range: clear the seal.  Parked updates resume and route
    // by the new map (they read the flag seq_cst, which orders the map
    // store before their map load).
    mig_.sealed.store(false, std::memory_order_seq_cst);
    run_hook(kMigHookOpened);
    CBAT_FAULT_POINT("mig.opened");

    // (7) Erase the moved keys' source copies, then close the window.  No
    // updater can apply a range key to src after the flip (the seal
    // blocked it, and the cleared flag routes it by the new map, to dst),
    // so one collection is complete; the erases are invisible to every
    // cut because the window keeps src dirty and post-flip maps exclude
    // the range from src.  The clean map is installed only after every
    // erase has returned, so each erase's stamp precedes its stamp and
    // every cut that pins it also sees the erases.
    std::vector<Key> stale;
    {
      EbrGuard g;
      version_collect_range<Aug>(shards_[src]->root_version_unsafe(), cut_lo,
                                 cut_hi, &stale, 0);
    }
    apply_bulk(src, stale, /*is_insert=*/false);
    install_map(m, m->upper, m->gen, 0);
    run_hook(kMigHookCleaned);
    CBAT_FAULT_POINT("mig.cleaned");

    Counters::bump(Counter::kShardMigrations);
    Counters::bump(Counter::kShardMigratedKeys, moved.size());
    return true;
  }

  // The sealed-range diff: on a fresh cut E1, taken after the seal's
  // quiesce and so at or after every update to the range, collect src's
  // [lo, hi] and dst's, then patch dst by set difference — insert the
  // keys only src holds, erase the keys only dst holds.  Pre-flip maps
  // never route the range to dst, so dst's side is the pre-copy.
  void diff_range(int src, int dst, Key lo, Key hi)
      CBAT_REQUIRES(mig_.gate) {
    std::vector<Key> truth, copied, ins, del;
    {
      EbrGuard g;
      const std::uint64_t e1 = epoch_.cut();
      version_collect_range<Aug>(resolve_root(src, e1), lo, hi, &truth, 0);
      version_collect_range<Aug>(shards_[dst]->root_version_unsafe(), lo, hi,
                                 &copied, 0);
    }
    std::set_difference(truth.begin(), truth.end(), copied.begin(),
                        copied.end(), std::back_inserter(ins));
    std::set_difference(copied.begin(), copied.end(), truth.begin(),
                        truth.end(), std::back_inserter(del));
    apply_bulk(dst, ins, /*is_insert=*/true);
    apply_bulk(dst, del, /*is_insert=*/false);
  }

  // Fresh generation-1 map splitting the keyspace evenly; the plain
  // delete is covered by this function's single-threaded contract
  // (constructor, or key_range_hint on an empty idle set).  The stamp is
  // 1 (not kEpochTbd), the clock's first epoch, so later installations
  // stamp monotonically above it; every cut accepts the initial table
  // because it has no predecessor to resolve to.
  void repartition(Key keyspace) {
    keyspace_ = std::max<Key>(keyspace, NumShards);
    // Overflow-free ceiling: keyspace_ may be as large as kInf2, where
    // `(keyspace_ + NumShards - 1)` would wrap.
    width_ = keyspace_ / NumShards + (keyspace_ % NumShards != 0 ? 1 : 0);
    ShardMap* nm = new ShardMap;
    for (int i = 0; i + 1 < NumShards; ++i) {
      nm->upper[i] = width_ * (i + 1) - 1;
    }
    nm->upper[NumShards - 1] = kMaxUserKey;
    // relaxed: single-threaded contract (see above); the release store
    // below publishes the table to the first concurrent reader.
    nm->flip_epoch.store(1, std::memory_order_relaxed);
    const ShardMap* old = map_.load(std::memory_order_relaxed);
    map_.store(nm, std::memory_order_release);
    delete old;
  }

  Key keyspace_ = 0;
  Key width_ = 1;
  // Snapshot clock; its epochs start at 1 so every assigned stamp is
  // distinguishable from kEpochTbd (0), and every stamp is unique (the
  // aggregate cache keys on stamps).  Cache-line aligned by its type:
  // every root stamp and every cut touches it.  Mutable: map resolution
  // help-stamps through it from const composite queries; it is
  // bookkeeping for the cut, not observable set state.
  mutable EpochClock epoch_;
  // The epoch-stamped range-aggregate cache.  Mutable for the same reason
  // as epoch_: it is memoization filled by const composite queries.
  mutable AggregateCache<NumShards> cache_;
  // shared: the current boundary table.  Swapped only by the migrator
  // holding mig_.gate; loaded under an EBR guard by everyone else
  // (replaced tables are EBR-retired).  Mutable for the same reason as
  // epoch_: const composite queries help-stamp flip_epoch through it.
  // Read-mostly; an installation rewrites the line anyway.
  mutable std::atomic<const ShardMap*> map_{nullptr};
  // Migration descriptor + controller state (~20 KiB, dominated by the
  // in-flight slots).
  Migration mig_;
  // Padded: shards are updated by different threads; their tree roots must
  // not share cache lines.
  std::array<Padded<Inner>, NumShards> shards_;
};

// The shard counts the registry exposes ("Sharded4-BAT", ...); definitions
// live in sharded_set.cpp so the template is compiled once.
extern template class ShardedSet<Bat<SizeAug>, 1>;
extern template class ShardedSet<Bat<SizeAug>, 4>;
extern template class ShardedSet<Bat<SizeAug>, 16>;
extern template class ShardedSet<Bat<SizeAug>, 64>;

}  // namespace cbat
