// AggregateCache — epoch-stamped per-shard aggregate memoization
// (ROADMAP: read-side scaling; Sela & Petrank's concurrent aggregate
// queries are the grounding for both halves of the read layer).
//
// A ShardedSet snapshot answers composite queries by combining per-shard
// aggregates: shard sizes for the rank/select prefix sums, partial
// range_aggregate answers for the boundary shards of a range.  Those
// per-shard answers are pure functions of the shard's pinned root version,
// and PR 5's epoch stamps give every root an identity the caches can key
// on: an aggregate computed from a root stamped `e` is valid exactly while
// the pinned root's stamp is still `e`.  The cache therefore stores
// (stamp, value) pairs and validates by stamp comparison — invalidation is
// free, performed by the very counter the roots already carry.
//
// Soundness requires stamps to be *unique* per root: with the default
// shared stamping two roots installed between clock advances share a
// stamp, and the cache could serve one root's aggregate for the other
// (under a quiescent forest the clock never advances at all, so every
// root would share stamp 1).  Forests that enable the cache construct
// their EpochClock in unique-stamp mode, which mints a fresh epoch per
// stamp (src/core/epoch_clock.h) — ShardedSet does this for
// ReadPath::kCombined.
//
// Entry protocol: a seqlock per entry (util/seqlock.h; even seq = stable,
// odd = writer in place), all payload words individually atomic so the
// fast path is data-race-free under TSan.  The seqlock's write side is a
// thread-safety capability: filling an entry without first claiming the
// writer token (Seqlock::try_write) is a compile error under
// -DCBAT_THREAD_SAFETY=ON.  Readers accept a value only if the sequence
// word is even and unchanged across the payload reads AND the stored stamp
// equals the stamp of the root the *caller* has pinned — a concurrent
// root CAS re-stamps the shard, the stamps mismatch, and the stale entry
// is simply recomputed (see the stale-cache interleaving test in
// tests/linearizability_test.cpp).  Writers claim the entry with one CAS
// and never block; a lost claim skips the fill (best effort — the caller
// already holds the freshly computed value).
//
// Layout: the size entries are deliberately PACKED — all NumShards of
// them in one padded block — because the hot consumer (the snapshot's
// prefix-sum materialization) reads every one of them back to back, and a
// cache-line-per-entry layout would touch NumShards lines where the
// packed row touches NumShards/2.  Size entries are refilled only when a
// shard's root moved, so write-side false sharing inside the row is rare
// by construction in the read-heavy regime the cache targets.  The range
// rows keep a line per shard: their refills are per-query on cold
// ranges, frequent enough to keep off each other's lines.
//
// The cache itself counts nothing: lookups are hot-path (16 per prefix
// materialization), so hit/miss accounting is the caller's job, batched —
// ShardedSet::Snapshot tallies locally and flushes kAggCacheHits/
// kAggCacheMisses once, at destruction.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/version.h"
#include "util/fault.h"
#include "util/keys.h"
#include "util/padded.h"
#include "util/seqlock.h"
#include "util/thread_annotations.h"

namespace cbat {

// Process-wide switch for the stamp-validated aggregate caches, mirroring
// set_combine_max_batch / set_lease_reads: the read_burst benchmark turns
// it off to measure the leased-but-uncached series.  Off, every lookup
// misses (and is not counted), so the cached structures degrade to plain
// snapshot reads with identical semantics.
inline std::atomic<bool>& aggregate_cache_slot() {
  // shared: process-wide knob, read-mostly; padding a function-local
  // static buys nothing.
  static std::atomic<bool> v{true};
  return v;
}
inline bool aggregate_cache_enabled() {
  // relaxed: tuning knob; any recently-written value is acceptable and no
  // other data is published through it.
  return aggregate_cache_slot().load(std::memory_order_relaxed);
}
inline void set_aggregate_cache(bool on) {
  // relaxed: tuning knob; see aggregate_cache_enabled().
  aggregate_cache_slot().store(on, std::memory_order_relaxed);
}

template <int NumShards>
class AggregateCache {
  static_assert(NumShards >= 1);

 public:
  // Range entries per shard; direct-mapped by a hash of (lo, hi).  Small
  // on purpose: the target is the handful of hot ranges a leaderboard
  // serves repeatedly, not a general result cache.
  static constexpr int kRangeWays = 4;

  // --- per-shard size (the rank/select prefix-sum inputs) -----------------

  bool load_size(int s, std::uint64_t stamp, std::int64_t* out) const {
    const SizeEntry& e = sizes_->e[s];
    const std::uint64_t s1 = e.seq.read_begin();
    if (!Seqlock::is_stable(s1)) return false;
    // relaxed: racy-read-then-validate; read_validate's acquire fence
    // orders these payload loads before the sequence re-check.
    const std::uint64_t st = e.stamp.load(std::memory_order_relaxed);
    const std::int64_t v = e.value.load(std::memory_order_relaxed);
    if (!e.seq.read_validate(s1)) return false;
    if (st != stamp || st == kEpochTbd) return false;
    *out = v;
    return true;
  }
  void store_size(int s, std::uint64_t stamp, std::int64_t v) const {
    SizeEntry& e = sizes_->e[s];
    // Another writer filling means ours is best effort: skip.
    if (!e.seq.try_write()) return;
    // Stretches the odd (write-in-progress) seqlock window: concurrent
    // readers must keep rejecting the entry for the whole fill.
    CBAT_FAULT_POINT("cache.fill_size");
    fill_size(e, stamp, v);
    e.seq.end_write();
  }

  // --- per-shard range_aggregate results ----------------------------------

  bool load_range(int s, Key lo, Key hi, std::uint64_t stamp,
                  std::int64_t* out) const {
    const RangeEntry& e = ranges_[s]->e[range_way(lo, hi)];
    const std::uint64_t s1 = e.seq.read_begin();
    if (!Seqlock::is_stable(s1)) return false;
    // relaxed: racy-read-then-validate; see load_size.
    const std::uint64_t st = e.stamp.load(std::memory_order_relaxed);
    const Key elo = e.lo.load(std::memory_order_relaxed);
    const Key ehi = e.hi.load(std::memory_order_relaxed);
    const std::int64_t v = e.value.load(std::memory_order_relaxed);
    if (!e.seq.read_validate(s1)) return false;
    if (st != stamp || st == kEpochTbd || elo != lo || ehi != hi) {
      return false;
    }
    *out = v;
    return true;
  }
  void store_range(int s, Key lo, Key hi, std::uint64_t stamp,
                   std::int64_t v) const {
    RangeEntry& e = ranges_[s]->e[range_way(lo, hi)];
    if (!e.seq.try_write()) return;  // best effort: a writer is in place
    // See store_size: stretch the odd seqlock window.
    CBAT_FAULT_POINT("cache.fill_range");
    fill_range(e, stamp, lo, hi, v);
    e.seq.end_write();
  }

  // --- map-flip invalidation ----------------------------------------------

  // Drops every entry (stamp -> kEpochTbd, which load_* always reject).
  // Called by the adaptive shard layer when it installs a new shard map.
  // Not needed for correctness — adaptive lookups key range entries by
  // the exact (lo, hi) they aggregate, and a given (root version, range)
  // pair always has one answer, so survivors from the old map either
  // mismatch the new owned bounds or are still right — but after a flip
  // most surviving ranges never recur, so the sweep reclaims the ways
  // for the new map's working set.  Best effort per entry (an entry
  // mid-fill keeps its writer's value).
  void invalidate_all() const {
    for (int s = 0; s < NumShards; ++s) {
      kill_entry(sizes_->e[s].seq, sizes_->e[s].stamp);
      for (int w = 0; w < kRangeWays; ++w) {
        kill_entry(ranges_[s]->e[w].seq, ranges_[s]->e[w].stamp);
      }
    }
  }

 private:
  // Seqlock field order mirrors the read/write protocol above: the
  // acquire fence in a reader pairs with the writer's release fence, so a
  // reader that observed any payload word of an in-progress or newer
  // write is guaranteed to observe the bumped sequence word and reject.
  struct SizeEntry {
    Seqlock seq;  // even = stable, odd = writing
    // shared: seqlock payload — racy-read-then-validate by design; the
    // packed-row layout (see header comment) is the padding tradeoff.
    std::atomic<std::uint64_t> stamp{kEpochTbd};
    std::atomic<std::int64_t> value{0};
  };
  struct RangeEntry {
    Seqlock seq;
    // shared: seqlock payload; see SizeEntry.
    std::atomic<std::uint64_t> stamp{kEpochTbd};
    std::atomic<Key> lo{0};
    std::atomic<Key> hi{0};
    std::atomic<std::int64_t> value{0};
  };
  struct SizeRow {
    SizeEntry e[NumShards];
  };
  struct RangeRow {
    RangeEntry e[kRangeWays];
  };

  static void kill_entry(Seqlock& seq, std::atomic<std::uint64_t>& stamp) {
    if (!seq.try_write()) return;  // mid-fill entry keeps its writer's value
    // relaxed: bracketed by try_write's release fence and end_write's
    // release store, which order it for validating readers.
    stamp.store(kEpochTbd, std::memory_order_relaxed);
    seq.end_write();
  }

  // Payload fills, REQUIRES the entry's writer token: the seqlock protocol
  // (claim fence before, release publish after) is what orders these
  // relaxed stores, so they must not run tokenless.
  static void fill_size(SizeEntry& e, std::uint64_t stamp, std::int64_t v)
      CBAT_REQUIRES(e.seq) {
    // relaxed: bracketed by the writer token's fences; see above.
    e.stamp.store(stamp, std::memory_order_relaxed);
    e.value.store(v, std::memory_order_relaxed);
  }
  static void fill_range(RangeEntry& e, std::uint64_t stamp, Key lo, Key hi,
                         std::int64_t v) CBAT_REQUIRES(e.seq) {
    // relaxed: bracketed by the writer token's fences; see above.
    e.stamp.store(stamp, std::memory_order_relaxed);
    e.lo.store(lo, std::memory_order_relaxed);
    e.hi.store(hi, std::memory_order_relaxed);
    e.value.store(v, std::memory_order_relaxed);
  }

  static int range_way(Key lo, Key hi) {
    // Fibonacci-style mix of both bounds; any deterministic spread works,
    // collisions only cost a miss on the colder range.
    const std::uint64_t h =
        (static_cast<std::uint64_t>(lo) * 0x9E3779B97F4A7C15ull) ^
        (static_cast<std::uint64_t>(hi) * 0xC2B2AE3D27D4EB4Full);
    return static_cast<int>((h >> 59) % kRangeWays);
  }

  // mutable-through-const on purpose: the cache is memoization state
  // filled from const composite queries, not observable set state.
  mutable Padded<SizeRow> sizes_;
  mutable Padded<RangeRow> ranges_[NumShards];
};

}  // namespace cbat
