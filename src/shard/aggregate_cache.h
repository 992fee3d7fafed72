// AggregateCache — epoch-stamped per-shard range-aggregate memoization
// (ROADMAP: read-side scaling; the aggregate reuse of Sela & Petrank's
// concurrent aggregate queries).
//
// A ShardedSet snapshot answers range_aggregate by combining per-shard
// pieces: a partial descent in each boundary shard (and, for a middle
// shard a migration's window marks dirty, an owned-range descent).  Each
// piece is a pure function of the shard's pinned root version and the
// bounds, and the epoch stamps give every root an identity the cache can
// key on: a piece computed from a root stamped `e` is valid exactly while
// the pinned root's stamp is still `e`.  The cache therefore stores
// (stamp, bounds, value) entries and validates by comparison —
// invalidation is free, performed by the very counter the roots already
// carry.
//
// Soundness requires stamps to be *unique* per root: if two roots shared a
// stamp, the cache could serve one root's aggregate for the other.  The
// forest's EpochClock mints a fresh epoch per stamp
// (src/core/epoch_clock.h), so every ShardedSet runs its range aggregates
// through the cache.
//
// Entry protocol: a seqlock per entry (util/seqlock.h; even seq = stable,
// odd = writer in place), all payload words individually atomic so the
// fast path is data-race-free under TSan.  The seqlock's write side is a
// thread-safety capability: filling an entry without first claiming the
// writer token (Seqlock::try_write) is a compile error under
// -DCBAT_THREAD_SAFETY=ON.  Readers accept a value only if the sequence
// word is even and unchanged across the payload reads AND the stored stamp
// and bounds equal those of the caller's lookup — a concurrent root CAS
// re-stamps the shard, the stamps mismatch, and the stale entry is simply
// recomputed (see the stale-cache interleaving test in
// tests/linearizability_test.cpp).  Writers claim the entry with one CAS
// and never block; a lost claim skips the fill (best effort — the caller
// already holds the freshly computed value).
//
// Layout: a line per shard, each holding kRangeWays direct-mapped ways.
// Refills are per-query on cold ranges, frequent enough to keep shards off
// each other's lines.
//
// The cache itself counts nothing: hit/miss accounting is the caller's
// job (ShardedSet::Snapshot bumps kAggCacheHits/kAggCacheMisses).
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

template <int NumShards>
class AggregateCache {
  static_assert(NumShards >= 1);

 public:
  // Range entries per shard; direct-mapped by a hash of (lo, hi).  Small
  // on purpose: the target is the handful of hot ranges a leaderboard
  // serves repeatedly, not a general result cache.
  static constexpr int kRangeWays = 4;

  bool load_range(int s, Key lo, Key hi, std::uint64_t stamp,
                  std::int64_t* out) const {
    const RangeEntry& e = ranges_[s]->e[range_way(lo, hi)];
    const std::uint64_t s1 = e.seq.read_begin();
    if (!Seqlock::is_stable(s1)) return false;
    // relaxed: racy-read-then-validate; read_validate's acquire fence
    // orders these payload loads before the sequence re-check.
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
    // Stretches the odd (write-in-progress) seqlock window: concurrent
    // readers must keep rejecting the entry for the whole fill.
    CBAT_FAULT_POINT("cache.fill_range");
    fill_range(e, stamp, lo, hi, v);
    e.seq.end_write();
  }

  // Drops every entry (stamp -> kEpochTbd, which load_range always
  // rejects).  Called by the shard layer when a migration flips its
  // shard map's bounds.  Not needed for correctness — lookups key entries
  // by the exact (lo, hi) they aggregate, and a given (root version,
  // range) pair always has one answer, so survivors from the old map
  // either mismatch the new owned bounds or are still right — but after a
  // flip most surviving ranges never recur, so the sweep reclaims the ways
  // for the new map's working set.  Best effort per entry (an entry mid-fill
  // keeps its writer's value).
  void invalidate_all() const {
    for (int s = 0; s < NumShards; ++s) {
      for (RangeEntry& e : ranges_[s]->e) kill_entry(e);
    }
  }

 private:
  // Seqlock field order mirrors the read/write protocol above: the
  // acquire fence in a reader pairs with the writer's release fence, so a
  // reader that observed any payload word of an in-progress or newer
  // write is guaranteed to observe the bumped sequence word and reject.
  struct RangeEntry {
    Seqlock seq;  // even = stable, odd = writing
    // shared: seqlock payload — racy-read-then-validate by design; the
    // row (not the entry) is padded, see the header comment.
    std::atomic<std::uint64_t> stamp{kEpochTbd};
    std::atomic<Key> lo{0};
    std::atomic<Key> hi{0};
    std::atomic<std::int64_t> value{0};
  };
  struct RangeRow {
    RangeEntry e[kRangeWays];
  };

  static void kill_entry(RangeEntry& e) {
    if (!e.seq.try_write()) return;  // mid-fill entry keeps its writer's value
    // relaxed: bracketed by try_write's release fence and end_write's
    // release store, which order it for validating readers.
    e.stamp.store(kEpochTbd, std::memory_order_relaxed);
    e.seq.end_write();
  }

  // Payload fill, REQUIRES the entry's writer token: the seqlock protocol
  // (claim fence before, release publish after) is what orders these
  // relaxed stores, so they must not run tokenless.
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
  mutable Padded<RangeRow> ranges_[NumShards];
};

}  // namespace cbat
