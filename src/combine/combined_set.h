// CombinedSet — per-structure update combining over a BAT (ROADMAP:
// shard-aware batching).
//
// Every BAT update pays an EBR guard entry, a root-to-leaf descent, and a
// root-refresh CAS even when delegation (paper §5) amortizes the *refresh
// conflicts*.  CombinedSet amortizes all three across concurrent updates:
// one thread (the combiner) claims the buffer lock, drains every published
// insert/erase, sorts the batch by key, and applies it through
// BatTree::apply_batch — one guard, shared descent prefixes, one top-level
// Propagate per batch.  Waiters spin on their publication slot, bounded by
// the inner tree's set_delegation_timeout budget, and fall back to solo
// execution on timeout, so progress never depends on the combiner.
//
// Used two ways (both registered): standalone as "Combined-BAT", and as
// the per-shard inner structure of "Sharded16-Combined-BAT", where each
// shard owns a private buffer and combining captures exactly the updates
// that PR 3's keyspace partitioning already routes to one root.
//
// Composite queries (size/rank/select/range_count/range_aggregate)
// publish into the SAME buffer alongside updates (PR 4's deferred
// "combining for queries"): the combiner first applies the drained
// updates as one batch, then pins ONE root version — one epoch cut — and
// answers the whole read burst against it.  Point queries (contains,
// floor, ceiling) and key collection stay direct.  Every query still runs
// on one atomic root version, so CombinedSet's whole query surface stays
// linearizable (see docs/ARCHITECTURE.md "Consistency guarantees"): a
// leased read linearizes at the shared cut's root pin, which lies between
// its publication and its response, exactly like a solo read's own pin.
// A published-but-unapplied update is an in-flight operation: it is
// allowed to be invisible until its batch's root refresh, which always
// happens before its response — each request linearizes between
// publication and response, exactly like a solo update.  Read combining
// is gated by the same knobs as update combining (set_combine_max_batch,
// the delegation budget) plus set_lease_reads, and a read whose spin
// budget runs out retracts and answers directly — progress never depends
// on a combiner.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "combine/combining_buffer.h"
#include "core/bat_tree.h"
#include "core/version_queries.h"
#include "shard/sharded_set.h"
#include "util/backoff.h"
#include "util/counters.h"
#include "util/fault.h"

namespace cbat {

// What the combining layer needs from the wrapped tree: point updates, the
// bulk path, the waiter spin budget, and (for the shard layer on top) the
// pinned-root view.
template <class T>
concept CombinableInner =
    requires(T t, const T ct, Key k, BatchOp* ops, int n) {
      typename T::AugType;
      { t.insert(k) } -> std::same_as<bool>;
      { t.erase(k) } -> std::same_as<bool>;
      { ct.contains(k) } -> std::same_as<bool>;
      { t.apply_batch(ops, n) };
      { T::delegation_timeout() } -> std::convertible_to<std::uint64_t>;
      { ct.root_version_unsafe() };
    };

template <class Inner = Bat<SizeAug>>
  requires CombinableInner<Inner>
class CombinedSet {
 public:
  using Aug = typename Inner::AugType;
  using AugType = Aug;
  using AugValue = typename Aug::Value;
  using V = typename Inner::V;
  using Buffer = CombiningBuffer<64>;
  using ReadRes = typename Buffer::ReadResult;

  // Composite reads ride the buffer only when they fit its wide response
  // slot: a sized augmentation whose aggregate value is the slot's int64.
  // Anything else keeps the direct per-query snapshot path.
  static constexpr bool kCombineReads =
      SizedAugmentation<Aug> && std::same_as<AugValue, std::int64_t>;

  // --- updates: the combining protocol ------------------------------------

  bool insert(Key k) { return update(k, /*is_insert=*/true); }
  bool erase(Key k) { return update(k, /*is_insert=*/false); }

  // Deliberate bypass of the combining protocol: apply directly on the
  // inner tree, which is safe under concurrent combined batches (it is
  // the same concurrent-solo path the retract-on-timeout fallback uses).
  // For callers that KNOW combining cannot pay — the shard layer routes
  // updates from read-dominated threads here, where batch occupancy is ~1
  // and the combiner lock is pure convoy (see ShardedSet::regime_update).
  // Not counted as kCombineSolo: that counter means "timed out waiting
  // for a combiner", and these never waited.
  bool insert_solo(Key k) { return inner_.insert(k); }
  bool erase_solo(Key k) { return inner_.erase(k); }

  // Bulk passthrough for the adaptive shard layer's migrator: the batch
  // bypasses the combining buffer exactly like the *_solo updates (it is
  // the same concurrent-solo path, safe under in-flight combined
  // batches).  Ops must be sorted by key.
  void apply_batch(BatchOp* ops, int n) { inner_.apply_batch(ops, n); }

  // --- queries ------------------------------------------------------------
  //
  // Point queries are straight reads on the inner version tree.  Composite
  // queries publish into the combining buffer when read leasing is on
  // (kCombineReads structures only): the combiner answers the whole burst
  // against one pinned root, so N concurrent composite reads cost one EBR
  // guard and one root load instead of N.

  bool contains(Key k) const { return inner_.contains(k); }
  std::int64_t size() const
    requires SizedAugmentation<Aug>
  {
    if constexpr (kCombineReads) return query_op(Buffer::kSize, 0, 0).value;
    return inner_.size();
  }
  std::int64_t rank(Key k) const
    requires SizedAugmentation<Aug>
  {
    if constexpr (kCombineReads) return query_op(Buffer::kRank, k, 0).value;
    return inner_.rank(k);
  }
  std::optional<Key> select(std::int64_t i) const
    requires SizedAugmentation<Aug>
  {
    if constexpr (kCombineReads) {
      const ReadRes r = query_op(Buffer::kSelect, static_cast<Key>(i), 0);
      if (!r.ok) return std::nullopt;
      return static_cast<Key>(r.value);
    }
    return inner_.select(i);
  }
  std::int64_t range_count(Key lo, Key hi) const
    requires SizedAugmentation<Aug>
  {
    if constexpr (kCombineReads) {
      return query_op(Buffer::kRangeCount, lo, hi).value;
    }
    return inner_.range_count(lo, hi);
  }
  AugValue range_aggregate(Key lo, Key hi) const {
    if constexpr (kCombineReads) {
      return query_op(Buffer::kRangeAggregate, lo, hi).value;
    }
    return inner_.range_aggregate(lo, hi);
  }
  std::optional<Key> floor(Key k) const { return inner_.floor(k); }
  std::optional<Key> ceiling(Key k) const { return inner_.ceiling(k); }
  std::vector<Key> range_collect(Key lo, Key hi, std::size_t limit = 0) const {
    return inner_.range_collect(lo, hi, limit);
  }

  const V* root_version_unsafe() const CBAT_REQUIRES(ebr_capability) {
    return inner_.root_version_unsafe();
  }

  // Epoch-clock passthrough for the shard layer's linearizable snapshots:
  // a combined batch stamps once per root CAS, exactly like a solo update,
  // and every response (combined or solo) is preceded by that stamp.
  void set_epoch_source(EpochClock* clock)
    requires requires(Inner t, EpochClock* c) { t.set_epoch_source(c); }
  {
    inner_.set_epoch_source(clock);
  }

  // Capability hooks for the registry's StructureInfo: updates here go
  // through the flat-combining protocol (ShardedSet forwards this from
  // its inner, so "Sharded*-Combined-*" forests report it too), and
  // composite reads combine when the augmentation allows it.
  static constexpr bool combines_updates() { return true; }
  static constexpr bool combines_reads() { return kCombineReads; }

  // Spin budget forwarded from the inner tree so the shard layer's leased
  // read path (ShardedSet lease_budget) sees one consistent knob.
  static std::uint64_t delegation_timeout() {
    return Inner::delegation_timeout();
  }

  void warm_up(std::size_t expected_updates) {
    inner_.warm_up(expected_updates);
  }

  Inner& inner() { return inner_; }
  const Inner& inner() const { return inner_; }

 private:
  bool update(Key k, bool is_insert) {
    const std::uint64_t budget = Inner::delegation_timeout();
    const int max_batch = combine_max_batch();
    // budget 0: the waiter may not wait at all, so publishing is useless —
    // every update runs solo (combining off, the non-blocking boundary).
    if (budget == 0 || max_batch <= 1) return solo(k, is_insert);

    // Fast path: free lock — combine inline, own request rides in the
    // batch without touching a slot.
    if (buffer_.try_lock()) {
      // Combiner-fault drill: a combiner that dies right after election
      // must release the lock BEFORE claiming any slot — lock inheritance
      // (the kPending + try_lock branch below) then drains the buffer, so
      // no waiter is stranded.  The faulted thread falls through to the
      // publish path like any non-elected thread.
      if (!CBAT_FAULT_FORCE("combine.elected")) {
        return run_combiner(k, is_insert, max_batch);  // unlocks internally
      }
      buffer_.unlock();
    }

    const int slot = buffer_.publish(k, is_insert);
    if (slot < 0) return solo(k, is_insert);  // buffer full: shed load

    std::uint64_t spins = 0;
    std::uint64_t pauses = 0;
    Backoff bo;
    bool may_time_out = true;
    while (true) {
      const auto st = buffer_.slot_state(slot);
      if (st == Buffer::kDone) {
        if (pauses != 0) {
          Counters::bump(Counter::kCombineRetractBackoffs, pauses);
        }
        return buffer_.take_result(slot);
      }
      if (st == Buffer::kPending && buffer_.try_lock()) {
        // The previous combiner finished without our request: drain the
        // buffer ourselves (our own slot included — the response comes
        // back through it like any other).
        run_combiner_drained_only(max_batch);
        continue;
      }
      // Bounded exponential backoff instead of a hot spin on the slot
      // line; pause() reports its spin count, so the delegation budget
      // still bounds total wall time before the retract-or-solo fallback.
      spins += bo.pause();
      ++pauses;
      if (may_time_out &&
          (spins > budget || CBAT_FAULT_FORCE("combine.update_wait"))) {
        if (buffer_.try_retract(slot)) {
          Counters::bump(Counter::kCombineTimeouts);
          if (pauses != 0) {
            Counters::bump(Counter::kCombineRetractBackoffs, pauses);
          }
          return solo(k, is_insert);
        }
        // A combiner claimed the request in the meantime; from here on
        // only it may produce the response.
        may_time_out = false;
      }
    }
  }

  bool solo(Key k, bool is_insert) {
    Counters::bump(Counter::kCombineSolo);
    return is_insert ? inner_.insert(k) : inner_.erase(k);
  }

  struct BatchScratch {
    std::vector<BatchOp> ops;
    typename Buffer::DrainedRequest reqs[Buffer::num_slots()];
    // Drained read requests, split out of `reqs` by collect_drained;
    // answered against one pinned root after the update batch applies.
    typename Buffer::DrainedRequest reads[Buffer::num_slots()];
    int num_reads = 0;
  };
  static BatchScratch& batch_scratch() {
    thread_local BatchScratch s;
    return s;
  }

  // Caller holds the buffer lock; releases it after the update batch
  // (CBAT_RELEASE, not REQUIRES: the lock is gone when this returns).
  // Applies {own request} + drained updates as one sorted batch, then
  // answers drained reads against one pinned root — lock-free, their
  // slots are already claimed; returns the own request's result.
  bool run_combiner(Key k, bool is_insert, int max_batch)
      CBAT_RELEASE(buffer_) {
    BatchScratch& s = batch_scratch();
    s.ops.clear();
    s.num_reads = 0;
    s.ops.push_back({k, is_insert, false, /*tag=*/-1});
    collect_drained(s, max_batch - 1);
    apply_and_complete(s);
    buffer_.unlock();
    answer_drained_reads(s);
    for (const BatchOp& op : s.ops) {
      if (op.tag < 0) return op.result;
    }
    return false;  // unreachable: the own request is always in the batch
  }

  // Caller holds the buffer lock; releases it after the update batch.  A
  // waiter that inherited the lock: its request is already published, so
  // the batch is just the drained slots.
  void run_combiner_drained_only(int max_batch) CBAT_RELEASE(buffer_) {
    BatchScratch& s = batch_scratch();
    s.ops.clear();
    s.num_reads = 0;
    collect_drained(s, max_batch);
    if (!s.ops.empty()) apply_and_complete(s);
    buffer_.unlock();
    answer_drained_reads(s);
  }

  void collect_drained(BatchScratch& s, int max) CBAT_REQUIRES(buffer_) {
    const int n = buffer_.drain(
        s.reqs, std::min(max, static_cast<int>(Buffer::num_slots())));
    for (int i = 0; i < n; ++i) {
      if (s.reqs[i].op == Buffer::kUpdate) {
        s.ops.push_back({s.reqs[i].key, s.reqs[i].is_insert, false,
                         /*tag=*/s.reqs[i].slot});
      } else {
        s.reads[s.num_reads++] = s.reqs[i];
      }
    }
  }

  void apply_and_complete(BatchScratch& s) CBAT_REQUIRES(buffer_) {
    // Stable: requests on the same key keep their publication-scan order.
    std::stable_sort(
        s.ops.begin(), s.ops.end(),
        [](const BatchOp& a, const BatchOp& b) { return a.key < b.key; });
    inner_.apply_batch(s.ops.data(), static_cast<int>(s.ops.size()));
    for (const BatchOp& op : s.ops) {
      if (op.tag >= 0) buffer_.complete(op.tag, op.result);
    }
    Counters::bump(Counter::kCombineBatches);
    Counters::bump(Counter::kCombineBatchedOps, s.ops.size());
  }

  // --- read leasing (kCombineReads only) ----------------------------------

  // Answers drained reads against ONE pinned root — the leased cut.
  // Ordering: called after apply_and_complete, so a read drained together
  // with updates observes them; each read linearizes at this root pin,
  // which lies between its publication and its response.
  void answer_drained_reads(BatchScratch& s) {
    if constexpr (kCombineReads) {
      if (s.num_reads == 0) return;
      EbrGuard g;
      const V* r = inner_.root_version_unsafe();
      for (int i = 0; i < s.num_reads; ++i) {
        buffer_.complete_read(
            s.reads[i].slot,
            answer_on(r, s.reads[i].op, s.reads[i].key, s.reads[i].b));
      }
      Counters::bump(Counter::kLeaseCuts);
      Counters::bump(Counter::kLeaseBatchedReads,
                     static_cast<std::uint64_t>(s.num_reads));
    }
  }

  // Composite-read analogue of update(): combine inline on a free lock,
  // else publish and spin with the same inherit-the-lock / retract-on-
  // timeout protocol.  Logically const — the set is unchanged — but a
  // combiner pass may apply *other threads'* published updates on their
  // behalf, hence the const_cast into the internally synchronized core.
  ReadRes query_op(typename Buffer::Op op, Key a, Key b) const
    requires kCombineReads
  {
    return const_cast<CombinedSet*>(this)->query_op_mut(op, a, b);
  }

  ReadRes query_op_mut(typename Buffer::Op op, Key a, Key b)
    requires kCombineReads
  {
    const std::uint64_t budget = Inner::delegation_timeout();
    const int max_batch = combine_max_batch();
    if (!lease_reads_enabled() || budget == 0 || max_batch <= 1) {
      return direct_query(op, a, b);
    }

    // Lease elision: no published requests means no burst to share a root
    // pin with (and no stranded updates to help), so answer on an own pin
    // without touching the lock.  See CombiningBuffer::has_pending for
    // why a racing publisher is only delayed, never stuck.
    if (!buffer_.has_pending()) return direct_query(op, a, b);

    if (buffer_.try_lock()) {
      // Same combiner-fault drill as update(): release before claiming,
      // fall through to publish (see the comment there).
      if (!CBAT_FAULT_FORCE("combine.read_elected")) {
        return run_query_combiner(op, a, b, max_batch);  // unlocks internally
      }
      buffer_.unlock();
    }

    const int slot = buffer_.publish_read(op, a, b);
    if (slot < 0) return direct_query(op, a, b);  // buffer full: shed load

    std::uint64_t spins = 0;
    std::uint64_t pauses = 0;
    Backoff bo;
    bool may_time_out = true;
    while (true) {
      const auto st = buffer_.slot_state(slot);
      if (st == Buffer::kDone) {
        if (pauses != 0) {
          Counters::bump(Counter::kCombineRetractBackoffs, pauses);
        }
        return buffer_.take_read_result(slot);
      }
      if (st == Buffer::kPending && buffer_.try_lock()) {
        run_combiner_drained_only(max_batch);
        continue;
      }
      // Bounded exponential backoff; see update() for the budget account.
      spins += bo.pause();
      ++pauses;
      if (may_time_out &&
          (spins > budget || CBAT_FAULT_FORCE("combine.read_wait"))) {
        if (buffer_.try_retract(slot)) {
          Counters::bump(Counter::kCombineTimeouts);
          if (pauses != 0) {
            Counters::bump(Counter::kCombineRetractBackoffs, pauses);
          }
          return direct_query(op, a, b);
        }
        may_time_out = false;
      }
    }
  }

  // Caller holds the buffer lock; releases it after any drained update
  // batch.  Then pins one root and answers the drained reads plus the own
  // request against it, lock-free.
  ReadRes run_query_combiner(typename Buffer::Op op, Key a, Key b,
                             int max_batch) CBAT_RELEASE(buffer_)
    requires kCombineReads
  {
    BatchScratch& s = batch_scratch();
    s.ops.clear();
    s.num_reads = 0;
    collect_drained(s, max_batch - 1);
    if (!s.ops.empty()) apply_and_complete(s);
    buffer_.unlock();
    EbrGuard g;
    const V* r = inner_.root_version_unsafe();
    for (int i = 0; i < s.num_reads; ++i) {
      buffer_.complete_read(
          s.reads[i].slot,
          answer_on(r, s.reads[i].op, s.reads[i].key, s.reads[i].b));
    }
    Counters::bump(Counter::kLeaseCuts);
    Counters::bump(Counter::kLeaseBatchedReads,
                   static_cast<std::uint64_t>(s.num_reads) + 1);
    return answer_on(r, op, a, b);
  }

  ReadRes direct_query(typename Buffer::Op op, Key a, Key b)
    requires kCombineReads
  {
    Counters::bump(Counter::kLeaseSoloReads);
    EbrGuard g;
    return answer_on(inner_.root_version_unsafe(), op, a, b);
  }

  // One pinned root answers any composite op; caller holds an EBR guard
  // covering `r`.
  static ReadRes answer_on(const V* r, typename Buffer::Op op, Key a, Key b)
      CBAT_REQUIRES(ebr_capability)
    requires kCombineReads
  {
    switch (op) {
      case Buffer::kSize:
        return {version_size<Aug>(r), true};
      case Buffer::kRank:
        return {version_rank<Aug>(r, a), true};
      case Buffer::kSelect: {
        const std::optional<Key> k =
            version_select<Aug>(r, static_cast<std::int64_t>(a));
        return {k ? static_cast<std::int64_t>(*k) : 0, k.has_value()};
      }
      case Buffer::kRangeCount:
        return {version_range_count<Aug>(r, a, b), true};
      case Buffer::kRangeAggregate:
        return {version_range_aggregate<Aug>(r, a, b), true};
      case Buffer::kUpdate:
        break;  // never published through the read path
    }
    return {0, false};
  }

  Inner inner_;
  Buffer buffer_;
};

// The registry-visible combined structures; compiled once in
// combined_set.cpp.
extern template class CombinedSet<Bat<SizeAug>>;
extern template class ShardedSet<CombinedSet<Bat<SizeAug>>, 16>;
extern template class ShardedSet<CombinedSet<Bat<SizeAug>>, 16,
                                 SnapshotPolicy::kLinearizable>;
// The "-RC" read-combined forests: leased epoch cuts + epoch-stamped
// aggregate caches on top of the combined shards.
extern template class ShardedSet<CombinedSet<Bat<SizeAug>>, 16,
                                 SnapshotPolicy::kQuiescent,
                                 ReadPath::kCombined>;
extern template class ShardedSet<CombinedSet<Bat<SizeAug>>, 16,
                                 SnapshotPolicy::kLinearizable,
                                 ReadPath::kCombined>;
// The "-Adapt" adaptive forests: online hot-shard rebalancing on top of
// the combined shards.
extern template class ShardedSet<CombinedSet<Bat<SizeAug>>, 16,
                                 SnapshotPolicy::kQuiescent,
                                 ReadPath::kDirect, true>;
extern template class ShardedSet<CombinedSet<Bat<SizeAug>>, 16,
                                 SnapshotPolicy::kLinearizable,
                                 ReadPath::kDirect, true>;

}  // namespace cbat
