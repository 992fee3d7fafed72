// Versioned CAS objects (Wei, Ben-David, Blelloch, Fatourou, Ruppert, Sun —
// PPoPP 2021): the snapshotting substrate of the VcasBST baseline.
//
// A VersionedPtr behaves like an atomic pointer whose history is retained
// as a timestamped version list.  `read()` returns the newest value;
// `read_at(t)` returns the value as of global timestamp t, giving O(1)-time
// snapshots of a whole structure: take one clock tick, then read every
// pointer "as of" that tick.  Timestamps are assigned lazily (a version is
// stamped by the first operation that needs its timestamp), which is what
// makes the scheme constant-time.
//
// Version lists are truncated past the oldest announced snapshot (see
// SnapshotRegistry) and the cut-off chains are EBR-retired.
#pragma once

#include <atomic>
#include <cstdint>

#include "reclamation/ebr.h"
#include "reclamation/pool.h"
#include "reclamation/snapshot_registry.h"

namespace cbat {

// Global version clock.  Starts at 1 (0 is reserved by SnapshotRegistry).
class VcasClock {
 public:
  static std::uint64_t now() { return ts_.load(std::memory_order_seq_cst); }
  // Returns a snapshot timestamp t: all versions stamped <= t are visible,
  // all later writes get stamps > t.  Wei et al.'s takeSnapshot: advance
  // the clock only if it still reads t, and return t whatever the CAS
  // does — a failed CAS means a concurrent snapshot already moved the
  // clock past t, which is all this one needs, so a burst of snapshots
  // shares one advance instead of serializing on a fetch_add.  Callers
  // announce now() before calling (SnapshotRegistry), and that value is
  // <= t, so truncate() never drops a version this snapshot can read.
  static std::uint64_t take_snapshot() {
    const std::uint64_t t = ts_.load(std::memory_order_seq_cst);
    std::uint64_t expected = t;
    ts_.compare_exchange_strong(expected, t + 1, std::memory_order_seq_cst);
    return t;
  }

 private:
  inline static std::atomic<std::uint64_t> ts_{1};
};

template <class T>
class VersionedPtr {
 public:
  static constexpr std::uint64_t kTbd = ~0ULL;

  struct VNode {
    T* val;
    // shared: per-version words; version chains are numerous and small,
    // so padding would multiply memory, not reduce contention.
    std::atomic<std::uint64_t> ts;
    std::atomic<VNode*> next;
  };

  VersionedPtr() : head_(nullptr) {}

  // Not thread-safe; call before publishing the owning object.
  void init(T* v) {
    // relaxed: pre-publication store per the contract above.
    head_.store(pool_new<VNode>(v, VcasClock::now(), nullptr),
                std::memory_order_relaxed);
  }

  ~VersionedPtr() {
    // relaxed: destructor runs at quiescence; no concurrent access.
    VNode* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      VNode* next = n->next.load(std::memory_order_relaxed);
      pool_delete(n);
      n = next;
    }
  }

  T* read() const {
    VNode* h = head_.load(std::memory_order_acquire);
    init_ts(h);
    return h->val;
  }

  // Value as of snapshot timestamp t.  The owning object must have existed
  // at t (otherwise the caller could not have navigated here at t).
  T* read_at(std::uint64_t t) const {
    VNode* n = head_.load(std::memory_order_acquire);
    init_ts(n);
    while (n->ts.load(std::memory_order_acquire) > t) {
      n = n->next.load(std::memory_order_acquire);
    }
    return n->val;
  }

  // Atomic compare-and-swap preserving history.
  bool vcas(T* expected, T* desired) {
    while (true) {
      VNode* h = head_.load(std::memory_order_acquire);
      init_ts(h);
      if (h->val != expected) return false;
      if (expected == desired) return true;
      auto* n = pool_new<VNode>(desired, kTbd, h);
      if (head_.compare_exchange_strong(h, n, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        init_ts(n);
        truncate();
        return true;
      }
      pool_delete(n);
    }
  }

 private:
  static void init_ts(VNode* n) {
    std::uint64_t t = n->ts.load(std::memory_order_acquire);
    if (t == kTbd) {
      std::uint64_t now = VcasClock::now();
      n->ts.compare_exchange_strong(t, now, std::memory_order_acq_rel,
                                    std::memory_order_acquire);
    }
  }

  // Detaches and retires every version invisible to all current and future
  // snapshots: everything strictly after the first version whose timestamp
  // is <= the oldest announced snapshot.  Only one truncation may run per
  // pointer at a time (trunc_busy_): two concurrent walks could otherwise
  // capture overlapping tails and double-retire; losers simply skip — the
  // next vcas will truncate.  The walk must start from the *current* head
  // (read after taking the flag): any older starting point may itself
  // already sit on a detached-and-retired tail.
  void truncate() {
    if (trunc_busy_.exchange(true, std::memory_order_acquire)) return;
    VNode* n = head_.load(std::memory_order_acquire);
    const std::uint64_t m = SnapshotRegistry::min_active(VcasClock::now());
    while (true) {
      const std::uint64_t t = n->ts.load(std::memory_order_acquire);
      if (t != kTbd && t <= m) break;
      VNode* next = n->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        trunc_busy_.store(false, std::memory_order_release);
        return;
      }
      n = next;
    }
    VNode* chain = n->next.exchange(nullptr, std::memory_order_acq_rel);
    while (chain != nullptr) {
      VNode* next = chain->next.load(std::memory_order_acquire);
      pool_retire(chain);
      chain = next;
    }
    trunc_busy_.store(false, std::memory_order_release);
  }

  // shared: head_ rides in the owning node (per-node tradeoff);
  // trunc_busy_ is a rarely-contended single-writer election flag.
  std::atomic<VNode*> head_;
  std::atomic<bool> trunc_busy_{false};
};

}  // namespace cbat
