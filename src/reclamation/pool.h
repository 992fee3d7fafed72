// Per-thread object pools fed by EBR reclamation.
//
// BAT allocates roughly one Version per node on every update path (plus an
// SCX record and patch nodes), so allocator throughput dominates update
// cost.  The paper used mimalloc; we get the same effect with type-keyed
// per-thread free lists: EBR deleters push reclaimed objects into the pool
// of whichever thread runs the reclamation, and allocations pop from the
// local pool.
//
// Recycling is ABA-safe for the same reason freeing is: an object reaches
// the pool only after a grace period, so no operation that could still
// compare-and-swap against its old address is running.
//
// Only trivially destructible types may be pooled (objects are reused by
// placement-new without running destructors).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "reclamation/ebr.h"
#include "util/backoff.h"
#include "util/fault.h"
#include "util/prefetch.h"

namespace cbat {

template <class T>
class Pool {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  static void* alloc() {
    auto& f = free_list();
    if (!f.slots.empty()) {
      void* p = f.slots.back();
      f.slots.pop_back();
      return p;
    }
    // Allocation-failure degradation: transient exhaustion (real, or forced
    // by a fault plan) retries ::operator new with exponential backoff
    // instead of letting bad_alloc unwind mid-protocol.  The free list
    // cannot refill meanwhile: only this thread's dealloc() pushes to it.
    // Only a *persistent* failure (every retry exhausted) surfaces as
    // std::bad_alloc.  Most callers allocate before they publish anything,
    // but not all: BatTree::refresh allocates inside Propagate, after the
    // update's SCX has published, so a throw there leaves that update
    // unpropagated.
    Backoff bo;
    for (std::uint32_t attempt = 0; attempt < kAllocRetries; ++attempt) {
      if (!CBAT_FAULT_FORCE("pool.alloc_fail")) {
        void* p = ::operator new(sizeof(T), std::nothrow);
        if (p != nullptr) return p;
      }
      bo.pause();
    }
    throw std::bad_alloc{};
  }

  static void dealloc(void* p) {
    // relaxed: the exit flag is set when only one thread remains; any
    // pre-exit read correctly sees false.
    if (g_reclaim_shutdown.load(std::memory_order_relaxed)) {
      // The thread-local free lists are already destroyed during exit.
      ::operator delete(p);
      return;
    }
    auto& f = free_list();
    if (f.slots.size() < kMaxFree) {
      f.slots.push_back(p);
    } else {
      ::operator delete(p);
    }
  }

  // Prefetches for write the next `n` objects alloc() will pop, so a
  // caller that knows it will allocate n objects in a row overlaps their
  // cache misses.  A hint only: the free list is read, never changed.
  static void prefetch(std::size_t n) {
    const auto& slots = free_list().slots;
    const std::size_t m = std::min(n, slots.size());
    for (std::size_t i = slots.size() - m; i < slots.size(); ++i) {
      prefetch_write(slots[i]);
    }
  }

  // Warm-up hook: pre-faults the calling thread's free list up to `n`
  // objects (capped at the recycling limit) so a fresh worker thread's
  // first operations do not pay cold ::operator new calls.  First-touch
  // allocation jitter showed up as outliers in smoke-mode latency
  // percentiles; the benchmark driver calls this from prefill and worker
  // threads before timing starts.
  static void reserve(std::size_t n) {
    // relaxed: see dealloc().
    if (g_reclaim_shutdown.load(std::memory_order_relaxed)) return;
    auto& f = free_list();
    const std::size_t want = std::min(n, kMaxFree);
    if (f.slots.size() >= want) return;
    f.slots.reserve(want);
    while (f.slots.size() < want) {
      f.slots.push_back(::operator new(sizeof(T)));
    }
  }

 private:
  static constexpr std::size_t kMaxFree = 1 << 16;
  // Allocation retry cap: must exceed any fault plan's per-site forced
  // budget (FaultPlan::max_fails_per_site) so an injected exhaustion burst
  // can never be mistaken for a persistent one.
  static constexpr std::uint32_t kAllocRetries = 256;

  struct FreeList {
    std::vector<void*> slots;
    ~FreeList() {
      for (void* p : slots) ::operator delete(p);
    }
  };

  static FreeList& free_list() {
    thread_local FreeList f;
    return f;
  }
};

// Allocates a T from the pool, forwarding constructor arguments.
template <class T, class... A>
T* pool_new(A&&... args) {
  return new (Pool<T>::alloc()) T{std::forward<A>(args)...};
}

// Immediate free for objects that were never published.
template <class T>
void pool_delete(T* p) {
  Pool<T>::dealloc(p);
}

// Deferred free through the EBR (the usual path for published objects).
template <class T>
void pool_retire(T* p) {
  Ebr::retire(p, [](void* q) { Pool<T>::dealloc(q); });
}

// Pre-faults the calling thread's free list for T (see Pool::reserve).
template <class T>
void pool_reserve(std::size_t n) {
  Pool<T>::reserve(n);
}

}  // namespace cbat
