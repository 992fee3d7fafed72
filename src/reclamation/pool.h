// Per-thread object pools fed by EBR reclamation, carved from huge-page
// slabs.
//
// BAT allocates roughly one Version per node on every update path (plus an
// SCX record and patch nodes), so allocation sits on every update and the
// pooled objects make up most of a tree's memory.  A Pool<T> slot is
// sizeof(T) rounded up to whole 64-byte cache lines and starts on a line
// boundary, so a 56-byte Version is fetched and written as one line.  A
// type that declares `static constexpr std::size_t kHotOffset` (64) is
// split: the object itself is its read half, at most half a line, and its
// hot half sits kHotOffset bytes after it.  Such slots are half lines
// paired across two lines, so the read halves of two objects share one
// line and their hot halves the next, and an object still costs one line
// (Node and FrNode; see llxscx/node.h for why).  Slots come from three
// levels:
//   * each thread carves slots for T from its current 64 KiB block for T;
//   * one process-wide arena cuts blocks, in turn, from its current chunk,
//     so at most one chunk is ever part-used (a huge page is resident as
//     soon as any byte of it is touched);
//   * a chunk is 2 MiB, aligned to 2 MiB and advised MADV_HUGEPAGE, so the
//     tree needs few TLB entries where transparent huge pages are enabled
//     (`always` or `madvise`).  Elsewhere only the line alignment remains.
// Slab memory is never returned to the operating system.
//
// EBR deleters push reclaimed objects onto the LIFO free list of whichever
// thread runs the reclamation, and allocations pop the local list first.
// A list that grows past kMaxFree spills its older half to a mutex-guarded
// depot for T; a dying thread hands the depot its list and the uncarved
// rest of its block; a thread whose list and block are both empty draws
// from the depot before it takes a new block.
//
// Recycling is ABA-safe for the same reason freeing is: an object reaches
// the pool only after a grace period, so no operation that could still
// compare-and-swap against its old address is running.
//
// Only trivially destructible types may be pooled (objects are reused by
// placement-new without running destructors).  Under AddressSanitizer a
// slot that is not handed out (both halves of a split slot) is poisoned,
// so reading a reclaimed object reports use-after-poison instead of
// reading the slot's next tenant.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "reclamation/ebr.h"
#include "util/prefetch.h"

#if defined(__SANITIZE_ADDRESS__)
#define CBAT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CBAT_ASAN 1
#endif
#endif
#if defined(CBAT_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace cbat {

// Slab geometry, shared by every Pool<T>.
inline constexpr std::size_t kPoolLineBytes = 64;
inline constexpr std::size_t kPoolBlockBytes = std::size_t{64} << 10;
inline constexpr std::size_t kPoolChunkBytes = std::size_t{2} << 20;

// Process-wide (all pools, all threads): the bytes of slab chunks taken so
// far.  Chunks are never returned, so the gauge never falls.
std::size_t pool_mapped_bytes();

namespace detail {

// Cuts the next block from the arena's current chunk, taking a new chunk
// when that one is used up (pool.cpp).  Allocation-failure degradation:
// transient exhaustion (real, or forced by a fault plan) retries with
// exponential backoff instead of letting bad_alloc unwind mid-protocol;
// only a persistent failure (every retry exhausted) throws std::bad_alloc.
// Most callers allocate before they publish anything, but not all:
// BatTree::refresh allocates inside Propagate, after the update's SCX has
// published, so a throw there leaves that update unpropagated.
std::byte* take_pool_block();

inline void asan_poison(void* p, std::size_t n) {
#if defined(CBAT_ASAN)
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void asan_unpoison(void* p, std::size_t n) {
#if defined(CBAT_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace detail

template <class T>
class Pool {
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= kPoolLineBytes);
  static_assert(sizeof(T) <= kPoolBlockBytes);

 public:
  static void* alloc() {
    FreeList& f = free_list();
    void* p;
    if (!f.slots.empty()) {
      p = f.slots.back();
      f.slots.pop_back();
    } else {
      p = take(f);
    }
    detail::asan_unpoison(p, sizeof(T));
    if constexpr (kSplit) detail::asan_unpoison(hot_of(p), kHalfBytes);
    return p;
  }

  static void dealloc(void* p) {
    if constexpr (kSplit) {
      detail::asan_poison(p, kHalfBytes);
      detail::asan_poison(hot_of(p), kHalfBytes);
    } else {
      detail::asan_poison(p, kSlotBytes);
    }
    // relaxed: the exit flag is set when only one thread remains; any
    // pre-exit read correctly sees false.  After it, the thread-local free
    // lists are already destroyed and the slot simply stays in its chunk.
    // The same holds for this thread once its own list is gone: a static
    // object freed at exit runs after the exiting thread's thread_locals.
    if (g_reclaim_shutdown.load(std::memory_order_relaxed) || list_gone_) {
      return;
    }
    FreeList& f = free_list();
    f.slots.push_back(p);
    if (f.slots.size() > kMaxFree) spill(f);
  }

  // Prefetches for write the next `n` objects alloc() will return: the top
  // of the free list, then the block's next uncarved slots.  A caller that
  // knows it will allocate n objects in a row overlaps their cache misses.
  // A hint only: the free list and the block are read, never changed.
  static void prefetch(std::size_t n) {
    const FreeList& f = free_list();
    const std::size_t m = std::min(n, f.slots.size());
    for (std::size_t i = f.slots.size() - m; i < f.slots.size(); ++i) {
      prefetch_slot(f.slots[i]);
    }
    for (std::byte* p = f.next; n > m && p != f.end; --n, p = after(p)) {
      prefetch_slot(p);
    }
  }

  // Warm-up hook: stocks the calling thread's free list up to `n` slots
  // (capped at kMaxFree), so a fresh worker thread's first operations do
  // not take blocks or draw from the depot.  First-allocation jitter showed
  // up as outliers in smoke-mode latency percentiles; the benchmark driver
  // calls this from prefill and worker threads before timing starts.
  static void reserve(std::size_t n) {
    // relaxed: see dealloc().
    if (g_reclaim_shutdown.load(std::memory_order_relaxed)) return;
    FreeList& f = free_list();
    const std::size_t want = std::min(n, kMaxFree);
    if (f.slots.size() >= want) return;
    f.slots.reserve(want);
    while (f.slots.size() < want) f.slots.push_back(take(f));
  }

 private:
  static constexpr std::size_t kHotOffset = [] {
    if constexpr (requires { T::kHotOffset; }) {
      return T::kHotOffset;
    } else {
      return std::size_t{0};
    }
  }();
  static constexpr bool kSplit = kHotOffset != 0;
  static constexpr std::size_t kHalfBytes = kPoolLineBytes / 2;
  static_assert(!kSplit ||
                (kHotOffset == kPoolLineBytes && sizeof(T) <= kHalfBytes));

  // Slab bytes per object: whole lines, or for a split type half of two.
  static constexpr std::size_t kSlotBytes =
      kSplit ? kPoolLineBytes
             : (sizeof(T) + kPoolLineBytes - 1) / kPoolLineBytes *
                   kPoolLineBytes;
  static constexpr std::size_t kMaxFree = 1 << 16;
  static constexpr std::size_t kSlotsPerBlock = kPoolBlockBytes / kSlotBytes;

  static void* hot_of(void* p) {
    return static_cast<std::byte*>(p) + kHotOffset;
  }

  // The slot carved after p.  Split slots go in pairs: two read halves on
  // one line, their hot halves on the next, which the carve then skips.
  static std::byte* after(std::byte* p) {
    if constexpr (kSplit) {
      p += kHalfBytes;
      const bool line_done =
          reinterpret_cast<std::uintptr_t>(p) % kPoolLineBytes == 0;
      return line_done ? p + kPoolLineBytes : p;
    } else {
      return p + kSlotBytes;
    }
  }

  static void prefetch_slot(void* p) {
    prefetch_write(p);
    if constexpr (kSplit) prefetch_write(hot_of(p));
  }

  struct FreeList {
    std::vector<void*> slots;
    // The uncarved rest of this thread's current block for T.
    std::byte* next = nullptr;
    std::byte* end = nullptr;
    ~FreeList() {
      std::vector<void*> rest;
      for (; next != end; next = after(next)) rest.push_back(next);
      give(std::move(slots));
      give(std::move(rest));
      list_gone_ = true;
    }
  };

  // Set once this thread's free list for T is destroyed (see dealloc).
  static constinit inline thread_local bool list_gone_ = false;

  struct Depot {
    std::mutex mu;
    // Batches of free slots as they were spilled or handed back, none
    // empty (guarded by mu).  A batch moves in whole, so a dying thread's
    // hand-back copies no slot list.
    std::vector<std::vector<void*>> batches;
  };

  static FreeList& free_list() {
    thread_local FreeList f;
    return f;
  }

  // Never destroyed, like the slab arena: a thread may hand back its list
  // after static destructors have run, and a static object built before
  // the depot may free slots during them.
  static Depot& depot() {
    static Depot* d = new Depot;
    return *d;
  }

  // A slot carved from the thread's block.  Once the block is used up, a
  // slot drawn from the depot, and a new block only when the depot is empty
  // too.
  static void* take(FreeList& f) {
    if (f.next == f.end) {
      if (void* p = draw(f)) return p;
      std::byte* b = detail::take_pool_block();
      f.next = b;
      f.end = b + kSlotsPerBlock * kSlotBytes;
    }
    void* p = f.next;
    f.next = after(f.next);
    return p;
  }

  // Moves up to a block's worth of slots from the depot onto the free list
  // and pops one of them.  Null when the depot is empty.
  static void* draw(FreeList& f) {
    {
      Depot& d = depot();
      std::lock_guard<std::mutex> lock(d.mu);
      if (d.batches.empty()) return nullptr;
      std::vector<void*>& b = d.batches.back();
      const std::size_t k = std::min(b.size(), kSlotsPerBlock);
      f.slots.insert(f.slots.end(), b.end() - k, b.end());
      b.resize(b.size() - k);
      if (b.empty()) d.batches.pop_back();
    }
    void* p = f.slots.back();
    f.slots.pop_back();
    return p;
  }

  static void give(std::vector<void*> batch) {
    if (batch.empty()) return;
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    d.batches.push_back(std::move(batch));
  }

  // Moves the older half of the free list to the depot; the top, touched
  // most recently, stays.
  static void spill(FreeList& f) {
    const auto half = f.slots.begin() + f.slots.size() / 2;
    std::vector<void*> older;
    older.insert(older.end(), f.slots.begin(), half);
    give(std::move(older));
    f.slots.erase(f.slots.begin(), half);
  }
};

// Allocates a T from the pool, forwarding constructor arguments.  Global
// placement new: Node and FrNode delete their own operator new.
template <class T, class... A>
T* pool_new(A&&... args) {
  return ::new (Pool<T>::alloc()) T{std::forward<A>(args)...};
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

// Stocks the calling thread's free list for T (see Pool::reserve).
template <class T>
void pool_reserve(std::size_t n) {
  Pool<T>::reserve(n);
}

}  // namespace cbat
