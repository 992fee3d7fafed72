// Epoch-based reclamation (paper §6).
//
// Classic 3-epoch EBR in the style of Fraser / DEBRA: a global epoch, a
// per-thread announcement slot, and three per-thread limbo bags.  An object
// retired while the global epoch is e may be freed once the global epoch
// reaches e+2, because advancing the epoch twice requires every operation
// that was active at retire time to have finished.
//
// This matches the property the paper relies on throughout §6: "an object is
// safe to retire at time T if it will not be accessed by any high-level
// operation that starts after time T".
//
// Usage: every public tree operation opens an `EbrGuard` (re-entrant).
// Unlinked objects are passed to `Ebr::retire(ptr, deleter)`.  Deleters may
// themselves call `retire` (e.g. freeing an internal node retires its final
// version, exactly as §6 prescribes, and BAT's deleter retires an unlinked
// leaf once more, so that the leaf outlives the version trees naming it).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/padded.h"
#include "util/thread_annotations.h"
#include "util/thread_registry.h"

namespace cbat {

// The EBR guard modeled as a Thread Safety Analysis capability: functions
// that dereference raw Version*/node pointers are annotated
// CBAT_REQUIRES(ebr_capability), EbrGuard ACQUIREs it, and guardless
// traversal becomes a compile error under -DCBAT_THREAD_SAFETY=ON.  The
// object is purely a compile-time token — it has no state and no runtime
// cost; the actual protection is the epoch machinery below.
class CBAT_CAPABILITY("ebr") EbrCapabilityT {};
inline EbrCapabilityT ebr_capability;

// Tells the analysis the EBR capability is held without acquiring anything.
// For contexts where a guard provably exists but TSA cannot see it: a guard
// held as a *member* subobject (scoped-capability tracking only follows
// named locals), or a protocol that pins the epoch by other means (per-
// thread in-flight slots, quiescence).  Every call site carries a
// `// guard:` comment naming the proof.
inline void ebr_assert_held() CBAT_ASSERT_CAPABILITY(ebr_capability) {}

// Set once by ~Ebr.  After this, grace periods are moot (no thread can
// start an operation), thread-local state — pool free lists, registry
// slots — is already destroyed ([basic.start.term]), so retired objects
// are freed immediately and pool deallocations bypass the free lists.
// shared: written once at exit, read on reclamation slow paths only.
inline std::atomic<bool> g_reclaim_shutdown{false};

class Ebr {
 public:
  using Deleter = void (*)(void*);

  static Ebr& instance();

  // Defers destruction of p until all currently-active operations finish.
  static void retire(void* p, Deleter d) {
    // relaxed: shutdown is set once, single-threaded, after all workers
    // have joined; any observed value is correct (a stale false just takes
    // the normal deferred path).
    if (g_reclaim_shutdown.load(std::memory_order_relaxed)) {
      d(p);  // shutdown: free now; must not touch per-thread state
      return;
    }
    instance().retire_impl(p, d);
  }

  // Frees everything immediately.  Caller must guarantee quiescence (no
  // other thread inside a guard or calling retire).  Used by tests and by
  // the benchmark driver between phases.
  static void drain();

  // Number of objects currently awaiting reclamation (approximate).
  static std::size_t pending();

  friend class EbrGuard;

 private:
  static constexpr std::uint64_t kQuiescent = ~0ULL;
  static constexpr int kBags = 3;
  // The one reclamation schedule: each thread tries an epoch advance every
  // kAdvanceThreshold of its retires and frees its safe bags then and at
  // each outermost guard entry.  An older announcement vetoes the advance,
  // so limbo grows behind a stalled guard until that guard ends.
  static constexpr std::size_t kAdvanceThreshold = 256;

  struct Bag {
    std::vector<std::pair<void*, Deleter>> items;
    std::uint64_t epoch = 0;
  };

  struct Ctx {
    // shared: each Ctx is wrapped in Padded<> at the ctxs_ array below,
    // so announce words of different threads never share a line.
    std::atomic<std::uint64_t> announce{kQuiescent};
    Bag bags[kBags];
    std::uint64_t retire_count = 0;
    int nesting = 0;
  };

  Ebr() = default;
  // Frees everything still in limbo at process exit (deleters may retire
  // more; iterates to fixpoint).  Runs after all worker threads have ended.
  ~Ebr();

  void enter();
  void exit();
  void retire_impl(void* p, Deleter d);
  void try_advance();
  void reclaim_safe_bags(Ctx& ctx, std::uint64_t global);
  static void free_bag(Bag& bag);

  Ctx& ctx() { return *ctxs_[ThreadRegistry::thread_id()]; }

  // shared: the global epoch is the coordination point by design; it
  // advances rarely (amortized by retire_count batching).
  std::atomic<std::uint64_t> epoch_{1};
  Padded<Ctx> ctxs_[kMaxThreads];
};

// RAII epoch guard; re-entrant per thread.  A scoped capability for the
// analysis: while a named EbrGuard local is live, ebr_capability is held
// and CBAT_REQUIRES(ebr_capability) functions may be called.  Re-entrancy
// is invisible to (and fine with) TSA — the analysis is intraprocedural,
// so nested guards in separate functions never meet.
class CBAT_SCOPED_CAPABILITY EbrGuard {
 public:
  EbrGuard() CBAT_ACQUIRE(ebr_capability) { Ebr::instance().enter(); }
  ~EbrGuard() CBAT_RELEASE() { Ebr::instance().exit(); }
  EbrGuard(const EbrGuard&) = delete;
  EbrGuard& operator=(const EbrGuard&) = delete;
};

// Convenience typed retire.
template <class T>
void ebr_retire(T* p) {
  Ebr::retire(p, [](void* q) { delete static_cast<T*>(q); });
}

}  // namespace cbat
