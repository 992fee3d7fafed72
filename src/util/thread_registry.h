// Global thread registry.
//
// Every concurrency-sensitive component (EBR, statistics counters,
// per-thread scratch space) needs a small dense integer id per thread.
// Threads acquire a slot the first time they touch the library and release
// it at thread exit, so slots are recycled across benchmark phases.
#pragma once

#include <atomic>
#include <cstdint>

namespace cbat {

inline constexpr int kMaxThreads = 288;  // > paper's 192 hyperthreads

class ThreadRegistry {
 public:
  static ThreadRegistry& instance();

  // Dense id of the calling thread, registering it if needed.  Inline on
  // the hot path (every counter bump and epoch guard reads it); the first
  // call on a thread registers it out of line.
  static int thread_id() {
    const int id = tl_id_;
    return id >= 0 ? id : register_thread();
  }

  // Upper bound (exclusive) over ids ever handed out; scan limit for EBR.
  int max_id() const { return high_water_.load(std::memory_order_seq_cst); }

 private:
  friend struct ThreadSlot;
  ThreadRegistry() = default;

  int acquire();
  void release(int id);
  static int register_thread();

  // The calling thread's id, -1 until it registers.  Constant-initialised
  // and trivially destructible, so reading it is one TLS load with no
  // initialisation guard.  It keeps its value after the slot is released
  // at thread exit, as the owning SlotOwner's id does.
  static inline constinit thread_local int tl_id_ = -1;

  // shared: touched once per thread lifetime (acquire/release of a
  // slot); false sharing on this cold path is irrelevant.
  std::atomic<bool> used_[kMaxThreads] = {};
  std::atomic<int> high_water_{0};
};

}  // namespace cbat
