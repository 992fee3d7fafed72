#include "util/thread_registry.h"

#include <cstdio>
#include <cstdlib>

namespace cbat {

namespace {

// RAII owner of a slot, stored thread_local so the slot frees at thread exit.
struct SlotOwner {
  int id = -1;
  ~SlotOwner();
};

thread_local SlotOwner tl_slot;

}  // namespace

struct ThreadSlot {
  static void release(int id) { ThreadRegistry::instance().release(id); }
};

namespace {
SlotOwner::~SlotOwner() {
  if (id >= 0) ThreadSlot::release(id);
}
}  // namespace

ThreadRegistry& ThreadRegistry::instance() {
  static ThreadRegistry reg;
  return reg;
}

int ThreadRegistry::register_thread() {
  tl_slot.id = instance().acquire();
  tl_id_ = tl_slot.id;
  return tl_id_;
}

int ThreadRegistry::acquire() {
  for (int i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (used_[i].compare_exchange_strong(expected, true,
                                         std::memory_order_seq_cst)) {
      int hw = high_water_.load(std::memory_order_seq_cst);
      while (hw < i + 1 &&
             !high_water_.compare_exchange_weak(hw, i + 1,
                                                std::memory_order_seq_cst)) {
      }
      return i;
    }
  }
  std::fprintf(stderr, "cbat: more than %d concurrent threads\n", kMaxThreads);
  std::abort();
}

void ThreadRegistry::release(int id) {
  used_[id].store(false, std::memory_order_release);
}

}  // namespace cbat
