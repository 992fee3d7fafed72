// Reference-counted operation descriptors, for the EFRB `Info` records of
// FR-BST (src/frbst/) and VcasBST (src/vcasbst/).
//
// An Info record is published through per-node `update` fields and can stay
// referenced long after the operation that created it finishes: a node
// keeps pointing at the descriptor of its last update until its *next*
// update replaces it.  Retiring the descriptor when the operation completes
// (as one would for data nodes) would therefore leave dangling pointers.
// The chromatic tree's LLX/SCX needs none of this: each thread reuses one
// SCX descriptor, named by (slot, sequence) (src/llxscx/scx_record.h).
//
// Scheme:
//   * a descriptor is created with refs = 1 (the creator's credit);
//   * every successful CAS that installs descriptor N into a node field
//     calls descriptor_ref(N) *after* the CAS and schedules a deferred
//     unref of the replaced descriptor via descriptor_retire_unref();
//   * the creator schedules a deferred drop of its credit when its
//     operation completes;
//   * freeing a node unrefs the descriptor its field still holds (direct:
//     the node already sat out a grace period).
//
// All decrements that could take the count to zero are deferred through the
// EBR, so they execute only after every operation that was active at
// scheduling time has finished — in particular after the corresponding
// increments, whose owners were active then.  Hence the count reaches zero
// at most once, and it does so only when no active operation can still
// install or dereference the descriptor; retiring it at that point is safe.
#pragma once

#include <atomic>
#include <cstdint>

#include "reclamation/ebr.h"
#include "reclamation/pool.h"

namespace cbat {

struct RefCountedDescriptor {
  // shared: refcount rides in the descriptor it guards; every pool slot
  // starts on a cache line, so it shares a line only with that
  // descriptor's own fields.
  std::atomic<std::int64_t> refs{1};  // creator's credit
  bool is_static = false;  // statically allocated sentinels are never freed
};

template <class D>
void descriptor_ref(D* d) {
  if (d == nullptr || d->is_static) return;
  // relaxed: incrementing a count you already hold a reference through
  // needs no ordering; the matching unref uses acq_rel to sequence the
  // final release before destruction.
  d->refs.fetch_add(1, std::memory_order_relaxed);
}

template <class D>
void descriptor_unref(D* d) {
  if (d == nullptr || d->is_static) return;
  if (d->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pool_retire(d);  // descriptors are pool-allocated (see pool.h)
  }
}

// Schedules descriptor_unref(d) to run after a grace period.
template <class D>
void descriptor_retire_unref(D* d) {
  if (d == nullptr || d->is_static) return;
  Ebr::retire(d, [](void* q) { descriptor_unref(static_cast<D*>(q)); });
}

}  // namespace cbat
