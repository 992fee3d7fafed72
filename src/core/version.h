// Version objects and PropStatus (paper §3.2, §4, Appendix A Fig. 11).
//
// Every tree node points at a Version holding the current value of its
// supplementary fields.  Versions are immutable once published and point to
// the child versions they were computed from, so the versions themselves
// form a BST (the *version tree*) mirroring the node tree; reading the
// root's version pointer therefore yields an atomic snapshot on which any
// sequential query can run unmodified.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/augmentations.h"
#include "core/epoch_clock.h"
#include "reclamation/ebr.h"
#include "util/keys.h"

namespace cbat {

// Synchronization cell for the delegation optimization (§5): one per
// Propagate call; versions record the PropStatus of the Propagate whose
// Refresh created them so a beaten Refresh knows whom to wait for.
struct PropStatus {
  // shared: one short-lived cell per Propagate; waiters spin on done by
  // design, and padding would defeat the pool's size-class reuse.
  std::atomic<bool> done{false};
  std::atomic<PropStatus*> delegatee{nullptr};
};

template <Augmentation Aug>
struct Version {
  using Value = typename Aug::Value;

  Version* left;   // child versions; null iff this is a leaf version
  Version* right;
  Key key;         // key of the node this version was created for
  Value aug;       // the supplementary fields
  PropStatus* status;  // Propagate that installed this version (may be null)

  // Root-history fields, used only by versions installed at a tree's root
  // node when an epoch clock is attached (BatTree::set_epoch_source; the
  // shard layer's linearizable snapshots).  `prev_root` links to the root
  // version this one replaced (written before publication, immutable
  // after); `epoch` is the clock stamp assigned *after* the install —
  // mutable so readers can help-finalize it through const snapshot
  // pointers.  Both stay zero/null on non-root versions.
  //
  // Deliberate tradeoff: these 16 bytes ride on EVERY version, including
  // the interior/leaf versions that never use them, rather than splitting
  // roots into an extended record — the refresh path, the retire path,
  // and the pools would all have to distinguish two version types flowing
  // through one CAS slot (returning an extended record to the plain pool
  // corrupts both free lists).  The smoke gate showed the uniform layout
  // inside measurement noise on the unstamped single-tree figures.
  Version* prev_root = nullptr;
  // shared: per-version stamp, written at most once past kEpochTbd;
  // padding every version would double the dominant allocation.
  mutable std::atomic<std::uint64_t> epoch{kEpochTbd};

  bool is_leaf() const { return left == nullptr; }
};

// Finalizes v's epoch stamp if still unassigned and returns the stamp.
// The clock is read only after `v` is known (program order), which is
// what keeps stamps monotone along a root's prev_root chain: a version can
// only be help-stamped by threads that saw it installed, and every stamp
// that completed before that install drew a smaller-or-equal epoch.  The
// clock mints a fresh epoch per stamp, so no two roots of a forest ever
// share a stamp — which is what makes stamp-compare validation sound for
// the aggregate cache (src/shard/aggregate_cache.h).
template <Augmentation Aug>
std::uint64_t version_epoch(const Version<Aug>* v, EpochClock& clock)
    CBAT_REQUIRES(ebr_capability) {
  return clock.finalize(v->epoch);
}

// Resolves a root version against cut epoch `e` (EpochClock::cut): walks
// the root history backward to the newest root stamped at or before `e`,
// helping to finalize unassigned stamps on the way.  Safe under an EBR
// guard taken before the cut: a stamp above `e` was minted after the cut
// read the clock (the clock only counts up, and the cut returned the
// newest minted epoch), and so inside the guard; a superseded root is
// retired only after its successor's stamp is final, so every prev_root
// this walk dereferences was retired — if at all — inside the guard's
// epoch.
template <Augmentation Aug>
const Version<Aug>* version_resolve_epoch(const Version<Aug>* v,
                                          std::uint64_t e, EpochClock& clock)
    CBAT_REQUIRES(ebr_capability) {
  while (v->prev_root != nullptr && version_epoch(v, clock) > e) {
    v = v->prev_root;
  }
  return v;
}

}  // namespace cbat
