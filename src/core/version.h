// Version objects and PropStatus (paper §3.2, §4, Appendix A Fig. 11).
//
// Every internal tree node points at a Version holding the current value of
// its supplementary fields.  Versions are immutable once published and name
// the children they were computed from, so the versions themselves form a
// BST (the *version tree*) mirroring the node tree; reading the root's
// version pointer therefore yields an atomic snapshot on which any
// sequential query can run unmodified.
//
// A version's child word (VersionRef) names one of two things.  For an
// internal child it is that child's Version.  For a leaf child it is the
// leaf node itself, tagged in bit 0.  Definition 1 gives a leaf a ready
// version that is a pure function of its immutable key (Aug::leaf(key), or
// the sentinel's), and no refresh ever replaces it.  So the leaf stands in
// for that version, and no leaf version is ever allocated.  A leaf node's
// own version word holds the same tagged address, so a refresh copies it
// into the new version exactly as it copies an internal child's Version.
// Because a version tree names leaf nodes, a leaf lives two grace periods
// after its unlink, the lifetime its final version had (§6; the trees'
// node deleters retire a leaf a second time).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/augmentations.h"
#include "core/epoch_clock.h"
#include "reclamation/ebr.h"
#include "util/keys.h"
#include "util/prefetch.h"

namespace cbat {

// Synchronization cell for the delegation optimization (§5): one per
// Propagate call; versions record the PropStatus of the Propagate whose
// Refresh created them so a beaten Refresh knows whom to wait for.
struct PropStatus {
  // shared: one short-lived cell per Propagate; waiters spin on done by
  // design.  Its pool slot is a whole cache line, so no other object
  // shares the line.
  std::atomic<bool> done{false};
  std::atomic<PropStatus*> delegatee{nullptr};
};

template <Augmentation Aug>
struct Version;

// A version's child word, and a tree node's version word: an internal
// node's Version, or a leaf node's own address tagged in bit 0.  A leaf is
// read only for its key, which every node type a version tree names keeps
// first in a standard-layout struct (the static_asserts beside Node and
// FrNode), so key() and aug() need not know the node type.  The key is
// immutable and published by the update that linked the leaf, before any
// refresh can read the leaf's word.  Null only for an internal node whose
// version is still nil (Definition 1).
template <Augmentation Aug>
class VersionRef {
 public:
  VersionRef() = default;
  VersionRef(const Version<Aug>* v)
      : word_(reinterpret_cast<std::uintptr_t>(v)) {}

  // The word a leaf node keeps as its version, and its parents' versions
  // keep as their child word.
  static VersionRef leaf(const void* node) {
    VersionRef r;
    r.word_ = reinterpret_cast<std::uintptr_t>(node) | kLeafTag;
    return r;
  }
  // A node's type-erased version word, and back.
  static VersionRef of_word(const void* w) {
    VersionRef r;
    r.word_ = reinterpret_cast<std::uintptr_t>(w);
    return r;
  }
  void* word() const { return reinterpret_cast<void*>(word_); }

  explicit operator bool() const { return word_ != 0; }
  bool operator==(const VersionRef&) const = default;

  bool is_leaf() const { return (word_ & kLeafTag) != 0; }
  // The internal child's version.  Requires !is_leaf().
  const Version<Aug>* version() const {
    return reinterpret_cast<const Version<Aug>*>(word_);
  }

  Key key() const { return is_leaf() ? *leaf_key() : version()->key; }
  typename Aug::Value aug() const {
    if (!is_leaf()) return version()->aug;
    const Key k = *leaf_key();
    return is_sentinel_key(k) ? Aug::sentinel() : Aug::leaf(k);
  }

  // Prefetches the line key() and aug() read: the version's, or the leaf
  // node's read half.  A hint only (util/prefetch.h).
  void prefetch() const {
    if (is_leaf()) {
      prefetch_read(leaf_key());
    } else {
      prefetch_read(&version()->aug);
    }
  }

 private:
  static constexpr std::uintptr_t kLeafTag = 1;

  const Key* leaf_key() const {
    return reinterpret_cast<const Key*>(word_ & ~kLeafTag);
  }

  std::uintptr_t word_ = 0;
};

template <Augmentation Aug>
struct Version {
  using Value = typename Aug::Value;

  // The children this version was computed from (VersionRef): never null in
  // a published version.
  VersionRef<Aug> left;
  VersionRef<Aug> right;
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
  // the ones below the root that never use them, rather than splitting
  // roots into an extended record — the refresh path, the retire path,
  // and the pools would all have to distinguish two version types flowing
  // through one CAS slot (returning an extended record to the plain pool
  // corrupts both free lists).  The smoke gate showed the uniform layout
  // inside measurement noise on the unstamped single-tree figures.
  Version* prev_root = nullptr;
  // shared: per-version stamp, written at most once past kEpochTbd;
  // padding every version would double the dominant allocation.
  mutable std::atomic<std::uint64_t> epoch{kEpochTbd};
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
