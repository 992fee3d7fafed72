// Read-only queries over an immutable version tree (paper §3.2, §4, Fig. 3).
//
// A query reads the root's version pointer once and then runs a *sequential*
// algorithm on the immutable snapshot, "unaffected by concurrent updates".
// These helpers implement the queries the paper evaluates: membership
// (Find), rank, select, range count, plus generic range aggregation and key
// collection.  All cost O(height) except collection, which additionally
// pays for the keys it reports.
//
// The caller must keep the snapshot alive (hold an EbrGuard) for the
// duration of the query; BatTree's public methods and Snapshot handle do so.
// Statically enforced: every query is CBAT_REQUIRES(ebr_capability), so a
// guardless call fails to compile under -DCBAT_THREAD_SAFETY=ON.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/version.h"

namespace cbat {

// Every walk starts at a root version, which is always internal (kInf2 over
// two sentinel leaves), and reads each child through its VersionRef, so the
// last step of a descent reads the leaf node's key.

// Standard BST search on the version tree (paper Fig. 3, Find).
template <Augmentation Aug>
bool version_contains(const Version<Aug>* root, Key k)
    CBAT_REQUIRES(ebr_capability) {
  VersionRef<Aug> c = root;
  while (!c.is_leaf()) {
    const Version<Aug>* v = c.version();
    c = (k < v->key) ? v->left : v->right;
  }
  return c.key() == k;
}

// Number of keys in the whole snapshot.
template <SizedAugmentation Aug>
std::int64_t version_size(const Version<Aug>* root)
    CBAT_REQUIRES(ebr_capability) {
  return Aug::size_of(root->aug);
}

// Number of keys <= k (the paper's rank query).
template <SizedAugmentation Aug>
std::int64_t version_rank(const Version<Aug>* root, Key k)
    CBAT_REQUIRES(ebr_capability) {
  std::int64_t acc = 0;
  VersionRef<Aug> c = root;
  while (!c.is_leaf()) {
    const Version<Aug>* v = c.version();
    if (k < v->key) {
      c = v->left;
    } else {
      acc += Aug::size_of(v->left.aug());
      c = v->right;
    }
  }
  const Key lk = c.key();
  if (!is_sentinel_key(lk) && lk <= k) acc += Aug::size_of(c.aug());
  return acc;
}

// Number of keys strictly less than k.
template <SizedAugmentation Aug>
std::int64_t version_rank_less(const Version<Aug>* root, Key k)
    CBAT_REQUIRES(ebr_capability) {
  std::int64_t acc = 0;
  VersionRef<Aug> c = root;
  while (!c.is_leaf()) {
    const Version<Aug>* v = c.version();
    if (k <= v->key) {
      c = v->left;
    } else {
      acc += Aug::size_of(v->left.aug());
      c = v->right;
    }
  }
  const Key lk = c.key();
  if (!is_sentinel_key(lk) && lk < k) acc += Aug::size_of(c.aug());
  return acc;
}

// The i-th smallest key, 1-based (the paper's select query).
template <SizedAugmentation Aug>
std::optional<Key> version_select(const Version<Aug>* root, std::int64_t i)
    CBAT_REQUIRES(ebr_capability) {
  if (i < 1 || i > Aug::size_of(root->aug)) return std::nullopt;
  VersionRef<Aug> c = root;
  while (!c.is_leaf()) {
    const Version<Aug>* v = c.version();
    const std::int64_t ls = Aug::size_of(v->left.aug());
    if (i <= ls) {
      c = v->left;
    } else {
      i -= ls;
      c = v->right;
    }
  }
  return c.key();
}

// Number of keys in [lo, hi]; two root-to-leaf descents (paper §7 "range
// queries ... traverse two paths").
template <SizedAugmentation Aug>
std::int64_t version_range_count(const Version<Aug>* root, Key lo, Key hi)
    CBAT_REQUIRES(ebr_capability) {
  if (lo > hi) return 0;
  return version_rank<Aug>(root, hi) - version_rank_less<Aug>(root, lo);
}

namespace detail {

template <Augmentation Aug>
typename Aug::Value range_agg_rec(VersionRef<Aug> c, Key lo, Key hi,
                                  Key vmin, Key vmax)
    CBAT_REQUIRES(ebr_capability) {
  if (hi < vmin || vmax < lo) return Aug::sentinel();
  if (lo <= vmin && vmax <= hi) return c.aug();
  if (c.is_leaf()) {
    const Key k = c.key();
    return (lo <= k && k <= hi) ? c.aug() : Aug::sentinel();
  }
  const Version<Aug>* v = c.version();
  return Aug::combine(
      range_agg_rec<Aug>(v->left, lo, hi, vmin, v->key - 1),
      range_agg_rec<Aug>(v->right, lo, hi, v->key, vmax));
}

}  // namespace detail

// Aggregate of the augmentation over keys in [lo, hi]: descends at most two
// boundary paths, summing fully-contained subtrees by their stored value.
// Requires lo/hi to be user keys (sentinels contribute the identity).
template <Augmentation Aug>
typename Aug::Value version_range_aggregate(const Version<Aug>* root, Key lo,
                                            Key hi)
    CBAT_REQUIRES(ebr_capability) {
  if (lo > hi) return Aug::sentinel();
  return detail::range_agg_rec<Aug>(root, lo, hi,
                                    std::numeric_limits<Key>::min(), kInf2);
}

// Appends all keys in [lo, hi] to out, in order; stops after limit keys if
// limit > 0.  Cost Theta(reported + height).
template <Augmentation Aug>
void version_collect_range(VersionRef<Aug> c, Key lo, Key hi,
                           std::vector<Key>* out, std::size_t limit = 0)
    CBAT_REQUIRES(ebr_capability) {
  if (limit > 0 && out->size() >= limit) return;
  if (c.is_leaf()) {
    const Key k = c.key();
    if (!is_sentinel_key(k) && lo <= k && k <= hi) out->push_back(k);
    return;
  }
  const Version<Aug>* v = c.version();
  if (lo < v->key) version_collect_range<Aug>(v->left, lo, hi, out, limit);
  if (hi >= v->key) version_collect_range<Aug>(v->right, lo, hi, out, limit);
}

// Largest key <= k, if any (the predecessor-style query of paper §8).
// Two chained descents: remember the last left subtree we skipped past,
// then resolve its rightmost leaf only if the main descent missed.
template <Augmentation Aug>
std::optional<Key> version_floor(const Version<Aug>* root, Key k)
    CBAT_REQUIRES(ebr_capability) {
  VersionRef<Aug> c = root;
  VersionRef<Aug> cand;  // subtree entirely <= k, if any
  while (!c.is_leaf()) {
    const Version<Aug>* v = c.version();
    if (k < v->key) {
      c = v->left;
    } else {
      cand = v->left;
      c = v->right;
    }
  }
  const Key lk = c.key();
  if (!is_sentinel_key(lk) && lk <= k) return lk;
  if (!cand) return std::nullopt;
  // cand hangs left of a node with key <= k, so its rightmost leaf is a
  // real key < kInf1 (sentinels live only on the tree's far right spine).
  while (!cand.is_leaf()) cand = cand.version()->right;
  return cand.key();
}

// Smallest key >= k, if any.
template <Augmentation Aug>
std::optional<Key> version_ceiling(const Version<Aug>* root, Key k)
    CBAT_REQUIRES(ebr_capability) {
  VersionRef<Aug> c = root;
  VersionRef<Aug> cand;  // subtree entirely >= k, if any
  while (!c.is_leaf()) {
    const Version<Aug>* v = c.version();
    if (k < v->key) {
      cand = v->right;
      c = v->left;
    } else {
      c = v->right;
    }
  }
  const Key lk = c.key();
  if (!is_sentinel_key(lk) && lk >= k) return lk;
  if (!cand) return std::nullopt;
  while (!cand.is_leaf()) cand = cand.version()->left;
  // The candidate's minimum can still be a sentinel (the kInf1 leaf sits in
  // the rightmost real subtree); that means no real key >= k exists.
  const Key ck = cand.key();
  if (is_sentinel_key(ck)) return std::nullopt;
  return ck;
}

// i-th smallest key within [lo, hi] (1-based): a composite order-statistic
// query answered with two rank descents plus one select descent, all on the
// same snapshot.
template <SizedAugmentation Aug>
std::optional<Key> version_select_in_range(const Version<Aug>* root, Key lo,
                                           Key hi, std::int64_t i)
    CBAT_REQUIRES(ebr_capability) {
  if (lo > hi || i < 1) return std::nullopt;
  const std::int64_t before = version_rank_less<Aug>(root, lo);
  const std::int64_t inside = version_rank<Aug>(root, hi) - before;
  if (i > inside) return std::nullopt;
  return version_select<Aug>(root, before + i);
}

// --- validation helpers (used by tests) ------------------------------------

// Checks paper Invariant 24 (v.aug == combine(children)) and the BST order
// of the version tree, and that every child word names either an internal
// child's version or a leaf whose key lies within the subtree's bounds.  A
// null child word fails.  Returns false on any violation.
template <Augmentation Aug>
bool version_tree_valid(VersionRef<Aug> c, Key lo, Key hi)
    CBAT_REQUIRES(ebr_capability) {
  if (c.is_leaf()) {
    const Key k = c.key();
    return k >= lo && k <= hi;
  }
  const Version<Aug>* v = c.version();
  if (!v->left || !v->right) return false;
  if (!(v->aug == Aug::combine(v->left.aug(), v->right.aug()))) return false;
  return version_tree_valid<Aug>(v->left, lo, std::min<Key>(hi, v->key - 1)) &&
         version_tree_valid<Aug>(v->right, std::max<Key>(lo, v->key), hi);
}

}  // namespace cbat
