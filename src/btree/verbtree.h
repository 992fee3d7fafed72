// VerBTree: the high-fanout concurrent B+tree baseline standing in for
// Verlib's B-tree (Blelloch & Wei, PPoPP 2024) — paper Table 1's
// "VerlibBTree", fanout 4-22.
//
// Design: a B+tree (fanout 16) with *optimistic lock coupling*: readers
// descend without locks, validating per-node seqlock versions; writers
// upgrade to a per-node spinlock at the leaf (plus the parent when
// splitting).  Full inner nodes are split proactively during the descent so
// a split never propagates more than one level.  Leaves are chained for
// range scans; leaves and inner nodes are never deallocated (no merges —
// deletes only empty leaves), so no reclamation is needed.
//
// Substitution note: Verlib achieves snapshot range queries with
// versioned pointers; we substitute per-leaf-atomic seqlock scans.  The
// cost profile the paper compares against — cache-friendly high-fanout
// point operations and Θ(range) range queries — is preserved.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "util/keys.h"

namespace cbat {

class VerBTree {
 public:
  static constexpr int kFanout = 16;   // max keys per inner node
  static constexpr int kLeafCap = 16;  // max keys per leaf

  VerBTree();
  ~VerBTree();
  VerBTree(const VerBTree&) = delete;
  VerBTree& operator=(const VerBTree&) = delete;

  bool insert(Key k);
  bool erase(Key k);
  bool contains(Key k) const;

  std::int64_t size() const;                        // Theta(n) chain scan
  std::int64_t rank(Key k) const;                   // Theta(rank)
  std::optional<Key> select(std::int64_t i) const;  // Theta(i)
  std::int64_t range_count(Key lo, Key hi) const;   // Theta(range)
  std::vector<Key> range_collect(Key lo, Key hi, std::size_t limit = 0) const;

  int height_slow() const;

 private:
  struct NodeBase {
    // shared: per-node seqlock word; the payload it versions shares the
    // line on purpose so a read is one cache fill.
    std::atomic<std::uint64_t> version{0};  // seqlock; odd = write-locked
    const bool leaf;
    explicit NodeBase(bool is_leaf) : leaf(is_leaf) {}
  };

  struct Inner : NodeBase {
    Inner() : NodeBase(false) {}
    int count = 0;  // number of separator keys; count+1 children
    Key keys[kFanout];
    NodeBase* children[kFanout + 1] = {};
  };

  struct Leaf : NodeBase {
    Leaf() : NodeBase(true) {}
    int count = 0;
    Key keys[kLeafCap];
    // shared: per-leaf link, same tradeoff as the version word above.
    std::atomic<Leaf*> next{nullptr};
  };

  // --- seqlock helpers ----------------------------------------------------
  static bool is_locked(std::uint64_t v) { return v & 1; }
  static std::uint64_t stable_version(const NodeBase* n);  // spins past locks
  static bool try_lock(NodeBase* n, std::uint64_t expected);
  static void unlock(NodeBase* n);

  static int child_index(const Inner* n, Key k);
  static int leaf_lower_bound(const Leaf* n, Key k);

  void split_inner(Inner* parent, int child_slot, Inner* child);
  void split_leaf(Inner* parent, int child_slot, Leaf* child);
  void grow_root(NodeBase* old_root);

  // Locates the leaf whose range covers k and returns it with a validated
  // version; retries internally on conflicts.
  const Leaf* locate_leaf(Key k, std::uint64_t* leaf_version) const;

  // shared: read-mostly root pointer; replaced only under root_mu_.
  std::atomic<NodeBase*> root_;
  Leaf* head_leaf_;       // leftmost leaf, never replaced
  std::mutex root_mu_;    // serializes root replacement only
  std::vector<NodeBase*> all_nodes_mu_protected_;  // for the destructor
  std::mutex nodes_mu_;
  void track(NodeBase* n);
};

}  // namespace cbat
