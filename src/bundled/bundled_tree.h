// BundledTree: lock-based internal BST with timestamped "bundles" on its
// edges, standing in for the BundledCitrusTree baseline (Nelson-Slivon,
// Hassan, Palmieri — PPoPP 2022; paper Table 1: lock-based, unbalanced,
// fanout 2, linearizable range queries).
//
// Every child pointer and every node's logical-presence flag is a bundle: a
// timestamped version list (we reuse the vCAS version-list machinery, which
// implements the same idea).  Updates take per-node locks and push new
// bundle entries; range queries take a snapshot timestamp and traverse the
// tree "as of" that time, so they are linearizable and cost Θ(range +
// height) like the original.
//
// Substitution notes: deletions are logical (presence flag) and the
// physical structure is append-only, where Citrus unlinks nodes under RCU.
// Structure nodes are freed by the destructor; superseded bundle entries
// are truncated past the oldest active snapshot exactly as in VcasBST.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "reclamation/ebr.h"
#include "util/keys.h"
#include "vcasbst/vcas.h"

namespace cbat {

class BundledTree {
 public:
  BundledTree();
  ~BundledTree();
  BundledTree(const BundledTree&) = delete;
  BundledTree& operator=(const BundledTree&) = delete;

  bool insert(Key k);
  bool erase(Key k);
  bool contains(Key k) const;

  std::int64_t size() const;
  std::int64_t rank(Key k) const;                   // Theta(rank)
  std::optional<Key> select(std::int64_t i) const;  // Theta(i)
  std::int64_t range_count(Key lo, Key hi) const;   // Theta(range)
  std::vector<Key> range_collect(Key lo, Key hi, std::size_t limit = 0) const;

  int height_slow() const;

 private:
  struct BNode {
    const Key key;
    std::mutex mu;
    VersionedPtr<BNode> child[2];
    VersionedPtr<void> present;  // (void*)1 = logically present

    BNode(Key k, bool pres) : key(k) {
      child[0].init(nullptr);
      child[1].init(nullptr);
      present.init(pres ? kPresentTag : nullptr);
    }
  };

  static inline void* const kPresentTag = reinterpret_cast<void*>(1);

  struct SnapshotScope {
    EbrGuard ebr;
    SnapshotRegistry::Guard reg;
    std::uint64_t ts;
    SnapshotScope() : reg(VcasClock::now()), ts(VcasClock::take_snapshot()) {}
  };

  // Newest-version traversal to the node holding k (or null) plus the last
  // node on the path (the attach parent when absent).
  BNode* find_node(Key k, BNode** parent, int* dir) const;

  std::int64_t count_rec(const BNode* n, std::uint64_t t, Key lo,
                         Key hi) const;
  void collect_rec(const BNode* n, std::uint64_t t, Key lo, Key hi,
                   std::vector<Key>* out, std::size_t limit) const;
  int height_rec(const BNode* n) const;

  BNode* root_;  // sentinel (key kInf2, never present, never removed)
};

}  // namespace cbat
