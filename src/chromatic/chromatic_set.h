// Plain (unaugmented) chromatic-tree set.
//
// Thin facade over ChromaticTree<NoVersionPolicy> that opens the EBR guard
// per operation.  Used by the LLX/SCX and chromatic-tree tests and as a
// sanity baseline; the augmented trees live in src/core.
#pragma once

#include "chromatic/chromatic_tree.h"

namespace cbat {

class ChromaticSet {
 public:
  ChromaticSet();
  ~ChromaticSet();

  bool insert(Key k);
  bool erase(Key k);
  bool contains(Key k) const;

  // Theta(n) traversal of the live tree under an EBR guard, not a
  // snapshot: under concurrent rebalancing a rotation can move even a
  // long-completed key across the traversal frontier, so the count is
  // best-effort while updates run and exact whenever none is concurrent.
  std::int64_t size() const;

  std::size_t size_slow() const;
  ChromaticTree<NoVersionPolicy>::InvariantReport check_invariants() const;
  ChromaticTree<NoVersionPolicy>& tree() { return tree_; }

 private:
  ChromaticTree<NoVersionPolicy> tree_;
};

}  // namespace cbat
