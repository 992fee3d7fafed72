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

  // Theta(n) traversal under an EBR guard; satisfies api::OrderedSet.
  std::int64_t size() const;

  // Consistency introspection (api::ConsistencyIntrospectable): size()
  // traverses the live tree, not a snapshot.  Under concurrent
  // *rebalancing* a rotation can move even a long-completed key across
  // the traversal frontier, so the count is best-effort while updates
  // run — strictly weaker than a snapshot that pins an immutable cut
  // (docs/ARCHITECTURE.md spells out the difference).  Exact whenever no
  // update is concurrent.  Reported as kQuiescentlyConsistent, the API's
  // weaker-than-linearizable bucket.
  static constexpr bool composite_queries_linearizable() { return false; }

  std::size_t size_slow() const;
  ChromaticTree<NoVersionPolicy>::InvariantReport check_invariants() const;
  ChromaticTree<NoVersionPolicy>& tree() { return tree_; }

 private:
  ChromaticTree<NoVersionPolicy> tree_;
};

}  // namespace cbat
