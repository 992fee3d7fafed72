// Uniform set interface over every tree in the repository, used by the
// benchmark driver.  The paper's SetBench plays the same role.
//
// The actual contract (concepts, type erasure, name -> factory map) lives
// in src/api/ordered_set.h; this header keeps the benchmark-facing aliases
// so driver code and tests read naturally.
//
// Unaugmented structures implement rank exactly the way the paper
// prescribes for them: by brute-force traversal of a snapshot (their
// range_count already is that traversal).
#pragma once

#include <memory>
#include <string>

#include "api/ordered_set.h"

namespace cbat::bench {

using SetAdapter = api::AbstractOrderedSet;

// Instantiates one of the structure names used throughout the paper's
// figures ("BAT", "BAT-Del", "BAT-EagerDel", "FR-BST", "VcasBST",
// "VerlibBTree", "BundledCitrusTree"), a shard forest ("Sharded16-BAT",
// ...), or any structure registered later through StructureRegistry.
// Returns nullptr for unknown names.
inline std::unique_ptr<SetAdapter> make_structure(const std::string& name) {
  return api::StructureRegistry::instance().create(name);
}

}  // namespace cbat::bench
