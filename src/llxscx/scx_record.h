// SCX operation descriptors (paper §3.1; Brown–Ellen–Ruppert 2013).
#pragma once

#include <atomic>
#include <cstdint>

#include "llxscx/node.h"
#include "reclamation/descriptor.h"

namespace cbat {

// The chromatic tree's largest SCXs (W-FAR, W-NEAR) depend on 5 records.
inline constexpr int kMaxScxNodes = 5;

struct ScxRecord : RefCountedDescriptor {
  enum State : int { kInProgress = 0, kCommitted = 1, kAborted = 2 };

  // shared: descriptors are short-lived and pool-recycled into slots that
  // start on a cache line, so these words share a line only with this
  // record's own fields; padding them apart would buy a window of a few
  // helps with a third line per record.
  std::atomic<int> state{kInProgress};
  std::atomic<bool> all_frozen{false};

  // |V|, and R's first index: nodes[finalize_from .. num_nodes) are
  // finalized on commit.  Both at most kMaxScxNodes (scx() checks).
  std::uint8_t num_nodes = 0;
  std::uint8_t finalize_from = 1;

  // V: the records this SCX depends on, in freeze order; infos[i] is the
  // descriptor observed by the caller's LLX of nodes[i].
  Node* nodes[kMaxScxNodes] = {};
  ScxRecord* infos[kMaxScxNodes] = {};

  // The single field update: *field goes old_value -> new_value.
  std::atomic<Node*>* field = nullptr;
  Node* old_value = nullptr;
  Node* new_value = nullptr;
};
// Two cache lines: every node an SCX freezes and leaves in place keeps
// its record alive through `info` until its next freeze.
static_assert(sizeof(ScxRecord) <= 128);

// Statically allocated descriptor used as the initial `info` value of fresh
// nodes: permanently Committed, never reclaimed.
ScxRecord* scx_initial_record();

}  // namespace cbat
