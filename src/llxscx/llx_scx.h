// LLX and SCX primitives (Brown–Ellen–Ruppert, PODC 2013).
//
// LLX(r) returns a consistent snapshot of r's mutable fields together with
// the SCX id observed in r.info.  SCX(V, R, fld, new) atomically
// changes one field and finalizes the records in R, succeeding only if no
// record in V was modified since the caller's LLX of it.  Both are built
// from single-word CAS with cooperative helping, exactly as in the paper.
//
// Descriptors are reused, not allocated (scx_record.h): each thread runs
// every SCX from its registry slot's one descriptor, whose status word (the
// paper's state and allFrozen fields) carries the sequence of the SCX it
// describes.  A helper changes that word only by CAS against the sequence
// it read, so a late helper never touches a later SCX, and it copies the
// descriptor's other fields before it helps, then re-reads the sequence
// (util/seqlock.h's reader side) and drops a copy that an owner's next SCX
// may have torn.  An SCX whose owner has started another has finished:
// committed or aborted.  LLX then reads a marked node as finalized, since
// marking starts only once every node is frozen, which commits the SCX,
// and an unmarked one as free to snapshot.
#pragma once

#include <atomic>

#include "llxscx/node.h"
#include "llxscx/scx_record.h"

namespace cbat {

// Result of a successful LLX: the SCX id observed plus a snapshot of the
// node's mutable fields (child pointers).
struct LlxSnap {
  Node* node = nullptr;
  ScxId info = kNoScx;
  Node* children[2] = {nullptr, nullptr};

  Node* left() const { return children[0]; }
  Node* right() const { return children[1]; }
  Node* child(int dir) const { return children[dir]; }
};

enum class LlxStatus { kOk, kFail, kFinalized };

// Attempts an LLX on r.  On kOk, *snap holds the snapshot.  kFail means a
// concurrent SCX interfered (we helped it); kFinalized means r has been
// removed from the tree.  Caller must hold an EbrGuard.
LlxStatus llx(Node* r, LlxSnap* snap);

// Performs an SCX.
//   v:             LLX snapshots of the records in V, in freeze order.
//                  v[0] must be the node containing *field.
//   num:           |V| (<= kMaxScxNodes)
//   finalize_from: index into v of the first record to finalize; records
//                  v[finalize_from..num) form R.
//   field:         the mutable field to change (a child pointer of v[0]).
//   new_value:     value to store.
// The expected old value is taken from v[0]'s snapshot.
// Returns true iff the SCX committed.  Caller must hold an EbrGuard.
bool scx(const LlxSnap* v, int num, int finalize_from,
         std::atomic<Node*>* field, Node* new_value);

// Test seam for scx_help: runs between a helper's copy of a descriptor and
// its re-read of the descriptor's sequence.
using ScxHelpHook = void (*)(void* ctx);

// Helps the SCX that `id` names, as an LLX that finds it in progress does:
// copies its descriptor, re-reads the sequence, and, if that SCX is still
// the descriptor's current one and in progress, runs the paper's Help on
// the copy.  Returns false when the copy is refused because the owner has
// moved on to a later SCX, true otherwise.  `in_window` (null in
// production) runs between the copy and the re-read.  Caller must hold an
// EbrGuard.
bool scx_help(ScxId id, ScxHelpHook in_window = nullptr, void* ctx = nullptr);

}  // namespace cbat
