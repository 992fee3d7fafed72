// Tree node layout shared by the chromatic tree and BAT.
//
// A node is an LLX/SCX *record* (paper §3.1): its mutable fields (the two
// child pointers) may only change through a successful SCX, its `info`
// word names the last SCX that froze it (an ScxId, scx_record.h), and
// `marked` is the finalized bit set when the node is removed from the tree.
//
// The `version` pointer (BAT's supplementary fields, paper §4) is *not*
// part of the record: it is manipulated directly with CAS so augmentation
// does not interfere with chromatic-tree operations.
//
// A node is split in two halves one cache line apart.  The read half (this
// struct: key, weight, children) is what every search reads; the hot half
// (Node::Hot: info, marked, version), reached through hot(), is what LLX,
// SCX and Propagate write.  Propagate CASes the version of every node on an
// update's path, the root's on every update, so with both halves on one
// line each such CAS cost concurrent searches a miss on a line they only
// read.  The record model fixes which fields an SCX may change, not where
// they sit, so the split changes no step of LLX, SCX or Propagate.
// Pool<Node> carves the halves (reclamation/pool.h): the read halves of two
// nodes share one line and their hot halves the next, so a node still costs
// 64 bytes.  A node therefore exists only in a pool slot: a heap node would
// have no hot half, so operator new is deleted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

#include "llxscx/scx_record.h"
#include "util/keys.h"

namespace cbat {

struct Node {
  // The hot half starts exactly one line after the node (see pool.h).
  static constexpr std::size_t kHotOffset = 64;

  struct Hot {
    // `info` names the last SCX that froze this node by (slot, sequence),
    // kNoScx until one does; it holds no reference to release.
    // shared: LLX/SCX bookkeeping, written by every SCX that freezes or
    // finalizes this node.  The line holds one other node's hot half and
    // no word a search reads; padding each hot half to a line would add
    // half a line per node for a pair that is rarely written at once.
    std::atomic<ScxId> info{kNoScx};
    std::atomic<bool> marked{false};
    // shared: BAT's version word (type-erased; the augmented tree knows
    // the type: an internal node's Version, or a leaf's own tagged
    // address), CASed by every Propagate whose path crosses this node;
    // same line tradeoff as above.
    std::atomic<void*> version{nullptr};
  };

  // Immutable after construction.  Weight changes always allocate a
  // replacement node, which keeps weights readable without an LLX.
  Key key;
  std::int32_t weight;

  // Mutable fields protected by LLX/SCX.  Both null for leaves.  shared:
  // the read halves of two nodes share a line, written only by the SCXs
  // that swing a child; contention diffuses across the tree.
  std::atomic<Node*> child[2];

  Node(Key k, std::int32_t w, Node* left, Node* right) : key(k), weight(w) {
    // The hot half lives in the same pool slot, kHotOffset bytes on.
    ::new (static_cast<void*>(reinterpret_cast<std::byte*>(this) +
                              kHotOffset)) Hot;
    // relaxed: constructor stores; the node is private to this thread
    // until the SCX that links it in publishes with release ordering.
    child[0].store(left, std::memory_order_relaxed);
    child[1].store(right, std::memory_order_relaxed);
  }

  static void* operator new(std::size_t) = delete;

  Hot& hot() {
    return *std::launder(reinterpret_cast<Hot*>(
        reinterpret_cast<std::byte*>(this) + kHotOffset));
  }
  const Hot& hot() const {
    return *std::launder(reinterpret_cast<const Hot*>(
        reinterpret_cast<const std::byte*>(this) + kHotOffset));
  }

  bool is_leaf() const {
    return child[0].load(std::memory_order_acquire) == nullptr;
  }
  bool is_finalized() const {
    return hot().marked.load(std::memory_order_acquire);
  }
};
static_assert(sizeof(Node) <= 32 && sizeof(Node::Hot) <= 32,
              "each half of a node must fit in half a cache line");
// A version tree names a leaf by its address tagged in bit 0 and reads its
// key at that address (VersionRef, core/version.h).
static_assert(std::is_standard_layout_v<Node> && offsetof(Node, key) == 0 &&
                  alignof(Node) >= 2,
              "a leaf's tagged address must lead to its key");

// Direction helpers: children are indexed so that the search for key k at
// internal node n steps to child[ k < n->key ? 0 : 1 ].
inline int dir_of(Key k, const Node* n) { return k < n->key ? 0 : 1; }

}  // namespace cbat
