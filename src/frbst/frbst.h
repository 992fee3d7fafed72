// FR-BST: the Fatourou–Ruppert lock-free augmented *unbalanced* BST
// (DISC 2024), the paper's principal augmented baseline (§3.2, Table 1).
//
// The node tree is the classic Ellen–Fatourou–Ruppert–van Breugel
// non-blocking leaf-oriented BST (PODC 2010): internal nodes carry an
// `update` word packing an operation state (CLEAN / IFLAG / DFLAG / MARK)
// with a pointer to an Info record; updates flag/mark the affected nodes
// with CAS and are helped to completion by anyone who encounters them.
//
// Augmentation follows §3.2: every internal node points to an immutable
// Version; updates Propagate along their recorded search path with a double
// Refresh per node.  As in BAT, a leaf stands in for its own ready version:
// its version word is its tagged address (VersionRef, core/version.h), so
// no leaf version is allocated, and an unlinked leaf lives two grace
// periods.  Unlike BAT there are no rotations, so new internal nodes can
// be created with a ready version (their children's versions are known and
// final at creation time) and Propagate never needs to re-descend or fill
// nil versions.  A failed update follows BatTree's rule: it propagates
// only when the root snapshot does not yet agree with its result, and
// otherwise returns linearized at its read of the root.
//
// Queries reuse version_queries.h on the same Version<Aug> type as BAT.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/version.h"
#include "core/version_queries.h"
#include "reclamation/descriptor.h"
#include "reclamation/ebr.h"
#include "reclamation/pool.h"
#include "util/backoff.h"
#include "util/counters.h"
#include "util/keys.h"
#include "util/prefetch.h"

namespace cbat {

namespace frbst_detail {

struct Info;  // forward

// Split like the chromatic tree's Node (llxscx/node.h), for the same
// reason: Propagate CASes the version of every node on an update's path.
// The EFRB search reads `update` at every level, so it stays in the read
// half with key and children, and only the version moves to the hot half,
// kHotOffset bytes after the node.  A node exists only in a pool slot.
struct FrNode {
  static constexpr std::size_t kHotOffset = 64;

  struct Hot {
    // shared: CASed by every Propagate whose path crosses this node; its
    // line holds one other node's hot half and no word a search reads,
    // as in llxscx/node.h.
    std::atomic<void*> version{nullptr};
  };

  Key key;
  // shared: per-node words; see the padding tradeoff note in
  // llxscx/node.h — contention diffuses across the tree.
  std::atomic<FrNode*> child[2];       // null for leaves
  std::atomic<std::uintptr_t> update;  // Info* | state (internal nodes)

  FrNode(Key k, FrNode* l, FrNode* r) : key(k), update(0) {
    ::new (static_cast<void*>(reinterpret_cast<std::byte*>(this) +
                              kHotOffset)) Hot;
    // relaxed: constructor stores; the node is private until the CAS
    // that links it in publishes with release ordering.
    child[0].store(l, std::memory_order_relaxed);
    child[1].store(r, std::memory_order_relaxed);
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
};
static_assert(sizeof(FrNode) <= 32 && sizeof(FrNode::Hot) <= 32,
              "each half of a node must fit in half a cache line");
// A version tree names a leaf by its address tagged in bit 0 and reads its
// key at that address (VersionRef, core/version.h).
static_assert(std::is_standard_layout_v<FrNode> &&
                  offsetof(FrNode, key) == 0 && alignof(FrNode) >= 2,
              "a leaf's tagged address must lead to its key");

// Update-word states (low 2 bits of the word).
enum State : std::uintptr_t { kClean = 0, kIFlag = 1, kDFlag = 2, kMark = 3 };

inline State state_of(std::uintptr_t w) { return static_cast<State>(w & 3); }
inline Info* info_of(std::uintptr_t w) {
  return reinterpret_cast<Info*>(w & ~std::uintptr_t{3});
}
inline std::uintptr_t pack(Info* i, State s) {
  return reinterpret_cast<std::uintptr_t>(i) | s;
}

struct Info : RefCountedDescriptor {
  bool is_insert = false;
  // IInfo fields
  FrNode* p = nullptr;
  FrNode* new_internal = nullptr;
  FrNode* l = nullptr;
  // DInfo extra fields
  FrNode* gp = nullptr;
  std::uintptr_t pupdate = 0;
};

}  // namespace frbst_detail

template <Augmentation Aug>
class FrBst {
 public:
  using AugValue = typename Aug::Value;
  using V = Version<Aug>;
  using R = VersionRef<Aug>;
  using FrNode = frbst_detail::FrNode;

  FrBst() {
    FrNode* l1 = mk_leaf(kInf1);
    FrNode* l2 = mk_leaf(kInf2);
    root_ = pool_new<FrNode>(kInf2, l1, l2);
    // The root is internal; give it a ready version like any other
    // internal node created with known children.
    set_internal_version(root_, ref_of(l1), ref_of(l2));
  }

  FrBst(const FrBst&) = delete;
  FrBst& operator=(const FrBst&) = delete;

  ~FrBst() {
    std::vector<FrNode*> stack{root_};
    while (!stack.empty()) {
      FrNode* n = stack.back();
      stack.pop_back();
      if (!n->is_leaf()) {
        // relaxed: destructor walk at quiescence; no concurrent access.
        stack.push_back(n->child[0].load(std::memory_order_relaxed));
        stack.push_back(n->child[1].load(std::memory_order_relaxed));
      }
      free_node(n);
    }
    Ebr::drain();
  }

  // --- updates -------------------------------------------------------------

  bool insert(Key k) {
    assert(k <= kMaxUserKey);
    EbrGuard g;
    if (do_insert(k)) {
      propagate(k);
      return true;
    }
    finish_failed_update(k, /*present=*/true);
    return false;
  }

  bool erase(Key k) {
    assert(k <= kMaxUserKey);
    EbrGuard g;
    if (do_erase(k)) {
      propagate(k);
      return true;
    }
    finish_failed_update(k, /*present=*/false);
    return false;
  }

  // --- queries (same snapshot semantics as BAT) ---------------------------

  bool contains(Key k) const {
    EbrGuard g;
    return version_contains<Aug>(root_version(), k);
  }
  std::int64_t size() const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_size<Aug>(root_version());
  }
  std::int64_t rank(Key k) const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_rank<Aug>(root_version(), k);
  }
  std::optional<Key> select(std::int64_t i) const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_select<Aug>(root_version(), i);
  }
  std::int64_t range_count(Key lo, Key hi) const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_range_count<Aug>(root_version(), lo, hi);
  }
  AugValue range_aggregate(Key lo, Key hi) const {
    EbrGuard g;
    return version_range_aggregate<Aug>(root_version(), lo, hi);
  }
  std::vector<Key> range_collect(Key lo, Key hi, std::size_t limit = 0) const {
    EbrGuard g;
    std::vector<Key> out;
    version_collect_range<Aug>(root_version(), lo, hi, &out, limit);
    return out;
  }

  const V* root_version_unsafe() const { return root_version(); }
  // The root node, for tests that walk the node tree at quiescence.
  const FrNode* root_node() const { return root_; }

  // Height of the node tree (sequential; the whole point of BAT is that
  // this can degenerate to O(n) here while staying O(log n) there).
  int height_slow() const { return height_rec(root_); }

 private:
  using Info = frbst_detail::Info;
  static constexpr auto kClean = frbst_detail::kClean;
  static constexpr auto kIFlag = frbst_detail::kIFlag;
  static constexpr auto kDFlag = frbst_detail::kDFlag;
  static constexpr auto kMark = frbst_detail::kMark;

  static frbst_detail::State state_of(std::uintptr_t w) {
    return frbst_detail::state_of(w);
  }
  static Info* info_of(std::uintptr_t w) { return frbst_detail::info_of(w); }
  static std::uintptr_t pack(Info* i, frbst_detail::State s) {
    return frbst_detail::pack(i, s);
  }

  // --- node/version lifecycle ---------------------------------------------

  // An internal node's version.
  static V* version_of(const FrNode* n) {
    return static_cast<V*>(n->hot().version.load(std::memory_order_acquire));
  }

  // Any node's version word: an internal node's version, or a leaf's own
  // tagged address.
  static R ref_of(const FrNode* n) {
    return R::of_word(n->hot().version.load(std::memory_order_acquire));
  }

  // A leaf's ready version (Definition 1) is a pure function of its key, so
  // the leaf stands in for it: its version word is its own tagged address.
  FrNode* mk_leaf(Key k) {
    auto* n = pool_new<FrNode>(k, nullptr, nullptr);
    // relaxed: the leaf is private until the CAS that links it in
    // publishes it, and its key with it, with release ordering.
    n->hot().version.store(R::leaf(n).word(), std::memory_order_relaxed);
    return n;
  }

  static void set_internal_version(FrNode* n, R vl, R vr) {
    auto* v =
        pool_new<V>(vl, vr, n->key, Aug::combine(vl.aug(), vr.aug()), nullptr);
    n->hot().version.store(v, std::memory_order_release);
  }

  // Frees n now: an internal node's final version is retired first (§6);
  // a leaf's word names the leaf itself.
  static void free_node(FrNode* n) {
    void* w = n->hot().version.load(std::memory_order_acquire);
    if (w != nullptr && !R::of_word(w).is_leaf()) {
      pool_retire(static_cast<V*>(w));
    }
    descriptor_unref(
        info_of(n->update.load(std::memory_order_acquire)));
    pool_delete(n);
  }

  // Runs one grace period after retire_node.  Version trees name leaves,
  // so a leaf is retired once more: a reader that pinned its epoch after
  // the unlink can still read a root naming it until Propagate catches up
  // (BatVersionPolicy::kVersionTreesNameLeaves).  A leaf owns no version
  // and no Info (EFRB flags only internal nodes), so the second retire
  // only frees its slot.
  static void node_deleter(void* p) {
    auto* n = static_cast<FrNode*>(p);
    if (n->is_leaf()) {
      Ebr::retire(n, [](void* q) { pool_delete(static_cast<FrNode*>(q)); });
      return;
    }
    free_node(n);
  }

  static void retire_node(FrNode* n) { Ebr::retire(n, &node_deleter); }

  // --- EFRB machinery -------------------------------------------------------

  struct SearchResult {
    FrNode* gp = nullptr;
    FrNode* p = nullptr;
    FrNode* l = nullptr;
    std::uintptr_t gpupdate = 0;
    std::uintptr_t pupdate = 0;
  };

  // Records the internal nodes visited in scratch().path for Propagate.
  SearchResult search(Key k) {
    SearchResult r;
    scratch().path.clear();
    r.l = root_;
    while (!r.l->is_leaf()) {
      r.gp = r.p;
      r.gpupdate = r.pupdate;
      r.p = r.l;
      r.pupdate = r.p->update.load(std::memory_order_acquire);
      const int d = k < r.l->key ? 0 : 1;
      scratch().path.push_back(r.p);
      // Propagate's refresh of p CASes p's version and reads its off-path
      // child's: hints, as in BatTree::propagate's first descent.
      prefetch_read(&r.p->hot());
      prefetch_read(&r.l->child[d ^ 1].load(std::memory_order_acquire)->hot());
      r.l = r.l->child[d].load(std::memory_order_acquire);
    }
    return r;
  }

  bool do_insert(Key k) {
    Backoff bo;
    while (true) {
      SearchResult s = search(k);
      if (s.l->key == k) return false;
      if (state_of(s.pupdate) != kClean) {
        help(s.pupdate);
        bo.pause();
        continue;
      }
      FrNode* nl = mk_leaf(k);
      FrNode* lc = mk_leaf(s.l->key);
      FrNode* ni = (k < s.l->key)
                       ? pool_new<FrNode>(std::max(k, s.l->key), nl, lc)
                       : pool_new<FrNode>(std::max(k, s.l->key), lc, nl);
      // Both children are fresh leaves, which stand in for their own
      // versions: the internal node's version is computable right now (no
      // nil versions in FR-BST).  relaxed: ni is private until the CAS
      // publishes it.
      set_internal_version(
          ni, ref_of(ni->child[0].load(std::memory_order_relaxed)),
          ref_of(ni->child[1].load(std::memory_order_relaxed)));
      auto* op = pool_new<Info>();
      op->is_insert = true;
      op->p = s.p;
      op->new_internal = ni;
      op->l = s.l;
      std::uintptr_t expected = s.pupdate;
      if (s.p->update.compare_exchange_strong(expected, pack(op, kIFlag),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        descriptor_ref(op);
        descriptor_retire_unref(info_of(s.pupdate));
        help_insert(op);
        descriptor_retire_unref(op);  // creator credit
        retire_node(s.l);             // replaced by its copy inside ni
        return true;
      }
      descriptor_retire_unref(op);  // never installed; credit sinks to zero
      free_node(nl);  // never published: freed at once
      free_node(lc);
      free_node(ni);
      help(expected);
      bo.pause();
    }
  }

  bool do_erase(Key k) {
    Backoff bo;
    while (true) {
      SearchResult s = search(k);
      if (s.l->key != k) return false;
      if (state_of(s.gpupdate) != kClean) {
        help(s.gpupdate);
        bo.pause();
        continue;
      }
      if (state_of(s.pupdate) != kClean) {
        help(s.pupdate);
        bo.pause();
        continue;
      }
      auto* op = pool_new<Info>();
      op->is_insert = false;
      op->gp = s.gp;
      op->p = s.p;
      op->l = s.l;
      op->pupdate = s.pupdate;
      std::uintptr_t expected = s.gpupdate;
      if (s.gp->update.compare_exchange_strong(expected, pack(op, kDFlag),
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        descriptor_ref(op);
        descriptor_retire_unref(info_of(s.gpupdate));
        const bool ok = help_delete(op);
        descriptor_retire_unref(op);  // creator credit
        if (ok) {
          retire_node(s.p);
          retire_node(s.l);
          return true;
        }
      } else {
        descriptor_retire_unref(op);
        help(expected);
      }
      bo.pause();
    }
  }

  void help(std::uintptr_t w) {
    Info* op = info_of(w);
    switch (state_of(w)) {
      case kIFlag:
        help_insert(op);
        break;
      case kMark:
        help_marked(op);
        break;
      case kDFlag:
        help_delete(op);
        break;
      case kClean:
        break;
    }
  }

  void cas_child(FrNode* parent, FrNode* old_child, FrNode* new_child) {
    for (int d = 0; d < 2; ++d) {
      FrNode* expected = old_child;
      if (parent->child[d].load(std::memory_order_acquire) == old_child) {
        parent->child[d].compare_exchange_strong(expected, new_child,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire);
        return;
      }
    }
  }

  void help_insert(Info* op) {
    cas_child(op->p, op->l, op->new_internal);
    std::uintptr_t expected = pack(op, kIFlag);
    op->p->update.compare_exchange_strong(expected, pack(op, kClean),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
    // Same pointer, new state: no descriptor reference change.
  }

  bool help_delete(Info* op) {
    std::uintptr_t expected = op->pupdate;
    const std::uintptr_t marked = pack(op, kMark);
    if (op->p->update.compare_exchange_strong(expected, marked,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      descriptor_ref(op);
      descriptor_retire_unref(info_of(op->pupdate));
      help_marked(op);
      return true;
    }
    if (expected == marked) {  // someone else marked for this same op
      help_marked(op);
      return true;
    }
    help(expected);
    // Backtrack: unflag the grandparent so the delete can retry.
    std::uintptr_t flagged = pack(op, kDFlag);
    op->gp->update.compare_exchange_strong(flagged, pack(op, kClean),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
    return false;
  }

  void help_marked(Info* op) {
    // Splice p out: gp's child pointer moves from p to p's other child.
    FrNode* c0 = op->p->child[0].load(std::memory_order_acquire);
    FrNode* sibling =
        (c0 == op->l) ? op->p->child[1].load(std::memory_order_acquire) : c0;
    cas_child(op->gp, op->p, sibling);
    std::uintptr_t expected = pack(op, kDFlag);
    op->gp->update.compare_exchange_strong(expected, pack(op, kClean),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
  }

  // --- FR propagation (§3.2): double refresh up the recorded path ---------

  struct Scratch {
    std::vector<FrNode*> path;
    std::vector<V*> to_retire;
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  V* root_version() const { return version_of(root_); }

  // One refresh attempt; returns the replaced version on success.
  bool refresh(FrNode* x, V** replaced) {
    V* old = version_of(x);
    FrNode* xl;
    R vl;
    do {
      xl = x->child[0].load(std::memory_order_acquire);
      vl = ref_of(xl);
    } while (x->child[0].load(std::memory_order_acquire) != xl);
    FrNode* xr;
    R vr;
    do {
      xr = x->child[1].load(std::memory_order_acquire);
      vr = ref_of(xr);
    } while (x->child[1].load(std::memory_order_acquire) != xr);
    auto* nv =
        pool_new<V>(vl, vr, x->key, Aug::combine(vl.aug(), vr.aug()), nullptr);
    Counters::bump(Counter::kRefreshCas);
    void* expected = old;
    if (x->hot().version.compare_exchange_strong(expected, nv,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
      *replaced = old;
      return true;
    }
    Counters::bump(Counter::kRefreshCasFail);
    pool_delete(nv);
    return false;
  }

  // BatTree::finish_failed_update's rule: a failed update whose root
  // snapshot agrees with it is linearized at that read and writes nothing.
  // The search already prefetched the hot halves of the path it recorded;
  // the prefetches here add the versions they point to, the lines the
  // root snapshot's descent for k usually reads.  The descent ends on the
  // leaf's key, which the search read last.  Hints only.
  void finish_failed_update(Key k, bool present)
      CBAT_REQUIRES(ebr_capability) {
    for (const FrNode* x : scratch().path) prefetch_read(version_of(x));
    if (version_contains<Aug>(root_version(), k) == present) {
      Counters::bump(Counter::kRootAnsweredUpdates);
      return;
    }
    propagate(k);
  }

  void propagate(Key k) {
    Counters::bump(Counter::kPropagateCalls);
    Scratch& s = scratch();
    s.to_retire.clear();
    // Hints only, as in BatTree::prefetch_refresh_inputs: the off-path
    // children's augs and the pool slots the refreshes will write.
    for (const FrNode* x : s.path) {
      ref_of(x->child[k < x->key ? 1 : 0].load(std::memory_order_acquire))
          .prefetch();
    }
    Pool<V>::prefetch(s.path.size());
    // Pop the recorded root-to-leaf path: deepest internal node first.
    for (auto it = s.path.rbegin(); it != s.path.rend(); ++it) {
      FrNode* x = *it;
      Counters::bump(Counter::kPropagateNodes);
      Counters::bump(Counter::kSearchPathNodes);
      V* replaced = nullptr;
      if (refresh(x, &replaced)) {
        s.to_retire.push_back(replaced);
      } else if (refresh(x, &replaced)) {
        s.to_retire.push_back(replaced);
      }
    }
    for (V* v : s.to_retire) pool_retire(v);
  }

  int height_rec(const FrNode* n) const {
    if (n->is_leaf()) return 0;
    // relaxed: sequential diagnostic; callers run it at quiescence.
    return 1 + std::max(
                   height_rec(n->child[0].load(std::memory_order_relaxed)),
                   height_rec(n->child[1].load(std::memory_order_relaxed)));
  }

  FrNode* root_;
};

}  // namespace cbat
