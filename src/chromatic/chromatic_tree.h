// Lock-free chromatic tree (Brown–Ellen–Ruppert, PPoPP 2014; Nurmi &
// Soisalon-Soininen 1996) — the balanced BST substrate under BAT.
//
// The tree is leaf-oriented: the set's keys live in the leaves; internal
// nodes only direct searches (left subtree holds keys < node.key).  Each
// node carries a weight; the *weighted path invariant* says every
// root-to-leaf path inside the real tree (under root.left) has the same
// weight sum.  A perfectly balanced (red-black) state additionally has no
// "red-red" edge (weight-0 child of a weight-0 parent) and no "overweight"
// node (weight >= 2).  Updates may create at most one such violation each;
// `fix_to_key` repairs them afterwards with local transformations that
// preserve the weighted path invariant.  All structural changes go through
// SCX so they are atomic and lock-free.
//
// Sentinels: the root has key kInf2 and its right child is the leaf
// (kInf2); the rightmost leaf of the real tree is (kInf1).  The root node
// is never replaced, which BAT relies on (stable Root, paper §4).
//
// The Policy template parameter lets BAT apply the paper's Version
// Initialization Rules (Definition 1) whenever the tree allocates a node,
// and retire version objects when nodes are freed.  The plain set uses
// NoVersionPolicy.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "llxscx/llx_scx.h"
#include "reclamation/ebr.h"
#include "reclamation/pool.h"
#include "util/backoff.h"
#include "util/counters.h"
#include "util/keys.h"

namespace cbat {

// Policy with no augmentation: version pointers stay null.
struct NoVersionPolicy {
  static void init_leaf(Node*) {}
  static void init_internal(Node*) {}
  // Insertion patches have both children's versions available at creation
  // (two fresh leaves), so policies may initialize the new internal node's
  // version eagerly instead of leaving it nil; the nil rule (paper
  // Definition 1, rule 3) is only *required* for rebalancing patches,
  // whose subtrees carry arrival points the new node must not miss
  // (paper §4.1).  Eager initialization keeps Propagate from paying a
  // recursive RefreshNil on every insert.
  static void init_internal_for_insert(Node* n, Node*, Node*) {
    init_internal(n);
  }
  static void on_node_free(Node*) {}
};

// Result of a root-to-leaf search.
struct ChromaticSearch {
  Node* gp = nullptr;
  Node* p = nullptr;
  Node* l = nullptr;
  int depth = 0;  // number of edges traversed
};

template <class Policy>
class ChromaticTree {
 public:
  ChromaticTree() {
    Node* sentinel_leaf1 = mk_leaf(kInf1, 1);
    Node* sentinel_leaf2 = mk_leaf(kInf2, 1);
    root_ = mk_internal(kInf2, 1, sentinel_leaf1, sentinel_leaf2);
  }

  ChromaticTree(const ChromaticTree&) = delete;
  ChromaticTree& operator=(const ChromaticTree&) = delete;

  // Requires quiescence: no concurrent operations on any tree sharing the
  // global EBR instance.
  ~ChromaticTree() {
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (!n->is_leaf()) {
        // relaxed: destructor walk at quiescence; no concurrent access.
        stack.push_back(n->child[0].load(std::memory_order_relaxed));
        stack.push_back(n->child[1].load(std::memory_order_relaxed));
      }
      node_deleter(n);
    }
    Ebr::drain();
  }

  Node* root() const { return root_; }

  // Leaf-oriented search; never blocks, reads only child pointers.
  ChromaticSearch search(Key k) const {
    ChromaticSearch s;
    s.l = root_;
    while (!s.l->is_leaf()) {
      s.gp = s.p;
      s.p = s.l;
      s.l = s.l->child[dir_of(k, s.l)].load(std::memory_order_acquire);
      ++s.depth;
    }
    return s;
  }

  bool contains(Key k) const {
    assert(k <= kMaxUserKey);
    return search(k).l->key == k;
  }

  // CTInsert (paper §3.1).  Returns true iff k was absent.  Caller holds an
  // EbrGuard.
  bool insert(Key k) {
    assert(k <= kMaxUserKey);
    Backoff bo;
    while (true) {
      ChromaticSearch s = search(k);
      if (s.l->key == k) return false;
      LlxSnap ps, ls;
      if (llx(s.p, &ps) != LlxStatus::kOk) {
        bo.pause();
        continue;
      }
      const int d = dir_of(k, s.p);
      if (ps.child(d) != s.l) continue;  // stale search; retry
      if (llx(s.l, &ls) != LlxStatus::kOk) {
        bo.pause();
        continue;
      }
      // Replace leaf l by internal(new leaf(k), copy of l); the internal
      // node absorbs one unit of l's weight so path sums are unchanged.
      Node* nl = mk_leaf(k, 1);
      Node* lc = mk_leaf(s.l->key, 1);
      const std::int32_t iw =
          (s.p == root_) ? 1 : std::max<std::int32_t>(s.l->weight - 1, 0);
      const Key ik = std::max(k, s.l->key);
      Node* ni = (k < s.l->key) ? mk_internal(ik, iw, nl, lc)
                                : mk_internal(ik, iw, lc, nl);
      // relaxed: ni is a fresh node private to this thread; the SCX
      // below publishes it with release ordering.
      Policy::init_internal_for_insert(
          ni, ni->child[0].load(std::memory_order_relaxed),
          ni->child[1].load(std::memory_order_relaxed));
      const bool red_red = (iw == 0 && s.p->weight == 0);
      LlxSnap v[2] = {ps, ls};
      if (scx(v, 2, 1, &s.p->child[d], ni)) {
        retire_node(s.l);
        if (red_red) fix_to_key(k);
        return true;
      }
      dispose_unpublished(ni);
      dispose_unpublished(nl);
      dispose_unpublished(lc);
      bo.pause();
    }
  }

  // CTDelete (paper §3.1).  Returns true iff k was present.  Caller holds
  // an EbrGuard.
  bool erase(Key k) {
    assert(k <= kMaxUserKey);
    Backoff bo;
    while (true) {
      ChromaticSearch s = search(k);
      if (s.l->key != k) return false;
      // A real leaf always has a real parent and grandparent (the rightmost
      // leaf under root.left is the kInf1 sentinel, so a real leaf can never
      // be root.left).
      assert(s.gp != nullptr);
      LlxSnap gps, ps, ls, sibs;
      if (llx(s.gp, &gps) != LlxStatus::kOk) {
        bo.pause();
        continue;
      }
      const int dp = dir_of(k, s.gp);
      if (gps.child(dp) != s.p) continue;
      if (llx(s.p, &ps) != LlxStatus::kOk) {
        bo.pause();
        continue;
      }
      const int dl = dir_of(k, s.p);
      if (ps.child(dl) != s.l) continue;
      Node* sib = ps.child(1 - dl);
      if (llx(sib, &sibs) != LlxStatus::kOk) {
        bo.pause();
        continue;
      }
      if (llx(s.l, &ls) != LlxStatus::kOk) {
        bo.pause();
        continue;
      }
      // The sibling's copy absorbs p's weight.
      const std::int32_t w =
          (s.gp == root_) ? 1 : s.p->weight + sib->weight;
      Node* s2 = clone_with_weight(sib, sibs, w);
      const bool overweight = (w >= 2 && s.gp != root_);
      LlxSnap v[4] = {gps, ps, sibs, ls};
      if (scx(v, 4, 1, &s.gp->child[dp], s2)) {
        retire_node(s.p);
        retire_node(sib);
        retire_node(s.l);
        if (overweight) fix_to_key(k);
        return true;
      }
      dispose_unpublished(s2);
      bo.pause();
    }
  }

  // --- introspection for tests & statistics -----------------------------

  // Number of real keys (sequential; call at quiescence).
  std::size_t size_slow() const {
    std::size_t n = 0;
    count_leaves(root_, n);
    return n;
  }

  struct InvariantReport {
    bool bst_order = true;
    bool leaf_oriented = true;
    bool path_sums_equal = true;
    bool leaves_positive_weight = true;
    std::size_t red_red_violations = 0;
    std::size_t overweight_violations = 0;
    std::size_t real_keys = 0;
    int height = 0;

    bool balanced_clean() const {
      return structurally_ok() && red_red_violations == 0 &&
             overweight_violations == 0;
    }
    bool structurally_ok() const {
      return bst_order && leaf_oriented && path_sums_equal &&
             leaves_positive_weight;
    }
  };

  // Full structural check (sequential; call at quiescence).
  InvariantReport check_invariants() const {
    InvariantReport r;
    // relaxed: sequential checker, called at quiescence per the contract.
    // The real tree lives under root.left; its paths must share one sum.
    Node* top = root_->child[0].load(std::memory_order_relaxed);
    std::int64_t expected_sum = -1;
    check_rec(top, std::numeric_limits<Key>::min(), kInf1, 0, 0, expected_sum,
              r, /*parent_weight=*/1);
    // relaxed: same quiescence contract as above.
    Node* right = root_->child[1].load(std::memory_order_relaxed);
    if (!right->is_leaf() || right->key != kInf2) r.leaf_oriented = false;
    return r;
  }

  // Repairs every violation reachable on the search path of k; exposed so
  // tests can drive rebalancing directly.
  void fix_to_key(Key k) {
    while (true) {
      Node* ggp = nullptr;
      Node* gp = nullptr;
      Node* p = nullptr;
      Node* l = root_;
      bool found = false;
      while (!l->is_leaf()) {
        ggp = gp;
        gp = p;
        p = l;
        l = l->child[dir_of(k, l)].load(std::memory_order_acquire);
        if (l->weight >= 2 && p != root_) {
          try_fix_overweight(k, gp, p, l);
          found = true;
          break;
        }
        if (l->weight == 0 && p->weight == 0) {
          try_fix_red_red(k, ggp, gp, p, l);
          found = true;
          break;
        }
      }
      if (!found) return;  // clean pass: nothing on this path
    }
  }

 private:
  // --- node lifecycle ----------------------------------------------------

  Node* mk_leaf(Key k, std::int32_t w) {
    Node* n = pool_new<Node>(k, w, nullptr, nullptr);
    Policy::init_leaf(n);
    return n;
  }

  Node* mk_internal(Key k, std::int32_t w, Node* left, Node* right) {
    Node* n = pool_new<Node>(k, w, left, right);
    Policy::init_internal(n);
    return n;
  }

  Node* clone_with_weight(Node* n, const LlxSnap& snap, std::int32_t w) {
    if (n->is_leaf()) return mk_leaf(n->key, w);
    return mk_internal(n->key, w, snap.child(0), snap.child(1));
  }

  static void node_deleter(void* p) {
    Node* n = static_cast<Node*>(p);
    Policy::on_node_free(n);
    release_node_info(n);
    pool_delete(n);
  }

  void retire_node(Node* n) { Ebr::retire(n, &node_deleter); }

  // For patch nodes that were never published (failed SCX).
  void dispose_unpublished(Node* n) { node_deleter(n); }

  // --- rebalancing -------------------------------------------------------
  // The transformations and their weight rules follow Brown–Ellen–Ruppert
  // (PPoPP 2014) and Nurmi & Soisalon-Soininen (1996).

  // Weight for a node being installed as a child of `parent`: the node at
  // root.left is pinned to weight 1 (a uniform shift of all real paths).
  std::int32_t clamp_weight(Node* parent, std::int32_t w) const {
    return parent == root_ ? 1 : w;
  }

  bool try_fix_red_red(Key k, Node* ggp, Node* gp, Node* p, Node* l) {
    Counters::bump(Counter::kRebalanceSteps);
    if (ggp == nullptr || gp == nullptr) return false;
    if (gp->weight == 0) return false;  // a higher violation exists; restart
    LlxSnap ggps, gps, ps, ls, ss;
    if (llx(ggp, &ggps) != LlxStatus::kOk) return false;
    const int dgg = dir_of(k, ggp);
    if (ggps.child(dgg) != gp) return false;
    if (llx(gp, &gps) != LlxStatus::kOk) return false;
    const int dgp = dir_of(k, gp);
    if (gps.child(dgp) != p) return false;
    if (llx(p, &ps) != LlxStatus::kOk) return false;
    const int dl = dir_of(k, p);
    if (ps.child(dl) != l) return false;
    Node* s = gps.child(1 - dgp);  // uncle

    if (s->weight == 0) {
      // BLK: recolour.  gp absorbs one unit; p and s become weight 1.
      if (s->is_leaf()) return false;  // red leaf: transient anomaly, retry
      if (llx(s, &ss) != LlxStatus::kOk) return false;
      Node* p2 = mk_internal(p->key, 1, ps.child(0), ps.child(1));
      Node* s2 = mk_internal(s->key, 1, ss.child(0), ss.child(1));
      Node* g2 = (dgp == 0)
                     ? mk_internal(gp->key, clamp_weight(ggp, gp->weight - 1),
                                   p2, s2)
                     : mk_internal(gp->key, clamp_weight(ggp, gp->weight - 1),
                                   s2, p2);
      LlxSnap v[4] = {ggps, gps, ps, ss};
      if (scx(v, 4, 1, &ggp->child[dgg], g2)) {
        retire_node(gp);
        retire_node(p);
        retire_node(s);
        return true;
      }
      dispose_unpublished(g2);
      dispose_unpublished(p2);
      dispose_unpublished(s2);
      return false;
    }

    if (dl == dgp) {
      // RB1: single rotation lifting p over gp.
      Node* g2;
      Node* ptop;
      if (dgp == 0) {
        g2 = mk_internal(gp->key, 0, ps.child(1), s);
        ptop = mk_internal(p->key, clamp_weight(ggp, gp->weight), l, g2);
      } else {
        g2 = mk_internal(gp->key, 0, s, ps.child(0));
        ptop = mk_internal(p->key, clamp_weight(ggp, gp->weight), g2, l);
      }
      LlxSnap v[3] = {ggps, gps, ps};
      if (scx(v, 3, 1, &ggp->child[dgg], ptop)) {
        retire_node(gp);
        retire_node(p);
        return true;
      }
      dispose_unpublished(ptop);
      dispose_unpublished(g2);
      return false;
    }

    // RB2: double rotation lifting l over p and gp (l is the inner child).
    if (llx(l, &ls) != LlxStatus::kOk) return false;
    Node* p2;
    Node* g2;
    Node* ltop;
    if (dgp == 0) {
      p2 = mk_internal(p->key, 0, ps.child(0), ls.child(0));
      g2 = mk_internal(gp->key, 0, ls.child(1), s);
      ltop = mk_internal(l->key, clamp_weight(ggp, gp->weight), p2, g2);
    } else {
      g2 = mk_internal(gp->key, 0, s, ls.child(0));
      p2 = mk_internal(p->key, 0, ls.child(1), ps.child(1));
      ltop = mk_internal(l->key, clamp_weight(ggp, gp->weight), g2, p2);
    }
    LlxSnap v[4] = {ggps, gps, ps, ls};
    if (scx(v, 4, 1, &ggp->child[dgg], ltop)) {
      retire_node(gp);
      retire_node(p);
      retire_node(l);
      return true;
    }
    dispose_unpublished(ltop);
    dispose_unpublished(p2);
    dispose_unpublished(g2);
    return false;
  }

  bool try_fix_overweight(Key k, Node* gp, Node* p, Node* l) {
    Counters::bump(Counter::kRebalanceSteps);
    if (gp == nullptr) return false;
    LlxSnap gps, ps, ls, ss, ns;
    if (llx(gp, &gps) != LlxStatus::kOk) return false;
    const int dp = dir_of(k, gp);
    if (gps.child(dp) != p) return false;
    if (llx(p, &ps) != LlxStatus::kOk) return false;
    const int dl = dir_of(k, p);
    if (ps.child(dl) != l) return false;
    Node* s = ps.child(1 - dl);

    if (s->weight == 0) {
      // RED-SIB: rotate the red sibling above p; l keeps its violation one
      // level deeper but with a new sibling (the near nephew).
      if (s->is_leaf()) return false;  // impossible in a legal state; retry
      if (llx(s, &ss) != LlxStatus::kOk) return false;
      Node* p2;
      Node* stop;
      if (dl == 0) {
        p2 = mk_internal(p->key, 0, l, ss.child(0));
        stop =
            mk_internal(s->key, clamp_weight(gp, p->weight), p2, ss.child(1));
      } else {
        p2 = mk_internal(p->key, 0, ss.child(1), l);
        stop =
            mk_internal(s->key, clamp_weight(gp, p->weight), ss.child(0), p2);
      }
      LlxSnap v[3] = {gps, ps, ss};
      if (scx(v, 3, 1, &gp->child[dp], stop)) {
        retire_node(p);
        retire_node(s);
        return true;
      }
      dispose_unpublished(stop);
      dispose_unpublished(p2);
      return false;
    }

    // Sibling has weight >= 1.
    const bool s_leaf = s->is_leaf();
    if (llx(s, &ss) != LlxStatus::kOk) return false;
    Node* sl = s_leaf ? nullptr : ss.child(dl);      // near nephew
    Node* sr = s_leaf ? nullptr : ss.child(1 - dl);  // far nephew

    const bool can_push =
        s->weight >= 2 || (!s_leaf && sl->weight >= 1 && sr->weight >= 1);
    if (can_push) {
      // PUSH: move one unit of weight from both children up into p.
      if (llx(l, &ls) != LlxStatus::kOk) return false;
      Node* l2 = clone_with_weight(l, ls, l->weight - 1);
      Node* s2 = clone_with_weight(s, ss, s->weight - 1);
      Node* p2 =
          (dl == 0)
              ? mk_internal(p->key, clamp_weight(gp, p->weight + 1), l2, s2)
              : mk_internal(p->key, clamp_weight(gp, p->weight + 1), s2, l2);
      LlxSnap v[4] = {gps, ps, ls, ss};
      if (scx(v, 4, 1, &gp->child[dp], p2)) {
        retire_node(p);
        retire_node(l);
        retire_node(s);
        return true;
      }
      dispose_unpublished(p2);
      dispose_unpublished(l2);
      dispose_unpublished(s2);
      return false;
    }
    if (s_leaf) return false;  // weight-1 leaf sibling of an overweight node
                               // cannot satisfy the path invariant; retry

    if (sr->weight == 0) {
      // W-FAR: single rotation towards l (far nephew is red).  s.weight==1.
      if (sr->is_leaf()) return false;
      if (llx(l, &ls) != LlxStatus::kOk) return false;
      if (llx(sr, &ns) != LlxStatus::kOk) return false;
      Node* l2 = clone_with_weight(l, ls, l->weight - 1);
      Node* sr2 = clone_with_weight(sr, ns, 1);
      Node* p2;
      Node* stop;
      if (dl == 0) {
        p2 = mk_internal(p->key, 1, l2, sl);
        stop = mk_internal(s->key, clamp_weight(gp, p->weight), p2, sr2);
      } else {
        p2 = mk_internal(p->key, 1, sl, l2);
        stop = mk_internal(s->key, clamp_weight(gp, p->weight), sr2, p2);
      }
      LlxSnap v[5] = {gps, ps, ls, ss, ns};
      if (scx(v, 5, 1, &gp->child[dp], stop)) {
        retire_node(p);
        retire_node(l);
        retire_node(s);
        retire_node(sr);
        return true;
      }
      dispose_unpublished(stop);
      dispose_unpublished(p2);
      dispose_unpublished(l2);
      dispose_unpublished(sr2);
      return false;
    }

    if (sl->weight == 0) {
      // W-NEAR: double rotation lifting the near nephew.  s.weight==1.
      if (sl->is_leaf()) return false;
      if (llx(l, &ls) != LlxStatus::kOk) return false;
      if (llx(sl, &ns) != LlxStatus::kOk) return false;
      Node* l2 = clone_with_weight(l, ls, l->weight - 1);
      Node* p2;
      Node* s2;
      Node* sltop;
      if (dl == 0) {
        p2 = mk_internal(p->key, 1, l2, ns.child(0));
        s2 = mk_internal(s->key, 1, ns.child(1), sr);
        sltop = mk_internal(sl->key, clamp_weight(gp, p->weight), p2, s2);
      } else {
        s2 = mk_internal(s->key, 1, sr, ns.child(0));
        p2 = mk_internal(p->key, 1, ns.child(1), l2);
        sltop = mk_internal(sl->key, clamp_weight(gp, p->weight), s2, p2);
      }
      LlxSnap v[5] = {gps, ps, ls, ss, ns};
      if (scx(v, 5, 1, &gp->child[dp], sltop)) {
        retire_node(p);
        retire_node(l);
        retire_node(s);
        retire_node(sl);
        return true;
      }
      dispose_unpublished(sltop);
      dispose_unpublished(p2);
      dispose_unpublished(s2);
      dispose_unpublished(l2);
      return false;
    }
    return false;  // concurrent modification produced a shape we cannot fix
  }

  // --- validation helpers -------------------------------------------------

  void count_leaves(Node* n, std::size_t& acc) const {
    if (n->is_leaf()) {
      if (!is_sentinel_key(n->key)) ++acc;
      return;
    }
    // relaxed: sequential helper for the quiescent checker above.
    count_leaves(n->child[0].load(std::memory_order_relaxed), acc);
    count_leaves(n->child[1].load(std::memory_order_relaxed), acc);
  }

  void check_rec(Node* n, Key lo, Key hi, std::int64_t sum, int depth,
                 std::int64_t& expected_sum, InvariantReport& r,
                 std::int32_t parent_weight) const {
    sum += n->weight;
    r.height = std::max(r.height, depth);
    if (n->weight == 0 && parent_weight == 0) ++r.red_red_violations;
    if (n->weight >= 2) ++r.overweight_violations;
    if (n->is_leaf()) {
      if (n->weight < 1) r.leaves_positive_weight = false;
      if (!is_sentinel_key(n->key)) {
        ++r.real_keys;
        if (n->key < lo || n->key > hi) r.bst_order = false;
      }
      if (expected_sum < 0) expected_sum = sum;
      if (sum != expected_sum) r.path_sums_equal = false;
      return;
    }
    // relaxed: sequential helper for the quiescent checker above.
    Node* c0 = n->child[0].load(std::memory_order_relaxed);
    Node* c1 = n->child[1].load(std::memory_order_relaxed);
    if (c0 == nullptr || c1 == nullptr) {
      r.leaf_oriented = false;
      return;
    }
    check_rec(c0, lo, std::min<Key>(hi, n->key - 1), sum, depth + 1,
              expected_sum, r, n->weight);
    check_rec(c1, std::max<Key>(lo, n->key), hi, sum, depth + 1, expected_sum,
              r, n->weight);
  }

  Node* root_;
};

}  // namespace cbat
