// BAT — the lock-free Balanced Augmented Tree (paper §4, §5, §6).
//
// An update first runs the chromatic-tree routine (CTInsert/CTDelete, with
// the Version Initialization Rules of Definition 1 applied to every node it
// allocates), then calls Propagate to carry the update's effect on the
// supplementary fields up to the root.  Queries read Root.version once and
// run sequential algorithms on the resulting immutable snapshot
// (version_queries.h).  Every update carries one key: there is no bulk
// path, and the shard layer's key migration moves keys with plain
// insert/erase too.
//
// Three variants, selected by the Delegation template parameter:
//   kNone     — plain BAT (paper Fig. 3): double refresh per node.
//   kDel      — BAT-Del (Fig. 13): delegate after a failed double refresh.
//   kEagerDel — BAT-EagerDel (Fig. 14): delegate after a single failure,
//               with the children-version stability re-check.
// Both delegation schemes use the PropStatus chain of Appendix A and can be
// made non-blocking with a wait timeout (§5); the timeout defaults to on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "chromatic/chromatic_tree.h"
#include "core/version.h"
#include "core/version_queries.h"
#include "reclamation/ebr.h"
#include "util/backoff.h"
#include "util/counters.h"
#include "util/fault.h"
#include "util/flat_set.h"

namespace cbat {

enum class Delegation { kNone, kDel, kEagerDel };

namespace detail {

// Version Initialization Rules (Definition 1): leaves get a ready version
// (size 1, or 0 for sentinels); new internal nodes get nil so their
// supplementary fields are recomputed from current information when needed
// (this is what makes rotations safe, §4.1).
// Runs inside the chromatic layer's SCX machinery, always within the
// EbrGuard the enclosing BatTree operation opened.  The chromatic layer is
// outside the thread-safety-annotation boundary (see
// util/thread_annotations.h), so these callbacks are not CBAT_REQUIRES-
// annotated — the guard obligation is enforced at BatTree's public API.
template <Augmentation Aug>
struct BatVersionPolicy {
  using V = Version<Aug>;

  static void init_leaf(Node* n) {
    auto* v = pool_new<V>(
        nullptr, nullptr, n->key,
        is_sentinel_key(n->key) ? Aug::sentinel() : Aug::leaf(n->key), nullptr);
    n->version.store(v, std::memory_order_release);
  }

  static void init_internal(Node* n) {
    // relaxed: the node is thread-private until its SCX publishes it, and
    // the SCX's release store covers this initialization.
    n->version.store(nullptr, std::memory_order_relaxed);
  }

  // Insert patches: both children are freshly made leaves whose versions
  // are final, so the internal node's version is computable immediately and
  // reflects exactly the operations that will have arrived at it when the
  // insertion's SCX succeeds (Definition 7, part 2).  Rotation patches must
  // stay nil (§4.1); they go through init_internal above.
  static void init_internal_for_insert(Node* n, Node* left, Node* right) {
    // relaxed: left/right are freshly made leaves still private to this
    // thread; their versions were stored by the same thread in init_leaf.
    auto* vl = static_cast<V*>(left->version.load(std::memory_order_relaxed));
    auto* vr = static_cast<V*>(right->version.load(std::memory_order_relaxed));
    auto* v =
        pool_new<V>(vl, vr, n->key, Aug::combine(vl->aug, vr->aug), nullptr);
    n->version.store(v, std::memory_order_release);
  }

  // §6: a node's final version is retired immediately before the node is
  // freed — new operations can no longer reach it, while older snapshots
  // that still can are protected by their own epoch.
  static void on_node_free(Node* n) {
    auto* v = static_cast<V*>(n->version.load(std::memory_order_acquire));
    if (v != nullptr) pool_retire(v);
  }
};

}  // namespace detail

template <Augmentation Aug, Delegation Del = Delegation::kNone>
class BatTree {
 public:
  using AugType = Aug;
  using AugValue = typename Aug::Value;
  using V = Version<Aug>;

  BatTree() {
    // The root is internal, so Definition 1 leaves its version nil; fill it
    // so queries always find a snapshot at Root.version.
    EbrGuard g;
    refresh_nil(tree_.root());
  }

  // --- updates (paper Fig. 3 Insert/Delete) ------------------------------

  bool insert(Key k) {
    EbrGuard g;
    const bool result = tree_.insert(k);
    propagate(k);  // even unsuccessful updates must propagate (§4)
    return result;
  }

  bool erase(Key k) {
    EbrGuard g;
    const bool result = tree_.erase(k);
    propagate(k);
    return result;
  }

  // --- queries (linearized at the read of Root.version) ------------------
  //
  // Every public read, Snapshot included, takes the root through
  // read_root(), which help-stamps it when a clock is attached.

  bool contains(Key k) const {
    EbrGuard g;
    return version_contains<Aug>(read_root(), k);
  }

  std::int64_t size() const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_size<Aug>(read_root());
  }

  // Number of keys <= k.
  std::int64_t rank(Key k) const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_rank<Aug>(read_root(), k);
  }

  // i-th smallest key (1-based).
  std::optional<Key> select(std::int64_t i) const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_select<Aug>(read_root(), i);
  }

  // Number of keys in [lo, hi].
  std::int64_t range_count(Key lo, Key hi) const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_range_count<Aug>(read_root(), lo, hi);
  }

  // Aggregate of the augmentation over keys in [lo, hi].
  AugValue range_aggregate(Key lo, Key hi) const {
    EbrGuard g;
    return version_range_aggregate<Aug>(read_root(), lo, hi);
  }

  // Largest key <= k / smallest key >= k (paper §8's predecessor queries).
  std::optional<Key> floor(Key k) const {
    EbrGuard g;
    return version_floor<Aug>(read_root(), k);
  }
  std::optional<Key> ceiling(Key k) const {
    EbrGuard g;
    return version_ceiling<Aug>(read_root(), k);
  }

  // i-th smallest key within [lo, hi] (1-based).
  std::optional<Key> select_in_range(Key lo, Key hi, std::int64_t i) const
    requires SizedAugmentation<Aug>
  {
    EbrGuard g;
    return version_select_in_range<Aug>(read_root(), lo, hi, i);
  }

  // All keys in [lo, hi], in order (limit = 0 means unlimited).
  std::vector<Key> range_collect(Key lo, Key hi, std::size_t limit = 0) const {
    EbrGuard g;
    std::vector<Key> out;
    version_collect_range<Aug>(read_root(), lo, hi, &out, limit);
    return out;
  }

  // RAII snapshot for composite queries: all reads through one Snapshot see
  // the same version tree.  Keeps an epoch pinned; keep it short-lived.
  // A scoped capability: constructing a *named* Snapshot holds
  // ebr_capability for its scope, which is what licenses the version_*
  // calls its query methods make.
  class CBAT_SCOPED_CAPABILITY Snapshot {
   public:
    explicit Snapshot(const BatTree& t) CBAT_ACQUIRE(ebr_capability) {
      // guard: guard_ is constructed before this body runs; TSA does not
      // track member-subobject guards, so assert the capability it pinned.
      ebr_assert_held();
      root_ = t.read_root();
    }
    ~Snapshot() CBAT_RELEASE() {}
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    bool contains(Key k) const CBAT_REQUIRES(ebr_capability) {
      return version_contains<Aug>(root_, k);
    }
    std::int64_t size() const CBAT_REQUIRES(ebr_capability)
      requires SizedAugmentation<Aug>
    {
      return version_size<Aug>(root_);
    }
    std::int64_t rank(Key k) const CBAT_REQUIRES(ebr_capability)
      requires SizedAugmentation<Aug>
    {
      return version_rank<Aug>(root_, k);
    }
    std::int64_t rank_less(Key k) const CBAT_REQUIRES(ebr_capability)
      requires SizedAugmentation<Aug>
    {
      return version_rank_less<Aug>(root_, k);
    }
    std::optional<Key> select(std::int64_t i) const
        CBAT_REQUIRES(ebr_capability)
      requires SizedAugmentation<Aug>
    {
      return version_select<Aug>(root_, i);
    }
    std::optional<Key> select_in_range(Key lo, Key hi, std::int64_t i) const
        CBAT_REQUIRES(ebr_capability)
      requires SizedAugmentation<Aug>
    {
      return version_select_in_range<Aug>(root_, lo, hi, i);
    }
    std::optional<Key> floor(Key k) const CBAT_REQUIRES(ebr_capability) {
      return version_floor<Aug>(root_, k);
    }
    std::optional<Key> ceiling(Key k) const CBAT_REQUIRES(ebr_capability) {
      return version_ceiling<Aug>(root_, k);
    }
    std::int64_t range_count(Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability)
      requires SizedAugmentation<Aug>
    {
      return version_range_count<Aug>(root_, lo, hi);
    }
    AugValue range_aggregate(Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability) {
      return version_range_aggregate<Aug>(root_, lo, hi);
    }
    std::vector<Key> keys(Key lo = std::numeric_limits<Key>::min(),
                          Key hi = kMaxUserKey) const
        CBAT_REQUIRES(ebr_capability) {
      std::vector<Key> out;
      version_collect_range<Aug>(root_, lo, hi, &out);
      return out;
    }
    const V* root() const CBAT_REQUIRES(ebr_capability) { return root_; }

   private:
    EbrGuard guard_;
    const V* root_ = nullptr;
  };

  // --- configuration & introspection --------------------------------------

  // Attaches the epoch clock that root installations stamp (cross-shard
  // linearizable snapshots; the shard layer owns the clock and calls this
  // once per shard before any update runs).  With a clock attached, every
  // top-level root refresh links the new root version to the one it
  // replaced (`prev_root`) and the stamps follow the vcas discipline: the
  // superseded root's stamp is finalized before the install CAS, the new
  // root is stamped right after it, Propagate help-finalizes the current
  // root's stamp before returning, and every public read help-finalizes
  // the root it answers from (read_root) — so an update's stamp is
  // assigned no later than its response or the first read that observes
  // it, and stamps are monotone along every root's prev_root chain.  Each
  // stamp mints a fresh epoch (EpochClock::finalize).  Null (the default)
  // disables stamping; standalone trees pay only a dead branch.
  void set_epoch_source(EpochClock* clock) { epoch_source_ = clock; }

  // Test-only seam: called on the installing thread right after a stamped
  // root's install CAS and before its stamp, so deterministic tests can
  // park an updater with an unstamped root published.  Set it before the
  // tree sees concurrent updates; unstamped trees never reach the call.
  using RootInstallHook = void (*)(void* ctx);
  void set_root_install_hook(RootInstallHook hook, void* ctx) {
    root_install_hook_ = hook;
    root_install_ctx_ = ctx;
  }

  // Spin budget a delegating Propagate waits before resuming on its own
  // (making the scheme non-blocking, §5).  0 disables the timeout.  For
  // tests only (forced timeouts, blocking mode): the budget is one plain
  // static per variant, so call this while no update of that variant
  // runs.
  static void set_delegation_timeout(std::uint64_t spins) {
    delegation_timeout_spins_ = spins;
  }

  // Pre-faults the calling thread's pool free lists for the object types
  // this tree allocates on the update path (~one Node patch set plus
  // ~path-length Versions per update).  Caps are modest: steady state
  // recycles through the EBR, so only the initial working set matters.
  void warm_up(std::size_t expected_updates) {
    const auto cap = [expected_updates](std::size_t mult, std::size_t limit) {
      return std::min(expected_updates * mult, limit);
    };
    pool_reserve<V>(cap(4, 1u << 12));
    pool_reserve<Node>(cap(4, 1u << 11));
    pool_reserve<ScxRecord>(cap(1, 1u << 10));
    if constexpr (Del != Delegation::kNone) {
      pool_reserve<PropStatus>(cap(1, 1u << 8));
    }
  }

  // The current root version (for tests).
  const V* root_version_unsafe() const CBAT_REQUIRES(ebr_capability) {
    return root_version();
  }

  ChromaticTree<detail::BatVersionPolicy<Aug>>& node_tree() { return tree_; }
  const ChromaticTree<detail::BatVersionPolicy<Aug>>& node_tree() const {
    return tree_;
  }

 private:
  V* root_version() const CBAT_REQUIRES(ebr_capability) {
    // The root node is never replaced and its version is set in the
    // constructor and only ever CAS'd non-nil -> non-nil afterwards.
    return static_cast<V*>(
        tree_.root()->version.load(std::memory_order_acquire));
  }

  // The root version a public read answers from.  With a clock attached it
  // is help-stamped first, like vcas's read() running init_ts: an updater
  // stamps its root only after the install CAS, and a reader that
  // observed the unstamped root must not let a later cut — even one taken
  // by the same thread — resolve past the root it already answered from.
  const V* read_root() const CBAT_REQUIRES(ebr_capability) {
    const V* r = root_version();
    if (epoch_source_ != nullptr) stamp_epoch(r);
    return r;
  }

  static V* version_of(const Node* n) CBAT_REQUIRES(ebr_capability) {
    return static_cast<V*>(n->version.load(std::memory_order_acquire));
  }

  // --- Refresh machinery (paper Fig. 3 lines 49-69; Fig. 12) -------------

  // Reads x's version, first fixing it if nil (recursive refresh).
  V* read_version(Node* x) CBAT_REQUIRES(ebr_capability) {
    V* v = version_of(x);
    if (v == nullptr) {
      refresh_nil(x);
      v = version_of(x);
    }
    return v;
  }

  // Recursive refresh: only ever changes a version pointer nil -> non-nil
  // (the separation from top-level refreshes matters for delegation
  // correctness and reclamation, §5/§6).
  void refresh_nil(Node* x) CBAT_REQUIRES(ebr_capability) {
    Node* xl;
    V* vl;
    do {
      xl = x->child[0].load(std::memory_order_acquire);
      vl = read_version(xl);
    } while (x->child[0].load(std::memory_order_acquire) != xl);
    Node* xr;
    V* vr;
    do {
      xr = x->child[1].load(std::memory_order_acquire);
      vr = read_version(xr);
    } while (x->child[1].load(std::memory_order_acquire) != xr);
    auto* nv =
        pool_new<V>(vl, vr, x->key, Aug::combine(vl->aug, vr->aug), nullptr);
    void* expected = nullptr;
    if (x->version.compare_exchange_strong(expected, nv,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      Counters::bump(Counter::kNilRefreshes);
    } else {
      pool_delete(nv);  // never published
    }
  }

  struct RefreshResult {
    bool success = false;
    PropStatus* blocker = nullptr;  // status of the Refresh that beat us
    V* vl = nullptr;                // child versions we read
    V* vr = nullptr;
    V* old = nullptr;               // the version we replaced (on success)
  };

  // Top-level refresh: changes the version pointer non-nil -> non-nil.
  RefreshResult refresh(Node* x, PropStatus* ps)
      CBAT_REQUIRES(ebr_capability) {
    for (;;) {
      RefreshResult r;
      V* old = read_version(x);
      const bool stamped_root = x == tree_.root() && epoch_source_ != nullptr;
      // Epoch discipline: a root version must carry its final stamp before a
      // successor replaces it (keeps prev_root chains stamp-monotone and
      // lets snapshot walks stop at the first stamp <= their epoch).
      if (stamped_root) stamp_epoch(old);
      Node* xl;
      do {
        xl = x->child[0].load(std::memory_order_acquire);
        r.vl = read_version(xl);
      } while (x->child[0].load(std::memory_order_acquire) != xl);
      Node* xr;
      do {
        xr = x->child[1].load(std::memory_order_acquire);
        r.vr = read_version(xr);
      } while (x->child[1].load(std::memory_order_acquire) != xr);
      // Stretching the read-to-CAS window here raises the *organic* CAS
      // failure rate under concurrency — the honest way to exercise the
      // blocker/help protocol.
      CBAT_FAULT_POINT("bat.refresh_build");
      auto* nv = pool_new<V>(r.vl, r.vr, x->key,
                             Aug::combine(r.vl->aug, r.vr->aug), ps);
      if (stamped_root) nv->prev_root = old;
      Counters::bump(Counter::kRefreshCas);
      // Forced CAS-retry drill: discard the built version as if a racing
      // refresh had won, and redo the whole read-build-CAS cycle.  It must
      // be a retry, not a skip: callers (refresh_double) rely on SOME
      // refresh installing the children's state, and with no real winner
      // there is no blocker to inherit the obligation.
      if (CBAT_FAULT_FORCE("bat.refresh_cas")) {
        pool_delete(nv);  // never published
        Counters::bump(Counter::kRefreshCasFail);
        continue;
      }
      void* expected = old;
      if (x->version.compare_exchange_strong(expected, nv,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        if (stamped_root) {
          if (root_install_hook_ != nullptr) {
            root_install_hook_(root_install_ctx_);
          }
          stamp_epoch(nv);
        }
        r.success = true;
        r.old = old;
        return r;
      }
      pool_delete(nv);  // never published
      Counters::bump(Counter::kRefreshCasFail);
      r.blocker = static_cast<V*>(expected)->status;
      return r;
    }
  }

  // --- Propagate (Fig. 3 / Fig. 13 / Fig. 14) ----------------------------

  struct Scratch {
    std::vector<Node*> stack;
    FlatPtrSet refreshed;
    std::vector<V*> to_retire;
  };

  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  void propagate(Key k) CBAT_REQUIRES(ebr_capability) {
    Counters::bump(Counter::kPropagateCalls);
    Scratch& s = scratch();
    s.stack.clear();
    s.refreshed.clear();
    s.to_retire.clear();
    Node* const root = tree_.root();
    s.stack.push_back(root);

    PropStatus* ps = nullptr;
    if constexpr (Del != Delegation::kNone) ps = pool_new<PropStatus>();

    bool first_descent = true;
    while (true) {
      // Walk down from the top of the stack until the child on k's search
      // path has already been refreshed or is a leaf (Fig. 3 lines 37-41).
      Node* next = s.stack.back();
      while (true) {
        next = next->child[dir_of(k, next)].load(std::memory_order_acquire);
        if (s.refreshed.contains(next) || next->is_leaf()) break;
        s.stack.push_back(next);
        Counters::bump(first_descent ? Counter::kSearchPathNodes
                                     : Counter::kPropagateExtraNodes);
      }
      first_descent = false;
      Node* top = s.stack.back();
      s.stack.pop_back();
      Counters::bump(Counter::kPropagateNodes);

      if (!refresh_one(top, ps, s)) {
        // Delegated: our remaining work completes with the delegatee.
        break;
      }
      s.refreshed.insert(top);
      if (top == root) break;
    }

    // Epoch discipline: before this update reports (or releases delegated
    // waiters via the done flag), the root version covering it — installed
    // by us or by the refresh that beat us — must carry its final stamp,
    // so no snapshot acquired after our response can place us later than
    // its cut.  Must also precede the retire flush below: a snapshot walk
    // dereferences a prev_root only while stamps read above its epoch, so
    // a superseded root may be retired only once the head is stamped.
    if (epoch_source_ != nullptr) {
      stamp_epoch(root_version());
    }
    if (ps != nullptr) {
      ps->done.store(true, std::memory_order_release);
      // §6: safe to retire at the end of the creating Propagate even while
      // reachable — only operations already running can still read it.
      pool_retire(ps);
    }
    // §6: once the Propagate has reached the root (itself or through its
    // delegatee), every version it replaced is unreachable from the current
    // version tree; older snapshots are protected by their epochs.
    for (V* v : s.to_retire) pool_retire(v);
  }

  // The plain double refresh (Fig. 3 lines 43-45): if our refresh CAS
  // lost, one more refresh is guaranteed to have started after our update
  // arrived at the child, so its result covers us.
  void refresh_double(Node* top, Scratch& s) CBAT_REQUIRES(ebr_capability) {
    RefreshResult r = refresh(top, nullptr);
    if (r.success) {
      s.to_retire.push_back(r.old);
      return;
    }
    r = refresh(top, nullptr);
    if (r.success) s.to_retire.push_back(r.old);
  }

  // Refreshes `top` according to the variant.  Returns false iff the
  // propagate delegated its remaining work (and has already waited).
  bool refresh_one(Node* top, PropStatus* ps, Scratch& s)
      CBAT_REQUIRES(ebr_capability) {
    if constexpr (Del == Delegation::kNone) {
      (void)ps;
      refresh_double(top, s);
      return true;
    } else if constexpr (Del == Delegation::kDel) {
      RefreshResult r = refresh(top, ps);
      if (r.success) {
        s.to_retire.push_back(r.old);
        return true;
      }
      r = refresh(top, ps);
      if (r.success) {
        s.to_retire.push_back(r.old);
        return true;
      }
      if (!top->is_finalized() && r.blocker != nullptr) {
        ps->delegatee.store(r.blocker, std::memory_order_release);
        if (wait_for_delegatee(r.blocker)) return false;
        // Timed out: resume propagating ourselves (non-blocking mode).
        ps->delegatee.store(nullptr, std::memory_order_release);
        return refresh_one(top, ps, s);
      }
      return true;
    } else {  // kEagerDel (Fig. 14)
      while (true) {
        RefreshResult r = refresh(top, ps);
        if (!r.success) {
          if (!top->is_finalized() && r.blocker != nullptr) {
            ps->delegatee.store(r.blocker, std::memory_order_release);
            if (wait_for_delegatee(r.blocker)) return false;
            ps->delegatee.store(nullptr, std::memory_order_release);
          }
          continue;  // retry the refresh
        }
        s.to_retire.push_back(r.old);
        // Stability check: keep refreshing until the children's versions
        // did not change across the successful refresh, which guarantees we
        // saw every arrival point a beaten Refresh was propagating (§5).
        Node* xl = top->child[0].load(std::memory_order_acquire);
        Node* xr = top->child[1].load(std::memory_order_acquire);
        if (version_of(xl) == r.vl && version_of(xr) == r.vr) return true;
      }
    }
  }

  // Follows the delegation chain to its head and spins on its done flag
  // (Fig. 12 WaitForDelegatee).  Returns false on timeout.
  bool wait_for_delegatee(PropStatus* d) {
    Counters::bump(Counter::kDelegations);
    const std::uint64_t limit = delegation_timeout_spins_;
    std::uint64_t spins = 0;
    while (!d->done.load(std::memory_order_acquire)) {
      PropStatus* next = d->delegatee.load(std::memory_order_acquire);
      if (next != nullptr) {
        d = next;
        continue;
      }
      cpu_relax();
      if ((++spins & 63) == 0) std::this_thread::yield();
      if (limit != 0 && spins > limit) {
        Counters::bump(Counter::kDelegationTimeouts);
        return false;
      }
    }
    return true;
  }

  // Finalizes a root version's stamp from the attached clock.  Caller has
  // checked epoch_source_.
  std::uint64_t stamp_epoch(const V* v) const CBAT_REQUIRES(ebr_capability) {
    return version_epoch<Aug>(v, *epoch_source_);
  }

  static inline std::uint64_t delegation_timeout_spins_ = 1u << 16;

  // Epoch clock for root stamping; null (default) disables it.  Set once,
  // before the tree sees concurrent updates (see the setter).
  EpochClock* epoch_source_ = nullptr;
  RootInstallHook root_install_hook_ = nullptr;
  void* root_install_ctx_ = nullptr;

  ChromaticTree<detail::BatVersionPolicy<Aug>> tree_;
};

// The three variants evaluated in the paper.
template <Augmentation Aug = SizeAug>
using Bat = BatTree<Aug, Delegation::kNone>;
template <Augmentation Aug = SizeAug>
using BatDel = BatTree<Aug, Delegation::kDel>;
template <Augmentation Aug = SizeAug>
using BatEagerDel = BatTree<Aug, Delegation::kEagerDel>;

}  // namespace cbat
