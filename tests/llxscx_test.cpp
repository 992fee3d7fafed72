// Tests for the LLX/SCX primitives, independent of the chromatic tree.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "llxscx/llx_scx.h"
#include "reclamation/ebr.h"
#include "reclamation/pool.h"
#include "util/thread_registry.h"

namespace cbat {
namespace {

Node* leaf(Key k) { return pool_new<Node>(k, 1, nullptr, nullptr); }
Node* internal(Key k, Node* l, Node* r) { return pool_new<Node>(k, 1, l, r); }

// An SCX record holds at most kMaxScxNodes nodes; scx() refuses more in
// every build type instead of writing past the record's arrays.
TEST(ScxDeathTest, RejectsMoreThanMaxScxNodes) {
  Node* a = leaf(1);
  Node* b = leaf(5);
  Node* p = internal(5, a, b);
  EXPECT_DEATH(
      {
        EbrGuard g;
        LlxSnap v[kMaxScxNodes + 1];
        for (LlxSnap& s : v) llx(p, &s);
        scx(v, kMaxScxNodes + 1, 1, &p->child[0], a);
      },
      "at most 5");
  pool_delete(p);
  pool_delete(a);
  pool_delete(b);
}

TEST(Llx, SnapshotsQuiescentNode) {
  EbrGuard g;
  Node* a = leaf(1);
  Node* b = leaf(5);
  Node* p = internal(5, a, b);
  LlxSnap s;
  ASSERT_EQ(llx(p, &s), LlxStatus::kOk);
  EXPECT_EQ(s.node, p);
  EXPECT_EQ(s.left(), a);
  EXPECT_EQ(s.right(), b);
  EXPECT_EQ(s.info, kNoScx);
  pool_delete(p);
  pool_delete(a);
  pool_delete(b);
}

TEST(Llx, FinalizedNodeReported) {
  EbrGuard g;
  Node* a = leaf(1);
  a->hot().marked.store(true);
  LlxSnap s;
  EXPECT_EQ(llx(a, &s), LlxStatus::kFinalized);
  pool_delete(a);
}

TEST(Scx, SingleThreadedChildSwing) {
  EbrGuard g;
  Node* a = leaf(1);
  Node* b = leaf(5);
  Node* p = internal(5, a, b);
  LlxSnap ps, as;
  ASSERT_EQ(llx(p, &ps), LlxStatus::kOk);
  ASSERT_EQ(llx(a, &as), LlxStatus::kOk);
  Node* a2 = leaf(2);
  LlxSnap v[2] = {ps, as};
  ASSERT_TRUE(scx(v, 2, 1, &p->child[0], a2));
  EXPECT_EQ(p->child[0].load(), a2);
  EXPECT_TRUE(a->is_finalized());
  EXPECT_FALSE(p->is_finalized());
  pool_delete(p);
  pool_delete(a);
  pool_delete(b);
  pool_delete(a2);
}

TEST(Scx, FailsAfterConflictingScx) {
  EbrGuard g;
  Node* a = leaf(1);
  Node* b = leaf(5);
  Node* p = internal(5, a, b);
  LlxSnap ps1, as1;
  ASSERT_EQ(llx(p, &ps1), LlxStatus::kOk);
  ASSERT_EQ(llx(a, &as1), LlxStatus::kOk);

  // A second operation performs an SCX on p between our LLX and SCX.
  LlxSnap ps2, as2;
  ASSERT_EQ(llx(p, &ps2), LlxStatus::kOk);
  ASSERT_EQ(llx(a, &as2), LlxStatus::kOk);
  Node* x = leaf(3);
  LlxSnap v2[2] = {ps2, as2};
  ASSERT_TRUE(scx(v2, 2, 1, &p->child[0], x));

  // Our SCX must now fail: p's info changed since our LLX.
  Node* y = leaf(4);
  LlxSnap v1[2] = {ps1, as1};
  EXPECT_FALSE(scx(v1, 2, 1, &p->child[0], y));
  EXPECT_EQ(p->child[0].load(), x);
  pool_delete(p);
  pool_delete(a);
  pool_delete(b);
  pool_delete(x);
  pool_delete(y);
}

TEST(Scx, LlxFailsOrFinalizedOnRemovedNode) {
  EbrGuard g;
  Node* a = leaf(1);
  Node* b = leaf(5);
  Node* p = internal(5, a, b);
  LlxSnap ps, as;
  ASSERT_EQ(llx(p, &ps), LlxStatus::kOk);
  ASSERT_EQ(llx(a, &as), LlxStatus::kOk);
  Node* a2 = leaf(2);
  LlxSnap v[2] = {ps, as};
  ASSERT_TRUE(scx(v, 2, 1, &p->child[0], a2));
  LlxSnap s;
  EXPECT_EQ(llx(a, &s), LlxStatus::kFinalized);
  // The surviving node is LLX-able again.
  EXPECT_EQ(llx(p, &s), LlxStatus::kOk);
  pool_delete(p);
  pool_delete(a);
  pool_delete(b);
  pool_delete(a2);
}

// Concurrent counter built from LLX/SCX: N threads repeatedly replace the
// left child of a fixed parent with a leaf of key+1.  Exactly one SCX can
// succeed per value, so the final key equals the number of successes.
TEST(Scx, ConcurrentIncrementsAreAtomic) {
  Node* cell = leaf(0);
  Node* right = leaf(1000);
  Node* p = internal(1000, cell, right);

  constexpr int kThreads = 6;
  constexpr int kIncrPerThread = 3000;
  std::atomic<long> successes{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIncrPerThread; ++i) {
        while (true) {
          EbrGuard g;
          LlxSnap ps, cs;
          if (llx(p, &ps) != LlxStatus::kOk) continue;
          Node* cur = ps.left();
          if (llx(cur, &cs) != LlxStatus::kOk) continue;
          Node* next = leaf(cur->key + 1);
          LlxSnap v[2] = {ps, cs};
          if (scx(v, 2, 1, &p->child[0], next)) {
            successes.fetch_add(1);
            Ebr::retire(cur,
                        [](void* q) { pool_delete(static_cast<Node*>(q)); });
            break;
          }
          pool_delete(next);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(successes.load(), kThreads * kIncrPerThread);
  EXPECT_EQ(p->child[0].load()->key,
            static_cast<Key>(kThreads * kIncrPerThread));
  pool_delete(p->child[0].load());
  pool_delete(p);
  pool_delete(right);
  Ebr::drain();
}

// Two disjoint SCXs on different subtrees must both succeed without
// interference.
TEST(Scx, DisjointScxesDoNotConflict) {
  EbrGuard g;
  Node* a = leaf(1);
  Node* b = leaf(2);
  Node* c = leaf(6);
  Node* d = leaf(7);
  Node* pl = internal(2, a, b);
  Node* pr = internal(7, c, d);
  Node* top = internal(5, pl, pr);

  LlxSnap pls, as;
  ASSERT_EQ(llx(pl, &pls), LlxStatus::kOk);
  ASSERT_EQ(llx(a, &as), LlxStatus::kOk);

  LlxSnap prs, cs;
  ASSERT_EQ(llx(pr, &prs), LlxStatus::kOk);
  ASSERT_EQ(llx(c, &cs), LlxStatus::kOk);

  Node* a2 = leaf(0);
  LlxSnap v1[2] = {pls, as};
  EXPECT_TRUE(scx(v1, 2, 1, &pl->child[0], a2));

  Node* c2 = leaf(5);
  LlxSnap v2[2] = {prs, cs};
  EXPECT_TRUE(scx(v2, 2, 1, &pr->child[0], c2));

  EXPECT_EQ(pl->child[0].load(), a2);
  EXPECT_EQ(pr->child[0].load(), c2);
  for (Node* n : {top, pl, pr, a, b, c, d, a2, c2}) pool_delete(n);
}

// --- descriptor reuse ------------------------------------------------------
// Each thread reuses its registry slot's one descriptor, and a node's info
// word names an SCX by (slot, sequence) (llxscx/scx_record.h).

// SCXs leaf `a`, p's left child, out for `a2`: p stays in V unmarked, a is
// finalized.  Returns the SCX's id, which both now hold.
ScxId swing_left(Node* p, Node* a2) {
  LlxSnap ps, as;
  EXPECT_EQ(llx(p, &ps), LlxStatus::kOk);
  EXPECT_EQ(llx(ps.left(), &as), LlxStatus::kOk);
  LlxSnap v[2] = {ps, as};
  EXPECT_TRUE(scx(v, 2, 1, &p->child[0], a2));
  return p->hot().info.load();
}

// Three nodes p(k) over leaves (k - 1) and k, plus a spare leaf (k - 2)
// for a swing.
struct Cell {
  Node* a;
  Node* b;
  Node* p;
  Node* a2;
  explicit Cell(Key k)
      : a(leaf(k - 1)), b(leaf(k)), p(internal(k, a, b)), a2(leaf(k - 2)) {}
  void free_all() {
    for (Node* n : {a, b, p, a2}) pool_delete(n);
  }
};

// An SCX whose owner has started another has finished.  LLX reads a node
// it froze by the node's mark alone: unmarked snapshots, marked is
// finalized.
TEST(ScxReuse, LlxReadsAMovedOnScxByTheMark) {
  EbrGuard g;
  Cell c(10);
  const ScxId u1 = swing_left(c.p, c.a2);
  ASSERT_EQ(c.a->hot().info.load(), u1);
  ASSERT_TRUE(c.a->is_finalized());

  Cell next(20);  // the owner's next SCX, on other nodes
  const ScxId u2 = swing_left(next.p, next.a2);
  ASSERT_EQ(scx_slot(u2), scx_slot(u1));
  ASSERT_GT(scx_sequence(u2), scx_sequence(u1));

  LlxSnap s;
  ASSERT_EQ(llx(c.p, &s), LlxStatus::kOk);
  EXPECT_EQ(s.info, u1);
  EXPECT_EQ(s.left(), c.a2);
  EXPECT_EQ(s.right(), c.b);
  EXPECT_EQ(llx(c.a, &s), LlxStatus::kFinalized);
  c.free_all();
  next.free_all();
}

// An aborted SCX marks nothing, so the nodes it froze before its conflict
// snapshot, both while it is its owner's latest SCX and after.
TEST(ScxReuse, NodesAnAbortedScxFrozeStaySnapshotable) {
  EbrGuard g;
  Cell c(10);
  LlxSnap ps, as;
  ASSERT_EQ(llx(c.p, &ps), LlxStatus::kOk);
  ASSERT_EQ(llx(c.a, &as), LlxStatus::kOk);
  // Another SCX freezes `a` alone between our LLXs and our SCX.
  LlxSnap as2;
  ASSERT_EQ(llx(c.a, &as2), LlxStatus::kOk);
  ASSERT_TRUE(scx(&as2, 1, 1, &c.a->child[0], nullptr));
  LlxSnap v[2] = {ps, as};
  ASSERT_FALSE(scx(v, 2, 1, &c.p->child[0], c.a2));
  const ScxId aborted = c.p->hot().info.load();
  ASSERT_NE(aborted, ps.info);  // p was frozen before `a` failed

  LlxSnap s;
  ASSERT_EQ(llx(c.p, &s), LlxStatus::kOk);
  EXPECT_EQ(s.info, aborted);
  Cell next(20);
  swing_left(next.p, next.a2);
  ASSERT_EQ(llx(c.p, &s), LlxStatus::kOk);
  EXPECT_EQ(s.info, aborted);
  EXPECT_EQ(s.left(), c.a);
  EXPECT_EQ(llx(c.a, &s), LlxStatus::kOk);
  c.free_all();
  next.free_all();
}

// A helper copies a descriptor and then re-reads its sequence.  An owner
// that starts another SCX in between may have torn the copy, so the helper
// must refuse it; here the owner's next SCX runs in exactly that window.
TEST(ScxReuse, HelperRefusesACopyTheOwnerMovedOnFrom) {
  EbrGuard g;
  Cell c(10);
  const ScxId u1 = swing_left(c.p, c.a2);
  // Nothing in the window: the copy stands (and finds u1 committed).
  EXPECT_TRUE(scx_help(u1));

  Cell next(20);
  EXPECT_FALSE(scx_help(
      u1,
      [](void* ctx) {
        Cell* n = static_cast<Cell*>(ctx);
        swing_left(n->p, n->a2);
      },
      &next));
  EXPECT_EQ(next.p->child[0].load(), next.a2);  // the window's SCX ran
  // Moved on before the copy: refused as well.
  EXPECT_FALSE(scx_help(u1));

  // The refused helps changed nothing.
  LlxSnap s;
  ASSERT_EQ(llx(c.p, &s), LlxStatus::kOk);
  EXPECT_EQ(s.info, u1);
  EXPECT_EQ(s.left(), c.a2);
  EXPECT_EQ(llx(c.a, &s), LlxStatus::kFinalized);
  c.free_all();
  next.free_all();
}

// A slot keeps its sequence when it passes to a new thread, so the new
// thread's SCX ids never repeat the old thread's.  Were the sequence to
// restart, the new thread's aborted SCX would carry the id that a finalized
// node of the old thread names, and LLX would read that node as free.
TEST(ScxReuse, ANewThreadOnASlotContinuesItsSequence) {
  constexpr int kCells = 4;
  std::vector<Cell> cells;
  for (int i = 0; i < kCells; ++i) cells.emplace_back(10 * (i + 1));
  // q's snapshot goes stale when this thread's SCX freezes q: an SCX over
  // it always aborts.
  Node* q = leaf(100);
  LlxSnap q_stale, qs;
  {
    EbrGuard g;
    ASSERT_EQ(llx(q, &q_stale), LlxStatus::kOk);
    ASSERT_EQ(llx(q, &qs), LlxStatus::kOk);
    ASSERT_TRUE(scx(&qs, 1, 1, &q->child[0], nullptr));
  }

  int slot_old = -1;
  std::uint64_t last_old = 0;
  std::thread([&] {
    slot_old = ThreadRegistry::thread_id();
    EbrGuard g;
    for (Cell& c : cells) last_old = scx_sequence(swing_left(c.p, c.a2));
  }).join();

  // The new thread aborts SCXs until its sequence passes the old thread's
  // last one (once, unless the sequence restarted), freezing r first to
  // learn each SCX's id, and checks the old SCXs' nodes after each.
  Node* r = leaf(200);
  int slot_new = -1;
  std::thread([&] {
    slot_new = ThreadRegistry::thread_id();
    EbrGuard g;
    std::uint64_t seq = 0;
    do {
      LlxSnap rs;
      ASSERT_EQ(llx(r, &rs), LlxStatus::kOk);
      LlxSnap v[2] = {rs, q_stale};
      ASSERT_FALSE(scx(v, 2, 2, &r->child[0], nullptr));
      seq = scx_sequence(r->hot().info.load());
      for (Cell& c : cells) {
        LlxSnap s;
        ASSERT_EQ(llx(c.p, &s), LlxStatus::kOk) << "at sequence " << seq;
        ASSERT_EQ(s.left(), c.a2);
        ASSERT_EQ(llx(c.a, &s), LlxStatus::kFinalized)
            << "at sequence " << seq;
      }
    } while (seq <= last_old);
  }).join();
  EXPECT_EQ(slot_new, slot_old);
  for (Cell& c : cells) c.free_all();
  pool_delete(q);
  pool_delete(r);
}

}  // namespace
}  // namespace cbat
