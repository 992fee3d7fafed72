// Tests for the LLX/SCX primitives, independent of the chromatic tree.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "llxscx/llx_scx.h"
#include "reclamation/ebr.h"
#include "reclamation/pool.h"

namespace cbat {
namespace {

Node* leaf(Key k) { return pool_new<Node>(k, 1, nullptr, nullptr); }
Node* internal(Key k, Node* l, Node* r) { return pool_new<Node>(k, 1, l, r); }

void free_node(Node* n) {
  release_node_info(n);
  pool_delete(n);
}

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
  free_node(p);
  free_node(a);
  free_node(b);
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
  EXPECT_EQ(s.info, scx_initial_record());
  free_node(p);
  free_node(a);
  free_node(b);
}

TEST(Llx, FinalizedNodeReported) {
  EbrGuard g;
  Node* a = leaf(1);
  a->hot().marked.store(true);
  LlxSnap s;
  EXPECT_EQ(llx(a, &s), LlxStatus::kFinalized);
  free_node(a);
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
  free_node(p);
  free_node(a);
  free_node(b);
  free_node(a2);
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
  free_node(p);
  free_node(a);
  free_node(b);
  free_node(x);
  free_node(y);
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
  free_node(p);
  free_node(a);
  free_node(b);
  free_node(a2);
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
            Ebr::retire(cur, [](void* q) { free_node(static_cast<Node*>(q)); });
            break;
          }
          free_node(next);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(successes.load(), kThreads * kIncrPerThread);
  EXPECT_EQ(p->child[0].load()->key,
            static_cast<Key>(kThreads * kIncrPerThread));
  free_node(p->child[0].load());
  free_node(p);
  free_node(right);
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
  for (Node* n : {top, pl, pr, a, b, c, d, a2, c2}) free_node(n);
}

}  // namespace
}  // namespace cbat
