// End-to-end reclamation tests (paper §6): the trees must neither leak nor
// free early under churn.  Early frees are caught by the ASan jobs and the
// poisoning checks here (a pooled slot is poisoned while it is free); leaks
// are caught by asserting that the EBR's limbo count returns to zero at
// quiescence and that version chains are bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "core/bat_tree.h"
#include "frbst/frbst.h"
#include "reclamation/ebr.h"
#include "reclamation/pool.h"
#include "util/random.h"
#include "vcasbst/vcas.h"
#include "vcasbst/vcas_bst.h"

namespace cbat {
namespace {

// 1,000 slots of T carved from blocks, then 1,000 popped from the free list
// they were returned to: every one must start on a cache line.  A fresh
// thread starts with an empty free list and no block; while no thread has
// exited yet the depot is empty too, so the first round carves.  This is
// why the layout tests come first among the file's non-death tests.
template <class T>
void expect_line_aligned_slots(const char* name) {
  std::thread([name] {
    std::vector<void*> slots(1000);
    for (const char* path : {"carve", "free list"}) {
      for (void*& p : slots) p = Pool<T>::alloc();
      for (void* p : slots) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kPoolLineBytes, 0u)
            << name << " via the " << path << " path";
        Pool<T>::dealloc(p);
      }
    }
  }).join();
}

// The same two rounds for a split type (Node, FrNode), built by `make`:
// each half must lie inside one cache line, the hot half exactly
// kHotOffset past the node, and no two live nodes may overlap.
template <class T, class Make>
void expect_split_slots(const char* name, Make make) {
  std::thread([name, make] {
    std::vector<T*> nodes(1000);
    for (const char* path : {"carve", "free list"}) {
      std::vector<std::pair<std::uintptr_t, std::uintptr_t>> halves;
      for (T*& n : nodes) {
        n = make();
        const auto read = reinterpret_cast<std::uintptr_t>(n);
        const auto hot = reinterpret_cast<std::uintptr_t>(&n->hot());
        EXPECT_EQ(hot, read + T::kHotOffset) << name << " via the " << path;
        EXPECT_LE(read % kPoolLineBytes + sizeof(T), kPoolLineBytes)
            << name << " read half via the " << path << " path";
        EXPECT_LE(hot % kPoolLineBytes + sizeof(typename T::Hot),
                  kPoolLineBytes)
            << name << " hot half via the " << path << " path";
        halves.emplace_back(read, read + sizeof(T));
        halves.emplace_back(hot, hot + sizeof(typename T::Hot));
      }
      std::sort(halves.begin(), halves.end());
      for (std::size_t i = 1; i < halves.size(); ++i) {
        EXPECT_LE(halves[i - 1].second, halves[i].first)
            << name << " halves overlap via the " << path << " path";
      }
      for (T* n : nodes) pool_delete(n);
    }
  }).join();
}

// Every type that src/ allocates with pool_new.  VcasBst's version nodes
// are VersionedPtr<VbNode>::VNode, private to it; VersionedPtr<void>::VNode
// (BundledTree's presence chains) has the same layout, since VNode holds
// only a T*.
TEST(Pool, EveryPooledTypeIsLineAligned) {
  expect_split_slots<Node>(
      "Node", [] { return pool_new<Node>(Key{1}, 1, nullptr, nullptr); });
  expect_line_aligned_slots<Version<SizeAug>>("Version<SizeAug>");
  expect_line_aligned_slots<PropStatus>("PropStatus");
  expect_split_slots<frbst_detail::FrNode>("FrNode", [] {
    return pool_new<frbst_detail::FrNode>(Key{1}, nullptr, nullptr);
  });
  expect_line_aligned_slots<frbst_detail::Info>("FrBst Info");
  expect_line_aligned_slots<VersionedPtr<void>::VNode>("VNode");
}

// Exit order: a static object that frees pool slots in its destructor and
// was built before the pool's depot, which the first carve builds (a
// thread with no free slot looks there before it takes a block).  At exit
// the main thread's free list is destroyed first, then the statics in
// reverse order, depot before holder, so the holder frees its 70,000
// versions after both: past the list's 65,536-slot cap a spill would
// reach the depot.  Both must be left alone; under ASan a touch reports
// heap-use-after-free.  Death tests run before the file's other tests, so
// the child has built no version depot before the holder.
[[noreturn]] void exit_after_static_frees() {
  using V = Version<SizeAug>;
  struct Holder {
    std::vector<V*> vs;
    ~Holder() {
      for (V* v : vs) pool_delete(v);
    }
  };
  static Holder holder;
  for (Key k = 0; k < 70000; ++k) {
    holder.vs.push_back(pool_new<V>(nullptr, nullptr, k, 1, nullptr));
  }
  std::exit(0);
}

TEST(PoolDeathTest, StaticFreesAtExitTouchNoDestroyedPoolState) {
  EXPECT_EXIT(exit_after_static_frees(), testing::ExitedWithCode(0), "");
}

// A thread that exits hands its free slots and the rest of its block to
// the depot, and the next thread draws from there before it takes new
// blocks: 32 threads in turn, each churning 10,000 versions, map at most
// one chunk more than the first one did.
TEST(Pool, DyingThreadsMemoryIsReused) {
  using V = Version<SizeAug>;
  const auto churn = [] {
    std::vector<V*> vs(10000);
    Key k = 0;
    for (V*& v : vs) v = pool_new<V>(nullptr, nullptr, k++, 1, nullptr);
    for (V* v : vs) pool_delete(v);
  };
  std::thread(churn).join();
  const std::size_t after_first = pool_mapped_bytes();
  for (int t = 1; t < 32; ++t) std::thread(churn).join();
  EXPECT_LE(pool_mapped_bytes(), after_first + kPoolChunkBytes);
}

TEST(Pool, ReturnedSlotIsPoisonedUnderAsan) {
#if defined(CBAT_ASAN)
  using V = Version<SizeAug>;
  V* v = pool_new<V>(nullptr, nullptr, Key{1}, 1, nullptr);
  EXPECT_FALSE(__asan_address_is_poisoned(v));
  pool_delete(v);
  EXPECT_TRUE(__asan_address_is_poisoned(v));
  V* w = pool_new<V>(nullptr, nullptr, Key{2}, 1, nullptr);
  ASSERT_EQ(w, v);  // the same thread's LIFO free list
  EXPECT_FALSE(__asan_address_is_poisoned(w));
  pool_delete(w);

  // A split slot: both halves, one line apart.
  const auto halves_poisoned = [](Node* n) {
    std::byte* read = reinterpret_cast<std::byte*>(n);
    std::byte* hot = read + Node::kHotOffset;
    return std::make_pair(
        __asan_region_is_poisoned(read, sizeof(Node)) != nullptr,
        __asan_region_is_poisoned(hot, sizeof(Node::Hot)) != nullptr);
  };
  Node* n = pool_new<Node>(Key{1}, 1, nullptr, nullptr);
  EXPECT_EQ(halves_poisoned(n), std::make_pair(false, false));
  pool_delete(n);
  EXPECT_EQ(halves_poisoned(n), std::make_pair(true, true));
  Node* m = pool_new<Node>(Key{2}, 1, nullptr, nullptr);
  ASSERT_EQ(m, n);
  EXPECT_EQ(halves_poisoned(m), std::make_pair(false, false));
  pool_delete(m);
#else
  GTEST_SKIP() << "pool slots are poisoned only under AddressSanitizer";
#endif
}

// After any amount of churn and a drain, nothing may remain in limbo.
TEST(Reclamation, BatDrainsToZero) {
  {
    Bat<SizeAug> t;
    Xoshiro256 rng(1);
    for (int i = 0; i < 30000; ++i) {
      const Key k = static_cast<Key>(rng.below(512));
      if (rng.below(2) == 0) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
    Ebr::drain();
    // Retired versions/nodes/descriptors from the churn are gone; only the
    // live tree remains (freed by the destructor below).
    EXPECT_EQ(Ebr::pending(), 0u);
  }
  Ebr::drain();
  EXPECT_EQ(Ebr::pending(), 0u);
}

TEST(Reclamation, EagerDelDrainsToZeroAfterContention) {
  {
    BatEagerDel<SizeAug> t;
    constexpr int kThreads = 6;
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&, i] {
        Xoshiro256 rng(100 + i);
        for (int op = 0; op < 10000; ++op) {
          const Key k = static_cast<Key>(rng.below(64));
          if (rng.below(2) == 0) {
            t.insert(k);
          } else {
            t.erase(k);
          }
        }
      });
    }
    for (auto& th : ts) th.join();
    Ebr::drain();
    EXPECT_EQ(Ebr::pending(), 0u);
  }
  Ebr::drain();
  EXPECT_EQ(Ebr::pending(), 0u);
}

TEST(Reclamation, FrBstDrainsToZero) {
  {
    FrBst<SizeAug> t;
    Xoshiro256 rng(2);
    for (int i = 0; i < 30000; ++i) {
      const Key k = static_cast<Key>(rng.below(512));
      if (rng.below(2) == 0) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
    Ebr::drain();
    EXPECT_EQ(Ebr::pending(), 0u);
  }
  Ebr::drain();
  EXPECT_EQ(Ebr::pending(), 0u);
}

TEST(Reclamation, VcasBstVersionChainsBoundedByTruncation) {
  {
    VcasBst t;
    for (Key k = 0; k < 64; ++k) t.insert(k);
    // Churn one key: its grandparent edge accumulates versions that
    // truncation must keep cutting (no snapshot is announced).
    for (int i = 0; i < 50000; ++i) {
      t.erase(63);
      t.insert(63);
    }
    Ebr::drain();
    // If truncation failed, tens of thousands of VNodes would be pending
    // or (worse) unreachable; pending must be zero after drain and the
    // structure still correct.
    EXPECT_EQ(Ebr::pending(), 0u);
    EXPECT_EQ(t.size(), 64);
  }
  Ebr::drain();
  EXPECT_EQ(Ebr::pending(), 0u);
}

// A long-lived snapshot must keep its view alive across heavy reclamation
// pressure — and release it afterwards.
TEST(Reclamation, SnapshotPinsItsVersionTree) {
  Bat<SizeAug> t;
  for (Key k = 0; k < 1000; ++k) t.insert(k);
  {
    Bat<SizeAug>::Snapshot snap(t);
    const auto n0 = snap.size();
    std::thread churn([&] {
      Xoshiro256 rng(3);
      for (int i = 0; i < 20000; ++i) {
        const Key k = static_cast<Key>(rng.below(1000));
        if (rng.below(2) == 0) {
          t.erase(k);
        } else {
          t.insert(k);
        }
      }
    });
    churn.join();
    // The pinned snapshot still answers exactly as at capture time.
    EXPECT_EQ(snap.size(), n0);
    EXPECT_EQ(snap.rank(999), n0);
    for (Key k = 0; k < 1000; k += 97) EXPECT_TRUE(snap.contains(k));
  }
  Ebr::drain();
  EXPECT_EQ(Ebr::pending(), 0u);
}

// Destruction after concurrent use must release everything (relies on the
// ASan CI job to flag double/early frees; here we check the books).
TEST(Reclamation, SequentialCreateDestroyManyTrees) {
  for (int round = 0; round < 20; ++round) {
    BatDel<SizeAug> t;
    for (Key k = 0; k < 500; ++k) t.insert(k);
    for (Key k = 0; k < 500; k += 2) t.erase(k);
    EXPECT_EQ(t.size(), 250);
  }
  Ebr::drain();
  EXPECT_EQ(Ebr::pending(), 0u);
}

}  // namespace
}  // namespace cbat
