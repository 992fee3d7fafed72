// Tests for epoch-based reclamation and refcounted descriptors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "reclamation/descriptor.h"
#include "reclamation/ebr.h"

namespace cbat {
namespace {

std::atomic<int> g_freed{0};

struct Tracked {
  explicit Tracked(int v) : value(v) {}
  ~Tracked() { g_freed.fetch_add(1); }
  int value;
};

TEST(Ebr, RetireEventuallyFrees) {
  g_freed = 0;
  {
    EbrGuard g;
    ebr_retire(new Tracked(1));
    ebr_retire(new Tracked(2));
  }
  Ebr::drain();
  EXPECT_EQ(g_freed.load(), 2);
}

TEST(Ebr, GuardDelaysReclamation) {
  g_freed = 0;
  auto* t = new Tracked(7);
  std::atomic<bool> reader_ready{false};
  std::atomic<bool> retired{false};
  std::atomic<bool> release_reader{false};

  std::thread reader([&] {
    EbrGuard g;
    reader_ready = true;  // guard is open *before* the retire below
    while (!retired.load()) std::this_thread::yield();
    // The reader entered its epoch before the retire completed, so the
    // object must not be freed while this guard is open, no matter how many
    // retires other threads push through.
    for (int i = 0; i < 2000; ++i) {
      EXPECT_EQ(t->value, 7);  // would be use-after-free if EBR misbehaved
      if (i % 100 == 0) std::this_thread::yield();
    }
    while (!release_reader.load()) std::this_thread::yield();
  });

  while (!reader_ready.load()) std::this_thread::yield();
  {
    EbrGuard g;
    ebr_retire(t);
    retired = true;
  }
  // Push many retires to force epoch-advance attempts while reader is live.
  for (int i = 0; i < 5000; ++i) {
    EbrGuard g;
    ebr_retire(new Tracked(0));
  }
  EXPECT_EQ(t->value, 7);
  release_reader = true;
  reader.join();
  Ebr::drain();
  EXPECT_EQ(g_freed.load(), 5001);
}

// A reader parked in its guard keeps the epoch within one step of its
// own, so a backlog piles up in limbo and none of it may be freed.  Once
// the reader leaves, the periodic schedule alone (one advance attempt per
// 256 retires) frees the backlog: two advances retire its two epochs, so
// three attempts' worth of retires is a generous bound.  No drain() is
// involved.
TEST(Ebr, StalledBacklogIsReclaimedOnceTheReaderLeaves) {
  Ebr::drain();
  g_freed = 0;
  constexpr int kBacklog = 40000;
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EbrGuard g;
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  for (int i = 0; i < kBacklog; ++i) {
    EbrGuard g;
    ebr_retire(new Tracked(0));
  }
  EXPECT_EQ(g_freed.load(), 0) << "freed while an older guard was open";

  release = true;
  reader.join();
  // Untracked objects, so g_freed counts the backlog alone.
  int retires = 0;
  while (g_freed.load() < kBacklog && retires < 3 * 256) {
    EbrGuard g;
    ebr_retire(new int(0));
    ++retires;
  }
  EXPECT_EQ(g_freed.load(), kBacklog);
  std::printf("stalled backlog: %d of %d freed after %d retires\n",
              g_freed.load(), kBacklog, retires);
  Ebr::drain();
}

TEST(Ebr, DrainHandlesChainedRetires) {
  // A deleter that retires another object (node -> final version in §6).
  g_freed = 0;
  struct Outer {
    Tracked* inner;
    ~Outer() { ebr_retire(inner); }
  };
  {
    EbrGuard g;
    auto* o = new Outer{new Tracked(3)};
    Ebr::retire(o, [](void* p) { delete static_cast<Outer*>(p); });
  }
  Ebr::drain();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(Ebr, ReentrantGuards) {
  g_freed = 0;
  {
    EbrGuard a;
    {
      EbrGuard b;
      ebr_retire(new Tracked(0));
    }
    // still protected by `a`
  }
  Ebr::drain();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(Ebr, ManyThreadsRetireConcurrently) {
  g_freed = 0;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) {
        EbrGuard g;
        ebr_retire(new Tracked(j));
      }
    });
  }
  for (auto& t : ts) t.join();
  Ebr::drain();
  EXPECT_EQ(g_freed.load(), kThreads * kPerThread);
  EXPECT_EQ(Ebr::pending(), 0u);
}

// Descriptors are pool-recycled, so destructors cannot be used to observe
// frees; instead we observe the refcount while the creator credit provably
// keeps the object alive, and rely on ASan runs to flag double-frees.
struct PlainDesc : RefCountedDescriptor {};

TEST(Descriptor, CreatorCreditKeepsAlive) {
  Ebr::drain();
  auto* d = pool_new<PlainDesc>();
  {
    EbrGuard g;
    descriptor_ref(d);           // an install
    descriptor_retire_unref(d);  // the install is replaced (deferred)
  }
  Ebr::drain();  // deferred unref has executed by now
  // Still alive: only the creator credit remains.
  EXPECT_EQ(d->refs.load(), 1);
  {
    EbrGuard g;
    descriptor_retire_unref(d);  // creator drops its credit
  }
  EXPECT_GT(Ebr::pending(), 0u);  // free is queued, not immediate
  Ebr::drain();
  EXPECT_EQ(Ebr::pending(), 0u);
}

TEST(Descriptor, StaticDescriptorsNeverFreed) {
  static PlainDesc stat;
  stat.is_static = true;
  {
    EbrGuard g;
    descriptor_ref(&stat);
    descriptor_unref(&stat);
    descriptor_retire_unref(&stat);
    descriptor_unref(&stat);
  }
  Ebr::drain();
  EXPECT_EQ(stat.refs.load(), 1);  // untouched: statics are skipped entirely
}

TEST(Descriptor, ConcurrentRefUnrefIsBalanced) {
  auto* d = pool_new<PlainDesc>();
  constexpr int kThreads = 4;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([d] {
      for (int j = 0; j < 5000; ++j) {
        EbrGuard g;
        descriptor_ref(d);
        descriptor_retire_unref(d);
      }
    });
  }
  for (auto& t : ts) t.join();
  Ebr::drain();
  EXPECT_EQ(d->refs.load(), 1);  // perfectly balanced: creator credit left
  {
    EbrGuard g;
    descriptor_retire_unref(d);
  }
  Ebr::drain();
}

}  // namespace
}  // namespace cbat
