// Quickstart: the BAT public API in two minutes.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "api/ordered_set.h"
#include "core/bat_tree.h"

int main() {
  // A lock-free balanced augmented tree with subtree sizes (the default
  // augmentation), using the eager-delegation variant — the paper's
  // best-performing configuration.
  cbat::BatEagerDel<cbat::SizeAug> set;

  // Plain set operations, safe to call from any number of threads.
  for (cbat::Key k : {50, 20, 80, 10, 30, 70, 90}) set.insert(k);
  set.erase(30);

  std::printf("contains(20) = %s\n", set.contains(20) ? "yes" : "no");
  std::printf("size()       = %lld\n", static_cast<long long>(set.size()));

  // What augmentation buys you: order-statistic queries in O(log n), each
  // answered from one atomic snapshot of the tree.
  std::printf("rank(50)     = %lld   (keys <= 50)\n",
              static_cast<long long>(set.rank(50)));
  if (auto third = set.select(3)) {
    std::printf("select(3)    = %lld   (3rd smallest)\n",
                static_cast<long long>(*third));
  }
  std::printf("count[25,85] = %lld\n",
              static_cast<long long>(set.range_count(25, 85)));

  // Multi-query consistency: a Snapshot pins one version tree, so every
  // answer refers to the same instant even while other threads update.
  {
    cbat::BatEagerDel<cbat::SizeAug>::Snapshot snap(set);
    const auto n = snap.size();
    const auto median = snap.select((n + 1) / 2);
    std::printf("snapshot: n=%lld median=%lld rank(median)=%lld\n",
                static_cast<long long>(n),
                static_cast<long long>(median.value_or(-1)),
                static_cast<long long>(snap.rank(*median)));
  }

  // Listing a range costs O(log n + answer).
  std::printf("keys in [15, 75]:");
  for (cbat::Key k : set.range_collect(15, 75)) {
    std::printf(" %lld", static_cast<long long>(k));
  }
  std::printf("\n");

  // The same structure through the unified API layer: every tree in the
  // repository registers itself in the StructureRegistry under the name the
  // paper's figures use, behind one type-erased interface.  This is how the
  // benchmarks and cross-structure tests stay structure-agnostic.
  auto& registry = cbat::api::StructureRegistry::instance();
  std::printf("registered structures:");
  for (const auto& name : registry.names()) std::printf(" %s", name.c_str());
  std::printf("\n");
  auto erased = registry.create("BAT-EagerDel");
  for (cbat::Key k : {3, 1, 2}) erased->insert(k);
  std::printf("via registry: %s has %lld keys, rank(2)=%lld\n",
              erased->name().c_str(), static_cast<long long>(erased->size()),
              static_cast<long long>(erased->rank(2)));

  // configure() takes a SetOptions bag.  Here a sharded forest (the
  // "-Adapt" entry, created with its online hot-shard rebalancing on)
  // aligns its shard map to the keyspace; configure() applies nothing and
  // returns false when the hint cannot be honored (a single tree has no
  // shard map, a populated forest can no longer repartition).
  auto forest = registry.create("Sharded16-BAT-Adapt");
  cbat::api::SetOptions opts;
  opts.key_range_hint = 1 << 20;
  const bool applied = forest->configure(opts);
  if (const auto info = registry.info(forest->name())) {
    std::printf("%s: shards=%d adaptive=%s, configure -> %s\n",
                forest->name().c_str(), info->shards,
                info->adaptive ? "yes" : "no", applied ? "ok" : "refused");
  }
  return 0;
}
