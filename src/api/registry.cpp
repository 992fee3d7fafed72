#include "api/ordered_set.h"

#include <mutex>

#include "btree/verbtree.h"
#include "bundled/bundled_tree.h"
#include "core/bat_tree.h"
#include "frbst/frbst.h"
#include "shard/sharded_set.h"
#include "vcasbst/vcas_bst.h"

namespace cbat::api {

// The registry is the single place the whole-repository contract is
// enforced; a structure that stops satisfying its concept fails right here.
static_assert(RankedSet<Bat<SizeAug>>);
static_assert(RankedSet<BatDel<SizeAug>>);
static_assert(RankedSet<BatEagerDel<SizeAug>>);
static_assert(RankedSet<FrBst<SizeAug>>);
static_assert(RankedSet<VcasBst>);
static_assert(RankedSet<VerBTree>);
static_assert(RankedSet<BundledTree>);
// The shard layer composes BATs and must satisfy the same contract as one,
// plus the key-range hint the driver uses to align the shard map.
static_assert(RankedSet<ShardedSet<Bat<SizeAug>, 16>>);
static_assert(KeyRangeHintable<ShardedSet<Bat<SizeAug>, 16>>);
static_assert(!KeyRangeHintable<Bat<SizeAug>>);

namespace {
std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}
}  // namespace

StructureRegistry& StructureRegistry::instance() {
  static StructureRegistry r;
  return r;
}

StructureRegistry::StructureRegistry() {
  // The seven names used throughout the paper's figures and tables.
  register_type<Bat<SizeAug>>("BAT");
  register_type<BatDel<SizeAug>>("BAT-Del");
  register_type<BatEagerDel<SizeAug>>("BAT-EagerDel");
  register_type<FrBst<SizeAug>>("FR-BST");
  register_type<VcasBst>("VcasBST");
  register_type<VerBTree>("VerlibBTree");
  register_type<BundledTree>("BundledCitrusTree");
  // The sharded BAT forests (shard layer), with scenarios of their own
  // (shard_sweep, shard_hotspot, read_burst, rebalance).
  register_type<ShardedSet<Bat<SizeAug>, 1>>("Sharded1-BAT");
  register_type<ShardedSet<Bat<SizeAug>, 4>>("Sharded4-BAT");
  register_type<ShardedSet<Bat<SizeAug>, 16>>("Sharded16-BAT");
  register_type<ShardedSet<Bat<SizeAug>, 64>>("Sharded64-BAT");
  // A second name for Sharded16-BAT, the same type: perfbench's workloads
  // resolve it, and its traced run dynamic_casts the instance to that
  // type.
  register_type<ShardedSet<Bat<SizeAug>, 16>>("Sharded16-BAT-Lin");
  // The same type with its hot-shard controller switched on (the
  // rebalance scenario and compare_bench.py's "-Adapt" twin rule use it);
  // every other forest starts with the controller off.
  using Forest16 = ShardedSet<Bat<SizeAug>, 16>;
  Entry adapt = type_entry<Forest16>("Sharded16-BAT-Adapt");
  adapt.factory = [] {
    auto s = std::make_unique<SetModel<Forest16>>();
    s->set_name("Sharded16-BAT-Adapt");
    s->tree().set_adaptive_enabled(true);
    return std::unique_ptr<AbstractOrderedSet>(std::move(s));
  };
  adapt.info.adaptive = true;
  register_structure("Sharded16-BAT-Adapt", std::move(adapt));
}

void StructureRegistry::register_structure(std::string name, Entry entry) {
  std::lock_guard<std::mutex> g(registry_mutex());
  entries_[std::move(name)] = std::move(entry);
}

std::unique_ptr<AbstractOrderedSet> StructureRegistry::create(
    const std::string& name) const {
  Factory f;
  {
    std::lock_guard<std::mutex> g(registry_mutex());
    const auto it = entries_.find(name);
    if (it == entries_.end()) return nullptr;
    f = it->second.factory;
  }
  return f();
}

bool StructureRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> g(registry_mutex());
  return entries_.count(name) > 0;
}

std::optional<StructureInfo> StructureRegistry::info(
    const std::string& name) const {
  std::lock_guard<std::mutex> g(registry_mutex());
  const auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  return it->second.info;
}

std::vector<std::string> StructureRegistry::names() const {
  std::lock_guard<std::mutex> g(registry_mutex());
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

}  // namespace cbat::api
