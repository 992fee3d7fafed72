#include "api/ordered_set.h"

#include <algorithm>
#include <mutex>

#include "btree/verbtree.h"
#include "bundled/bundled_tree.h"
#include "chromatic/chromatic_set.h"
#include "core/bat_tree.h"
#include "frbst/frbst.h"
#include "reclamation/ebr.h"
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
static_assert(OrderedSet<ChromaticSet> && !RankedSet<ChromaticSet>);
// The shard layer composes BATs and must satisfy the same contract as one,
// plus the key-range hint the driver uses to align the shard map.
static_assert(RankedSet<ShardedSet<Bat<SizeAug>, 16>>);
static_assert(KeyRangeHintable<ShardedSet<Bat<SizeAug>, 16>>);
static_assert(RankedSet<ShardedSet<BatDel<SizeAug>, 16>>);
static_assert(!KeyRangeHintable<Bat<SizeAug>>);
// Every forest answers composite queries on an epoch cut, so none carries
// the weaker-consistency hook: they report the linearizable default.
static_assert(!ConsistencyIntrospectable<ShardedSet<Bat<SizeAug>, 16>>);
// Single trees keep the default too: no hook, composite queries
// linearizable.
static_assert(!ConsistencyIntrospectable<Bat<SizeAug>>);
// Every forest carries the hot-shard rebalancer and takes its knobs.
static_assert(Rebalanceable<ShardedSet<Bat<SizeAug>, 16>>);
static_assert(!Rebalanceable<Bat<SizeAug>>);

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
  // The eight names used throughout the paper's figures and tables.
  register_type<Bat<SizeAug>>("BAT", /*in_comparison=*/false);
  register_type<BatDel<SizeAug>>("BAT-Del", /*in_comparison=*/false);
  register_type<BatEagerDel<SizeAug>>("BAT-EagerDel", /*in_comparison=*/true);
  register_type<FrBst<SizeAug>>("FR-BST", /*in_comparison=*/true);
  register_type<VcasBst>("VcasBST", /*in_comparison=*/true);
  register_type<VerBTree>("VerlibBTree", /*in_comparison=*/true);
  register_type<BundledTree>("BundledCitrusTree", /*in_comparison=*/true);
  register_type<ChromaticSet>("ChromaticSet", /*in_comparison=*/false);
  // The sharded BAT forests (shard layer).  Not in the paper's comparison
  // set — they have their own scenarios (shard_sweep, shard_hotspot).
  register_type<ShardedSet<Bat<SizeAug>, 1>>("Sharded1-BAT");
  register_type<ShardedSet<Bat<SizeAug>, 4>>("Sharded4-BAT");
  register_type<ShardedSet<Bat<SizeAug>, 16>>("Sharded16-BAT");
  register_type<ShardedSet<Bat<SizeAug>, 64>>("Sharded64-BAT");
  register_type<ShardedSet<BatDel<SizeAug>, 16>>("Sharded16-BAT-Del");
  // A second name for Sharded16-BAT, the same type: perfbench's workloads
  // resolve it, and its traced run dynamic_casts the instance to that
  // type.
  register_type<ShardedSet<Bat<SizeAug>, 16>>("Sharded16-BAT-Lin");
  // The same type with its hot-shard controller switched on (the
  // rebalance scenario and compare_bench.py's "-Adapt" twin rule use it);
  // every other forest starts with the controller off.  The rebalancing
  // knobs arrive through configure(SetOptions) on every forest.
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

namespace detail {

bool process_options_valid(const SetOptions& o) {
  // 0 means "guardrail off"; a negative mark is malformed (no limbo
  // population can be below zero, so it would arm a dead trigger).
  return !o.ebr_limbo_high_water.has_value() || *o.ebr_limbo_high_water >= 0;
}

void apply_process_options(const SetOptions& o) {
  if (o.delegation_timeout.has_value()) {
    // The spin budget is a per-instantiation static on BatTree; apply it
    // to every variant the registry instantiates so the knob stays
    // process-wide as documented.
    Bat<SizeAug>::set_delegation_timeout(*o.delegation_timeout);
    BatDel<SizeAug>::set_delegation_timeout(*o.delegation_timeout);
    BatEagerDel<SizeAug>::set_delegation_timeout(*o.delegation_timeout);
  }
  if (o.ebr_limbo_high_water.has_value()) {
    set_ebr_limbo_high_water(*o.ebr_limbo_high_water);
  }
}

}  // namespace detail

void StructureRegistry::register_structure(std::string name, Entry entry) {
  std::lock_guard<std::mutex> g(registry_mutex());
  static int next_order = 0;
  // Re-registering a name (tests shadowing a builtin with an instrumented
  // double) keeps its position so figure series ordering stays stable.
  const auto it = entries_.find(name);
  entry.order = it != entries_.end() ? it->second.order : next_order++;
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

bool StructureRegistry::is_ranked(const std::string& name) const {
  std::lock_guard<std::mutex> g(registry_mutex());
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.ranked;
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

std::vector<std::string> StructureRegistry::comparison_set() const {
  std::lock_guard<std::mutex> g(registry_mutex());
  std::vector<std::pair<int, std::string>> picked;
  for (const auto& [name, entry] : entries_) {
    if (entry.in_comparison) picked.emplace_back(entry.order, name);
  }
  std::sort(picked.begin(), picked.end());
  std::vector<std::string> out;
  out.reserve(picked.size());
  for (auto& [order, name] : picked) out.push_back(std::move(name));
  return out;
}

}  // namespace cbat::api
