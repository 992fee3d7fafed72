// Tests for the unified ordered-set API layer (src/api/ordered_set.h):
// concept classification, the structure registry, and the type-erased
// adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/ordered_set.h"
#include "chromatic/chromatic_set.h"
#include "core/bat_tree.h"
#include "shard/sharded_set.h"

namespace cbat {
namespace {

using api::AbstractOrderedSet;
using api::StructureRegistry;

const char* kBuiltins[] = {"BAT",     "BAT-Del",     "BAT-EagerDel",
                           "FR-BST",  "VcasBST",     "VerlibBTree",
                           "BundledCitrusTree"};

api::SetOptions hint(Key max_key) {
  api::SetOptions o;
  o.key_range_hint = max_key;
  return o;
}

TEST(Registry, AllPaperStructureNamesResolve) {
  auto& reg = StructureRegistry::instance();
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(reg.contains(name)) << name;
    auto set = reg.create(name);
    ASSERT_NE(set, nullptr) << name;
    EXPECT_EQ(set->name(), name);
  }
}

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(StructureRegistry::instance().create("nope"), nullptr);
  EXPECT_FALSE(StructureRegistry::instance().contains("nope"));
}

TEST(Registry, NamesListsEveryBuiltin) {
  const auto names = StructureRegistry::instance().names();
  for (const char* name : kBuiltins) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(Registry, MakeStructureGoesThroughRegistry) {
  auto set = StructureRegistry::instance().create("BAT");
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->insert(5));
  EXPECT_TRUE(set->insert(9));
  EXPECT_FALSE(set->insert(5));
  EXPECT_TRUE(set->contains(9));
  EXPECT_EQ(set->size(), 2);
  EXPECT_EQ(set->rank(9), 2);
  EXPECT_EQ(set->select_query(1), 5);
  EXPECT_EQ(set->range_count(0, 100), 2);
}

// The keyspace a registry-created Sharded16-BAT currently uses.
Key forest_keyspace(AbstractOrderedSet& set) {
  auto* m = dynamic_cast<api::SetModel<ShardedSet<Bat<SizeAug>, 16>>*>(&set);
  return m == nullptr ? -1 : m->tree().keyspace();
}

TEST(Registry, ShardedStructureNamesResolve) {
  auto& reg = StructureRegistry::instance();
  for (const char* name :
       {"Sharded1-BAT", "Sharded4-BAT", "Sharded16-BAT", "Sharded64-BAT",
        "Sharded16-BAT-Lin", "Sharded16-BAT-Adapt"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    auto set = reg.create(name);
    ASSERT_NE(set, nullptr) << name;
    EXPECT_EQ(set->name(), name);
    // The shard layer accepts the driver's key-range hint; single trees
    // refuse it.
    EXPECT_TRUE(set->configure(hint(10000))) << name;
    // And behaves like any RankedSet through the type-erased interface.
    EXPECT_TRUE(set->insert(5));
    EXPECT_TRUE(set->insert(9999));  // last shard
    EXPECT_EQ(set->size(), 2);
    EXPECT_EQ(set->rank(9999), 2);
    EXPECT_EQ(set->select_query(1), 5);
    EXPECT_EQ(set->range_count(0, 10000), 2);
    EXPECT_EQ(set->range_aggregate(0, 10000), 2) << name;
    EXPECT_EQ(set->range_aggregate(6, 9998), 0) << name;
    // Populated: the hint must now be refused.
    EXPECT_FALSE(set->configure(hint(20000))) << name;
    // warm_up is advisory and must be callable through the interface.
    set->warm_up(64);
  }
  // "Sharded16-BAT-Lin" is a second name for the Sharded16-BAT type:
  // perfbench's traced run casts the instance it resolves to that type.
  EXPECT_NE(forest_keyspace(*reg.create("Sharded16-BAT-Lin")), -1);
}

TEST(Registry, SingleTreesIgnoreKeyRangeHint) {
  auto set = StructureRegistry::instance().create("BAT");
  ASSERT_NE(set, nullptr);
  EXPECT_FALSE(set->configure(hint(10000)));
}

TEST(Registry, UserStructuresCanBeRegistered) {
  // A std::set-backed reference structure is itself a valid RankedSet —
  // registering it makes it available to the whole harness.
  struct RefSet {
    std::set<Key> s;
    bool insert(Key k) { return s.insert(k).second; }
    bool erase(Key k) { return s.erase(k) > 0; }
    bool contains(Key k) const { return s.count(k) > 0; }
    std::int64_t size() const { return static_cast<std::int64_t>(s.size()); }
    std::int64_t rank(Key k) const {
      return static_cast<std::int64_t>(
          std::distance(s.begin(), s.upper_bound(k)));
    }
    std::optional<Key> select(std::int64_t i) const {
      if (i < 1 || i > size()) return std::nullopt;
      auto it = s.begin();
      std::advance(it, i - 1);
      return *it;
    }
    std::int64_t range_count(Key lo, Key hi) const {
      return static_cast<std::int64_t>(
          std::distance(s.lower_bound(lo), s.upper_bound(hi)));
    }
  };
  static_assert(api::RankedSet<RefSet>);

  auto& reg = StructureRegistry::instance();
  reg.register_type<RefSet>("test-only-RefSet");
  auto set = reg.create("test-only-RefSet");
  ASSERT_NE(set, nullptr);
  for (Key k = 0; k < 100; ++k) set->insert(k);
  EXPECT_EQ(set->size(), 100);
  EXPECT_EQ(set->rank(49), 50);
  EXPECT_EQ(set->range_count(10, 19), 10);
}

// --- capability introspection + the configure() front door ---------------

TEST(Registry, StructureInfoIsDerivedFromTheType) {
  auto& reg = StructureRegistry::instance();
  EXPECT_FALSE(reg.info("nope").has_value());

  const struct {
    const char* name;
    bool adaptive;
    int shards;
    bool cached_reads;
  } cases[] = {
      {"BAT", false, 1, false},
      {"Sharded1-BAT", false, 1, true},
      {"Sharded16-BAT", false, 16, true},
      {"Sharded16-BAT-Adapt", true, 16, true},
  };
  for (const auto& c : cases) {
    const auto info = reg.info(c.name);
    ASSERT_TRUE(info.has_value()) << c.name;
    EXPECT_EQ(info->adaptive, c.adaptive) << c.name;
    EXPECT_EQ(info->shards, c.shards) << c.name;
    EXPECT_EQ(info->cached_reads, c.cached_reads) << c.name;
  }
  // Every forest is one type per shard count; only the "-Adapt" entry
  // builds it with the hot-shard controller on.
  for (const std::string& name : reg.names()) {
    EXPECT_EQ(reg.info(name)->adaptive, name == "Sharded16-BAT-Adapt")
        << name;
  }
}

TEST(Registry, ConfigureReportsExactlyWhatItApplied) {
  auto& reg = StructureRegistry::instance();
  // An empty options bag trivially succeeds everywhere.
  EXPECT_TRUE(reg.create("BAT")->configure({}));
  EXPECT_TRUE(reg.create("VcasBST")->configure({}));

  // key_range_hint: honored by shard forests while empty, refused by
  // single trees and by populated forests — and configure() must say so.
  EXPECT_FALSE(reg.create("BAT")->configure(hint(10000)));
  auto forest = reg.create("Sharded16-BAT");
  EXPECT_TRUE(forest->configure(hint(10000)));
  EXPECT_EQ(forest_keyspace(*forest), 10000);
  EXPECT_TRUE(forest->insert(5));
  EXPECT_FALSE(forest->configure(hint(20000)))
      << "populated forest must refuse";
  EXPECT_EQ(forest_keyspace(*forest), 10000);
  // An empty bag succeeds on a populated forest too: nothing to refuse.
  EXPECT_TRUE(forest->configure({}));
}

// Concept classification: only a RankedSet can be registered, and the
// plain chromatic set (an OrderedSet without order statistics) is not one.
static_assert(api::OrderedSet<Bat<SizeAug>>);
static_assert(api::RankedSet<Bat<SizeAug>>);
static_assert(api::OrderedSet<ChromaticSet>);
static_assert(!api::RankedSet<ChromaticSet>);

}  // namespace
}  // namespace cbat
