// Tests for the unified ordered-set API layer (src/api/ordered_set.h):
// concept classification, the structure registry, and the type-erased
// adapter including its fallbacks for non-ranked structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "api/ordered_set.h"
#include "bench/adapters.h"
#include "chromatic/chromatic_set.h"
#include "core/bat_tree.h"
#include "reclamation/ebr.h"
#include "shard/sharded_set.h"

namespace cbat {
namespace {

using api::AbstractOrderedSet;
using api::StructureRegistry;

const char* kBuiltins[] = {"BAT",     "BAT-Del",     "BAT-EagerDel",
                           "FR-BST",  "VcasBST",     "VerlibBTree",
                           "BundledCitrusTree",      "ChromaticSet"};

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
  EXPECT_EQ(bench::make_structure("nope"), nullptr);
}

TEST(Registry, RankednessIsDerivedFromTheType) {
  auto& reg = StructureRegistry::instance();
  for (const char* name : kBuiltins) {
    EXPECT_EQ(reg.is_ranked(name), std::string(name) != "ChromaticSet")
        << name;
  }
}

TEST(Registry, ComparisonSetMatchesFigures6To9) {
  const std::vector<std::string> want = {"BAT-EagerDel", "FR-BST", "VcasBST",
                                         "VerlibBTree", "BundledCitrusTree"};
  EXPECT_EQ(StructureRegistry::instance().comparison_set(), want);
  EXPECT_EQ(bench::all_structures(), want);
}

TEST(Registry, NamesListsEveryBuiltin) {
  const auto names = StructureRegistry::instance().names();
  for (const char* name : kBuiltins) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(Registry, MakeStructureGoesThroughRegistry) {
  auto set = bench::make_structure("BAT");
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->insert(5));
  EXPECT_TRUE(set->insert(9));
  EXPECT_FALSE(set->insert(5));
  EXPECT_TRUE(set->contains(9));
  EXPECT_EQ(set->size(), 2);
  EXPECT_EQ(set->rank(9), 2);
  EXPECT_EQ(set->select_query(1), 5);
  EXPECT_EQ(set->range_count(0, 100), 2);
  EXPECT_TRUE(set->supports_order_statistics());
}

TEST(Registry, NonRankedStructureUsesDocumentedFallbacks) {
  auto set = bench::make_structure("ChromaticSet");
  ASSERT_NE(set, nullptr);
  EXPECT_FALSE(set->supports_order_statistics());
  EXPECT_TRUE(set->insert(1));
  EXPECT_TRUE(set->insert(2));
  EXPECT_EQ(set->size(), 2);
  EXPECT_EQ(set->rank(2), 0);
  EXPECT_EQ(set->range_count(0, 10), 0);
  EXPECT_EQ(set->select_query(1), kInf2);
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
        "Sharded16-BAT-Del", "Sharded16-BAT-Lin", "Sharded16-BAT-Adapt"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_TRUE(reg.is_ranked(name)) << name;
    auto set = reg.create(name);
    ASSERT_NE(set, nullptr) << name;
    EXPECT_EQ(set->name(), name);
    EXPECT_TRUE(set->supports_order_statistics()) << name;
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
  // Not in the paper's Figures 6-9 comparison set.
  const auto cmp = reg.comparison_set();
  EXPECT_EQ(std::find(cmp.begin(), cmp.end(), "Sharded16-BAT"), cmp.end());
  EXPECT_EQ(std::find(cmp.begin(), cmp.end(), "Sharded16-BAT-Lin"),
            cmp.end());
}

TEST(Registry, ConsistencyIntrospectionPerStructure) {
  // Single trees answer composite queries from one atomic root snapshot,
  // and every shard forest from one epoch cut: linearizable, via the
  // default.  Only ChromaticSet, whose size() traverses the live tree,
  // reports the weaker guarantee.
  const struct {
    const char* name;
    api::Consistency want;
  } cases[] = {
      {"BAT", api::Consistency::kLinearizable},
      {"ChromaticSet", api::Consistency::kQuiescentlyConsistent},
  };
  for (const auto& c : cases) {
    auto set = bench::make_structure(c.name);
    ASSERT_NE(set, nullptr) << c.name;
    EXPECT_EQ(set->consistency(), c.want) << c.name;
  }
  int forests = 0;
  for (const std::string& name : StructureRegistry::instance().names()) {
    if (name.rfind("Sharded", 0) != 0) continue;
    ++forests;
    auto set = bench::make_structure(name);
    ASSERT_NE(set, nullptr) << name;
    EXPECT_EQ(set->consistency(), api::Consistency::kLinearizable) << name;
  }
  EXPECT_EQ(forests, 7);
  EXPECT_STREQ(api::consistency_name(api::Consistency::kLinearizable),
               "linearizable");
  EXPECT_STREQ(
      api::consistency_name(api::Consistency::kQuiescentlyConsistent),
      "quiescently_consistent");
}

TEST(Registry, SingleTreesIgnoreKeyRangeHint) {
  auto set = bench::make_structure("BAT");
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
  auto set = bench::make_structure("test-only-RefSet");
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->supports_order_statistics());
  for (Key k = 0; k < 100; ++k) set->insert(k);
  EXPECT_EQ(set->size(), 100);
  EXPECT_EQ(set->rank(49), 50);
  EXPECT_EQ(set->range_count(10, 19), 10);
  // Not part of the comparison sweep unless opted in.
  const auto cmp = reg.comparison_set();
  EXPECT_EQ(std::find(cmp.begin(), cmp.end(), "test-only-RefSet"), cmp.end());
}

// --- capability introspection + the configure() front door ---------------

TEST(Registry, StructureInfoIsDerivedFromTheType) {
  auto& reg = StructureRegistry::instance();
  EXPECT_FALSE(reg.info("nope").has_value());

  const struct {
    const char* name;
    bool ranked, adaptive;
    int shards;
    api::Consistency consistency;
    bool cached_reads;
  } cases[] = {
      {"BAT", true, false, 1, api::Consistency::kLinearizable, false},
      {"ChromaticSet", false, false, 1,
       api::Consistency::kQuiescentlyConsistent, false},
      {"Sharded1-BAT", true, false, 1, api::Consistency::kLinearizable,
       true},
      {"Sharded16-BAT", true, false, 16, api::Consistency::kLinearizable,
       true},
      {"Sharded16-BAT-Adapt", true, true, 16,
       api::Consistency::kLinearizable, true},
  };
  for (const auto& c : cases) {
    const auto info = reg.info(c.name);
    ASSERT_TRUE(info.has_value()) << c.name;
    EXPECT_EQ(info->ranked, c.ranked) << c.name;
    EXPECT_EQ(info->adaptive, c.adaptive) << c.name;
    EXPECT_EQ(info->shards, c.shards) << c.name;
    EXPECT_EQ(info->consistency, c.consistency) << c.name;
    EXPECT_EQ(info->cached_reads, c.cached_reads) << c.name;
    // info() must agree with the instance the registry hands out.
    auto set = reg.create(c.name);
    ASSERT_NE(set, nullptr) << c.name;
    EXPECT_EQ(set->supports_order_statistics(), c.ranked) << c.name;
    EXPECT_EQ(set->consistency(), c.consistency) << c.name;
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
  EXPECT_TRUE(reg.create("ChromaticSet")->configure({}));

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

  // Rebalancing fields: every forest honors them, single trees refuse.
  api::SetOptions adapt;
  adapt.adaptive_rebalance = false;
  adapt.rebalance_hot_factor = 3.0;
  adapt.rebalance_check_period = 1024;
  EXPECT_TRUE(reg.create("Sharded16-BAT")->configure(adapt));
  EXPECT_TRUE(reg.create("Sharded16-BAT-Adapt")->configure(adapt));
  EXPECT_FALSE(reg.create("BAT")->configure(adapt));

  // A mixed bag the structure cannot fully honor applies NOTHING: the
  // forest refuses the malformed hot factor, so its shard map keeps the
  // keyspace it had.
  api::SetOptions mixed;
  mixed.key_range_hint = 4096;
  mixed.rebalance_hot_factor = 0.5;
  auto plain = reg.create("Sharded16-BAT");
  const Key keyspace_before = forest_keyspace(*plain);
  ASSERT_NE(keyspace_before, 4096);
  EXPECT_FALSE(plain->configure(mixed));
  EXPECT_EQ(forest_keyspace(*plain), keyspace_before)
      << "a refused configure() must not apply the hint";
  mixed.rebalance_hot_factor = 3.0;
  EXPECT_TRUE(plain->configure(mixed));
  EXPECT_EQ(forest_keyspace(*plain), 4096);

  // Same for the process-wide knobs: a malformed limbo mark refuses the
  // whole bag, so the delegation timeout riding along stays put.
  const std::uint64_t timeout = Bat<SizeAug>::delegation_timeout();
  api::SetOptions bad_mark;
  bad_mark.delegation_timeout = timeout + 7;
  bad_mark.ebr_limbo_high_water = -1;
  EXPECT_FALSE(reg.create("Sharded16-BAT")->configure(bad_mark));
  EXPECT_EQ(Bat<SizeAug>::delegation_timeout(), timeout)
      << "a refused configure() must not apply the delegation timeout";
}

TEST(Registry, ConfigureRejectsMalformedKnobs) {
  auto& reg = StructureRegistry::instance();
  const std::uint64_t timeout = Bat<SizeAug>::delegation_timeout();

  // hot_factor: the policy compares rates against hot_factor * mean, so
  // non-finite values and factors <= 1.0 are refused even by structures
  // that have the setter — and a refusal applies none of the bag.
  for (const double bad :
       {0.5, 1.0, -2.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    api::SetOptions o;
    o.rebalance_hot_factor = bad;
    o.delegation_timeout = timeout + 9;
    EXPECT_FALSE(reg.create("Sharded16-BAT-Adapt")->configure(o))
        << "hot_factor " << bad << " must be refused";
    EXPECT_EQ(Bat<SizeAug>::delegation_timeout(), timeout)
        << "hot_factor " << bad << ": nothing may be applied";
  }

  // check_period: zero would run the policy on every update.
  api::SetOptions zero_period;
  zero_period.rebalance_check_period = 0;
  EXPECT_FALSE(reg.create("Sharded16-BAT-Adapt")->configure(zero_period));

  // The boundary values just past malformed still apply cleanly.
  api::SetOptions good;
  good.rebalance_hot_factor = 1.5;
  good.rebalance_check_period = 1;
  EXPECT_TRUE(reg.create("Sharded16-BAT-Adapt")->configure(good));
}

// The EBR limbo-pressure guardrail rides the same front door.  Zero
// legitimately disables the guardrail; a negative mark is malformed (no
// limbo population can sit below zero) and must leave the knob alone.
TEST(Registry, ConfigureEbrLimboHighWater) {
  auto& reg = StructureRegistry::instance();
  const std::int64_t saved = ebr_limbo_high_water();

  api::SetOptions neg;
  neg.ebr_limbo_high_water = -1;
  EXPECT_FALSE(reg.create("BAT")->configure(neg));
  EXPECT_EQ(ebr_limbo_high_water(), saved)
      << "a refused mark must not be applied";

  api::SetOptions apply;
  apply.ebr_limbo_high_water = 123;
  EXPECT_TRUE(reg.create("BAT")->configure(apply));
  EXPECT_EQ(ebr_limbo_high_water(), 123);

  api::SetOptions off;
  off.ebr_limbo_high_water = 0;
  EXPECT_TRUE(reg.create("BAT")->configure(off));
  EXPECT_EQ(ebr_limbo_high_water(), 0);

  set_ebr_limbo_high_water(saved);
}

TEST(Registry, ConfigureDrivesTheProcessWideKnobs) {
  const std::uint64_t saved_timeout = Bat<SizeAug>::delegation_timeout();

  auto set = bench::make_structure("Sharded16-BAT");
  api::SetOptions o;
  o.delegation_timeout = saved_timeout + 17;
  EXPECT_TRUE(set->configure(o));
  // Process-wide: every BAT variant sees the new budget.
  EXPECT_EQ(Bat<SizeAug>::delegation_timeout(), saved_timeout + 17);
  EXPECT_EQ(BatDel<SizeAug>::delegation_timeout(), saved_timeout + 17);
  EXPECT_EQ(BatEagerDel<SizeAug>::delegation_timeout(), saved_timeout + 17);

  Bat<SizeAug>::set_delegation_timeout(saved_timeout);
  BatDel<SizeAug>::set_delegation_timeout(saved_timeout);
  BatEagerDel<SizeAug>::set_delegation_timeout(saved_timeout);
  EXPECT_EQ(Bat<SizeAug>::delegation_timeout(), saved_timeout);
}

// The concept layer must agree with the adapter layer about each tree.
static_assert(api::OrderedSet<Bat<SizeAug>>);
static_assert(api::RankedSet<Bat<SizeAug>>);
static_assert(api::OrderedSet<ChromaticSet>);
static_assert(!api::RankedSet<ChromaticSet>);

}  // namespace
}  // namespace cbat
