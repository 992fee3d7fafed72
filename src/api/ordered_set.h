// Unified ordered-set API layer.
//
// Every registered structure — the three BAT variants, the FR-BST, the
// three baselines and the shard forests — implements the same abstract
// set-with-order-statistics interface.  This header pins that contract
// down twice:
//
//   * statically, as the C++20 concept `RankedSet`, which the registry
//     enforces at registration time (a structure that drifts from the
//     contract stops compiling, not stops agreeing at runtime);
//   * dynamically, as `AbstractOrderedSet`, the type-erased interface the
//     benchmark driver and the integration tests program against (the role
//     SetBench's abstract set plays for the paper).
//
// `StructureRegistry` maps the structure names used by the paper's figures
// ("BAT-EagerDel", "FR-BST", ...) to factories.  Adding a new structure to
// every benchmark and cross-structure test is one `register_type` call; see
// README.md.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/keys.h"

namespace cbat::api {

// Minimal mutable ordered-set contract: membership plus an exact size.
template <class S>
concept OrderedSet = requires(S s, const S cs, Key k) {
  { s.insert(k) } -> std::same_as<bool>;
  { s.erase(k) } -> std::same_as<bool>;
  { cs.contains(k) } -> std::same_as<bool>;
  { cs.size() } -> std::convertible_to<std::int64_t>;
};

// Order-statistic extension (paper §1.1): rank, select, and range count.
// The augmented trees answer these in O(log n) from one snapshot; the
// baselines answer them by traversing a snapshot, as the paper prescribes.
template <class S>
concept RankedSet = OrderedSet<S> &&
    requires(const S cs, Key k, std::int64_t i) {
      { cs.range_count(k, k) } -> std::convertible_to<std::int64_t>;
      { cs.rank(k) } -> std::convertible_to<std::int64_t>;
      { cs.select(i) } -> std::convertible_to<std::optional<Key>>;
    };

// Optional extension: structures that partition or pre-size by key range
// (the shard layer) accept an advisory hint that keys will be drawn from
// [0, max_key).  Returns whether the hint was applied; implementations may
// ignore it (e.g. once populated).
template <class S>
concept KeyRangeHintable = requires(S s, Key k) {
  { s.key_range_hint(k) } -> std::same_as<bool>;
};

// The options bag configure() takes.  Each field is optional; a
// disengaged field means "leave that setting alone".
struct SetOptions {
  // Advisory: keys will be drawn from [0, key_range_hint).  Honored by
  // the shard forests while they are empty.  Per instance.
  std::optional<Key> key_range_hint;
};

// Static capabilities of a registered structure, derived from its type at
// registration (never parsed back out of its name).  The benchmark
// records these in every run's JSON config and `cbat_bench --list
// --verbose` prints them.
struct StructureInfo {
  bool adaptive = false;  // hot-shard controller on at creation
  int shards = 1;         // forest width (1 = single tree)
  // Range aggregates go through an epoch-stamped aggregate cache (every
  // shard forest) rather than reading the pinned roots directly.
  bool cached_reads = false;
};

// Type-erased view of a registered structure.
//
// Thread-safety contract: every operation is safe to call from any number
// of threads concurrently with any other, with no external locking.  Every
// operation of a builtin structure is linearizable, composite queries
// included (one root snapshot per single tree, one epoch cut per forest;
// docs/ARCHITECTURE.md "Consistency guarantees").  All operations
// are non-blocking toward *other* threads' progress except where a
// concrete structure documents bounded waiting (delegation's
// WaitForDelegatee, bounded by the delegation timeout and falling back to
// solo execution).
class AbstractOrderedSet {
 public:
  virtual ~AbstractOrderedSet() = default;

  // Point operations.  A key above kMaxUserKey is never a member: insert,
  // erase and contains return false for it and change nothing.
  virtual bool insert(Key k) = 0;
  virtual bool erase(Key k) = 0;
  virtual bool contains(Key k) = 0;
  virtual std::int64_t size() = 0;

  // Order statistics.  select_query answers 0 for an out-of-range index.
  virtual std::int64_t range_count(Key lo, Key hi) = 0;
  virtual std::int64_t rank(Key k) = 0;
  virtual Key select_query(std::int64_t i) = 0;

  // Aggregate over [lo, hi] for structures whose augmentation exposes an
  // int64 aggregate (every SizeAug structure: the aggregate IS the
  // count).  Structures without one answer with range_count — identical
  // for SizeAug, and the benchmarks only issue this against SizeAug
  // structures.  Separate from range_count because the shard layer
  // serves it through a different path (boundary descents memoized in
  // the hot-range aggregate cache) than the rank-composed range_count.
  virtual std::int64_t range_aggregate(Key lo, Key hi) {
    return range_count(lo, hi);
  }

  // Applies the engaged fields of `o`, or returns false and applies
  // nothing when this structure cannot honor one of them (a key-range
  // hint on a single tree or on a populated forest).  An empty bag
  // succeeds.  See SetOptions.
  virtual bool configure(const SetOptions& o) = 0;

  // Advisory: the calling thread expects to run about this many updates.
  // Structures backed by per-thread object pools pre-fault their free
  // lists so a fresh thread's first operations do not pay cold allocation
  // (first-touch jitter pollutes latency percentiles).  The benchmark
  // driver calls this from every prefill and worker thread before its
  // first operation; the default is a no-op.
  virtual void warm_up(std::size_t /*expected_updates*/) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::string name_;
};

// Bridges a concrete RankedSet type into AbstractOrderedSet.
template <RankedSet T>
class SetModel final : public AbstractOrderedSet {
 public:
  // The trees only assert k <= kMaxUserKey (larger keys are their
  // sentinels), so the check is made here, where outside input enters.
  bool insert(Key k) override { return k <= kMaxUserKey && t_.insert(k); }
  bool erase(Key k) override { return k <= kMaxUserKey && t_.erase(k); }
  bool contains(Key k) override { return k <= kMaxUserKey && t_.contains(k); }
  std::int64_t size() override { return t_.size(); }

  std::int64_t range_count(Key lo, Key hi) override {
    return t_.range_count(lo, hi);
  }
  std::int64_t rank(Key k) override { return t_.rank(k); }
  Key select_query(std::int64_t i) override { return t_.select(i).value_or(0); }
  std::int64_t range_aggregate(Key lo, Key hi) override {
    if constexpr (requires(const T ct) {
                    {
                      ct.range_aggregate(lo, hi)
                    } -> std::convertible_to<std::int64_t>;
                  }) {
      return t_.range_aggregate(lo, hi);
    } else {
      return t_.range_count(lo, hi);
    }
  }

  bool configure(const SetOptions& o) override {
    if (!o.key_range_hint.has_value()) return true;
    if constexpr (KeyRangeHintable<T>) {
      return t_.key_range_hint(*o.key_range_hint);
    }
    return false;
  }

  void warm_up(std::size_t expected_updates) override {
    if constexpr (requires(T t) { t.warm_up(expected_updates); }) {
      t_.warm_up(expected_updates);
    }
  }

  T& tree() { return t_; }

 private:
  T t_;
};

// Name -> factory map for every registered structure.  The builtin
// structures (the seven names the paper's figures use, plus the shard
// forests) are registered the first time instance() runs; user structures
// can be added at any point.
class StructureRegistry {
 public:
  using Factory = std::function<std::unique_ptr<AbstractOrderedSet>()>;

  struct Entry {
    Factory factory;
    StructureInfo info;  // type-derived capabilities (register_type)
  };

  static StructureRegistry& instance();

  // Registers `name`; replaces any previous registration of the same name
  // (tests use this to shadow a builtin with an instrumented double).
  void register_structure(std::string name, Entry entry);

  // Registers a concrete type under `name`.  The concept check happens
  // here: T must be a RankedSet, and its capabilities are derived from the
  // type rather than trusted from the caller.
  template <RankedSet T>
  void register_type(const std::string& name) {
    register_structure(name, type_entry<T>(name));
  }

  // Instantiates `name`, or returns nullptr if it is not registered.
  std::unique_ptr<AbstractOrderedSet> create(const std::string& name) const;

  bool contains(const std::string& name) const;

  // The registered structure's static capabilities, or nullopt if the
  // name is unknown.
  std::optional<StructureInfo> info(const std::string& name) const;

  // All registered names, sorted.
  std::vector<std::string> names() const;

 private:
  StructureRegistry();  // registers the builtin structures

  // The entry register_type records for T: a default-constructing factory
  // and the capabilities derived from the type.  A builtin entry that
  // builds its instance differently (Sharded16-BAT-Adapt) starts from it,
  // swaps the factory and states what it changed.
  template <RankedSet T>
  static Entry type_entry(const std::string& name) {
    Entry e;
    e.factory = [name] {
      auto s = std::make_unique<SetModel<T>>();
      s->set_name(name);
      return std::unique_ptr<AbstractOrderedSet>(std::move(s));
    };
    // Capabilities come from the TYPE, through the same static hooks the
    // layers already expose — never parsed back out of the name (the old
    // scheme; it broke the moment a name stopped encoding a property).
    if constexpr (requires {
                    { T::num_shards() } -> std::convertible_to<int>;
                  }) {
      e.info.shards = T::num_shards();
      e.info.cached_reads = true;  // every shard forest caches
    }
    return e;
  }

  std::map<std::string, Entry> entries_;
};

}  // namespace cbat::api
