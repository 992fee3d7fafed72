#include "shard/sharded_set.h"

namespace cbat {

namespace shard_detail {

namespace {
// 2^20 keys: large enough that the default map is not degenerate for the
// paper's small-tree workloads, small enough that hinted workloads always
// override it.  One knob for every template instance (see header).
std::atomic<Key>& default_keyspace_slot() {
  static std::atomic<Key> keyspace{Key{1} << 20};
  return keyspace;
}
}  // namespace

Key default_keyspace() {
  // relaxed: configuration knob; no data is published through it.
  return default_keyspace_slot().load(std::memory_order_relaxed);
}

void set_default_keyspace(Key keyspace) {
  if (keyspace > 0) {
    // relaxed: see default_keyspace().
    default_keyspace_slot().store(keyspace, std::memory_order_relaxed);
  }
}

}  // namespace shard_detail

// The registry-visible shard counts, compiled once for every user.
template class ShardedSet<Bat<SizeAug>, 1>;
template class ShardedSet<Bat<SizeAug>, 4>;
template class ShardedSet<Bat<SizeAug>, 16>;
template class ShardedSet<Bat<SizeAug>, 64>;
template class ShardedSet<BatDel<SizeAug>, 16>;

}  // namespace cbat
