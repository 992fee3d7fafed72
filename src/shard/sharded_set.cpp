#include "shard/sharded_set.h"

namespace cbat {

// The registry-visible shard counts, compiled once for every user.
template class ShardedSet<Bat<SizeAug>, 1>;
template class ShardedSet<Bat<SizeAug>, 4>;
template class ShardedSet<Bat<SizeAug>, 16>;
template class ShardedSet<Bat<SizeAug>, 64>;

}  // namespace cbat
