// Software prefetch hints.
//
// A prefetch never faults and changes no value: an address that has gone
// stale by the time its line arrives costs one wasted fetch, nothing more.
// Callers may therefore prefetch through pointers they would not yet be
// allowed to act on, provided the pointer itself was read safely (for the
// trees: under the operation's EbrGuard).
#pragma once

namespace cbat {

inline void prefetch_read(const void* p) { __builtin_prefetch(p, 0, 3); }
inline void prefetch_write(const void* p) { __builtin_prefetch(p, 1, 3); }

}  // namespace cbat
