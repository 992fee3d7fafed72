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

// Fetches p's line for ownership, ahead of a write.  On x86-64,
// __builtin_prefetch(p, 1, 3) emits a plain read prefetch (prefetcht0)
// unless the target has PRFCHW, which the default x86-64 baseline lacks;
// `prefetchw` itself decodes as a no-op on CPUs without PRFCHW.
inline void prefetch_write(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

}  // namespace cbat
