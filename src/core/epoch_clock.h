// EpochClock — a forest's snapshot clock: one counter of minted stamps.
//
// Root installations stamp versions from the clock after the fact (vcas-
// style deferred timestamps); a linearizable cut reads the clock and then
// resolves every root back to the newest version stamped at or before the
// epoch it got.  The clock's one word is the newest minted epoch `c`:
//
//   * A stamp mints a fresh epoch: one fetch_add from c to c+1, handing
//     out c+1.  No two stamps are equal — the aggregate cache keys on
//     stamps.
//   * A cut returns c with one load and writes nothing: every stamp
//     minted before the load is <= c, and every stamp minted after it is
//     > c.  A read burst with no update between its cuts therefore shares
//     one epoch at the cost of one shared load each.
//
// Every word operation is seq_cst: the soundness argument (see
// docs/ARCHITECTURE.md "How the epoch cut works") orders all stamps and
// cuts of a forest in one total order.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/padded.h"

namespace cbat {

// Sentinel for a stamp slot not yet assigned.  Real stamps are >= 1, so
// value-initialized slots start unstamped.
inline constexpr std::uint64_t kEpochTbd = 0;

class alignas(kCacheLine) EpochClock {
 public:
  EpochClock() = default;
  EpochClock(const EpochClock&) = delete;
  EpochClock& operator=(const EpochClock&) = delete;

  // The newest minted epoch (introspection; starts at 1).
  std::uint64_t now() const { return c_.load(std::memory_order_seq_cst); }

  // Finalizes a deferred stamp slot (a root version's epoch, a shard map's
  // flip epoch) if it is still kEpochTbd and returns the final stamp.  The
  // caller must have read the stamped object as installed before calling,
  // which is what keeps stamps monotone along a history chain.  First CAS
  // wins; losers return the established stamp.
  std::uint64_t finalize(std::atomic<std::uint64_t>& slot) {
    std::uint64_t s = slot.load(std::memory_order_acquire);
    if (s != kEpochTbd) return s;
    const std::uint64_t fresh = mint();
    if (slot.compare_exchange_strong(s, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return fresh;
    }
    return s;
  }

  // Takes a cut: returns epoch e such that every stamp minted before the
  // call is <= e and every stamp minted after it is > e.
  std::uint64_t cut() const { return c_.load(std::memory_order_seq_cst); }

 private:
  // Advance to c+1 and return it.  Every write to the word is an RMW, so
  // each mint's release sequence runs to the end of the word's history,
  // and any cut that reads the word at or after this mint acquires from
  // it — which makes the caller's root install, sequenced before the
  // mint, visible to the cut's root loads.
  std::uint64_t mint() {
    return c_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  // shared: the one word every stamp and cut of a forest touches; the
  // class is cache-line aligned so it never shares a line with its owner.
  std::atomic<std::uint64_t> c_{1};
};

}  // namespace cbat
