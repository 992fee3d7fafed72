// EpochClock — a forest's snapshot clock with skip-or-advance cuts.
//
// Root installations stamp versions from the clock after the fact (vcas-
// style deferred timestamps); a linearizable cut reads the clock and then
// resolves every root back to the newest version stamped at or before the
// epoch it got.  The clock's one word holds the epoch `c` (bits 63..1) and
// a *stamped* bit (bit 0) meaning "some stamp may carry c":
//
//   * A stamp mints a fresh epoch: a CAS (retried on contention) from
//     (c, *) to (c+1, set), handing out c+1.  No two stamps are equal —
//     the aggregate cache keys on stamps — and no stamp c is ever
//     published while the bit for c reads clear.
//   * A cut that reads the bit clear returns c-1 and writes nothing: no
//     stamp c exists yet, and any stamp published later reads c or more.
//     A read burst with no update between its cuts therefore shares one
//     epoch at the cost of one shared load each.
//   * A cut that reads the bit set CASes the word to (c+1, clear) and
//     returns c whether or not its CAS wins — a failed CAS means another
//     cut or a mint already moved the clock past c.  This is the
//     CAS-if-unchanged advance of Wei et al.'s takeSnapshot.
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

  // The current epoch c (introspection; starts at 1).
  std::uint64_t now() const {
    return word_.load(std::memory_order_seq_cst) >> 1;
  }

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

  // Takes a cut: returns epoch e such that every stamp published before
  // the call is <= e and every stamp published after it is > e.
  std::uint64_t cut() {
    std::uint64_t w = word_.load(std::memory_order_seq_cst);
    const std::uint64_t c = w >> 1;
    if ((w & kStamped) == 0) return c - 1;
    word_.compare_exchange_strong(w, (c + 1) << 1, std::memory_order_seq_cst);
    return c;
  }

 private:
  static constexpr std::uint64_t kStamped = 1;

  // Advance to (c+1, stamped) and return c+1.  Every write to the word is
  // an RMW, so each mint's release sequence runs to the end of the word's
  // history, and any cut that reads the word at or after this mint
  // acquires from it — which makes the caller's root install, sequenced
  // before the mint, visible to the cut's root loads.
  std::uint64_t mint() {
    std::uint64_t w = word_.load(std::memory_order_seq_cst);
    while (!word_.compare_exchange_weak(w, (w | kStamped) + 2,
                                        std::memory_order_seq_cst)) {
      // w reloaded: mint from the clock's new value.
    }
    return (w >> 1) + 1;
  }

  // shared: the one word every stamp and cut of a forest touches; the
  // class is cache-line aligned so it never shares a line with its owner.
  std::atomic<std::uint64_t> word_{std::uint64_t{1} << 1};  // epoch 1, clear
};

}  // namespace cbat
