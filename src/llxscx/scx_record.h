// SCX identities (paper §3.1; Brown–Ellen–Ruppert 2013).
//
// Each ThreadRegistry slot owns one SCX descriptor, and the slot's thread
// reuses it for every SCX it runs (Brown, "Reuse, don't recycle", DISC
// 2017): nothing is allocated per SCX, and nothing is left to reclaim.  A
// node's `info` word names the last SCX that froze it by (slot, sequence),
// an ScxId; kNoScx names no SCX, the word of a node no SCX has frozen.  An
// SCX's owner bumps its descriptor's sequence before it rewrites the
// descriptor for that SCX, and a slot's sequence is never reset, not even
// when the slot passes to a new thread.  So an ScxId names one SCX for the
// life of the process, and an `info` word that moves away from a value
// never returns to it, which is all the LLX/SCX argument asks of a
// descriptor's identity.  The descriptor itself (ScxRecord) is private to
// llx_scx.cpp.
#pragma once

#include <cstdint>

#include "util/thread_registry.h"

namespace cbat {

// The chromatic tree's largest SCXs (W-FAR, W-NEAR) depend on 5 records.
inline constexpr int kMaxScxNodes = 5;

using ScxId = std::uint64_t;
inline constexpr ScxId kNoScx = 0;

// The slot sits in the low bits and the sequence above them.  Sequences
// start at 1, so no SCX's id is kNoScx; 55 bits of sequence outlast any
// run.
inline constexpr int kScxSlotBits = 9;
static_assert(kMaxThreads <= (1 << kScxSlotBits),
              "every ThreadRegistry slot must fit an ScxId's slot bits");

constexpr ScxId scx_id(int slot, std::uint64_t seq) {
  return seq << kScxSlotBits | static_cast<ScxId>(slot);
}
constexpr int scx_slot(ScxId id) {
  return static_cast<int>(id & ((ScxId{1} << kScxSlotBits) - 1));
}
constexpr std::uint64_t scx_sequence(ScxId id) { return id >> kScxSlotBits; }

}  // namespace cbat
