#include "reclamation/pool.h"

#include <sys/mman.h>

#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "util/backoff.h"
#include "util/fault.h"

namespace cbat {
namespace {

// Allocation retry cap: must exceed any fault plan's per-site forced
// budget (FaultPlan::max_fails_per_site) so an injected exhaustion burst
// can never be mistaken for a persistent one.
constexpr std::uint32_t kAllocRetries = 256;

// The one process-wide block source.  Blocks are cut in turn from the
// newest chunk, so only that chunk is ever part-used.
struct Arena {
  std::mutex mu;
  // Every chunk ever taken (guarded by mu).  Chunks are never freed; this
  // list keeps them reachable for LeakSanitizer once the free lists and
  // depots holding their slots are gone.
  std::vector<std::byte*> chunks;
  std::byte* next = nullptr;  // uncut rest of the newest chunk
  std::byte* end = nullptr;

  // Null only when a new chunk was needed and could not be taken.
  std::byte* cut_block() {
    std::lock_guard<std::mutex> lock(mu);
    if (next == end) {
      chunks.push_back(nullptr);  // room first: a taken chunk is recorded
      void* c = ::operator new(kPoolChunkBytes,
                               std::align_val_t{kPoolChunkBytes},
                               std::nothrow);
      if (c == nullptr) {
        chunks.pop_back();
        return nullptr;
      }
#if defined(MADV_HUGEPAGE)
      // Best effort: fails harmlessly where huge pages are unsupported.
      (void)madvise(c, kPoolChunkBytes, MADV_HUGEPAGE);
#endif
      chunks.back() = static_cast<std::byte*>(c);
      next = chunks.back();
      end = next + kPoolChunkBytes;
    }
    std::byte* b = next;
    next += kPoolBlockBytes;
    return b;
  }
};

// Never destroyed: live objects sit in its chunks until the process ends.
Arena& arena() {
  static Arena* a = new Arena;
  return *a;
}

}  // namespace

std::size_t pool_mapped_bytes() {
  Arena& a = arena();
  std::lock_guard<std::mutex> lock(a.mu);
  return a.chunks.size() * kPoolChunkBytes;
}

namespace detail {

std::byte* take_pool_block() {
  Backoff bo;
  for (std::uint32_t attempt = 0; attempt < kAllocRetries; ++attempt) {
    if (!CBAT_FAULT_FORCE("pool.alloc_fail")) {
      if (std::byte* b = arena().cut_block()) {
        asan_poison(b, kPoolBlockBytes);  // unpoisoned slot by slot
        return b;
      }
    }
    bo.pause();
  }
  throw std::bad_alloc{};
}

}  // namespace detail
}  // namespace cbat
