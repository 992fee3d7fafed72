// Positive control for the negative-compile suite: the same operations as
// the bad_* TUs, written against protocol.  This file must compile CLEAN
// under clang -Werror=thread-safety — if it fails, the annotations are
// over-constraining legitimate use and the bad_* diagnostics prove nothing.
#include <atomic>
#include <cstdint>

#include "core/augmentations.h"
#include "core/version_queries.h"
#include "reclamation/ebr.h"
#include "util/seqlock.h"

bool guarded_contains(const cbat::Version<cbat::SizeAug>* root, cbat::Key k) {
  cbat::EbrGuard g;  // named local: TSA tracks the scoped capability
  return cbat::version_contains(root, k);
}

std::int64_t guarded_size(const cbat::Version<cbat::SizeAug>* root) {
  cbat::EbrGuard g;  // still pinned when the query runs
  return cbat::version_size(root);
}

bool tokened_publish(cbat::Seqlock& seq,
                     std::atomic<std::uint64_t>& payload) {
  if (!seq.try_write()) return false;  // writer in flight: skip
  payload.store(42, std::memory_order_relaxed);
  seq.end_write();
  return true;
}
