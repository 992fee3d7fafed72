#include "util/counters.h"

#include <cstring>

namespace cbat {

Padded<std::array<std::uint64_t, Counters::kN>> Counters::slots_[kMaxThreads];

Counters::Snapshot Counters::snapshot() {
  Snapshot s;
  const int n = ThreadRegistry::instance().max_id();
  for (int t = 0; t < n; ++t) {
    for (int c = 0; c < kN; ++c) s.v[c] += slots_[t]->at(c);
  }
  return s;
}

void Counters::reset() {
  const int n = ThreadRegistry::instance().max_id();
  for (int t = 0; t < n; ++t) slots_[t]->fill(0);
}

}  // namespace cbat
