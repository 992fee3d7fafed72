// Order statistics over raw samples, and a fixed-size sample reservoir.
//
// Latencies and span durations are kept as exact nanosecond samples, not
// histogram buckets: a bucketed percentile snaps to the same midpoint on
// most runs, which hides small shifts and makes run-to-run spread unreadable.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace perfbench {

// Nearest-rank percentile (p in (0, 100]) of `v`; reorders `v`.  0 when
// empty.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * n);
  if (static_cast<double>(rank) < p / 100.0 * n) ++rank;  // ceil
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// Smoothed percentile: the mean of the samples ranked within half a
// percentile point of p.  Span durations are whole nanoseconds, so a plain
// order statistic of a short span reads the same integer on most runs; the
// local mean keeps run-to-run movement visible.  Reorders `v`.  0 when
// empty.
inline double smoothed_percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto lo = static_cast<std::size_t>(std::max(p - 0.5, 0.0) / 100.0 * n);
  auto hi = static_cast<std::size_t>(std::ceil(std::min(p + 0.5, 100.0) / 100.0 * n));
  lo = std::min(lo, v.size() - 1);
  hi = std::clamp(hi, lo + 1, v.size());
  double s = 0;
  for (std::size_t i = lo; i < hi; ++i) s += v[i];
  return s / static_cast<double>(hi - lo);
}

// The three cut points Python's statistics.quantiles(v, n=4) returns
// (its default "exclusive" method), so quartiles printed here and the
// spreads computed over repeated runs agree.  Needs at least 2 values; a
// single value is returned three times.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {0, 0, 0};
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const auto ld = static_cast<std::int64_t>(n);
  for (std::int64_t i = 1; i <= 3; ++i) {
    // Same integer steps as CPython, including clamping j before delta.
    const std::int64_t j = std::clamp<std::int64_t>(i * (ld + 1) / 4, 1, ld - 1);
    const std::int64_t delta = i * (ld + 1) - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return q;
}

inline double median(const std::vector<double>& v) { return quartiles(v)[1]; }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Uniform sample of at most `capacity` values out of a stream of unknown
// length (Vitter's Algorithm R).  Storage is allocated up front so the
// measured loop never allocates.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed) : rng_(seed) {
    values_.reserve(capacity);
    capacity_ = capacity;
  }

  void add(double x) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(x);
      return;
    }
    const std::uint64_t j = rng_.below(seen_);
    if (j < capacity_) values_[j] = x;
  }

  const std::vector<double>& values() const { return values_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> values_;
  std::size_t capacity_ = 0;
  std::uint64_t seen_ = 0;
  cbat::Xoshiro256 rng_;
};

}  // namespace perfbench
