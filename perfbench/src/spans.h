// In-memory span recorder for the traced run.
//
// Each worker owns one SpanBuffer, allocated before the run starts, and
// records spans only for the 1-in-N operations it samples.  A span is
// (name, start, end, parent, op id); the op span is the root, and its
// children are the generator and then either one public API call, the same
// layer calls made directly as one span, or one span per layer call.
// Nothing is written while the run is measured: the buffers are analysed
// and written out as CSV after the workers have joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kOp,               // the whole operation, as the benchmark loop sees it
  kOpGen,            // bench: drawing the operation and its key(s)
  kRoute,            // shard: ShardedSet::shard_of
  kUpdate,           // core: BatTree::insert / erase
  kFind,             // core: BatTree::contains
  kSnapshotAcquire,  // shard: constructing the Snapshot (epoch cut + pins)
  kVersionQuery,     // core: rank / range_aggregate on the pinned Snapshot
  kSnapshotRelease,  // shard: dropping the Snapshot (EBR guard exit)
  kApiUpdate,        // api: AbstractOrderedSet::insert / erase
  kApiFind,          // api: AbstractOrderedSet::contains
  kApiQuery,         // api: AbstractOrderedSet::rank / range_aggregate
  kDirectUpdate,     // the layer calls of an update, made directly, as one
  kDirectFind,       // ... of a find
  kDirectQuery,      // ... of a query
  kCount
};

const char* span_name(SpanName n);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t op_id = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index in the same buffer; -1 for a root
  SpanName name = SpanName::kOp;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  // Starts a span at `start` and returns its handle, or -1 once the buffer
  // is full (the operation still runs; it just goes unrecorded).  Callers
  // pass the clock reading so one read can end a span and start another.
  std::int32_t open(SpanName name, std::int32_t parent, std::uint64_t op_id,
                    std::int64_t start) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({op_id, start, 0, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t h, std::int64_t end) {
    if (h >= 0) spans_[static_cast<std::size_t>(h)].end = end;
  }
  // Whether an operation of up to `n` spans fits; counts it as dropped if
  // not, so no recorded operation is missing a child.
  bool begin_op(std::size_t n) {
    if (spans_.size() + n <= spans_.capacity()) return true;
    ++dropped_;
    return false;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// One operation class's samples for api_self_ns.
struct ClassSpans {
  std::vector<double> api;     // durations of the API call spans
  std::vector<double> direct;  // durations of the direct layer-call spans
  double ops = 0;              // the class's operations in the run
};

// Self time of the API call: its span minus its children, the layer calls
// that do the work.  One operation cannot be timed both ways, so per class
// it is the p50 of the API call spans minus the p50 of the direct spans
// (the same layer calls, timed the same way, on other sampled operations),
// and the classes are weighted by `ops`.  Classes lacking either sample
// are skipped; 0 when none has both.
double api_self_ns(std::vector<ClassSpans> classes);

// Writes spans as CSV (op_id,name,parent,start_ns,end_ns).
void dump_spans(std::FILE* out, const std::vector<Span>& spans);

}  // namespace perfbench
