#include "spans.h"

#include <cinttypes>

#include "stats.h"

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kOp:
      return "api.op";
    case SpanName::kOpGen:
      return "bench.opgen";
    case SpanName::kRoute:
      return "shard.route";
    case SpanName::kUpdate:
      return "core.update";
    case SpanName::kFind:
      return "core.find";
    case SpanName::kSnapshotAcquire:
      return "shard.snapshot_acquire";
    case SpanName::kVersionQuery:
      return "core.version_query";
    case SpanName::kSnapshotRelease:
      return "shard.snapshot_release";
    case SpanName::kApiUpdate:
      return "api.update";
    case SpanName::kApiFind:
      return "api.find";
    case SpanName::kApiQuery:
      return "api.query";
    case SpanName::kDirectUpdate:
      return "direct.update";
    case SpanName::kDirectFind:
      return "direct.find";
    case SpanName::kDirectQuery:
      return "direct.query";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

double api_self_ns(std::vector<ClassSpans> classes) {
  double self = 0;
  double weight = 0;
  for (ClassSpans& c : classes) {
    if (c.api.empty() || c.direct.empty()) continue;
    self += c.ops * (smoothed_percentile(c.api, 50) -
                     smoothed_percentile(c.direct, 50));
    weight += c.ops;
  }
  return weight > 0 ? self / weight : 0;
}

void dump_spans(std::FILE* out, const std::vector<Span>& spans) {
  std::fprintf(out, "op_id,name,parent,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%" PRIu64 ",%s,%d,%" PRId64 ",%" PRId64 "\n", s.op_id,
                 span_name(s.name), s.parent, s.start, s.end);
  }
}

}  // namespace perfbench
