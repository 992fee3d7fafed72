// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --setup-only
//   perfbench --list
//
// Human-readable lines first, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// `attempted`/`failed` count the post-run correctness checks.  A traced
// run writes its raw spans to spans-NAME.csv beside the executable.
// --setup-only sets up, reports setup_s and exits.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--setup-only]\n"
               "workloads:",
               msg);
  for (const auto& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

long parse_int(const char* flag, const std::string& s, long lo, long hi) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || v < lo || v > hi) {
    usage((std::string("bad value for ") + flag + ": " + s).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const auto& w : perfbench::workloads()) std::printf("%s\n", w.name);
    return 0;
  }
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(parse_int("--seed", v, 0, 1L << 62));
    } else if (a == "--seconds") {
      opt.seconds = static_cast<int>(parse_int("--seconds", v, 1, 3600));
    } else if (a == "--trace") {
      opt.trace = parse_int("--trace", v, 0, 1) == 1;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (perfbench::find_workload(opt.workload) == nullptr) {
    usage(("unknown workload " + opt.workload).c_str());
  }
  opt.span_csv = (std::filesystem::path(argv[0]).parent_path() /
                  ("spans-" + opt.workload + ".csv"))
                     .string();

  perfbench::RunReport r;
  try {
    r = perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& line : r.log) std::printf("%s\n", line.c_str());
  for (const auto& m : r.metrics) {
    std::printf("  %-40s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
