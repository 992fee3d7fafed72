// Tiny command-line parsing for the bench binaries.
//
// Every scenario accepts:
//   --ms N           per-cell measured duration (default scaled for CI)
//   --threads a,b,c  thread counts to sweep
//   --maxkey N       key-range size
//   --rq N           range-query size
//   --csv            machine-readable table output
//   --json PATH      structured results (schema shared with BENCH_*.json)
//   --smoke          minimal parameters for the CI smoke bench
//   --full           paper-scale parameters (or CBAT_BENCH_FULL=1)
// A number that does not parse is an error, not a zero (see
// malformed_number).
#pragma once

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cbat::bench {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.push_back(argv[i]);
  }

  bool has(const std::string& flag) const {
    for (const auto& a : args_) {
      if (a == flag) return true;
    }
    return false;
  }

  // A numeric value is one base-10 integer or a comma-separated list of
  // them ("2,4"; a trailing comma is ignored), and get_long reads a list's
  // first number.  Both getters return `def` when the flag is absent or
  // its value does not parse.
  long get_long(const std::string& flag, long def) const {
    const auto v = numbers(flag);
    return v ? v->front() : def;
  }

  std::vector<long> get_list(const std::string& flag,
                             std::vector<long> def) const {
    auto v = numbers(flag);
    return v ? std::move(*v) : def;
  }

  std::string get_str(const std::string& flag, std::string def) const {
    return value(flag).value_or(std::move(def));
  }

  // The first of kNumericFlags given a value that does not parse (no
  // digits, or anything but a comma after them), or nullptr.
  // scenario_main rejects such a run before any cell starts.
  const char* malformed_number() const {
    for (const char* f : kNumericFlags) {
      const auto v = value(f);
      if (v && !parse_numbers(*v)) return f;
    }
    return nullptr;
  }

  // Collects every occurrence of `flag`, splitting each value on commas:
  //   --scenario fig5a --scenario fig8,table3  ->  {fig5a, fig8, table3}
  std::vector<std::string> get_str_list(const std::string& flag) const {
    std::vector<std::string> out;
    auto split_into = [&out](const std::string& raw) {
      std::size_t start = 0;
      while (start <= raw.size()) {
        std::size_t comma = raw.find(',', start);
        if (comma == std::string::npos) comma = raw.size();
        if (comma > start) out.push_back(raw.substr(start, comma - start));
        start = comma + 1;
      }
    };
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag && i + 1 < args_.size()) split_into(args_[i + 1]);
      if (args_[i].rfind(flag + "=", 0) == 0) {
        split_into(args_[i].substr(flag.size() + 1));
      }
    }
    return out;
  }

  // Paper-scale mode: longer runs, paper-sized key ranges and thread sweeps.
  bool full_scale() const {
    if (has("--full")) return true;
    const char* env = std::getenv("CBAT_BENCH_FULL");
    return env != nullptr && env[0] == '1';
  }

  // Smoke mode: the smallest parameters that still exercise every cell;
  // used by scripts/bench_smoke.sh and the CI smoke-bench job.  --full
  // wins when both are given.
  bool smoke() const { return !full_scale() && has("--smoke"); }

  const char* mode_name() const {
    if (full_scale()) return "full";
    if (smoke()) return "smoke";
    return "default";
  }

  bool csv() const { return has("--csv"); }

 private:
  // Every flag a scenario reads with get_long or get_list.
  static constexpr const char* kNumericFlags[] = {
      "--ms", "--threads", "--maxkey", "--maxkey-small",
      "--rq", "--tt",      "--repeat", "--shards"};

  // The value of the first "--flag V" or "--flag=V"; empty when the flag
  // ends the command line, nullopt when it is absent.
  std::optional<std::string> value(const std::string& flag) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag) {
        return i + 1 < args_.size() ? args_[i + 1] : std::string();
      }
      if (args_[i].rfind(flag + "=", 0) == 0) {
        return args_[i].substr(flag.size() + 1);
      }
    }
    return std::nullopt;
  }

  // Every comma-separated piece must be a whole base-10 integer in range.
  static std::optional<std::vector<long>> parse_numbers(const std::string& s) {
    std::vector<long> out;
    const char* p = s.c_str();
    do {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(p, &end, 10);
      if (end == p || errno == ERANGE || (*end != ',' && *end != '\0')) {
        return std::nullopt;
      }
      out.push_back(v);
      p = *end == ',' ? end + 1 : end;
    } while (*p != '\0');
    return out;
  }

  std::optional<std::vector<long>> numbers(const std::string& flag) const {
    const auto v = value(flag);
    return v ? parse_numbers(*v) : std::nullopt;
  }

  std::vector<std::string> args_;
};

}  // namespace cbat::bench
