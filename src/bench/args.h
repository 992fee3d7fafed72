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
#pragma once

#include <cstdlib>
#include <cstring>
#include <string>
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

  long get_long(const std::string& flag, long def) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag && i + 1 < args_.size()) {
        return std::strtol(args_[i + 1].c_str(), nullptr, 10);
      }
      if (args_[i].rfind(flag + "=", 0) == 0) {
        return std::strtol(args_[i].c_str() + flag.size() + 1, nullptr, 10);
      }
    }
    return def;
  }

  std::vector<long> get_list(const std::string& flag,
                             std::vector<long> def) const {
    std::string raw;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag && i + 1 < args_.size()) raw = args_[i + 1];
      if (args_[i].rfind(flag + "=", 0) == 0) {
        raw = args_[i].substr(flag.size() + 1);
      }
    }
    if (raw.empty()) return def;
    std::vector<long> out;
    const char* p = raw.c_str();
    while (*p) {
      out.push_back(std::strtol(p, const_cast<char**>(&p), 10));
      if (*p == ',') ++p;
    }
    return out;
  }

  std::string get_str(const std::string& flag, std::string def) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag && i + 1 < args_.size()) return args_[i + 1];
      if (args_[i].rfind(flag + "=", 0) == 0) {
        return args_[i].substr(flag.size() + 1);
      }
    }
    return def;
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
  std::vector<std::string> args_;
};

}  // namespace cbat::bench
