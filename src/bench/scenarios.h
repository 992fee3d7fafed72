// Scenario registry: every paper figure/table (and the two micro-kernel
// suites) is a named, self-describing scenario.  `cbat_bench --list`
// enumerates them; `cbat_bench --scenario fig8 --smoke --json out.json`
// runs one and emits the shared BENCH_*.json schema.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/args.h"
#include "bench/driver.h"
#include "bench/json.h"

namespace cbat::bench {

// One measured cell: a (table, series, x) coordinate in some paper plot,
// plus the full RunResult and any scenario-specific scalar metrics
// (e.g. Table 3's per-Propagate counter ratios, the micros' ns/op).
struct RunRecord {
  std::string table;    // which plot/table of the figure ("Figure 8a ...")
  std::string x_label;  // "threads", "rq_size", "kernel", ...
  std::string x;        // x coordinate, as printed on the axis
  std::string series;   // structure / query kind / kernel name
  bool has_result = false;
  RunResult result;
  std::vector<std::pair<std::string, double>> metrics;
};

// What the console shows at a coordinate (usually derived from a
// RunRecord, but scenarios may add display-only cells, e.g. Figure 9
// renders one run into both a 9a and a 9b table).
struct DisplayCell {
  std::string table;
  std::string x_label;
  std::string x;
  std::string series;
  std::string text;
};

struct ScenarioOutput {
  std::vector<RunRecord> runs;
  std::vector<DisplayCell> cells;

  void add_cell(std::string table, std::string x_label, std::string x,
                std::string series, std::string text) {
    cells.push_back({std::move(table), std::move(x_label), std::move(x),
                     std::move(series), std::move(text)});
  }
};

struct ScenarioContext {
  const Args* args = nullptr;
  ScenarioOutput* out = nullptr;

  // Paper-scale / CI-scale / smoke-scale knobs shared by the scenarios.
  std::vector<long> thread_sweep() const;
  int cell_ms(int ci_default = 120) const;
  long fixed_threads() const;

  // Runs one benchmark cell best-of-max(--repeat, repeats), records it
  // into out->runs, and adds a throughput display cell.  Progress goes to
  // stderr.  The returned record, whose result carries the kept run's
  // counters, stays valid until the next run is added to out->runs.
  RunRecord& record(const std::string& table, const std::string& x_label,
                    const std::string& x, const std::string& series,
                    const std::string& structure, const RunConfig& cfg,
                    int repeats = 1);
};

struct Scenario {
  std::string name;   // CLI name: "fig8", "table3", "micro_components", ...
  std::string title;  // one-line description shown by --list
  std::function<void(ScenarioContext&)> run;
};

class ScenarioRegistry {
 public:
  // The builtin scenarios, a fixed list built on first use, so the
  // registry works from static-library contexts without relying on
  // global-initializer order or link-time inclusion tricks.
  static ScenarioRegistry& instance();

  const Scenario* find(const std::string& name) const;
  std::vector<std::string> names() const;
  const std::vector<Scenario>& all() const { return scenarios_; }

 private:
  ScenarioRegistry();

  std::vector<Scenario> scenarios_;
};

// Renders the display cells as the familiar per-plot console tables
// (or CSV with --csv), identical in shape to the old binaries' output.
void render_tables(const ScenarioOutput& out, bool csv);

// JSON document shared by --json and the BENCH_*.json trajectory files.
// See README "Benchmarks" for the schema.
std::string bench_json_document(
    const std::vector<std::pair<std::string, ScenarioOutput>>& scenarios,
    const Args& args);

// Short git SHA of the working tree, or "unknown" outside a checkout /
// without git.  Overridable via CBAT_GIT_SHA (used by CI).
std::string current_git_sha();

// cbat_bench's main(): --list, --scenario NAME[,NAME...], --all.
int scenario_main(int argc, char** argv);

}  // namespace cbat::bench
