#!/usr/bin/env python3
"""Validate and compare cbat_bench JSON results (BENCH_*.json schema).

Modes:
  compare_bench.py --check current.json
      Schema validation only: every run must carry throughput and
      p50/p99 latency fields.  Exit 0 iff the file is well-formed.

  compare_bench.py baseline.json current.json [--threshold 0.30]
                   [--normalize] [--geomean] [--scenarios fig5a,fig8,...]
                   [--min-ops-per-sec 1000]
      Matches runs by (scenario, table, series, x) and fails (exit 1) if
      throughput regressed by more than the threshold.
      --normalize first divides out the median current/baseline ratio, so
      a uniformly slower machine (e.g. a different CI runner class) does
      not trip the gate while a structure-specific regression still does.
      --geomean gates on the per-(scenario, series) geometric mean across
      x values instead of individual cells — much more robust to
      scheduler noise in short smoke runs, which is what CI uses.
      --scenarios restricts the gate to the named scenarios (others stay
      in the report but cannot fail the comparison).
      --hit-rate-drop gates the cached series' aggregate-cache hit rate;
      --adaptive-floor gates the adaptive series (a forest with its
      hot-shard controller on) against their controller-off twins within
      the current run.

Exit codes: 0 ok, 1 regression found, 2 schema/usage error.
"""

import argparse
import json
import math
import statistics
import sys

REQUIRED_TOP = ("schema_version", "git_sha", "mode", "scenarios")
REQUIRED_RUN = ("table", "x_label", "x", "series")
REQUIRED_LATENCY_PCTS = ("p50", "p99")


def fail_schema(msg):
    print(f"compare_bench: schema error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_schema(f"{path}: {e}")


def validate(doc, path):
    for key in REQUIRED_TOP:
        if key not in doc:
            fail_schema(f"{path}: missing top-level key '{key}'")
    if doc["schema_version"] != 1:
        fail_schema(f"{path}: unsupported schema_version {doc['schema_version']}")
    n_runs = 0
    for sc in doc["scenarios"]:
        if "name" not in sc or "runs" not in sc:
            fail_schema(f"{path}: scenario missing name/runs")
        for run in sc["runs"]:
            for key in REQUIRED_RUN:
                if key not in run:
                    fail_schema(
                        f"{path}: run in '{sc['name']}' missing '{key}'"
                    )
            # Runs carrying a measurement must expose throughput and
            # percentile latency; metric-only rows (none today) may not.
            if "throughput_ops_per_sec" in run:
                lat = run.get("latency_ns")
                if not isinstance(lat, dict):
                    fail_schema(
                        f"{path}: run '{run['series']}' has no latency_ns"
                    )
                for cls in ("update", "find", "query"):
                    if cls not in lat:
                        fail_schema(
                            f"{path}: run '{run['series']}' missing "
                            f"latency_ns.{cls}"
                        )
                    for pct in REQUIRED_LATENCY_PCTS:
                        if pct not in lat[cls]:
                            fail_schema(
                                f"{path}: run '{run['series']}' missing "
                                f"latency_ns.{cls}.{pct}"
                            )
                # Adaptive structures must account for what the
                # rebalancer did: a measured run whose capabilities
                # advertise `adaptive` without a `migrations` metric
                # means the bench driver stopped recording the
                # controller's counters — the exact blind spot the
                # adaptive gate exists to close.
                if run.get("capabilities", {}).get("adaptive"):
                    if "migrations" not in run.get("metrics", {}):
                        fail_schema(
                            f"{path}: adaptive run '{run['series']}' "
                            f"carries no metrics.migrations"
                        )
                n_runs += 1
    return n_runs


def indexed_runs(doc):
    out = {}
    for sc in doc["scenarios"]:
        for run in sc["runs"]:
            tput = run.get("throughput_ops_per_sec")
            if tput is None:
                continue
            key = (sc["name"], run["table"], run["series"], run["x"])
            out[key] = float(tput)
    return out


def indexed_hit_rate(doc, scenarios=None):
    """Per-(scenario, series) mean of the read layer's aggregate-cache
    hit-rate metric, restricted to `scenarios` when given.  Runs without
    the metric (cells whose query mix never consults a cache — e.g. the
    linearizable rank cells, whose prefix sums are refilled straight from
    pinned roots) simply do not contribute; a series is indexed only if at
    least one of its runs carried the metric."""
    groups = {}
    for sc in doc["scenarios"]:
        if scenarios is not None and sc["name"] not in scenarios:
            continue
        for run in sc["runs"]:
            rate = run.get("metrics", {}).get("agg_cache_hit_rate")
            if rate is None:
                continue
            groups.setdefault((sc["name"], run["series"]), []).append(
                float(rate))
    return {k: sum(v) / len(v) for k, v in groups.items()}


def report_hit_rate(base_doc, cur_doc, drop_threshold, scenarios):
    """Surfaces aggregate-cache effectiveness next to the throughput gate.

    A cache whose hit rate collapses stops contributing while the cached
    series' throughput may still pass the (noisy) throughput gate.  Gated
    on the absolute drop in hit rate: the metric is already a bounded
    ratio, so a fractional-of-baseline gate would over-trigger near 1.0
    and under-trigger near 0.  Returns the regressions beyond
    drop_threshold (empty when the flag is unset)."""
    base = indexed_hit_rate(base_doc, scenarios)
    cur = indexed_hit_rate(cur_doc, scenarios)
    # A baseline series whose metric vanished entirely (renamed series or
    # key, metric no longer emitted) must not silently un-gate itself.
    missing = sorted(set(base) - set(cur))
    if missing and drop_threshold is not None:
        fail_schema(
            "baseline cached series carry no agg_cache_hit_rate in the "
            "current run (renamed series or dropped metrics? refresh "
            "bench/baselines/): "
            + ",".join("/".join(k) for k in missing))
    shared = sorted(set(base) & set(cur))
    if not shared:
        return []
    print("compare_bench: aggregate-cache hit rate:")
    regressions = []
    for key in shared:
        b, c = base[key], cur[key]
        line = f"  {key[0]}/{key[1]}: {b:.3f} -> {c:.3f}"
        if drop_threshold is not None and b - c > drop_threshold:
            line += f"  REGRESSED (hit rate fell {b - c:+.2f})"
            regressions.append((key, b, c))
        print(line)
    return regressions


# Cells below this Zipf skew are excluded from the adaptive gate: with a
# near-uniform key stream no shard is hot enough that migrating a
# boundary should pay, so adaptive-vs-static there is pure noise.  The
# paper's regime of interest (and the scenario's smoke grid) starts at
# theta = 1.2.
MIN_GATEABLE_THETA = 1.2


def report_adaptive(cur_doc, floor, scenarios):
    """Gates the hot-shard controller on not collapsing to the forest
    with the controller off.

    For every scenario cell that ran both an adaptive series
    (capabilities.adaptive) and its controller-off twin (same name minus the
    "-Adapt" infix) at theta >= MIN_GATEABLE_THETA, compares the
    adaptive/static geomean throughput ratio against `floor` and
    requires the adaptive cells to have actually migrated
    (metrics.migrations > 0 somewhere in the gated set).  This is a
    current-run property, not a baseline comparison: a noise-tolerant
    floor (< 1.0) catches the controller silently never firing or
    migrations thrashing throughput away, while leaving headroom for
    scheduler jitter on oversubscribed runners.  Returns a list of
    failure strings (empty when the flag is unset or nothing gated)."""
    pairs = []  # (label, static_tput, adaptive_tput, migrations)
    for sc in cur_doc["scenarios"]:
        if scenarios is not None and sc["name"] not in scenarios:
            continue
        for run in sc["runs"]:
            caps = run.get("capabilities", {})
            if not caps.get("adaptive") or \
                    "throughput_ops_per_sec" not in run:
                continue
            try:
                theta = float(run["x"])
            except (TypeError, ValueError):
                continue
            if theta < MIN_GATEABLE_THETA - 1e-9:
                continue
            static_name = run["series"].replace("-Adapt", "")
            twin = next(
                (r for r in sc["runs"]
                 if r["series"] == static_name and r["table"] == run["table"]
                 and r["x"] == run["x"]
                 and "throughput_ops_per_sec" in r), None)
            if twin is None:
                continue
            pairs.append((
                f"{sc['name']}/{run['series']} x={run['x']}",
                float(twin["throughput_ops_per_sec"]),
                float(run["throughput_ops_per_sec"]),
                float(run.get("metrics", {}).get("migrations", 0.0)),
            ))
    if not pairs:
        if floor is not None and scenarios is not None:
            # The gate was requested but found nothing to gate — the
            # adaptive series was renamed or the scenario stopped
            # running paired cells.  Silently passing would un-gate it.
            fail_schema(
                "--adaptive-floor set but no adaptive/static cell pairs "
                f"at theta >= {MIN_GATEABLE_THETA} in the gated scenarios")
        return []
    ratio = math.exp(
        sum(math.log(a / s) for _, s, a, _ in pairs) / len(pairs))
    migrations = sum(m for _, _, _, m in pairs)
    print(f"compare_bench: adaptive vs static (theta >= "
          f"{MIN_GATEABLE_THETA}): geomean ratio {ratio:.3f} over "
          f"{len(pairs)} cell(s), {migrations:.0f} migrations")
    for label, s, a, m in pairs:
        print(f"  {label}: {s:,.0f} -> {a:,.0f} ops/s "
              f"({a / s - 1.0:+.1%}, migrations={m:.0f})")
    failures = []
    if floor is not None:
        if migrations <= 0:
            failures.append(
                "adaptive series performed zero migrations across all "
                "gated cells (controller never fired)")
        if ratio < floor:
            failures.append(
                f"adaptive/static geomean throughput ratio {ratio:.3f} "
                f"fell below the collapse floor {floor:.2f}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?", help="baseline BENCH_*.json")
    ap.add_argument("current", nargs="?", help="current BENCH_*.json")
    ap.add_argument("--check", metavar="FILE",
                    help="schema-validate one file and exit")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="max tolerated fractional regression (default 0.30)")
    ap.add_argument("--normalize", action="store_true",
                    help="divide out the median current/baseline ratio "
                         "before applying the threshold")
    ap.add_argument("--geomean", action="store_true",
                    help="gate on per-(scenario, series) geometric means "
                         "instead of individual cells")
    ap.add_argument("--scenarios", metavar="A,B,...",
                    help="restrict the gate to these scenario names")
    ap.add_argument("--min-ops-per-sec", type=float, default=1000.0,
                    help="ignore cells whose baseline throughput is below "
                         "this (too noisy to gate on)")
    ap.add_argument("--hit-rate-drop", type=float, default=None,
                    metavar="ABS",
                    help="fail if a series' aggregate-cache hit rate falls "
                         "by more than this absolute amount below the "
                         "baseline; hit rates are always reported either "
                         "way")
    ap.add_argument("--adaptive-floor", type=float, default=None,
                    metavar="RATIO",
                    help="fail if the current run's adaptive series "
                         "collapse onto their controller-off twins: requires "
                         "adaptive/static geomean throughput >= RATIO at "
                         "theta >= 1.2 and at least one recorded "
                         "migration; the comparison is always reported "
                         "either way")
    args = ap.parse_args()

    if args.check:
        n = validate(load(args.check), args.check)
        print(f"compare_bench: {args.check}: schema OK ({n} measured runs)")
        return 0

    if not args.baseline or not args.current:
        ap.error("need BASELINE and CURRENT (or --check FILE)")

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    validate(base_doc, args.baseline)
    validate(cur_doc, args.current)
    base = indexed_runs(base_doc)
    cur = indexed_runs(cur_doc)

    gated = None
    if args.scenarios:
        gated = set(s for s in args.scenarios.split(",") if s)
        unknown = gated - set(k[0] for k in base)
        if unknown:
            # A typo or a renamed scenario silently un-gating itself is
            # exactly the failure mode this flag exists to prevent.
            fail_schema(
                f"--scenarios names not present in {args.baseline}: "
                f"{','.join(sorted(unknown))}"
            )

    def in_gate(key):
        return (gated is None or key[0] in gated) and \
            base[key] >= args.min_ops_per_sec

    # A gated cell whose current throughput collapsed to zero is the
    # worst possible regression, not a skippable cell.
    dead = [k for k in base
            if k in cur and in_gate(k) and cur[k] <= 0]
    if dead:
        print(f"compare_bench: FAIL — {len(dead)} cell(s) report zero "
              f"throughput in current run:", file=sys.stderr)
        for k in dead[:20]:
            print(f"  {'/'.join(k[:3])} x={k[3]}", file=sys.stderr)
        return 1

    matched = {
        k: (base[k], cur[k])
        for k in base
        if k in cur and in_gate(k) and cur[k] > 0
    }

    # Every gated scenario with baseline cells must still produce
    # comparable cells — otherwise (e.g. a renamed table title or smoke
    # default) the scenario would silently drop out of the gate.
    gated_in_base = set(k[0] for k in base if in_gate(k))
    gated_in_matched = set(k[0] for k in matched)
    dropped = gated_in_base - gated_in_matched
    if dropped:
        fail_schema(
            "gated scenario(s) have no comparable cells against the "
            f"baseline (renamed tables or changed smoke defaults? refresh "
            f"bench/baselines/): {','.join(sorted(dropped))}"
        )
    if args.geomean:
        groups = {}
        for (scenario, _table, series, _x), (b, c) in matched.items():
            groups.setdefault((scenario, series), []).append((b, c))
        matched = {
            (scenario, "geomean", series, "*"): (
                math.exp(sum(math.log(b) for b, _ in pairs) / len(pairs)),
                math.exp(sum(math.log(c) for _, c in pairs) / len(pairs)),
            )
            for (scenario, series), pairs in groups.items()
        }
    missing = sorted(set(base) - set(cur))
    if missing:
        print(f"compare_bench: warning: {len(missing)} baseline cell(s) "
              f"absent from current run (first: {missing[0]})",
              file=sys.stderr)
    if not matched:
        fail_schema("no comparable cells between baseline and current")

    scale = 1.0
    if args.normalize:
        scale = statistics.median(c / b for b, c in matched.values())
        print(f"compare_bench: normalizing by median ratio {scale:.3f} "
              f"(current machine vs baseline machine)")
        if scale <= 0:
            fail_schema("non-positive normalization ratio")

    regressions = []
    for key, (b, c) in sorted(matched.items()):
        ratio = (c / scale) / b
        if ratio < 1.0 - args.threshold:
            regressions.append((key, b, c, ratio))

    worst = min(matched.items(), key=lambda kv: (kv[1][1] / scale) / kv[1][0])
    best = max(matched.items(), key=lambda kv: (kv[1][1] / scale) / kv[1][0])
    print(f"compare_bench: {len(matched)} cells compared "
          f"(threshold {args.threshold:.0%}"
          f"{', normalized' if args.normalize else ''})")
    for label, (key, (b, c)) in (("worst", worst), ("best", best)):
        print(f"  {label}: {'/'.join(key[:3])} x={key[3]}: "
              f"{b:,.0f} -> {c:,.0f} ops/s "
              f"({(c / scale) / b - 1.0:+.1%} after scaling)")

    # Cache effectiveness rides along with the throughput gate: a cache
    # that stops hitting can hide inside throughput noise, so surface (and
    # optionally gate) it here.
    hit_regressions = report_hit_rate(base_doc, cur_doc,
                                      args.hit_rate_drop, gated)
    adaptive_failures = report_adaptive(cur_doc, args.adaptive_floor, gated)

    if regressions:
        print(f"compare_bench: FAIL — {len(regressions)} cell(s) regressed "
              f"more than {args.threshold:.0%}:", file=sys.stderr)
        for key, b, c, ratio in regressions[:20]:
            print(f"  {'/'.join(key[:3])} x={key[3]}: "
                  f"{b:,.0f} -> {c:,.0f} ops/s ({ratio - 1.0:+.1%})",
                  file=sys.stderr)
        return 1
    if hit_regressions:
        print(f"compare_bench: FAIL — {len(hit_regressions)} series' "
              f"aggregate-cache hit rate fell more than "
              f"{args.hit_rate_drop:.2f} below baseline:", file=sys.stderr)
        for key, b, c in hit_regressions[:20]:
            print(f"  {key[0]}/{key[1]}: {b:.3f} -> {c:.3f}",
                  file=sys.stderr)
        return 1
    if adaptive_failures:
        print(f"compare_bench: FAIL — adaptive shard layer collapsed:",
              file=sys.stderr)
        for msg in adaptive_failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("compare_bench: OK — no regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
