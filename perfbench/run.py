#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).  Each workload runs in its own process, so
process-wide counters and the peak RSS never mix workloads.  An untraced run
also starts SETUP_REPS - 1 set-up-only processes of the same workload and
seed, and reports setup_s as the median of the SETUP_REPS fresh-process
set-ups.  Build output goes to stderr; the last stdout line of a
single-workload run is its JSON result.  Exits non-zero, printing no result,
when the build or the run fails.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 3
DEADLINE_S = 170  # for one workload, all its processes together


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(target):
    bdir = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", bdir, "--target", target, "-j",
                       "4"], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, target)


def run_proc(binary, args, deadline):
    """Runs the binary to completion; returns its stdout lines and JSON
    result, or None on any failure."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                           timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        return None


def run_one(binary, args):
    """Runs one workload; returns its output, or None on any failure."""
    deadline = time.monotonic() + DEADLINE_S
    out = run_proc(binary, args, deadline)
    if out is None:
        return None
    log, result = out
    if "setup_s" in result["metrics"]:
        times = [result["metrics"]["setup_s"]["value"]]
        # The measured run accepted args, so they are flag-value pairs.
        flags = dict(zip(args[::2], args[1::2]))
        setup_args = ["--workload", flags["--workload"], "--setup-only"]
        if "--seed" in flags:
            setup_args += ["--seed", flags["--seed"]]
        for _ in range(SETUP_REPS - 1):
            extra = run_proc(binary, setup_args, deadline)
            if extra is None:
                return None
            times.append(extra[1]["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(times)
        log.append("setup_s reported: %.6f s, the median of %d fresh-process "
                   "set-ups (%s)" % (statistics.median(times), len(times),
                                     " ".join("%.4f" % t for t in times)))
    return "\n".join(log + [json.dumps(result)]) + "\n"


def main(argv):
    if argv == ["--self-test"]:
        binary = build("perfbench_selftest")
        return 1 if binary is None else subprocess.run([binary]).returncode
    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == [
            "all"]:
        names = subprocess.run([binary, "--list"], stdout=subprocess.PIPE,
                               text=True, check=True).stdout.split()
        i = argv.index("--workload")
        for name in names:
            out = run_one(binary, argv[:i] + ["--workload", name] +
                          argv[i + 2:])
            if out is None:
                return 1
            sys.stdout.write(out)
        return 0
    out = run_one(binary, argv)
    if out is None:
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
