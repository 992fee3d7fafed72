#!/usr/bin/env python3
"""Fails unless every perfbench workload passed its post-run check.

    python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0 \\
        > perfbench.txt
    python3 scripts/check_perfbench.py perfbench.txt

Reads perfbench/run.py's output (each workload's log lines, then one JSON
result line).  perfbench exits 0 even when its exact post-run check fails,
so this reads the results instead: there must be at least one JSON line,
and each must read "correct": true and "failed": 0.  (run.py itself exits
1 when a workload produces no result.)  Exits 1 with a line per fault
otherwise.
"""

import argparse
import json
import sys


def check(lines):
    """Returns the list of faults in perfbench output `lines`."""
    faults = []
    results = []
    name = "?"
    for line in lines:
        line = line.strip()
        if line.startswith("workload="):
            name = line.split()[0].split("=", 1)[1]
        elif line.startswith("{"):
            try:
                results.append((name, json.loads(line)))
            except ValueError:
                faults.append("%s: unreadable result line" % name)
    if not results:
        faults.append("no result line")
    for name, r in results:
        bad = []
        if r.get("correct") is not True:
            bad.append("correct is %r" % r.get("correct"))
        if r.get("failed") != 0:
            bad.append("failed is %r of %r checks" %
                       (r.get("failed"), r.get("attempted")))
        faults += ["%s: %s" % (name, b) for b in bad]
        if not bad:
            print("%s: correct, 0 of %s checks failed" %
                  (name, r.get("attempted")))
    return faults


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("output", help="perfbench/run.py's stdout, saved")
    args = ap.parse_args(argv)
    with open(args.output) as f:
        faults = check(f.readlines())
    for fault in faults:
        print("check_perfbench: " + fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
