#!/usr/bin/env python3
"""Concurrency lint for the C++ sources (the static half of PR 8).

Stdlib-only, in the check_markdown.py mold (CI and verify.sh both run it;
no pip installs).  Rules:

  * relaxed-justified: every `memory_order_relaxed` must carry a
    `// relaxed:` justification on the same line or within the preceding
    JUSTIFY_WINDOW lines — the audit trail for why the site needs no
    ordering.  An unjustified site is either missing its argument or is a
    real ordering bug; both should fail the build.
  * no-volatile: `volatile` is not a concurrency primitive; use
    std::atomic.  Escapes: `asm volatile` (an instruction qualifier, not a
    memory annotation) and a `// volatile:` justification for deliberate
    optimizer barriers (e.g. the benchmark sink).
  * no-consume: `memory_order_consume` is unimplementable-as-specified
    and demoted to acquire by every compiler; never introduce it.
  * shared-atomics-padded: a `std::atomic` declaration in a header is a
    cross-thread contact point, so it must sit in a `Padded`/`alignas`
    wrapper or carry a `// shared:` comment (same window) arguing why
    false sharing is acceptable at that site.
  * retire-scoped: `retire(`/`ebr_retire(` calls may appear only in
    reclamation-aware files (src/reclamation/ itself plus the explicit
    allowlist below) — scattering retirement sites is how use-after-free
    protocols rot.
  * fault-point-unique: every CBAT_FAULT_POINT/CBAT_FAULT_FORCE site
    name must be unique across the whole repo.  Site names key the
    fault planner's per-site budgets and only_site filters (and the
    chaos suite's coverage ledger), so two protocol sites sharing a
    name silently conflate their injection schedules.

Self-test: `--self-test` runs every rule against the fixture files under
tests/static_analysis/fixtures/, asserting that each good_* fixture passes
and each bad_* fixture fails with the expected rule id.  Exit 0 iff clean.

    python3 scripts/check_concurrency.py              # lint the repo
    python3 scripts/check_concurrency.py --self-test  # fixture suite
    python3 scripts/check_concurrency.py FILE...      # explicit files
"""

import os
import re
import sys

# Directories swept in repo mode (tests are covered too: a test that
# races or leaks an unjustified relaxed site is still repo code).
DEFAULT_DIRS = ["src", "bench", "tests", "examples"]
CXX_EXTS = (".h", ".hpp", ".cc", ".cpp")

# How many preceding lines may carry a `// relaxed:` / `// shared:`
# justification.  6 covers one small comment block plus a multi-line
# statement group sharing a single justification.
JUSTIFY_WINDOW = 6

# Files allowed to call retire()/ebr_retire() outside src/reclamation/:
# each runs a reclamation protocol of its own and documents it.
RETIRE_ALLOWLIST = {
    "src/core/bat_tree.h",             # version/root retirement (§6)
    "src/chromatic/chromatic_tree.h",  # node/version unlink sites
    "src/frbst/frbst.h",               # baseline tree unlink sites
    "src/vcasbst/vcas.h",              # vCAS version chains
    "src/vcasbst/vcas_bst.h",          # vCAS-BST node unlinks
    "src/shard/sharded_set.h",         # ShardMap flip retirement
    "src/bench/scenarios.cpp",         # reclamation_churn scenario
    "tests/ebr_test.cpp",              # tests the reclamation layer
    "tests/llxscx_test.cpp",           # retires the nodes SCXs unlink
    "tests/reclamation_lifecycle_test.cpp",
}

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
CONSUME_RE = re.compile(r"\bmemory_order_consume\b")
VOLATILE_RE = re.compile(r"\bvolatile\b")
# Member/namespace declarations of std::atomic<...> data.  References
# and pointers to atomics are not declarations of the shared word itself
# (the pointee's declaration site is where padding is decided); a paren
# without a brace is a call or a function signature, not a data member.
ATOMIC_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:inline\s+)?"
    r"(?:std::)?atomic<")
ATOMIC_NOT_DECL_RE = re.compile(r"atomic<[^;]*>\s*[&*]")
RETIRE_RE = re.compile(r"\b(?:ebr_)?retire(?:_impl)?\s*\(")
# Fault-injection sites (src/util/fault.h).  Only literal-named
# invocations count: the macro definitions and doc examples use an
# unquoted `site` placeholder and are not site declarations.
FAULT_SITE_RE = re.compile(r'CBAT_FAULT_(?:POINT|FORCE)\(\s*"([^"]+)"')


def _window_has(lines, i, token):
    """True if lines[i] or any of the JUSTIFY_WINDOW preceding lines
    contains `token`."""
    lo = max(0, i - JUSTIFY_WINDOW)
    return any(token in lines[j] for j in range(lo, i + 1))


def lint_file(path, errors, fault_sites=None):
    """Lints one file.  `fault_sites` is the site-name ledger for the
    fault-point-unique rule (name -> first declaration site); the caller
    shares one dict across the whole sweep so duplicates are caught
    across files, not just within one."""
    if fault_sites is None:
        fault_sites = {}
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    rel = path.replace(os.sep, "/")
    in_reclamation = rel.startswith("src/reclamation/")
    retire_ok = in_reclamation or rel in RETIRE_ALLOWLIST
    for i, line in enumerate(lines):
        n = i + 1
        if RELAXED_RE.search(line) and not _window_has(lines, i, "relaxed:"):
            errors.append(
                f"{rel}:{n}: [relaxed-justified] memory_order_relaxed "
                f"without a '// relaxed:' justification within "
                f"{JUSTIFY_WINDOW} lines")
        if CONSUME_RE.search(line):
            errors.append(
                f"{rel}:{n}: [no-consume] memory_order_consume is "
                f"forbidden (demoted to acquire everywhere; use acquire)")
        if VOLATILE_RE.search(line):
            stripped = re.sub(r"\basm\s+volatile\b", "", line)
            if VOLATILE_RE.search(stripped) and \
                    not _window_has(lines, i, "volatile:"):
                errors.append(
                    f"{rel}:{n}: [no-volatile] volatile is not a "
                    f"concurrency primitive (std::atomic, or justify an "
                    f"optimizer barrier with '// volatile:')")
        if rel.endswith((".h", ".hpp")) and ATOMIC_DECL_RE.match(line) \
                and not ATOMIC_NOT_DECL_RE.search(line) \
                and not ("(" in line and "{" not in line):
            if "Padded" not in line and "alignas" not in line and \
                    not _window_has(lines, i, "shared:"):
                errors.append(
                    f"{rel}:{n}: [shared-atomics-padded] header atomic "
                    f"outside a Padded/alignas wrapper needs a "
                    f"'// shared:' justification within "
                    f"{JUSTIFY_WINDOW} lines")
        if not retire_ok and RETIRE_RE.search(line):
            errors.append(
                f"{rel}:{n}: [retire-scoped] retire() outside a "
                f"reclamation-aware file (extend RETIRE_ALLOWLIST only "
                f"with a documented protocol)")
        for site in FAULT_SITE_RE.findall(line):
            if site in fault_sites:
                first = fault_sites[site]
                errors.append(
                    f"{rel}:{n}: [fault-point-unique] fault site "
                    f"\"{site}\" already declared at {first} — site "
                    f"names key per-site budgets and only_site filters, "
                    f"so every site needs its own name")
            else:
                fault_sites[site] = f"{rel}:{n}"


def repo_files():
    files = []
    for d in DEFAULT_DIRS:
        if not os.path.isdir(d):
            continue
        for root, _dirs, names in os.walk(d):
            # The lint fixtures and negative-compile TUs violate the
            # rules on purpose; the self-test covers them instead.
            if "static_analysis" in root.replace(os.sep, "/"):
                continue
            files.extend(os.path.join(root, x) for x in sorted(names)
                         if x.endswith(CXX_EXTS))
    return files


def self_test():
    fixture_dir = os.path.join("tests", "static_analysis", "fixtures")
    cases = sorted(os.listdir(fixture_dir))
    failures = []
    seen_rules = set()
    for name in cases:
        if not name.endswith(CXX_EXTS):
            continue
        path = os.path.join(fixture_dir, name)
        errors = []
        # Fresh site ledger per fixture: the duplicate the bad fixture
        # plants is in-file, and fixtures must not interfere.
        lint_file(path, errors, fault_sites={})
        if name.startswith("good_"):
            if errors:
                failures.append(f"{name}: expected clean, got: {errors}")
        elif name.startswith("bad_"):
            # bad_<rule-with-underscores>.h must trip exactly that rule.
            rule = name[len("bad_"):].rsplit(".", 1)[0].replace("_", "-")
            seen_rules.add(rule)
            if not errors:
                failures.append(f"{name}: expected a [{rule}] finding, "
                                f"got a clean pass")
            elif not any(f"[{rule}]" in e for e in errors):
                failures.append(f"{name}: expected [{rule}], got: {errors}")
    expected_rules = {"relaxed-justified", "no-volatile", "no-consume",
                      "shared-atomics-padded", "retire-scoped",
                      "fault-point-unique"}
    for rule in sorted(expected_rules - seen_rules):
        failures.append(f"missing bad_* fixture for rule [{rule}]")
    for f in failures:
        print(f"check_concurrency self-test: {f}", file=sys.stderr)
    print(f"check_concurrency self-test: {len(cases)} fixture(s), "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test()
    files = argv[1:] or repo_files()
    errors = []
    # One ledger for the whole sweep: fault-point-unique is a repo-wide
    # invariant (the site namespace is global), not a per-file one.
    fault_sites = {}
    for f in files:
        if not os.path.exists(f):
            errors.append(f"{f}: no such file")
            continue
        lint_file(f, errors, fault_sites)
    for e in errors:
        print(f"check_concurrency: {e}", file=sys.stderr)
    print(f"check_concurrency: {len(files)} file(s), "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
