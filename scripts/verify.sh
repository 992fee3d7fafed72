#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the full ctest
# suite.  Exits nonzero on the first failure.
#
#   scripts/verify.sh                # full suite
#   scripts/verify.sh --unit         # fast unit tests only (ctest -L unit)
#   scripts/verify.sh --filter RE    # tests matching RE only (ctest -R RE)
#   scripts/verify.sh --lint         # repo lints only, no build (markdown
#                                    # hygiene + the concurrency lint and
#                                    # its fixture self-test)
#   scripts/verify.sh --chaos        # fault-injection build (the chaos
#                                    # suite plus the protocol tests it
#                                    # perturbs, under ASan by default;
#                                    # CBAT_SANITIZE=thread for the TSan
#                                    # leg)
#
# Environment (used by the CI matrix; all optional):
#   BUILD_DIR          build tree                       (default: build)
#   CMAKE_BUILD_TYPE   passed to cmake when set (e.g. Release, Debug)
#   CBAT_SANITIZE      passed to cmake when set (e.g. address,undefined)
#
# The label split mirrors CMakeLists.txt: "unit" tests are fast
# single-structure tests, "integration" tests cross structures or run
# multi-second stress loops.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--lint" ]]; then
  python3 scripts/check_markdown.py
  python3 scripts/check_concurrency.py
  python3 scripts/check_concurrency.py --self-test
  exit 0
fi

if [[ "${1:-}" == "--chaos" ]]; then
  # Chaos leg: the fault hooks compiled in (-DCBAT_FAULT_INJECTION=ON)
  # and the suites the injected faults exercise, sanitized.  Forced
  # allocation failures and perturbed migrations happen only when faults
  # can fire, so this is the only build in which ASan/TSan see them.
  BUILD_DIR="${BUILD_DIR:-build-chaos}"
  CBAT_SANITIZE="${CBAT_SANITIZE:-address,undefined}"
  CMAKE_ARGS=(-DCBAT_FAULT_INJECTION=ON -DCBAT_SANITIZE="$CBAT_SANITIZE")
  if [[ -n "${CMAKE_BUILD_TYPE:-}" ]]; then
    CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="$CMAKE_BUILD_TYPE")
  fi
  cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -j "$(nproc)" -R 'fault_injection|sharded_set|ebr'
  python3 scripts/check_markdown.py
  python3 scripts/check_concurrency.py
  exit 0
fi

LABEL_ARGS=()
if [[ "${1:-}" == "--unit" ]]; then
  LABEL_ARGS=(-L unit)
  shift
elif [[ "${1:-}" == "--filter" ]]; then
  [[ $# -ge 2 ]] || { echo "verify.sh: --filter needs a regex" >&2; exit 2; }
  LABEL_ARGS=(-R "$2")
  shift 2
fi

BUILD_DIR="${BUILD_DIR:-build}"
CMAKE_ARGS=()
if [[ -n "${CMAKE_BUILD_TYPE:-}" ]]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="$CMAKE_BUILD_TYPE")
fi
if [[ -n "${CBAT_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=(-DCBAT_SANITIZE="$CBAT_SANITIZE")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j
# Note: a bare `ctest -j` would swallow the next argument as its value.
# --no-tests=error keeps a stale --filter regex (or label) from going
# vacuously green.
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
  -j "$(nproc)" "${LABEL_ARGS[@]}" "$@"

# Docs hygiene (the clang-format analogue for markdown): lint plus an
# internal-link/anchor check over README.md, ROADMAP.md, and docs/ —
# docs/ARCHITECTURE.md's consistency table is part of the verified
# surface — and a check that every *.md a source file cites exists.
# The concurrency lint rides along (it also runs as a ctest entry, but a
# --filter run can skip that).  Skipped only where python3 is
# unavailable; CI always has it.
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_markdown.py
  python3 scripts/check_concurrency.py
else
  echo "verify.sh: python3 not found; skipping repo lints" >&2
fi
