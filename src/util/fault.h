// Deterministic fault injection for the concurrency protocols.
//
// Mirrors thread_annotations.h: a macro layer that compiles to nothing in
// normal builds.  Configure with -DCBAT_FAULT_INJECTION=ON to turn the two
// macros into calls; otherwise CBAT_FAULT_POINT expands to ((void)0) and
// CBAT_FAULT_FORCE to false, so every instrumented branch folds away and
// the default build pays no perf tax (the smoke-bench gate enforces it).
//
// Sites are named string literals ("pool.alloc_fail", "mig.sealed", ...).
// scripts/check_concurrency.py enforces that every site name is globally
// unique, so a seeded plan can target exactly one protocol step.
//
//   CBAT_FAULT_POINT(site)   benign perturbation hook: the armed plan may
//                            inject a scheduler yield or a short spin delay
//                            here.  Use at protocol steps whose *timing*
//                            matters (phase boundaries, seqlock windows).
//
//   CBAT_FAULT_FORCE(site)   failure hook: evaluates to true when the armed
//                            plan forces the failure path at this site.
//                            Use it only where the default build can take
//                            the same path (an allocation failure, a
//                            skipped epoch advance), so the forced run
//                            tests recovery code that production runs.
//                            The caller owns the recovery; the plan's
//                            per-site budget guarantees the forced path is
//                            bounded, so retry loops always terminate.
//
// Determinism: decisions are pure functions of (plan seed, caller thread id,
// site name hash, visit number) — a single-threaded run with a fixed plan
// injects the identical fault sequence every time.  Multi-threaded runs are
// deterministic per thread; interleavings still vary, which is the point of
// the chaos suite.
//
// Arm/disarm contract: fault_arm()/fault_disarm() may only be called while
// no worker thread is inside an instrumented operation (test setup and
// teardown).  The armed flag itself is atomic, so a stale read during the
// transition merely skips or applies one injection — never tears the plan.
#pragma once

#if defined(CBAT_FAULT_INJECTION) && CBAT_FAULT_INJECTION

#include <cstdint>
#include <string>
#include <vector>

namespace cbat {

struct FaultPlan {
  // Seed folded into each thread's PRNG and each site's name hash.
  std::uint64_t seed = 1;
  // Injection probabilities in 1/1024 units per visit to a fault point.
  std::uint32_t yield_permil = 0;  // CBAT_FAULT_POINT: std::this_thread::yield
  std::uint32_t delay_permil = 0;  // CBAT_FAULT_POINT: short bounded spin
  std::uint32_t fail_permil = 0;   // CBAT_FAULT_FORCE: take the failure path
  // Hard cap on forced failures per site, process-wide across threads.
  // This is what keeps retry-with-backoff loops terminating: once a site
  // exhausts its budget, CBAT_FAULT_FORCE reports false forever (until the
  // next fault_arm).  Keep it well below Pool's allocation retry cap.
  std::uint32_t max_fails_per_site = 48;
  // Restrict injection to one exact site name; nullptr targets all sites.
  const char* only_site = nullptr;
};

// Installs `plan` and starts injecting.  Resets all per-site budgets, the
// injection totals, and the sites-seen registry.
void fault_arm(const FaultPlan& plan);

// Stops injecting.  Counters and the sites-seen registry survive until the
// next fault_arm so tests can assert on them after joining workers.
void fault_disarm();

bool fault_armed();

// Total injections performed since the last fault_arm (yields + delays +
// forced failures), and the forced-failure subtotal.
std::uint64_t fault_injections();
std::uint64_t fault_forced_failures();

// Names of every site visited (armed or filtered, injected or not) since
// the last fault_arm, sorted.  The chaos suite uses this to prove the plan
// matrix actually reached the instrumented layers.
std::vector<std::string> fault_sites_seen();

namespace fault_detail {
void point(const char* site);
bool should_fail(const char* site);
}  // namespace fault_detail

}  // namespace cbat

#define CBAT_FAULT_POINT(site) ::cbat::fault_detail::point(site)
#define CBAT_FAULT_FORCE(site) ::cbat::fault_detail::should_fail(site)

#else  // !CBAT_FAULT_INJECTION

#define CBAT_FAULT_POINT(site) ((void)0)
#define CBAT_FAULT_FORCE(site) false

#endif  // CBAT_FAULT_INJECTION
