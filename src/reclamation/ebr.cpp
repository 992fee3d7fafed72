#include "reclamation/ebr.h"

#include "util/fault.h"

namespace cbat {

Ebr& Ebr::instance() {
  static Ebr ebr;
  return ebr;
}

Ebr::~Ebr() {
  // From here on, re-entrant retires (node -> final version, descriptor
  // chains) free immediately inside Ebr::retire without touching the
  // per-thread contexts or pool free lists — both already destroyed
  // ([basic.start.term]) — so one sweep over the bags empties everything.
  // relaxed: program-exit path; only this thread still runs.
  g_reclaim_shutdown.store(true, std::memory_order_relaxed);
  for (auto& ctx : ctxs_) {
    for (Bag& bag : ctx->bags) free_bag(bag);
  }
}

void Ebr::enter() {
  Ctx& c = ctx();
  if (c.nesting++ > 0) return;
  // seq_cst so the announcement is globally visible before we read any
  // shared pointers, and so we observe the freshest epoch.
  std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
  c.announce.store(e, std::memory_order_seq_cst);
  // The epoch may have advanced between the load and the store; re-announce
  // once so we never pin an epoch older than the one we entered in.
  std::uint64_t e2 = epoch_.load(std::memory_order_seq_cst);
  if (e2 != e) c.announce.store(e2, std::memory_order_seq_cst);
  reclaim_safe_bags(c, e2);
}

void Ebr::exit() {
  Ctx& c = ctx();
  if (--c.nesting > 0) return;
  c.announce.store(kQuiescent, std::memory_order_release);
}

void Ebr::retire_impl(void* p, Deleter d) {
  CBAT_FAULT_POINT("ebr.retire");
  Ctx& c = ctx();
  const std::uint64_t e = epoch_.load(std::memory_order_acquire);
  Bag& bag = c.bags[e % kBags];
  if (bag.epoch != e) {
    // Bag held objects from epoch e-3 (or is empty): always safe now.
    free_bag(bag);
    bag.epoch = e;
  }
  bag.items.emplace_back(p, d);
  if (++c.retire_count % kAdvanceThreshold == 0) {
    try_advance();
    reclaim_safe_bags(c, epoch_.load(std::memory_order_acquire));
  }
}

void Ebr::try_advance() {
  CBAT_FAULT_POINT("ebr.advance");
  // Advance is best-effort by design (any old announcement vetoes it), so
  // a forced skip degrades to "reclaim later": limbo grows until a later
  // periodic attempt finds no veto, and the fault plan's per-site budget
  // bounds how many attempts it can skip.
  if (CBAT_FAULT_FORCE("ebr.advance_skip")) return;
  const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
  const int n = ThreadRegistry::instance().max_id();
  for (int t = 0; t < n; ++t) {
    const std::uint64_t a = ctxs_[t]->announce.load(std::memory_order_seq_cst);
    // Someone is still in an older epoch.
    if (a != kQuiescent && a != e) return;
  }
  std::uint64_t expected = e;
  epoch_.compare_exchange_strong(expected, e + 1, std::memory_order_seq_cst);
}

void Ebr::reclaim_safe_bags(Ctx& c, std::uint64_t global) {
  for (Bag& bag : c.bags) {
    if (!bag.items.empty() && bag.epoch + 2 <= global) free_bag(bag);
  }
}

void Ebr::free_bag(Bag& bag) {
  // Deleters may re-enter retire(); detach the contents first.
  std::vector<std::pair<void*, Deleter>> items;
  items.swap(bag.items);
  for (auto& [p, d] : items) d(p);
}

void Ebr::drain() {
  Ebr& e = instance();
  // Each pass advances the epoch once and reclaims; deleters may retire
  // more objects (e.g. node -> final version), so iterate to fixpoint.
  for (int pass = 0; pass < 8; ++pass) {
    e.try_advance();
    const std::uint64_t global = e.epoch_.load(std::memory_order_seq_cst);
    const int n = ThreadRegistry::instance().max_id();
    bool any = false;
    for (int t = 0; t < n; ++t) {
      for (Bag& bag : e.ctxs_[t]->bags) {
        if (!bag.items.empty() && bag.epoch + 2 <= global) {
          free_bag(bag);
          any = true;
        }
      }
    }
    if (!any && pending() == 0) break;
  }
}

std::size_t Ebr::pending() {
  Ebr& e = instance();
  std::size_t total = 0;
  const int n = ThreadRegistry::instance().max_id();
  for (int t = 0; t < n; ++t) {
    for (const Bag& bag : e.ctxs_[t]->bags) total += bag.items.size();
  }
  return total;
}

}  // namespace cbat
