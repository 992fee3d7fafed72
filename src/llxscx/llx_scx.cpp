#include "llxscx/llx_scx.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/counters.h"
#include "util/fault.h"
#include "util/padded.h"
#include "util/thread_registry.h"

namespace cbat {

namespace {

// The paper's SCX-record states.
constexpr int kInProgress = 0;
constexpr int kCommitted = 1;
constexpr int kAborted = 2;

// A descriptor's status word: sequence << 3 | allFrozen << 2 | state.
constexpr std::uint64_t kAllFrozen = 4;
constexpr std::uint64_t status_word(std::uint64_t seq, int state,
                                    bool all_frozen) {
  return seq << 3 | (all_frozen ? kAllFrozen : 0) |
         static_cast<std::uint64_t>(state);
}
constexpr std::uint64_t status_seq(std::uint64_t st) { return st >> 3; }
constexpr int status_state(std::uint64_t st) { return static_cast<int>(st & 3); }

// One SCX's fields, as its owner fills them and a helper copies them.
struct ScxFields {
  int num_nodes = 0;
  // R's first index: nodes[finalize_from .. num_nodes) are finalized on
  // commit.
  int finalize_from = 0;
  // V, in freeze order; infos[i] is the SCX id the caller's LLX of
  // nodes[i] observed.
  Node* nodes[kMaxScxNodes] = {};
  ScxId infos[kMaxScxNodes] = {};
  // The single field update: *field goes old_value -> new_value.
  std::atomic<Node*>* field = nullptr;
  Node* old_value = nullptr;
  Node* new_value = nullptr;
};

// A slot's descriptor.  Only its owner writes the fields; helpers read them
// racily and validate against the sequence, hence atomics.
struct ScxRecord {
  std::atomic<std::uint64_t> status{0};
  std::atomic<std::uint8_t> num_nodes{0};
  std::atomic<std::uint8_t> finalize_from{0};
  std::atomic<Node*> nodes[kMaxScxNodes] = {};
  std::atomic<ScxId> infos[kMaxScxNodes] = {};
  std::atomic<std::atomic<Node*>*> field{nullptr};
  std::atomic<Node*> old_value{nullptr};
  std::atomic<Node*> new_value{nullptr};

  // Owner side.  relaxed: these stores follow the release fence after the
  // owner's sequence bump and precede the release CAS that first names the
  // SCX in a node, which orders them for every helper.
  void publish(const ScxFields& u) {
    num_nodes.store(static_cast<std::uint8_t>(u.num_nodes),
                    std::memory_order_relaxed);
    // relaxed: as above.
    finalize_from.store(static_cast<std::uint8_t>(u.finalize_from),
                        std::memory_order_relaxed);
    for (int i = 0; i < u.num_nodes; ++i) {
      // relaxed: as above.
      nodes[i].store(u.nodes[i], std::memory_order_relaxed);
      infos[i].store(u.infos[i], std::memory_order_relaxed);
    }
    // relaxed: as above.
    field.store(u.field, std::memory_order_relaxed);
    old_value.store(u.old_value, std::memory_order_relaxed);
    new_value.store(u.new_value, std::memory_order_relaxed);
  }

  // Helper side.  relaxed: these loads race with the owner's next SCX;
  // scx_help's acquire fence orders them before its re-read of the
  // sequence, which refuses a copy they tore.
  void copy_to(ScxFields* u) const {
    u->num_nodes = num_nodes.load(std::memory_order_relaxed);
    u->finalize_from = finalize_from.load(std::memory_order_relaxed);
    for (int i = 0; i < u->num_nodes; ++i) {
      // relaxed: as above.
      u->nodes[i] = nodes[i].load(std::memory_order_relaxed);
      u->infos[i] = infos[i].load(std::memory_order_relaxed);
    }
    // relaxed: as above.
    u->field = field.load(std::memory_order_relaxed);
    u->old_value = old_value.load(std::memory_order_relaxed);
    u->new_value = new_value.load(std::memory_order_relaxed);
  }
};
static_assert(sizeof(ScxRecord) <= kCacheLine,
              "a slot's descriptor fits its padded slot");

// Every slot's descriptor on its own lines, so an LLX's read of a status
// word costs one line that only its owner (and, rarely, a helper) writes.
// Zero-initialized: sequence 0, which no SCX uses.
Padded<ScxRecord> g_records[kMaxThreads];

// The state of the SCX that `id` names, as LLX needs it.  An SCX whose
// owner has started another has finished, and LLX treats it as committed:
// a node it froze is then finalized exactly when marked (see llx_scx.h).
// kNoScx reads the same way: its node is free to snapshot.
int state_of(ScxId id) {
  if (id == kNoScx) return kCommitted;
  // acquire: reading an owner's sequence bump (a release store) makes the
  // marks of the SCX it finished visible to the caller's next read of
  // `marked`.
  const std::uint64_t st =
      g_records[scx_slot(id)]->status.load(std::memory_order_acquire);
  return status_seq(st) == scx_sequence(id) ? status_state(st) : kCommitted;
}

// The paper's Help(U) over a copy of U's fields.  Each status change is a
// CAS against U's sequence, so a helper that runs late, after U's owner has
// moved on, changes no later SCX's status.  Its node steps change nothing
// either: no info word returns to a value it left, so its freeze CASes
// fail or find id, and a helper that gets past them only repeats the marks
// and the field CAS of a commit that has happened.
bool help(ScxRecord& d, const ScxFields& u, ScxId id) {
  const std::uint64_t seq = scx_sequence(id);
  // Freeze every record in V by swinging its info word to id.
  for (int i = 0; i < u.num_nodes; ++i) {
    ScxId expected = u.infos[i];
    if (!u.nodes[i]->hot().info.compare_exchange_strong(
            expected, id, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      if (expected != id) {
        // Frozen by some other SCX since the caller's LLX.
        const std::uint64_t st = d.status.load(std::memory_order_acquire);
        if (status_seq(st) == seq && (st & kAllFrozen) != 0) {
          return true;  // another helper already finished the job
        }
        std::uint64_t in_progress = status_word(seq, kInProgress, false);
        // relaxed: a failed abort changes nothing, and the caller reads
        // nothing after it.
        d.status.compare_exchange_strong(in_progress,
                                         status_word(seq, kAborted, false),
                                         std::memory_order_release,
                                         std::memory_order_relaxed);
        return false;
      }
      // expected == id: another helper froze this record for us; continue.
    }
  }

  std::uint64_t st = status_word(seq, kInProgress, false);
  // relaxed: a failed CAS means another helper made the same change, or U
  // has finished; either way the steps that follow are idempotent.
  d.status.compare_exchange_strong(st, status_word(seq, kInProgress, true),
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
  for (int i = u.finalize_from; i < u.num_nodes; ++i) {
    u.nodes[i]->hot().marked.store(true, std::memory_order_release);
  }
  Node* expected = u.old_value;
  u.field->compare_exchange_strong(expected, u.new_value,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire);
  st = status_word(seq, kInProgress, true);
  // relaxed: as for the all-frozen CAS above.
  d.status.compare_exchange_strong(st, status_word(seq, kCommitted, true),
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
  return true;
}

}  // namespace

LlxStatus llx(Node* r, LlxSnap* snap) {
  Node::Hot& h = r->hot();
  const bool marked1 = h.marked.load(std::memory_order_acquire);
  const ScxId rinfo = h.info.load(std::memory_order_acquire);
  const int state = state_of(rinfo);
  const bool marked2 = h.marked.load(std::memory_order_acquire);

  if (state == kAborted || (state == kCommitted && !marked2)) {
    Node* c0 = r->child[0].load(std::memory_order_acquire);
    Node* c1 = r->child[1].load(std::memory_order_acquire);
    if (h.info.load(std::memory_order_acquire) == rinfo) {
      snap->node = r;
      snap->info = rinfo;
      snap->children[0] = c0;
      snap->children[1] = c1;
      return LlxStatus::kOk;
    }
  }

  // Could not snapshot: either an SCX is in progress (help it) or the node
  // has been finalized.
  const ScxId cur = h.info.load(std::memory_order_acquire);
  if (state_of(cur) == kInProgress) scx_help(cur);
  return marked1 ? LlxStatus::kFinalized : LlxStatus::kFail;
}

bool scx_help(ScxId id, ScxHelpHook in_window, void* ctx) {
  ScxRecord& d = *g_records[scx_slot(id)];
  // The owner wrote these fields before the CAS that put id in the node
  // where the caller read it, so the copy reads them or a later SCX's.
  ScxFields u;
  d.copy_to(&u);
  CBAT_FAULT_POINT("scx.help_copy");
  if (in_window != nullptr) in_window(ctx);
  // The seqlock reader's validation: if the copy read any field of the
  // owner's next SCX, this re-read sees that SCX's sequence bump.
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t st = d.status.load(std::memory_order_acquire);
  if (status_seq(st) != scx_sequence(id)) return false;
  if (status_state(st) == kInProgress) help(d, u, id);
  return true;
}

bool scx(const LlxSnap* v, int num, int finalize_from,
         std::atomic<Node*>* field, Node* new_value) {
  if (num < 1 || num > kMaxScxNodes || finalize_from < 0 ||
      finalize_from > num) {
    std::fprintf(stderr, "cbat: scx over %d records from %d (at most %d)\n",
                 num, finalize_from, kMaxScxNodes);
    std::abort();
  }
  Counters::bump(Counter::kScxAttempts);
  const int slot = ThreadRegistry::thread_id();
  ScxRecord& d = *g_records[slot];
  // relaxed: only the slot's owner changes the sequence (a helper's CAS
  // keeps it), and a thread that takes the slot synchronizes with the
  // slot's last owner in ThreadRegistry, so this reads the last bump.
  const std::uint64_t seq =
      status_seq(d.status.load(std::memory_order_relaxed)) + 1;
  // release: an LLX that reads this bump takes the previous SCX as
  // finished and must see its marks (state_of).
  d.status.store(status_word(seq, kInProgress, false),
                 std::memory_order_release);
  // The seqlock writer's fence: orders the bump before the field stores.
  std::atomic_thread_fence(std::memory_order_release);

  ScxFields u;
  u.num_nodes = num;
  u.finalize_from = finalize_from;
  for (int i = 0; i < num; ++i) {
    u.nodes[i] = v[i].node;
    u.infos[i] = v[i].info;
  }
  u.field = field;
  u.new_value = new_value;
  // The expected old value is the snapshot v[0] took of this field.
  u.old_value = (field == &v[0].node->child[0]) ? v[0].children[0]
                                                : v[0].children[1];
  d.publish(u);
  const bool ok = help(d, u, scx_id(slot, seq));
  if (!ok) Counters::bump(Counter::kScxFailures);
  return ok;
}

}  // namespace cbat
