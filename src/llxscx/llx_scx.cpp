#include "llxscx/llx_scx.h"

#include <cstdio>
#include <cstdlib>

#include "reclamation/pool.h"

#include "util/counters.h"

namespace cbat {

namespace {
ScxRecord* make_initial() {
  auto* r = new ScxRecord;  // immortal singleton
  // relaxed: pre-publication store; g_initial's dynamic initialization
  // happens-before any thread that can observe the pointer.
  r->state.store(ScxRecord::kCommitted, std::memory_order_relaxed);
  r->is_static = true;
  return r;
}
ScxRecord* const g_initial = make_initial();
}  // namespace

ScxRecord* scx_initial_record() { return g_initial; }

Node::Node(Key k, std::int32_t w, Node* left, Node* right) : key(k), weight(w) {
  // The hot half lives in the same pool slot, kHotOffset bytes on.
  ::new (static_cast<void*>(reinterpret_cast<std::byte*>(this) + kHotOffset))
      Hot;
  // relaxed: constructor stores; the node is private to this thread until
  // the SCX that links it in publishes with release ordering.
  child[0].store(left, std::memory_order_relaxed);
  child[1].store(right, std::memory_order_relaxed);
  hot().info.store(g_initial, std::memory_order_relaxed);
}

LlxStatus llx(Node* r, LlxSnap* snap) {
  Node::Hot& h = r->hot();
  const bool marked1 = h.marked.load(std::memory_order_acquire);
  ScxRecord* rinfo = h.info.load(std::memory_order_acquire);
  const int state = rinfo->state.load(std::memory_order_acquire);
  const bool marked2 = h.marked.load(std::memory_order_acquire);

  if (state == ScxRecord::kAborted ||
      (state == ScxRecord::kCommitted && !marked2)) {
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
  ScxRecord* cur = h.info.load(std::memory_order_acquire);
  if (cur->state.load(std::memory_order_acquire) == ScxRecord::kInProgress) {
    scx_help(cur);
  }
  return marked1 ? LlxStatus::kFinalized : LlxStatus::kFail;
}

bool scx_help(ScxRecord* u) {
  // Freeze every record in V by swinging its info pointer to u.
  for (int i = 0; i < u->num_nodes; ++i) {
    Node* r = u->nodes[i];
    ScxRecord* expected = u->infos[i];
    if (!r->hot().info.compare_exchange_strong(expected, u,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      if (expected != u) {
        // Frozen by some other SCX since the caller's LLX.
        if (u->all_frozen.load(std::memory_order_acquire)) {
          return true;  // another helper already finished the job
        }
        u->state.store(ScxRecord::kAborted, std::memory_order_release);
        return false;
      }
      // expected == u: another helper froze this record for us; continue.
    } else {
      // One more node field now references u; the replaced descriptor
      // loses that reference after a grace period (so this decrement can
      // never overtake the increment of a racing installer).
      descriptor_ref(u);
      descriptor_retire_unref(u->infos[i]);
    }
  }

  u->all_frozen.store(true, std::memory_order_release);
  for (int i = u->finalize_from; i < u->num_nodes; ++i) {
    u->nodes[i]->hot().marked.store(true, std::memory_order_release);
  }
  Node* expected = u->old_value;
  u->field->compare_exchange_strong(expected, u->new_value,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
  u->state.store(ScxRecord::kCommitted, std::memory_order_release);
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
  auto* u = pool_new<ScxRecord>();
  u->num_nodes = static_cast<std::uint8_t>(num);
  u->finalize_from = static_cast<std::uint8_t>(finalize_from);
  for (int i = 0; i < num; ++i) {
    u->nodes[i] = v[i].node;
    u->infos[i] = v[i].info;
  }
  u->field = field;
  u->new_value = new_value;
  // The expected old value is the snapshot v[0] took of this field.
  u->old_value = (field == &v[0].node->child[0]) ? v[0].children[0]
                                                 : v[0].children[1];
  const bool ok = scx_help(u);
  if (!ok) Counters::bump(Counter::kScxFailures);
  // Drop the creator credit once every operation active right now (which
  // includes any helper that could still install u) has finished.
  descriptor_retire_unref(u);
  return ok;
}

void release_node_info(Node* n) {
  descriptor_unref(n->hot().info.load(std::memory_order_acquire));
}

}  // namespace cbat
