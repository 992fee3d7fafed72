// Negative-compile TU: a tree node made on the heap.  A Node's hot half
// (info, marked, version) lives one cache line past it inside its pool
// slot (llxscx/node.h), so a heap node has none and writing it would
// corrupt the next allocation.  Node deletes its operator new, so the
// compiler must reject this with a "deleted" diagnostic.
#include "llxscx/node.h"

cbat::Node* heap_node() { return new cbat::Node(1, 1, nullptr, nullptr); }
