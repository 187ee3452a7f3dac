// Generic dependency tracking for the engines' task graphs.
//
// Every engine keeps the same state per dependency node (factor blocks
// and update tasks for the factorization engine, supernode segments for
// the solve engine): an outstanding-dependency counter and the simulated
// time at which the last-arriving input became available, side by side
// in one 16-byte entry so a satisfy() touches one cache line. A node
// becomes ready when its counter hits zero; the max of the input ready
// times is the earliest simulated start of the task it unlocks.
//
// Ownership (DESIGN.md §4d): each node id is touched only by the thread
// driving the rank that consumes it — in the factorization engine the
// consumer of a block's dependencies is the block's owner under either
// variant (fan-in applies aggregates there), and in the solve engine
// the segment owner folds in remote contributions itself — so the
// counters never see a remote writer and need no atomics.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace sympack::core::taskrt {

class DepTracker {
 public:
  /// Size the tracker: `n` nodes, all counters 0, all ready times 0.
  void init(std::size_t n) { nodes_.assign(n, Node{}); }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Set a node's outstanding-dependency count (construction, or per
  /// solve sweep). Does not touch the ready time: the solve engine
  /// deliberately carries segment ready times from the forward sweep
  /// into the backward sweep of the same panel.
  void set_count(std::size_t id, int count) { nodes_[id].remaining = count; }

  /// Zero every ready time. A new RHS panel is a fresh dataflow epoch:
  /// the solve-serving layer resets the simulated clocks between
  /// drains, so times from a previous panel must not leak into the
  /// seeds of the next one.
  void clear_ready() {
    for (Node& node : nodes_) node.ready = 0.0;
  }
  [[nodiscard]] int count(std::size_t id) const {
    return nodes_[id].remaining;
  }

  [[nodiscard]] double ready(std::size_t id) const { return nodes_[id].ready; }
  /// ready[id] = max(ready[id], t): fold in one input's availability.
  void raise_ready(std::size_t id, double t) {
    nodes_[id].ready = std::max(nodes_[id].ready, t);
  }
  /// ready[id] = t, unconditionally (solve: a re-solved segment's time).
  void set_ready(std::size_t id, double t) { nodes_[id].ready = t; }

  /// Fold in one input (raise the ready time, consume one dependency).
  /// Returns true exactly when the node became ready — the caller then
  /// enqueues the unlocked task at ready(id).
  ///
  /// A satisfy() with no outstanding dependency is always an engine bug
  /// (a duplicate that escaped the endpoint's dedup, or a stray edge):
  /// the counter would wrap below zero and silently corrupt readiness —
  /// the node could never report ready again, deadlocking the phase with
  /// no diagnostic. Debug builds assert; release builds still decrement
  /// (preserving the historical behaviour bit-for-bit) but the
  /// duplicate-signal recovery tests pin that the dedup layer keeps this
  /// path unreachable.
  bool satisfy(std::size_t id, double t) {
    raise_ready(id, t);
    assert(nodes_[id].remaining > 0 &&
           "DepTracker::satisfy: no outstanding dependency "
           "(duplicate or stray satisfy)");
    return --nodes_[id].remaining == 0;
  }

 private:
  struct Node {
    double ready = 0.0;
    int remaining = 0;
  };
  std::vector<Node> nodes_;
};

}  // namespace sympack::core::taskrt
