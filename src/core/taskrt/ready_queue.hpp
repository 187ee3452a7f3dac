// The one policy-driven ready-task queue (RTQ) shared by every engine.
//
// The paper (§3.4) leaves the scheduling policy open and pops "whichever
// task is at the top of the queue"; the solver exposes the knob
// (core::Policy) for the scheduling ablation. This container is the
// single implementation of all four policies, templated on the engine's
// task payload:
//
//   kFifo / kLifo      plain deque ends;
//   kPriority /        binary max-heap (std::push_heap/pop_heap) of
//   kCriticalPath      16-byte keys in one vector — higher priority pops
//                      first, ties broken by lower insertion sequence,
//                      reproducing a stable linear-scan selection in
//                      O(log n) (the scan went quadratic on the deep RTQs
//                      of irregular matrices, e.g. the thermal_proxy
//                      regime). The tasks wait in a slot pool the keys
//                      index, so a sift moves keys, never tasks.
//
// The *meaning* of the priority stays with the engine (kPriority uses
// -supernode, kCriticalPath uses elimination-tree depth); the queue only
// orders by the int64 it is handed. Same single-writer rule as the rest
// of the per-rank engine state (DESIGN.md §4d): each instance belongs to
// one rank and is only touched by the thread driving that rank.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/options.hpp"

namespace sympack::core::taskrt {

template <typename Task>
class ReadyQueue {
 public:
  ReadyQueue() = default;
  explicit ReadyQueue(Policy policy) : policy_(policy) {}

  /// Set the policy before any push (construction-time configuration;
  /// the engines size their per-rank arrays first, then set the policy).
  void set_policy(Policy policy) { policy_ = policy; }
  [[nodiscard]] Policy policy() const { return policy_; }

  [[nodiscard]] bool empty() const { return q_.empty() && heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size() + heap_.size(); }

  /// Enqueue a ready task. `prio` is consulted only by the heap policies
  /// (FIFO/LIFO callers may pass anything; 0 by convention). The heap
  /// policies number their pushes between clears in 32 bits.
  void push(Task task, std::int64_t prio = 0) {
    if (!heaped()) {
      q_.push_back(std::move(task));
      return;
    }
    if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("ReadyQueue: 2^32 pushes without a clear");
    }
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(std::move(task));
    } else {
      slot = free_.back();
      free_.pop_back();
      pool_[slot] = std::move(task);
    }
    heap_.push_back(Key{prio, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), heap_less);
  }

  /// Dequeue the next task per the policy. Precondition: !empty().
  Task pop() {
    switch (policy_) {
      case Policy::kLifo: {
        Task t = std::move(q_.back());
        q_.pop_back();
        return t;
      }
      case Policy::kPriority:
      case Policy::kCriticalPath: {
        std::pop_heap(heap_.begin(), heap_.end(), heap_less);
        const std::uint32_t slot = heap_.back().slot;
        heap_.pop_back();
        free_.push_back(slot);
        return std::move(pool_[slot]);
      }
      case Policy::kFifo:
      case Policy::kAuto:  // resolved before any engine runs; FIFO if not
        break;
    }
    Task t = std::move(q_.front());
    q_.pop_front();
    return t;
  }

  /// Drop everything (solve phases reuse one queue across sweeps).
  void clear() {
    q_.clear();
    heap_.clear();
    pool_.clear();
    free_.clear();
    next_seq_ = 0;
  }

 private:
  /// A heap entry: the task's priority, its insertion number, and the
  /// pool slot holding it.
  struct Key {
    std::int64_t prio;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  [[nodiscard]] bool heaped() const {
    return policy_ == Policy::kPriority || policy_ == Policy::kCriticalPath;
  }

  /// "Less" for a max-heap at the front: higher prio wins, ties go to
  /// the earlier insertion.
  static bool heap_less(const Key& a, const Key& b) {
    if (a.prio != b.prio) return a.prio < b.prio;
    return a.seq > b.seq;
  }

  Policy policy_ = Policy::kFifo;
  std::deque<Task> q_;               // FIFO / LIFO
  std::vector<Key> heap_;            // priority / critical path
  std::vector<Task> pool_;           // the heap's tasks, by slot
  std::vector<std::uint32_t> free_;  // pool slots to reuse
  std::uint32_t next_seq_ = 0;
};

}  // namespace sympack::core::taskrt
