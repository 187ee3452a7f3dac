// Use-counted cache of fetched remote payloads, with idempotent insert.
//
// When a signal arrives, the consumer rget-pulls the producer's block
// into a local copy that several local tasks will read; the copy must be
// freed exactly when the last consumer releases it. A duplicate signal's
// freshly fetched copy once shadowed the cached one and leaked. This
// container makes that fix structural: insert() never overwrites an
// existing entry, so the duplicate path is always "free the copy you
// just fetched, keep the original". Payloads own their buffers (the
// engines' payloads are shared_ptrs whose deleters know how each copy
// was allocated), so a rejected copy, like a released one, frees itself.
//
// Entries live in a FlatMap (flat_map.hpp): no heap node per entry, and a
// payload pointer stays valid until the next insert or release.
//
// Single-writer like the rest of the per-rank state (DESIGN.md §4d):
// one instance per rank, touched only by that rank's driving thread.
#pragma once

#include <cstddef>
#include <utility>

#include "core/taskrt/flat_map.hpp"
#include "sparse/types.hpp"

namespace sympack::core::taskrt {

template <typename Payload>
class UseCache {
 public:
  /// Insert a fetched copy under `key` with `uses` outstanding
  /// consumers. Returns (entry payload, inserted). When `key` is already
  /// cached the existing entry is returned untouched (inserted == false)
  /// and the rejected copy is destroyed here.
  std::pair<Payload*, bool> insert(sparse::idx_t key, Payload payload,
                                   int uses) {
    auto [entry, inserted] = map_.try_emplace(key);
    if (inserted) *entry = Entry{std::move(payload), uses};
    return {&entry->payload, inserted};
  }

  /// The payload cached under `key`, or null.
  Payload* find(sparse::idx_t key) {
    Entry* entry = map_.find(key);
    return entry != nullptr ? &entry->payload : nullptr;
  }

  /// Consume one use of `key`; no-op when absent (local refs). When the
  /// last use is released, the entry is erased and its payload destroyed
  /// at once (an owning payload frees its buffer there).
  void release(sparse::idx_t key) {
    Entry* entry = map_.find(key);
    if (entry != nullptr && --entry->uses == 0) map_.erase(entry);
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }

  /// Visit every cached payload (tests / teardown).
  template <typename Fn>
  void for_each(Fn&& fn) {
    map_.for_each([&fn](sparse::idx_t key, Entry& e) { fn(key, e.payload); });
  }
  void clear() { map_.clear(); }

 private:
  struct Entry {
    Payload payload{};
    int uses = 0;
  };
  FlatMap<Entry> map_;
};

}  // namespace sympack::core::taskrt
