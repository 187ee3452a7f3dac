// Open-addressed hash map from a non-negative id to a value: the engines'
// per-rank keyed state (fetched blocks and segments in UseCache, delivered
// diagonals, fan-in aggregates) without a heap node per entry.
//
// The ids probed live in one array of 8-byte keys, the values in a
// parallel array, so a probe touches only keys and a hit reads one value.
// Linear probing over a power-of-two table kept at most half full, with
// a multiplicative (Fibonacci) hash of the id; erase shifts the entries
// of the probe run back instead of leaving tombstones, so lookups never
// slow down as entries come and go. An erased value is destroyed at
// once, like a node of std::unordered_map.
//
// Pointers returned by find() and try_emplace() stay valid until the next
// insertion, erase() or clear().
//
// Single-writer like the rest of the per-rank state (DESIGN.md §4d).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sparse/types.hpp"

namespace sympack::core::taskrt {

template <typename V>
class FlatMap {
 public:
  /// The value under `key` (>= 0), or null.
  V* find(sparse::idx_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &values_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }

  /// The value under `key` (>= 0), value-initialised when absent.
  /// Returns (value, inserted).
  std::pair<V*, bool> try_emplace(sparse::idx_t key) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    std::size_t i = home(key);
    for (; keys_[i] != kEmpty; i = (i + 1) & mask_) {
      if (keys_[i] == key) return {&values_[i], false};
    }
    keys_[i] = key;
    ++size_;
    return {&values_[i], true};
  }

  /// Erase the entry whose value `v` points at (from find/try_emplace).
  void erase(V* v) {
    std::size_t hole = static_cast<std::size_t>(v - values_.data());
    // Backward shift: walk the probe run after the hole and move back
    // every entry whose home does not lie between the hole and itself.
    for (std::size_t j = (hole + 1) & mask_; keys_[j] != kEmpty;
         j = (j + 1) & mask_) {
      if (((j - home(keys_[j])) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
    values_[hole] = V{};
    --size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Visit every entry as fn(key, value&), in table order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(keys_[i], values_[i]);
    }
  }

  /// Drop every entry and the table.
  void clear() {
    keys_ = std::vector<sparse::idx_t>();
    values_ = std::vector<V>();
    mask_ = 0;
    shift_ = 64;
    size_ = 0;
  }

 private:
  static constexpr sparse::idx_t kEmpty = -1;

  [[nodiscard]] std::size_t home(sparse::idx_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Double the table (16 slots at first) and reinsert every entry.
  void grow() {
    std::vector<sparse::idx_t> keys = std::move(keys_);
    std::vector<V> values = std::move(values_);
    const std::size_t cap = keys.empty() ? 16 : 2 * keys.size();
    keys_.assign(cap, kEmpty);
    values_ = std::vector<V>(cap);
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == kEmpty) continue;
      std::size_t j = home(keys[i]);
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = keys[i];
      values_[j] = std::move(values[i]);
    }
  }

  std::vector<sparse::idx_t> keys_;
  std::vector<V> values_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace sympack::core::taskrt
