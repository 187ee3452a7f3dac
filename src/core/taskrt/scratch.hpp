// Per-rank reusable host buffers for the engines' numeric path.
//
// An update task's dense product and offsets, and the solve's partial
// sums, are fully overwritten by the kernel or the rget that fills them,
// so a fresh zero-filled allocation per task (a fresh mmap and its page
// faults for the large ones) is pure host overhead. Each engine's PerRank
// slot owns these buffers and grows them on demand; their contents are
// never initialised, so every writer must fill what its reader reads
// (beta = 0 kernels, full rgets).
//
// Single-writer like the rest of the per-rank state (DESIGN.md §4b): one
// instance per rank, touched only by that rank's driving thread. The
// buffers come from the host heap, not the pgas allocator, so
// peak_memory_bytes never sees them.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace sympack::core::taskrt {

/// One growable buffer of T. Growing discards the old contents and
/// invalidates pointers handed out earlier.
template <typename T>
class Scratch {
 public:
  Scratch() = default;
  /// A moved-from buffer is empty (capacity 0), so get() reallocates.
  Scratch(Scratch&& o) noexcept
      : data_(std::move(o.data_)), capacity_(std::exchange(o.capacity_, 0)) {}
  Scratch& operator=(Scratch&& o) noexcept {
    data_ = std::move(o.data_);
    capacity_ = std::exchange(o.capacity_, 0);
    return *this;
  }

  /// At least n elements, contents unspecified.
  T* get(std::size_t n) {
    if (n > capacity_) {
      data_ = std::make_unique_for_overwrite<T[]>(n);
      capacity_ = n;
    }
    return data_.get();
  }
  [[nodiscard]] T* data() const { return data_.get(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

}  // namespace sympack::core::taskrt
