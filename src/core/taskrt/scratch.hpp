// Per-thread reusable host buffers for the engines' numeric actions.
//
// An update task's dense product and offsets, and the solve's partial
// sums, are fully overwritten by the kernel or the copy that fills them,
// so a fresh zero-filled allocation per task (a fresh mmap and its page
// faults for the large ones) is pure host overhead. Every thread that
// runs actions (an executor worker, the simulating thread while it helps,
// a rank thread of the threaded driver) owns one set of these buffers and
// grows them on demand; their contents are never initialised, so every
// writer must fill what its reader reads (beta = 0 kernels, full copies).
//
// An action uses the scratch only between its start and its end, and a
// thread runs one action at a time, so nothing else names these buffers
// (DESIGN.md §4k, §4n). They come from the host heap, not the pgas
// allocator, so peak_memory_bytes never sees them.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "sparse/types.hpp"

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

/// The scratch of the calling thread, kept until the thread exits.
struct ThreadScratch {
  Scratch<double> product;          // an update's SYRK or GEMM output
  Scratch<sparse::idx_t> offsets;   // its row and column offsets
  Scratch<double> z;                // a solve contribution's partial sum
  Scratch<double> xsub;             // the x rows it reads
  Scratch<double> fetched;          // a piece of a pulled payload
};

inline ThreadScratch& thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

}  // namespace sympack::core::taskrt
