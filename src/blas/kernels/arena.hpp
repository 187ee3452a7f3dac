// Per-thread packing arena for the tiled kernel engine.
//
// Packed A/B panels are written into buffers that live for the thread's
// lifetime and only grow, so steady-state factorization packs into
// cache-warm memory instead of re-mallocing per kernel call. Each PGAS
// rank thread gets its own arena (thread_local), so concurrently
// progressing ranks never share packing buffers.
#pragma once

#include <cstddef>
#include <vector>

namespace sympack::blas::kernels {

class PackArena {
 public:
  /// Buffer for a packed A panel of at least `elems` doubles.
  double* a_panel(std::size_t elems) { return grow(a_, elems); }
  /// Buffer for a packed B panel of at least `elems` doubles.
  double* b_panel(std::size_t elems) { return grow(b_, elems); }
  /// Buffer for a packed triangular diagonal block (+ RHS tile scratch)
  /// of the blocked TRSM (triangular.cpp). Separate from the A/B panels
  /// so the diagonal solve can hold its pack while the following rank
  /// update repacks A/B.
  double* tri_panel(std::size_t elems) { return grow(t_, elems); }
  /// Staging buffer for the transposed right-hand-side block of small
  /// left-side TRSMs (routed through the right-side kernel). Distinct
  /// from tri_panel because the solve holds the transposed RHS across
  /// every diagonal-block pack of the sweep.
  double* rhs_panel(std::size_t elems) { return grow(r_, elems); }

 private:
  static double* grow(std::vector<double>& buf, std::size_t elems) {
    if (buf.size() < elems) buf.resize(elems);
    return buf.data();
  }

  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<double> t_;
  std::vector<double> r_;
};

/// The calling thread's arena.
PackArena& thread_arena();

}  // namespace sympack::blas::kernels
