#include "core/selinv.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "blas/blas.hpp"
#include "core/solver.hpp"
#include "core/trace.hpp"
#include "sparse/permute.hpp"

namespace sympack::core {
namespace {

/// Position of global row `row` within a panel's sorted below list, or
/// -1 if absent.
idx_t below_position(const symbolic::Supernode& sn, idx_t row) {
  const auto it = std::lower_bound(sn.below.begin(), sn.below.end(), row);
  if (it == sn.below.end() || *it != row) return -1;
  return static_cast<idx_t>(it - sn.below.begin());
}

}  // namespace

std::vector<double> SelectedInverse::diagonal() const {
  std::vector<double> out(n_);
  for (idx_t k = 0; k < sym_.num_snodes(); ++k) {
    const auto& sn = sym_.snode(k);
    const idx_t w = sn.width();
    for (idx_t c = 0; c < w; ++c) {
      out[perm_[sn.first + c]] = diag_[k][c + c * w];
    }
  }
  return out;
}

double SelectedInverse::entry(idx_t i, idx_t j, bool* on_pattern) const {
  if (i < 0 || i >= n_ || j < 0 || j >= n_) {
    throw std::out_of_range("SelectedInverse::entry");
  }
  idx_t pi = iperm_[i];
  idx_t pj = iperm_[j];
  if (pi < pj) std::swap(pi, pj);
  const idx_t t = sym_.snode_of(pj);
  const auto& sn = sym_.snode(t);
  const idx_t w = sn.width();
  const idx_t ct = pj - sn.first;
  if (pi <= sn.last) {
    if (on_pattern) *on_pattern = true;
    return diag_[t][(pi - sn.first) + ct * w];
  }
  const idx_t pos = below_position(sn, pi);
  if (pos < 0) {
    if (on_pattern) *on_pattern = false;
    return 0.0;
  }
  if (on_pattern) *on_pattern = true;
  return below_[t][pos + ct * sn.nrows_below()];
}

SelectedInverse selected_inversion(const SymPackSolver& solver) {
  const auto& store = solver.block_store();
  if (!store.numeric()) {
    throw std::logic_error(
        "selected_inversion requires numeric mode (SolverOptions::numeric)");
  }
  const auto& sym = solver.symbolic();
  const idx_t ns = sym.num_snodes();

  SelectedInverse inv;
  inv.n_ = sym.n();
  inv.sym_ = sym;  // deep copy
  inv.perm_ = solver.permutation();
  inv.iperm_ = sparse::invert_permutation(inv.perm_);
  inv.diag_.resize(ns);
  inv.below_.resize(ns);

  // Selected inversion runs serially on the caller thread (no simulated
  // ranks), so its "S k" spans use wall-clock time relative to the sweep
  // start, on tid 0.
  Tracer* tracer = solver.tracer();
  const auto wall0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [wall0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall0)
        .count();
  };

  // Root-to-leaf sweep: ancestors' selected inverse entries are complete
  // before any descendant needs to gather them.
  for (idx_t k = ns - 1; k >= 0; --k) {
    const double span_begin = tracer != nullptr ? elapsed_s() : 0.0;
    const auto& sn = sym.snode(k);
    const int w = static_cast<int>(sn.width());
    const int b = static_cast<int>(sn.nrows_below());
    const double* ljj = store.data(store.block_id(k, 0));  // ld = w

    // W = L_JJ^{-T} L_JJ^{-1}: X = L^{-1} (solve L X = I), then W = X^T X.
    std::vector<double> x(static_cast<std::size_t>(w) * w, 0.0);
    for (int c = 0; c < w; ++c) x[c + static_cast<std::size_t>(c) * w] = 1.0;
    blas::trsm(blas::Side::kLeft, blas::UpLo::kLower, blas::Trans::kNo,
               blas::Diag::kNonUnit, w, w, 1.0, ljj, w, x.data(), w);
    std::vector<double>& diag = inv.diag_[k];
    diag.assign(static_cast<std::size_t>(w) * w, 0.0);
    blas::syrk(blas::UpLo::kLower, blas::Trans::kYes, w, w, 1.0, x.data(), w,
               0.0, diag.data(), w);

    if (b > 0) {
      // Pack L_RJ and form Y = L_RJ L_JJ^{-1}.
      std::vector<double> y(static_cast<std::size_t>(b) * w);
      for (symbolic::BlockSlot slot = 1;
           slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
        const idx_t bid = store.block_id(k, slot);
        const auto& blk = sn.blocks[slot - 1];
        for (int c = 0; c < w; ++c) {
          std::memcpy(
              y.data() + blk.row_off + static_cast<std::size_t>(c) * b,
              store.data(bid) + static_cast<std::size_t>(c) * blk.nrows,
              sizeof(double) * blk.nrows);
        }
      }
      blas::trsm(blas::Side::kRight, blas::UpLo::kLower, blas::Trans::kNo,
                 blas::Diag::kNonUnit, b, w, 1.0, ljj, w, y.data(), b);

      // Gather Ainv_RR on the pattern (rows/cols = this panel's below
      // set; all entries exist in ancestor panels by structure closure).
      std::vector<double> rr(static_cast<std::size_t>(b) * b);
      for (int c = 0; c < b; ++c) {
        const idx_t gc = sn.below[c];
        const idx_t t = sym.snode_of(gc);
        const auto& tsn = sym.snode(t);
        const idx_t ct = gc - tsn.first;
        for (int r = c; r < b; ++r) {
          const idx_t gr = sn.below[r];
          double v;
          if (gr <= tsn.last) {
            v = inv.diag_[t][(gr - tsn.first) + ct * tsn.width()];
          } else {
            const idx_t pos = below_position(tsn, gr);
            if (pos < 0) {
              throw std::logic_error(
                  "selected_inversion: pattern closure violated");
            }
            v = inv.below_[t][pos + ct * tsn.nrows_below()];
          }
          rr[r + static_cast<std::size_t>(c) * b] = v;
          rr[c + static_cast<std::size_t>(r) * b] = v;
        }
      }

      // Ainv_RJ = -Ainv_RR * Y.
      std::vector<double>& arj = inv.below_[k];
      arj.assign(static_cast<std::size_t>(b) * w, 0.0);
      blas::gemm(blas::Trans::kNo, blas::Trans::kNo, b, w, b, -1.0, rr.data(),
                 b, y.data(), b, 0.0, arj.data(), b);

      // Ainv_JJ = W - Y^T * Ainv_RJ  (= W + Y^T Ainv_RR Y).
      std::vector<double> t(static_cast<std::size_t>(w) * w, 0.0);
      blas::gemm(blas::Trans::kYes, blas::Trans::kNo, w, w, b, 1.0, y.data(),
                 b, arj.data(), b, 0.0, t.data(), w);
      for (int c = 0; c < w; ++c) {
        for (int r = c; r < w; ++r) {
          diag[r + static_cast<std::size_t>(c) * w] -=
              0.5 * (t[r + static_cast<std::size_t>(c) * w] +
                     t[c + static_cast<std::size_t>(r) * w]);
        }
      }
    }
    // Mirror the diagonal block to full symmetric storage (the gathers
    // of descendant panels read both triangles).
    for (int c = 0; c < w; ++c) {
      for (int r = c + 1; r < w; ++r) {
        diag[c + static_cast<std::size_t>(r) * w] =
            diag[r + static_cast<std::size_t>(c) * w];
      }
    }
    if (tracer != nullptr) {
      tracer->record({.rank = 0, .kind = TaskTag::kSelinv, .snode = k, .a = 0,
                      .b = 0, .begin_s = span_begin, .end_s = elapsed_s()});
    }
  }
  return inv;
}

}  // namespace sympack::core
