// GPU offload heuristic and kernel execution (paper §4.2).
//
// Each of the four solver operations has a buffer-size threshold: large
// computations go to the rank's bound device (cuBLAS/cuSolver stand-in),
// small ones stay on the CPU. Offloaded kernels pay PCIe staging for any
// operand not already resident in device memory, device scratch is
// allocated for the operation (exercising the device-OOM fallback
// options), and results are copied back to the host. All calls are
// counted per rank to reproduce the paper's Fig. 6.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/options.hpp"
#include "core/report.hpp"
#include "gpu/autotune.hpp"
#include "gpu/devblas.hpp"
#include "gpu/device.hpp"
#include "pgas/runtime.hpp"

namespace sympack::core {

class Offload {
 public:
  Offload(const GpuOptions& opts, pgas::Runtime& rt, bool numeric);

  [[nodiscard]] bool gpu_enabled() const { return opts_.enabled; }

  /// The options in effect (after auto-tuning, if requested).
  [[nodiscard]] const GpuOptions& effective_options() const { return opts_; }

  /// The size heuristic: should an op touching a buffer of `elems`
  /// doubles run on the device?
  [[nodiscard]] bool should_offload(gpu::Op op, std::int64_t elems) const;

  /// Should a factor block of `elems` doubles be fetched directly into
  /// device memory on arrival ("GPU block", paper §4.2)?
  [[nodiscard]] bool device_resident(std::int64_t elems) const;

  // Kernel entry points used by the factorization and solve engines.
  // `*_resident` flags mark operands already in device memory (skipping
  // their staging charge). Each call runs the real math when `numeric`
  // and always charges simulated time on the CPU or GPU path.
  int run_potrf(pgas::Rank& rank, int w, double* a, int lda);
  void run_trsm(pgas::Rank& rank, int m, int w, const double* diag, int ldd,
                double* b, int ldb, bool diag_resident);
  /// c := -a a^T on the lower triangle of the n-by-n c; the upper
  /// triangle is neither read nor written, so c may be uninitialised.
  void run_syrk(pgas::Rank& rank, int n, int k, const double* a, int lda,
                double* c, int ldc, bool a_resident);
  /// c := a b^T (m-by-n); c may be uninitialised.
  void run_gemm(pgas::Rank& rank, int m, int n, int k, const double* a,
                int lda, const double* b, int ldb, double* c, int ldc,
                bool a_resident, bool b_resident);

  // Solve-phase kernels (the triangular solves of Figures 8/10/12 use
  // the same offload heuristic; their calls land in the same Fig. 6
  // TRSM/GEMM buckets).
  /// x := op(L)^{-1} x with L the n-by-n diagonal factor; op = transpose
  /// when `transposed` (backward substitution).
  void run_trsm_left(pgas::Rank& rank, bool transposed, int n, int nrhs,
                     const double* diag, int ldd, double* x, int ldx);
  /// c := alpha * op(a) * b + beta * c (general GEMM used by the solve's
  /// block contributions).
  void run_gemm_any(pgas::Rank& rank, blas::Trans trans_a, int m, int n,
                    int k, double alpha, const double* a, int lda,
                    const double* b, int ldb, double beta, double* c,
                    int ldc);

  /// Charge the memory traffic of scattering `bytes` of update results
  /// into a target block (assembly is memory-bound CPU work).
  void charge_scatter(pgas::Rank& rank, std::size_t bytes);

  [[nodiscard]] const OpCounts& counts(int rank) const {
    return counts_[rank];
  }
  [[nodiscard]] OpCounts total_counts() const;
  [[nodiscard]] std::uint64_t fallbacks() const {
    return fallbacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] gpu::DeviceManager& devices() { return devices_; }
  void reset_counters();

 private:
  struct GpuPlan {
    bool use_gpu = false;
    pgas::GlobalPtr scratch;  // device scratch for the op
  };

  /// Decide + reserve device scratch; applies the fallback policy on
  /// device OOM.
  GpuPlan plan(pgas::Rank& rank, gpu::Op op, std::int64_t elems,
               std::size_t scratch_bytes);
  void finish(pgas::Rank& rank, GpuPlan& plan, std::size_t result_bytes);
  void charge_stage(pgas::Rank& rank, std::size_t bytes);

  GpuOptions opts_;
  pgas::Runtime* rt_;
  gpu::DeviceManager devices_;
  bool numeric_;
  std::vector<OpCounts> counts_;
  // Incremented from any rank's thread when a device-OOM fallback fires
  // (plan() runs on the thread driving the requesting rank), so unlike
  // the per-rank counts_ slots it is genuinely shared — hence atomic.
  std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace sympack::core
