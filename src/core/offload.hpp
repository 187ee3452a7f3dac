// GPU offload heuristic and kernel execution (paper §4.2).
//
// Each of the four solver operations has a buffer-size threshold: large
// computations go to the rank's bound device (cuBLAS/cuSolver stand-in),
// small ones stay on the CPU. Offloaded kernels pay PCIe staging for any
// operand not already resident in device memory, device scratch is
// allocated for the operation (exercising the device-OOM fallback
// options), and results are copied back to the host. All calls are
// counted per rank to reproduce the paper's Fig. 6.
//
// Every entry point describes its call (op, offload key, flops, scratch,
// staged operands, result bytes) and hands it with its host math to one
// private skeleton. The device computes on host-addressable buffers, so
// an offloaded call runs the same blas:: routine as the CPU path and
// then charges simulated device time. A protocol-only run
// (numeric = false) skips the math and nothing else, so its clocks and
// counters cannot drift from the numeric run's.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "blas/blas.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "gpu/device.hpp"
#include "pgas/runtime.hpp"

namespace sympack::core {

/// `base` with the four offload thresholds set to the machine model's
/// analytic crossovers (gpu/autotune.hpp) times `scale`, and the GPU-block
/// threshold to the scaled TRSM crossover (a block worth a device TRSM is
/// worth fetching straight into device memory).
GpuOptions analytic_gpu_options(GpuOptions base,
                                const pgas::MachineModel& model,
                                double scale = 1.0);

class Offload {
 public:
  Offload(const GpuOptions& opts, pgas::Runtime& rt, bool numeric);

  [[nodiscard]] bool gpu_enabled() const { return opts_.enabled; }

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
  /// Returns the POTRF info code (0 = success; always 0 when
  /// protocol-only).
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
  /// when `transposed` (backward substitution). Offloaded, it stages and
  /// reserves both L (n*n) and x (n*nrhs).
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
  /// What one kernel call costs, independent of its data.
  struct Call {
    gpu::Op op;
    std::int64_t elems;         // the buffer size should_offload keys on
    double flops;
    std::size_t scratch_bytes;  // device scratch reserved when offloaded
    std::size_t staged[2];      // host -> device copies, in order (0 = none)
    std::size_t result_bytes;   // device -> host copy of the result
  };

  /// The one kernel skeleton: offload decision and scratch (with the
  /// §4.2 OOM fallback), staging, `math()` when numeric, the CPU or
  /// device time charge, copy-back, and the Fig. 6 counters.
  template <typename Math>
  void run(pgas::Rank& rank, const Call& call, Math&& math);
  void charge_stage(pgas::Rank& rank, std::size_t bytes);

  GpuOptions opts_;
  pgas::Runtime* rt_;
  gpu::DeviceManager devices_;
  bool numeric_;
  std::vector<OpCounts> counts_;
  // Incremented from any rank's thread when a device-OOM fallback fires
  // (run() executes on the thread driving the requesting rank), so unlike
  // the per-rank counts_ slots it is genuinely shared — hence atomic.
  std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace sympack::core
