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
// Every kernel call is a Call (op, offload key, flops, scratch, staged
// operands, result bytes) handed with its host math to one skeleton,
// run(): directly from the engines, which fuse SYRK and GEMM with the
// work around them, or through the four entry points below. The device
// computes on host-addressable buffers, so an offloaded call runs the
// same blas:: routine as the CPU path and then charges simulated device
// time. The charges happen at the call;
// the math is an action on the buffers it reads and writes
// (pgas::Rank::act, DESIGN.md §4n), so it may run later on an executor
// worker. A protocol-only run (numeric = false) builds no action and
// skips nothing else, so its clocks and counters cannot drift from the
// numeric run's.
#pragma once

#include <atomic>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "gpu/device.hpp"
#include "pgas/runtime.hpp"
#include "sparse/types.hpp"

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

  /// What one kernel call costs, independent of its data.
  struct Call {
    gpu::Op op;
    std::int64_t elems;         // the buffer size should_offload keys on
    double flops;
    std::size_t scratch_bytes;  // device scratch reserved when offloaded
    std::size_t staged[2];      // host -> device copies, in order (0 = none)
    std::size_t result_bytes;   // device -> host copy of the result

    // The calls the entry points below and the engines make.
    static Call potrf(int w);
    static Call trsm(int m, int w, bool diag_resident);
    static Call syrk(int n, int k, bool a_resident);
    static Call gemm(int m, int n, int k, bool a_resident, bool b_resident);
    static Call trsm_left(int n, int nrhs);
    static Call gemm_any(int m, int n, int k);
  };

  /// The one kernel skeleton: offload decision and scratch (with the
  /// §4.2 OOM fallback), staging, the CPU or device time charge,
  /// copy-back and the Fig. 6 counters, all at the call; and, when
  /// numeric, `math` as one action on `buffers`. `math` captures by
  /// value. The engines call it directly to fuse a kernel with the work
  /// around it (an update's scatter, a solve contribution's gather and
  /// apply), so the kernel's output can stay in the running thread's
  /// scratch.
  template <typename Math>
  void run(pgas::Rank& rank, const Call& call, Math&& math,
           std::initializer_list<pgas::Access> buffers) {
    const pgas::GlobalPtr scratch = reserve(rank, call);
    try {
      if (numeric_) {
        rank.act(std::forward<Math>(math), buffers,
                 static_cast<std::size_t>(call.flops));
      }
    } catch (...) {
      // Run inline, a failed pivot throws here: charge the call as when
      // it surfaces from a worker, and give the device scratch back.
      settle(rank, call, scratch);
      throw;
    }
    settle(rank, call, scratch);
  }

  // Kernel entry points. `*_resident` flags mark operands already in
  // device memory (skipping their staging charge). Each call runs the
  // real math when `numeric` and always charges simulated time on the
  // CPU or GPU path.
  /// Factor the w-by-w block `a`; a failed pivot throws
  /// NotPositiveDefiniteError naming column `first_column + info - 1`
  /// (from the action, so it surfaces at the executor's join when the
  /// math runs on a worker).
  void run_potrf(pgas::Rank& rank, int w, double* a, int lda,
                 sparse::idx_t first_column);
  void run_trsm(pgas::Rank& rank, int m, int w, const double* diag, int ldd,
                double* b, int ldb, bool diag_resident);
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
  /// run()'s charges before the math: the offload decision, the device
  /// scratch (null on the CPU path) and the staging copies.
  pgas::GlobalPtr reserve(pgas::Rank& rank, const Call& call);
  /// run()'s charges after the math: the kernel time, the copy-back, the
  /// scratch's release and the counters.
  void settle(pgas::Rank& rank, const Call& call, pgas::GlobalPtr scratch);
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
