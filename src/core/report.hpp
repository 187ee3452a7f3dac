// Execution report: what the benchmark harness prints and the paper's
// figures plot.
#pragma once

#include <array>
#include <cstdint>

#include "pgas/runtime.hpp"
#include "sparse/types.hpp"

namespace sympack::core {

/// CPU/GPU call counters per operation, indexed by gpu::Op (Fig. 6).
struct OpCounts {
  std::array<std::uint64_t, 4> cpu{};
  std::array<std::uint64_t, 4> gpu{};

  OpCounts& operator+=(const OpCounts& o) {
    for (std::size_t i = 0; i < 4; ++i) {
      cpu[i] += o.cpu[i];
      gpu[i] += o.gpu[i];
    }
    return *this;
  }
};

struct Report {
  // Problem shape.
  sparse::idx_t n = 0;
  sparse::idx_t matrix_nnz = 0;
  sparse::idx_t factor_nnz = 0;
  sparse::idx_t num_supernodes = 0;
  sparse::idx_t num_blocks = 0;
  double factor_flops = 0.0;

  // Phase timings. *_sim is the simulated parallel time (what Figures
  // 7-12 plot); *_wall is this process's real elapsed time.
  double ordering_wall_s = 0.0;
  double symbolic_wall_s = 0.0;
  double factor_sim_s = 0.0;
  double factor_wall_s = 0.0;
  double solve_sim_s = 0.0;
  double solve_wall_s = 0.0;

  // Which side bound a numeric phase (DESIGN.md §4n). executor_workers
  // is the worker count of the executor that ran the phase's kernels,
  // scatters and copies (0: protocol-only, or the threaded driver, where
  // every rank thread runs its own). *_join_wall_s is the host time from
  // the end of the phase's drive to its last action's completion: near 0
  // means the simulating thread was the bottleneck, a large share of
  // *_wall_s means the workers were.
  int executor_workers = 0;
  double factor_join_wall_s = 0.0;
  double solve_join_wall_s = 0.0;

  // Work distribution (Fig. 6): rank 0 and aggregate.
  OpCounts rank0_ops;
  OpCounts total_ops;

  // Communication (aggregated over ranks, factorization + solve). Also
  // carries the recovery counters (retries/retransmits/dropped_detected/
  // duplicates_dropped/out_of_order/rpcs_deferred/oom_fallbacks) — all
  // zero unless the run had fault injection enabled.
  pgas::CommStats comm;

  // GPU fallback events (device OOM handled by running on the CPU).
  std::uint64_t gpu_fallbacks = 0;

  // Memory high-water mark across the factorization (factor storage +
  // communication buffers + device scratch), in bytes.
  std::uint64_t peak_memory_bytes = 0;
};

}  // namespace sympack::core
