// Analytical offload-threshold tuning — the "hardware-agnostic analytical
// framework for determining the optimal GPU threshold sizes for each
// operation" the paper lists as future work (§6).
//
// For each operation we model the end-to-end device cost of a typical
// factorization-shaped call on a w x w buffer (kernel launch + PCIe
// staging of the non-resident operands + device flops) against the CPU
// cost, and pick the smallest buffer size where the device wins. Because
// everything derives from the MachineModel, retargeting to a different
// vendor preset (gpu/vendors.hpp) retunes the thresholds automatically.
#pragma once

#include <cstdint>
#include <vector>

#include "blas/kernels/tiling.hpp"
#include "pgas/machine_model.hpp"

namespace sympack::gpu {

struct Thresholds {
  std::int64_t potrf = 0;  // buffer elements, as in core::GpuOptions
  std::int64_t trsm = 0;
  std::int64_t syrk = 0;
  std::int64_t gemm = 0;
};

/// Compute per-operation crossover thresholds from the machine model.
Thresholds analytic_thresholds(const pgas::MachineModel& model);

// --- CPU kernel tile autotuning -----------------------------------------
// Unlike the offload thresholds above (derived from the machine model),
// the cache-block sizes of the tiled CPU engine (blas/kernels/) are tuned
// by measuring the real GEMM wall-clock on this host: cache topology is
// not part of the simulated model.

struct TileTiming {
  blas::kernels::TileConfig config;
  double gflops = 0.0;  // measured tiled-GEMM throughput
};

/// Time a candidate grid of MC/KC/NC cache-block configurations on a
/// `problem`-cubed double-precision GEMM; returns candidates sorted
/// best-first, the front one ready for kernels::set_config (the tile
/// configuration is process-wide). `reps` timed repetitions per
/// candidate.
std::vector<TileTiming> sweep_tile_configs(int problem = 384, int reps = 3);

}  // namespace sympack::gpu
