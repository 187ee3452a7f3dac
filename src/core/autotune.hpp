// Schedule autotuner: resolves Policy::kAuto (DESIGN.md §4g).
//
// autotune_schedule() runs cheap protocol-only pilot factorizations of
// the caller's matrix through a greedy sequence of search stages on
// fresh simulated runtimes with the same cluster shape: (1) every fixed
// scheduling policy at the configured split width, (2) split widths
// around the configured one under the winning policy, (3) the
// block-to-process mapping grids (2D block-cyclic / row-cyclic /
// col-cyclic), and (4) GPU offload thresholds from analytic_gpu_options
// at scales {0.5, 1, 2}. A protocol-only run is the numeric run with the
// bytes left out (numeric=false: null buffers, no kernel math), so each
// pilot's makespan is the one the real factorization would have.
//
// A stage's pilots are independent, so they run side by side on up to
// std::thread::hardware_concurrency() threads (the calling thread runs
// one of them). Each pilot owns its pgas::Runtime and SymPackSolver and
// writes only its own result slot. Once every thread has joined, the
// stage's results are adopted in candidate order: a candidate replaces
// the incumbent only when its pilot is *strictly* faster. The choice is
// therefore bitwise the one a serial search makes, whatever the thread
// timing, and never slower (in simulated time) than the best fixed
// policy at the configured width.
//
// Pilots are isolated from the caller's run. They always step ranks
// sequentially (threaded = false), which makes makespans deterministic,
// and never inject faults: the SYMPACK_FAULT_* environment overlay is not
// applied to their runtimes. They run untraced; to see why a schedule
// won, trace the real factorization and analyze it (core/critpath.hpp,
// sympack-critpath).
#pragma once

#include <vector>

#include "core/options.hpp"
#include "pgas/runtime.hpp"
#include "sparse/csc.hpp"
#include "sparse/types.hpp"

namespace sympack::core {

/// One pilot configuration and its measured simulated makespan.
struct AutoTuneCandidate {
  Policy policy = Policy::kFifo;
  sparse::idx_t max_width = 0;
  symbolic::Mapping::Kind mapping = symbolic::Mapping::Kind::k2dBlockCyclic;
  /// GPU offload-threshold candidate: 0 = the configured GpuOptions
  /// thresholds, otherwise analytic_gpu_options(.., scale) at this factor
  /// (< 1 offloads more aggressively, > 1 more selectively).
  double offload_scale = 0.0;
  double sim_s = 0.0;
  double host_s = 0.0;  // the pilot's host wall seconds
};

/// What Policy::kAuto resolved to (SymPackSolver::autotune_choice()).
struct AutoTuneChoice {
  Policy policy = Policy::kFifo;
  sparse::idx_t max_width = 0;   // adopted SymbolicOptions::max_width
  /// Adopted block-to-process mapping (stage 3 of the pilot search; the
  /// configured mapping unless a cyclic grid measured strictly faster).
  symbolic::Mapping::Kind mapping = symbolic::Mapping::Kind::k2dBlockCyclic;
  /// Adopted GPU options: the configured thresholds, or the analytic
  /// model thresholds scaled by `offload_scale` when a pilot at that
  /// scale measured strictly faster (offload_scale stays 0 otherwise).
  GpuOptions gpu{};
  double offload_scale = 0.0;
  double pilot_sim_s = 0.0;      // winner's pilot makespan
  double default_sim_s = 0.0;    // FIFO at the configured width
  std::vector<AutoTuneCandidate> candidates;  // every pilot, in stage order
  double wall_s = 0.0;  // the tuner's host wall seconds, all stages
  /// Host wall seconds of each stage that ran, in stage order: at least
  /// its slowest pilot's host_s, and together at most wall_s.
  std::vector<double> stage_wall_s;
  int workers = 0;      // most pilots any stage ran at once
};

/// Resolve the schedule for `a_perm` (already permuted; the pilots run
/// with ordering=kNatural) on a cluster shaped like `cluster`, which is
/// taken as resolved (e.g. the caller's Runtime::config()): the pilots
/// build their runtimes from it with faults off, threaded off, and no
/// environment overlay. `base` supplies every other solver option.
/// Pilots are protocol-only regardless of base.numeric. A pilot's
/// exception is rethrown, with its type, after every pilot of its stage
/// has finished; the first failing candidate's wins.
AutoTuneChoice autotune_schedule(pgas::Runtime::Config cluster,
                                 const sparse::CscMatrix& a_perm,
                                 const SolverOptions& base);

}  // namespace sympack::core
