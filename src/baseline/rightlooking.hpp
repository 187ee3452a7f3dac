// A PaStiX-like right-looking supernodal solver (the comparison baseline
// of Figures 7-12).
//
// Algorithmic contrasts with the fan-out symPACK engine, mirroring how
// the paper characterizes PaStiX 6.2.2 + StarPU:
//   - 1D column-cyclic panel distribution: every block of supernode k
//     lives on rank k mod P (paper §3.3 notes 1D distributions create
//     serial bottlenecks).
//   - Right-looking with *eager full-panel broadcast*: when a panel is
//     factored its entire trapezoid is pushed to every rank owning a
//     target panel, whether or not that rank needs all of it.
//   - Two-sided message semantics: the receiver's CPU is charged for
//     draining every message into local buffers (no RDMA bypass).
//   - Runtime-system scheduling overhead charged per task (StarPU task
//     management).
//   - GPU offload restricted to large GEMM updates (PaStiX's StarPU GPU
//     kernels); POTRF/TRSM stay on the CPU, and transfers use the
//     host-staged path rather than GPUDirect memory kinds.
// The numerics are exact; the same residual tests pass for both solvers.
// Its ranks run the same task runtime as symPACK's engines (core/taskrt:
// the rank loop and message transport of Endpoint, ReadyQueue,
// DepTracker), so the two differ only in what is listed above.
#pragma once

#include <memory>
#include <vector>

#include "core/block_store.hpp"
#include "core/offload.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "pgas/runtime.hpp"
#include "sparse/csc.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::baseline {

using sparse::idx_t;

struct BaselineOptions {
  ordering::Method ordering = ordering::Method::kNestedDissection;
  symbolic::SymbolicOptions symbolic{};
  bool use_gpu = true;
  /// Offload threshold for update GEMMs (elements of the source panel).
  std::int64_t gemm_threshold = 96 * 96;
  /// StarPU-like per-task runtime overhead (seconds).
  double task_overhead_s = 8.0e-6;
  /// Per-message two-sided matching/receive overhead (seconds), charged
  /// on both ends in addition to the wire time.
  double message_overhead_s = 2.5e-6;
  bool numeric = true;
};

class RightLookingSolver {
 public:
  RightLookingSolver(pgas::Runtime& rt, BaselineOptions opts = {});
  ~RightLookingSolver();

  void symbolic_factorize(const sparse::CscMatrix& a);
  void factorize();
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b);

  [[nodiscard]] const core::Report& report() const { return report_; }
  [[nodiscard]] const std::vector<idx_t>& permutation() const { return perm_; }
  [[nodiscard]] std::vector<double> dense_factor() const;

 private:
  struct Engine;
  struct SolveState;

  pgas::Runtime* rt_;
  BaselineOptions opts_;
  core::Report report_;

  sparse::CscMatrix a_perm_;
  std::vector<idx_t> perm_;
  symbolic::Symbolic sym_;
  std::unique_ptr<symbolic::TaskGraph> tg_;
  std::unique_ptr<core::BlockStore> store_;
  std::unique_ptr<core::Offload> offload_;
  // Panels (supernodes) targeting each supernode, and the reverse count.
  std::vector<std::vector<idx_t>> sources_of_;
  bool factorized_ = false;
};

}  // namespace sympack::baseline
