// Public solver API.
//
// Usage:
//   pgas::Runtime rt(config);              // the "cluster"
//   core::SymPackSolver solver(rt, opts);
//   solver.symbolic_factorize(A);          // ordering + analysis + mapping
//   solver.factorize();                    // numeric Cholesky (fan-out)
//   auto x = solver.solve(b);              // triangular solves
//   solver.report();                       // timings, op counts, comm
//
// The matrix A is a symmetric positive definite CscMatrix (lower
// triangle). b and x are in the original (unpermuted) ordering; the
// fill-reducing permutation is applied internally.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/block_store.hpp"
#include "core/checkpoint.hpp"
#include "core/errors.hpp"
#include "core/offload.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "sparse/csc.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

struct AutoTuneChoice;  // core/critpath.hpp

class SymPackSolver {
 public:
  SymPackSolver(pgas::Runtime& rt, SolverOptions opts = {});
  ~SymPackSolver();
  SymPackSolver(const SymPackSolver&) = delete;
  SymPackSolver& operator=(const SymPackSolver&) = delete;

  /// Phase 1: fill-reducing ordering, elimination analysis, supernode and
  /// block partitioning, task-graph construction, block allocation.
  void symbolic_factorize(const sparse::CscMatrix& a);

  /// Phase 2: numeric factorization. May be called repeatedly (the panels
  /// are re-assembled from A each time); requires symbolic_factorize.
  /// Throws NotPositiveDefiniteError (core/errors.hpp) naming the failing
  /// column in A's ordering when a pivot fails; it is never retried as a
  /// rank death.
  void factorize();

  /// Numeric refactorization: adopt new values for a matrix with the
  /// SAME sparsity pattern as the analyzed one, then factorize. The
  /// symbolic phase (ordering, analysis, mapping, block allocation) is
  /// reused — this is the cheap path for time-stepping / parametric
  /// solves where only the coefficients change. Throws
  /// std::invalid_argument when the pattern differs.
  void refactorize(const sparse::CscMatrix& a);

  /// Phase 3: solve A x = b for nrhs right-hand sides (column-major in
  /// b). Requires factorize. b/x are in the original ordering.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b,
                                          int nrhs = 1);

  /// Result of solve_refined().
  struct RefinedSolve {
    std::vector<double> x;
    int iterations = 0;      // refinement steps actually taken
    double residual = 0.0;   // final ||b - A x||_2 / ||b||_2 (worst RHS)
  };

  /// solve() followed by iterative refinement: x += A^{-1}(b - A x) until
  /// the residual stops improving, `tolerance` is reached, or
  /// `max_iterations` steps were taken. (The paper's PaStiX baseline
  /// driver ships with refinement; symPACK gains it here as an option.)
  [[nodiscard]] RefinedSolve solve_refined(const std::vector<double>& b,
                                           int nrhs = 1,
                                           int max_iterations = 3,
                                           double tolerance = 1e-14);

  [[nodiscard]] const Report& report() const { return report_; }
  [[nodiscard]] const std::vector<sparse::idx_t>& permutation() const {
    return perm_;
  }
  [[nodiscard]] const symbolic::Symbolic& symbolic() const { return sym_; }
  /// The task graph the engines run (owners, recipients, update
  /// counts). Valid after symbolic_factorize().
  [[nodiscard]] const symbolic::TaskGraph& taskgraph() const { return *tg_; }
  /// Per-rank residency of the symbolic metadata: replicated by default,
  /// sharded with SolverOptions::symbolic.shard / SYMPACK_SYMBOLIC_SHARD.
  /// Valid after symbolic_factorize().
  [[nodiscard]] const symbolic::SymbolicView& symbolic_view() const {
    return *view_;
  }
  [[nodiscard]] const SolverOptions& options() const { return opts_; }

  /// Attach a tracer: subsequent factorize() calls record every task's
  /// simulated execution interval (core/trace.hpp). Pass nullptr to
  /// detach. The tracer must outlive the solver's factorize() calls.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// The factor L of P A P^T as a dense lower-triangular matrix
  /// (permuted ordering). Small problems / tests only.
  [[nodiscard]] std::vector<double> dense_factor() const;

  /// Access to the distributed factor blocks (advanced use: selected
  /// inversion, inspection). Requires factorize().
  [[nodiscard]] const BlockStore& block_store() const;

  /// When the solver was constructed with Policy::kAuto, the pilot-based
  /// choice symbolic_factorize() resolved to (policy, split width, pilot
  /// timings, critical-path report). Null otherwise.
  [[nodiscard]] const AutoTuneChoice* autotune_choice() const {
    return auto_choice_.get();
  }

 private:
  /// The recovery loop (DESIGN.md §4h) shared by factorize() and solve():
  /// run `phase` (which builds a fresh engine and drives it) and, while
  /// it unwinds with a pgas::RankDeathError, recover_from_death() and
  /// run it again. A death is rethrown when no buddy checkpoints are
  /// armed or after resilience.max_recoveries recoveries. Clocks and
  /// stats carry across attempts: recovery is part of the phase.
  void run_recoverable(const std::function<void()>& phase);

  /// Rank-death recovery (DESIGN.md §4h): purge stale inboxes, resurrect
  /// the victim at the survivors' clock frontier plus the restart
  /// penalty, pull its completed blocks back from the buddy replicas,
  /// and re-assemble every still-incomplete block from A. The caller
  /// then re-drives the phase with a fresh engine.
  void recover_from_death(const pgas::RankDeathError& e);

  pgas::Runtime* rt_;
  SolverOptions opts_;
  Report report_;

  /// Seed the per-rank symbolic counters (symbolic_build_us /
  /// symbolic_pull_rpcs / symbolic_bytes) from the view — called after
  /// every Runtime::reset_stats() so the watchdog dump and Report see
  /// the symbolic phase regardless of which phase reset the stats.
  void seed_symbolic_counters();

  sparse::CscMatrix a_perm_;  // permuted matrix kept for re-assembly
  std::vector<sparse::idx_t> perm_;
  symbolic::Symbolic sym_;
  symbolic::AnalyzeStats sym_stats_;
  std::unique_ptr<symbolic::TaskGraph> tg_;
  std::unique_ptr<symbolic::SymbolicView> view_;
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<Offload> offload_;
  /// Buddy checkpoint replicas + completed-block ledger; engaged only
  /// when resilience.buddy_replicas > 0 (null/empty otherwise).
  std::unique_ptr<CheckpointStore> ckpt_;
  RecoveryContext rec_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<AutoTuneChoice> auto_choice_;
  bool factorized_ = false;
};

}  // namespace sympack::core
