// Solve-serving layer: factorize once, serve a stream of solves.
//
// The production story for a direct solver is one expensive numeric
// factorization followed by a heavy stream of triangular solves (time
// stepping, optimization outer loops, shift-invert eigensolvers). The
// server is a request queue on top of a factorized SymPackSolver:
//
//   * submit() queues columns (original ordering) without solving;
//     admission is bounded by SolverOptions::solve.server_max_queue.
//   * drain() concatenates everything queued, in submission order, into
//     one SymPackSolver::solve() call and splits the result per request.
//     The drain is therefore that solve() in every respect: its panels
//     (rhs_panel; by default one fused sweep pair carrying every queued
//     column), its recovery from rank deaths, and the solve_sim_s, ops
//     and CommStats it leaves in report().
//   * refactorize() refreshes the numeric factor for a matrix with the
//     same sparsity pattern (symbolic analysis, mapping, and block
//     allocation are reused; only assembly + numeric factorization run).
//     Queued requests drain against the new factor.
//
// Solutions come back in submission order, in the original ordering.
#pragma once

#include <cstdint>
#include <vector>

#include "core/solver.hpp"

namespace sympack::core {

class SolveServer {
 public:
  /// The solver must be factorized before the first drain() and must
  /// outlive the server.
  explicit SolveServer(SymPackSolver& solver);
  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  struct Stats {
    std::int64_t requests = 0;        // submissions accepted
    std::int64_t columns = 0;         // RHS columns accepted
    std::int64_t panels = 0;          // panel sweep pairs dispatched
    /// Always 0: a drain runs its panels one after another. Kept only
    /// because the end-to-end benchmark (bench/e2e) reports it.
    std::int64_t overlapped = 0;
    std::int64_t rejected = 0;        // submissions refused (queue full)
    std::int64_t refactorizations = 0;
    double serve_sim_s = 0.0;         // simulated seconds across drains
  };

  /// Queue `nrhs` right-hand sides (column-major in `b`, original
  /// ordering). Returns false — and queues nothing — when admitting the
  /// columns would exceed solve.server_max_queue (0 = unlimited).
  bool submit(std::vector<double> b, int nrhs = 1);

  /// Columns currently queued.
  [[nodiscard]] int queued() const { return queued_columns_; }

  /// Solve everything queued and return the solutions in submission
  /// order (one vector per submit(), original ordering). Empty queue
  /// returns an empty vector. Throws what solve() throws — e.g.
  /// std::logic_error before factorize(), and std::invalid_argument
  /// when symbolic_factorize() re-analysed the solver to a different
  /// dimension after the columns were queued — and then leaves the
  /// queue intact.
  std::vector<std::vector<double>> drain();

  /// Numeric refactorization: same sparsity pattern, new values. Throws
  /// std::invalid_argument when the pattern differs from the analyzed
  /// matrix.
  void refactorize(const sparse::CscMatrix& a);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  SymPackSolver* solver_;
  std::vector<std::vector<double>> queue_;  // one n x nrhs block per submit
  int queued_columns_ = 0;
  Stats stats_;
};

}  // namespace sympack::core
