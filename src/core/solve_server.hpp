// Solve-serving layer: factorize once, serve a stream of solves.
//
// The production story for a direct solver is one expensive numeric
// factorization followed by a heavy stream of triangular solves (time
// stepping, optimization outer loops, shift-invert eigensolvers). The
// server sits on top of a factorized SymPackSolver and turns incoming
// right-hand sides into full RHS panels for the blocked SolveEngine:
//
//   * submit() queues columns (original ordering) without solving;
//     admission is bounded by SolverOptions::solve.server_max_queue.
//   * drain() packs everything queued into panels of up to rhs_panel
//     columns (by default one panel holding every queued column) and
//     runs the sweeps. With server_overlap (default on) the
//     backward sweep of batch i runs in the same Runtime::drive loop as
//     the forward sweep of batch i+1 — the two SolveEngine instances
//     interleave rank-by-rank on the simulated cluster, so the solve
//     pipeline never waits for a full round trip between batches.
//   * refactorize() refreshes the numeric factor for a matrix with the
//     same sparsity pattern (symbolic analysis, mapping, and block
//     allocation are reused; only assembly + numeric factorization run).
//     Queued requests drain against the new factor.
//
// Solutions come back in submission order, in the original ordering.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/solver.hpp"

namespace sympack::core {

class SolveEngine;

class SolveServer {
 public:
  /// The solver must be factorized before the first drain() and must
  /// outlive the server.
  explicit SolveServer(SymPackSolver& solver);
  ~SolveServer();
  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  struct Stats {
    std::int64_t requests = 0;        // submissions accepted
    std::int64_t columns = 0;         // RHS columns accepted
    std::int64_t panels = 0;          // panel sweeps dispatched
    std::int64_t overlapped = 0;      // panel pairs whose sweeps overlapped
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
  /// returns an empty vector.
  std::vector<std::vector<double>> drain();

  /// Numeric refactorization: same sparsity pattern, new values. Throws
  /// std::invalid_argument when the pattern differs from the analyzed
  /// matrix.
  void refactorize(const sparse::CscMatrix& a);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Request {
    std::vector<double> b;  // n x nrhs, original ordering
    int nrhs;
  };

  /// One full drain attempt: panel sweeps of the packed RHS block `bp`
  /// into `xp`. Factored out so a pgas::RankDeathError can unwind the
  /// whole attempt and drain()'s recovery loop can re-run it on fresh
  /// engines after the solver restores the victim's blocks.
  void run_sweeps(pgas::Runtime& rt, const std::vector<double>& bp,
                  std::vector<double>& xp, int total, int w, bool overlap,
                  int kStallLimit, std::uint64_t seed);

  SymPackSolver* solver_;
  std::vector<Request> queue_;
  int queued_columns_ = 0;
  // Two engines so consecutive batches can ping-pong: while one runs
  // its backward sweep the other runs the next batch's forward sweep.
  std::unique_ptr<SolveEngine> engines_[2];
  Stats stats_;
};

}  // namespace sympack::core
