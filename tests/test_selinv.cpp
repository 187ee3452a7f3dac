// Tests for selected inversion, iterative refinement, the critical-path
// policy, and the tracer — the extension features layered on the solver.
#include <gtest/gtest.h>

#include <cmath>

#include "core/selinv.hpp"
#include "core/solver.hpp"
#include "core/trace.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "support/random.hpp"

namespace sympack::core {
namespace {

using sparse::CscMatrix;
using sparse::idx_t;

pgas::Runtime::Config cluster(int nranks, int per_node = 4) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = per_node;
  cfg.gpus_per_node = 4;
  return cfg;
}

// Dense inverse via Cholesky on the full matrix (reference).
std::vector<double> dense_inverse(const CscMatrix& a) {
  const int n = static_cast<int>(a.n());
  auto m = a.to_dense();
  EXPECT_EQ(blas::potrf(blas::UpLo::kLower, n, m.data(), n), 0);
  // Columns of the inverse: solve L L^T x = e_i.
  std::vector<double> inv(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) inv[i + static_cast<std::size_t>(i) * n] = 1.0;
  blas::trsm(blas::Side::kLeft, blas::UpLo::kLower, blas::Trans::kNo,
             blas::Diag::kNonUnit, n, n, 1.0, m.data(), n, inv.data(), n);
  blas::trsm(blas::Side::kLeft, blas::UpLo::kLower, blas::Trans::kYes,
             blas::Diag::kNonUnit, n, n, 1.0, m.data(), n, inv.data(), n);
  return inv;
}

SelectedInverse run_selinv(pgas::Runtime& rt, const CscMatrix& a,
                           SolverOptions opts = {}) {
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  return selected_inversion(solver);
}

TEST(SelInv, DiagonalMatchesDenseInverse) {
  for (const auto& a :
       {sparse::grid2d_laplacian(7, 6), sparse::random_spd(50, 4.0, 3),
        sparse::tridiagonal(20), sparse::arrow(15)}) {
    pgas::Runtime rt(cluster(4));
    const auto inv = run_selinv(rt, a);
    const auto ref = dense_inverse(a);
    const auto d = inv.diagonal();
    for (idx_t i = 0; i < a.n(); ++i) {
      EXPECT_NEAR(d[i], ref[i + static_cast<std::size_t>(i) * a.n()],
                  1e-9 * std::fabs(ref[i + static_cast<std::size_t>(i) * a.n()]))
          << "i=" << i;
    }
  }
}

TEST(SelInv, OnPatternEntriesMatchDenseInverse) {
  const auto a = sparse::thermal_irregular(6, 6, 0.4, 9);
  pgas::Runtime rt(cluster(4));
  const auto inv = run_selinv(rt, a);
  const auto ref = dense_inverse(a);
  const idx_t n = a.n();
  int checked = 0;
  for (idx_t i = 0; i < n; ++i) {
    for (idx_t j = 0; j <= i; ++j) {
      bool on = false;
      const double v = inv.entry(i, j, &on);
      if (on) {
        EXPECT_NEAR(v, ref[i + static_cast<std::size_t>(j) * n], 1e-8);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, n);  // more than just the diagonal
}

TEST(SelInv, EntryIsSymmetric) {
  const auto a = sparse::grid2d_laplacian(6, 6);
  pgas::Runtime rt(cluster(2));
  const auto inv = run_selinv(rt, a);
  for (idx_t i = 0; i < a.n(); i += 5) {
    for (idx_t j = 0; j < a.n(); j += 3) {
      EXPECT_DOUBLE_EQ(inv.entry(i, j), inv.entry(j, i));
    }
  }
}

TEST(SelInv, MatrixEntriesAllOnPattern) {
  // Every structural nonzero of A lies on the factor pattern, so its
  // inverse entry is available — the Takahashi-equation use case.
  const auto a = sparse::random_spd(60, 3.0, 17);
  pgas::Runtime rt(cluster(4));
  const auto inv = run_selinv(rt, a);
  for (idx_t j = 0; j < a.n(); ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      bool on = false;
      (void)inv.entry(a.rowind()[p], j, &on);
      EXPECT_TRUE(on);
    }
  }
}

TEST(SelInv, SpdInverseDiagonalPositive) {
  const auto a = sparse::elasticity3d(3, 2, 2);
  pgas::Runtime rt(cluster(4));
  const auto inv = run_selinv(rt, a);
  for (double v : inv.diagonal()) EXPECT_GT(v, 0.0);
}

TEST(SelInv, RequiresNumericModeAndFactorization) {
  const auto a = sparse::tridiagonal(10);
  pgas::Runtime rt(cluster(2));
  {
    SymPackSolver solver(rt, SolverOptions{});
    solver.symbolic_factorize(a);
    EXPECT_THROW((void)selected_inversion(solver), std::logic_error);
  }
  {
    SolverOptions opts;
    opts.numeric = false;
    SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    EXPECT_THROW((void)selected_inversion(solver), std::logic_error);
  }
}

TEST(SelInv, OutOfRangeThrows) {
  const auto a = sparse::tridiagonal(8);
  pgas::Runtime rt(cluster(2));
  const auto inv = run_selinv(rt, a);
  EXPECT_THROW((void)inv.entry(-1, 0), std::out_of_range);
  EXPECT_THROW((void)inv.entry(0, 8), std::out_of_range);
}

TEST(Refinement, ReducesOrMaintainsResidual) {
  const auto a = sparse::random_spd(120, 5.0, 7);
  pgas::Runtime rt(cluster(4));
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto plain = solver.solve(b);
  const double before = sparse::relative_residual(a, plain, b);
  const auto refined = solver.solve_refined(b);
  const double after = sparse::relative_residual(a, refined.x, b);
  EXPECT_LE(after, before * 1.01);
  EXPECT_LE(refined.residual, 1e-12);
  EXPECT_GE(refined.iterations, 0);
  EXPECT_LE(refined.iterations, 3);
}

TEST(Refinement, MultipleRhs) {
  const auto a = sparse::grid2d_laplacian(8, 8);
  pgas::Runtime rt(cluster(4));
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const idx_t n = a.n();
  const int nrhs = 2;
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs, 1.0);
  const auto refined = solver.solve_refined(b, nrhs);
  EXPECT_LT(refined.residual, 1e-12);
  EXPECT_EQ(refined.x.size(), b.size());
}

TEST(CriticalPathPolicy, CorrectAndParses) {
  EXPECT_EQ(parse_policy("critical-path"), Policy::kCriticalPath);
  EXPECT_EQ(policy_name(Policy::kCriticalPath), "critical-path");
  const auto a = sparse::grid2d_laplacian(11, 11);
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.policy = Policy::kCriticalPath;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

TEST(Trace, RecordsEveryTask) {
  const auto a = sparse::grid2d_laplacian(8, 8);
  pgas::Runtime rt(cluster(4));
  SymPackSolver solver(rt, SolverOptions{});
  Tracer tracer;
  solver.set_tracer(&tracer);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto& sym = solver.symbolic();
  idx_t expected = 0;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const idx_t nb = static_cast<idx_t>(sym.snode(k).blocks.size());
    expected += 1 + nb + nb * (nb + 1) / 2;  // D + F + U tasks
  }
  EXPECT_EQ(tracer.size(), static_cast<std::size_t>(expected));
  for (const auto& e : tracer.events()) {
    EXPECT_GE(e.end_s, e.begin_s);
    EXPECT_GE(e.rank, 0);
    EXPECT_LT(e.rank, 4);
    EXPECT_NE(e.kind, TaskTag::kCounter);
  }
}

TEST(Trace, SelectedInversionEmitsPanelSpans) {
  const auto a = sparse::grid2d_laplacian(8, 8);
  pgas::Runtime rt(cluster(4));
  SymPackSolver solver(rt, SolverOptions{});
  Tracer tracer;
  solver.set_tracer(&tracer);
  solver.symbolic_factorize(a);
  solver.factorize();
  const std::size_t factor_events = tracer.size();
  const auto inv = selected_inversion(solver);
  ASSERT_FALSE(inv.diagonal().empty());

  // One "S k" span per supernode, appended after the factorization's
  // D/F/U spans, so the whole pipeline lands in one Chrome trace.
  std::size_t selinv_events = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == TaskTag::kSelinv) {
      ++selinv_events;
      EXPECT_EQ(e.rank, 0);
      EXPECT_GE(e.end_s, e.begin_s);
    }
  }
  EXPECT_EQ(selinv_events,
            static_cast<std::size_t>(solver.symbolic().num_snodes()));
  EXPECT_EQ(tracer.size(), factor_events + selinv_events);
}

TEST(Trace, ChromeJsonWellFormed) {
  Tracer tracer;
  tracer.record({.rank = 0, .kind = TaskTag::kDiag, .snode = 1, .a = 0,
                 .b = 0, .begin_s = 0.0, .end_s = 1e-6});
  tracer.record({.rank = 1, .kind = TaskTag::kUpdate, .snode = 2, .a = 1,
                 .b = 1, .begin_s = 2e-6, .end_s = 5e-6});
  const auto json = tracer.to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("D 1"), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

}  // namespace
}  // namespace sympack::core
