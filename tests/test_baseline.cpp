// Tests for the baseline solvers: the serial up-looking reference
// Cholesky and the PaStiX-like right-looking distributed solver —
// including the cross-check that all three solvers (serial, fan-out,
// right-looking) agree on the same problems.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

#include "baseline/rightlooking.hpp"
#include "baseline/simple_cholesky.hpp"
#include "blas/blas.hpp"
#include "core/solver.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"

namespace sympack::baseline {
namespace {

using sparse::CscMatrix;
using sparse::idx_t;

pgas::Runtime::Config cluster(int nranks, int per_node = 4) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = per_node;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  return cfg;
}

TEST(SimpleCholesky, MatchesDensePotrf) {
  const auto a = sparse::grid2d_laplacian(7, 7);
  const auto l = simple_cholesky(a);
  auto dense = a.to_dense();
  const int n = static_cast<int>(a.n());
  ASSERT_EQ(blas::potrf(blas::UpLo::kLower, n, dense.data(), n), 0);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t p = l.colptr[j]; p < l.colptr[j + 1]; ++p) {
      EXPECT_NEAR(l.values[p],
                  dense[l.rowind[p] + static_cast<std::size_t>(j) * n], 1e-10);
    }
  }
}

TEST(SimpleCholesky, FactorNnzMatchesColumnCounts) {
  const auto a = sparse::thermal_irregular(9, 9, 0.4, 5);
  const auto l = simple_cholesky(a);
  // Every stored entry must be a structural factor entry; count matches
  // the analytic prediction.
  EXPECT_EQ(l.colptr[a.n()], static_cast<idx_t>(l.values.size()));
}

TEST(SimpleCholesky, SolveResidualTiny) {
  for (const auto& a :
       {sparse::grid2d_laplacian(10, 10), sparse::random_spd(120, 4.0, 9),
        sparse::arrow(30), sparse::tridiagonal(50)}) {
    const auto b = sparse::rhs_for_ones(a);
    const auto x = simple_solve(a, b);
    EXPECT_LT(sparse::relative_residual(a, x, b), 1e-12);
  }
}

TEST(SimpleCholesky, ThrowsOnIndefinite) {
  auto a = sparse::grid2d_laplacian(5, 5);
  a.shift_diagonal(-8.0);
  EXPECT_THROW(simple_cholesky(a), std::runtime_error);
}

TEST(SimpleCholesky, ForwardBackwardAreExactTriangularSolves) {
  const auto a = sparse::grid2d_laplacian(6, 6);
  const auto l = simple_cholesky(a);
  std::vector<double> e(a.n(), 0.0);
  e[3] = 1.0;
  auto y = e;
  l.forward(y);
  // L y = e must hold.
  std::vector<double> check(a.n(), 0.0);
  for (idx_t j = 0; j < a.n(); ++j) {
    for (idx_t p = l.colptr[j]; p < l.colptr[j + 1]; ++p) {
      check[l.rowind[p]] += l.values[p] * y[j];
    }
  }
  for (idx_t i = 0; i < a.n(); ++i) EXPECT_NEAR(check[i], e[i], 1e-12);
}

double rl_residual(pgas::Runtime& rt, const CscMatrix& a,
                   BaselineOptions opts = {}) {
  RightLookingSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  return sparse::relative_residual(a, x, b);
}

TEST(RightLooking, FactorMatchesDenseReference) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(8, 9);
  RightLookingSolver solver(rt, BaselineOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto ap = sparse::permute_symmetric(a, solver.permutation());
  auto dense = ap.to_dense();
  const int n = static_cast<int>(a.n());
  ASSERT_EQ(blas::potrf(blas::UpLo::kLower, n, dense.data(), n), 0);
  const auto l = solver.dense_factor();
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      EXPECT_NEAR(l[i + static_cast<std::size_t>(j) * n],
                  dense[i + static_cast<std::size_t>(j) * n], 1e-9);
    }
  }
}

struct RlCase {
  const char* name;
  int nranks;
  CscMatrix (*make)();
};

class RightLookingSweep : public ::testing::TestWithParam<RlCase> {};

TEST_P(RightLookingSweep, ResidualTiny) {
  const auto& p = GetParam();
  pgas::Runtime rt(cluster(p.nranks));
  EXPECT_LT(rl_residual(rt, p.make()), 1e-11) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    MatricesAndRanks, RightLookingSweep,
    ::testing::Values(
        RlCase{"grid2d_r1", 1, [] { return sparse::grid2d_laplacian(11, 11); }},
        RlCase{"grid2d_r4", 4, [] { return sparse::grid2d_laplacian(11, 11); }},
        RlCase{"grid2d_r7", 7, [] { return sparse::grid2d_laplacian(11, 11); }},
        RlCase{"grid3d_r4", 4, [] { return sparse::grid3d_laplacian(4, 5, 4); }},
        RlCase{"thermal_r4", 4, [] { return sparse::thermal_irregular(10, 10, 0.5, 7); }},
        RlCase{"elastic_r3", 3, [] { return sparse::elasticity3d(3, 2, 3); }},
        RlCase{"dense_r2", 2, [] { return sparse::dense_spd(25, 3); }}),
    [](const auto& info) { return info.param.name; });

TEST(RightLooking, GpuOffloadRestrictedToGemm) {
  pgas::Runtime rt(cluster(4));
  BaselineOptions opts;
  opts.gemm_threshold = 8;  // offload nearly every update
  RightLookingSolver solver(rt, opts);
  const auto a = sparse::grid3d_laplacian(5, 5, 5);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto& ops = solver.report().total_ops;
  EXPECT_GT(ops.gpu[static_cast<int>(gpu::Op::kGemm)], 0u);
  EXPECT_EQ(ops.gpu[static_cast<int>(gpu::Op::kPotrf)], 0u);
  EXPECT_EQ(ops.gpu[static_cast<int>(gpu::Op::kTrsm)], 0u);
  EXPECT_EQ(ops.gpu[static_cast<int>(gpu::Op::kSyrk)], 0u);
}

TEST(RightLooking, AgreesWithFanOutSolver) {
  const auto a = sparse::thermal_irregular(9, 9, 0.4, 13);
  const auto b = sparse::rhs_for_ones(a);
  pgas::Runtime rt(cluster(4));

  core::SymPackSolver fan(rt, core::SolverOptions{});
  fan.symbolic_factorize(a);
  fan.factorize();
  const auto x_fan = fan.solve(b);

  RightLookingSolver rl(rt, BaselineOptions{});
  rl.symbolic_factorize(a);
  rl.factorize();
  const auto x_rl = rl.solve(b);

  const auto x_ref = simple_solve(a, b);
  for (idx_t i = 0; i < a.n(); ++i) {
    EXPECT_NEAR(x_fan[i], x_ref[i], 1e-8);
    EXPECT_NEAR(x_rl[i], x_ref[i], 1e-8);
  }
}

TEST(RightLooking, FanOutBeatsBaselineInSimulatedTime) {
  // The headline claim of Figures 7-12, in miniature: on a multi-node
  // run of a 3D problem, symPACK's simulated factorization time beats
  // the right-looking baseline's.
  const auto a = sparse::grid3d_laplacian(
      8, 8, 8, sparse::Stencil3D::kTwentySevenPoint);
  pgas::Runtime rt(cluster(16, 4));  // 4 nodes x 4 ranks

  core::SolverOptions fan_opts;
  fan_opts.numeric = false;
  core::SymPackSolver fan(rt, fan_opts);
  fan.symbolic_factorize(a);
  fan.factorize();
  const double t_fan = fan.report().factor_sim_s;

  BaselineOptions rl_opts;
  rl_opts.numeric = false;
  RightLookingSolver rl(rt, rl_opts);
  rl.symbolic_factorize(a);
  rl.factorize();
  const double t_rl = rl.report().factor_sim_s;

  EXPECT_LT(t_fan, t_rl);
}

TEST(RightLooking, ProtocolOnlyModeRuns) {
  pgas::Runtime rt(cluster(4));
  BaselineOptions opts;
  opts.numeric = false;
  RightLookingSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(12, 12);
  solver.symbolic_factorize(a);
  solver.factorize();
  EXPECT_GT(solver.report().factor_sim_s, 0.0);
  std::vector<double> b(a.n(), 1.0);
  (void)solver.solve(b);
  EXPECT_GT(solver.report().solve_sim_s, 0.0);
}

// A protocol-only run moves no bytes but charges exactly what a numeric
// run charges (DESIGN.md §4m), so the two agree bitwise: both phases'
// simulated times, the kernel counts and every counter of factor + solve.
struct ModeRun {
  core::Report report;
  pgas::CommStats comm;
};

ModeRun run_mode(const CscMatrix& a, bool numeric) {
  pgas::Runtime rt(cluster(8));
  BaselineOptions opts;
  opts.numeric = numeric;
  RightLookingSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  (void)solver.solve(std::vector<double>(static_cast<std::size_t>(a.n()), 1.0));
  return {solver.report(), rt.total_stats()};
}

class RightLookingModes : public ::testing::TestWithParam<std::string> {};

TEST_P(RightLookingModes, ProtocolOnlyBitwiseEqualToNumeric) {
  const std::string& proxy = GetParam();
  const CscMatrix a = proxy == "flan"    ? sparse::flan_proxy(0.05)
                      : proxy == "bones" ? sparse::bones_proxy(0.05)
                                         : sparse::thermal_proxy(0.02);
  const ModeRun num = run_mode(a, /*numeric=*/true);
  const ModeRun dry = run_mode(a, /*numeric=*/false);
  EXPECT_GT(dry.report.factor_sim_s, 0.0);
  EXPECT_EQ(num.report.factor_sim_s, dry.report.factor_sim_s);
  EXPECT_EQ(num.report.solve_sim_s, dry.report.solve_sim_s);
  EXPECT_EQ(num.report.total_ops.cpu, dry.report.total_ops.cpu);
  EXPECT_EQ(num.report.total_ops.gpu, dry.report.total_ops.gpu);
  const pgas::CommStats& n = num.comm;
  const pgas::CommStats& d = dry.comm;
  EXPECT_EQ(n.rpcs_sent, d.rpcs_sent);
  EXPECT_EQ(n.rpcs_executed, d.rpcs_executed);
  EXPECT_EQ(n.gets, d.gets);
  EXPECT_EQ(n.puts, d.puts);
  EXPECT_EQ(n.bytes_from_host, d.bytes_from_host);
  EXPECT_EQ(n.bytes_from_device, d.bytes_from_device);
  EXPECT_EQ(n.bytes_to_device, d.bytes_to_device);
  EXPECT_EQ(n.hd_copies, d.hd_copies);
#define SYMPACK_PROTOCOL_COUNTER(field, label)          \
  if (std::string_view(label) != "symbolic_build_us") { \
    EXPECT_EQ(n.field, d.field) << label;               \
  }
#define SYMPACK_RECOVERY_COUNTER(field, label, trace_name) \
  SYMPACK_PROTOCOL_COUNTER(field, label)
#define SYMPACK_COMM_COUNTER(field, label, trace_name) \
  SYMPACK_PROTOCOL_COUNTER(field, label)
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) \
  SYMPACK_PROTOCOL_COUNTER(field, label)
#include "core/taskrt/counters.def"
#undef SYMPACK_PROTOCOL_COUNTER
#undef SYMPACK_RECOVERY_COUNTER
#undef SYMPACK_COMM_COUNTER
#undef SYMPACK_SYMBOLIC_COUNTER
}

INSTANTIATE_TEST_SUITE_P(
    Proxies, RightLookingModes, ::testing::Values("flan", "bones", "thermal"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(RightLooking, ApiMisuseThrows) {
  pgas::Runtime rt(cluster(2));
  RightLookingSolver solver(rt, BaselineOptions{});
  EXPECT_THROW(solver.factorize(), std::logic_error);
}

}  // namespace
}  // namespace sympack::baseline
