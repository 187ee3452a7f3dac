// Tests for the fan-in factorization variant (Ashcraft taxonomy,
// paper §2.3): numerics must match fan-out to rounding; the
// communication pattern differs (aggregate vectors fan in to target
// owners, factor blocks travel only down their panel columns).
#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"

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

double fanin_residual(pgas::Runtime& rt, const CscMatrix& a,
                      SolverOptions opts = {}) {
  opts.variant = Variant::kFanIn;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  return sparse::relative_residual(a, x, b);
}

TEST(FanIn, ParseAndName) {
  EXPECT_EQ(parse_variant("fan-in"), Variant::kFanIn);
  EXPECT_EQ(parse_variant("fanout"), Variant::kFanOut);
  EXPECT_EQ(variant_name(Variant::kFanIn), "fan-in");
  EXPECT_THROW(parse_variant("fan-both"), std::invalid_argument);
}

struct FanInCase {
  const char* name;
  int nranks;
  CscMatrix (*make)();
};

class FanInSweep : public ::testing::TestWithParam<FanInCase> {};

TEST_P(FanInSweep, ResidualTiny) {
  const auto& p = GetParam();
  pgas::Runtime rt(cluster(p.nranks));
  EXPECT_LT(fanin_residual(rt, p.make()), 1e-11) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    MatricesAndRanks, FanInSweep,
    ::testing::Values(
        FanInCase{"grid2d_r1", 1, [] { return sparse::grid2d_laplacian(12, 12); }},
        FanInCase{"grid2d_r4", 4, [] { return sparse::grid2d_laplacian(12, 12); }},
        FanInCase{"grid2d_r9", 9, [] { return sparse::grid2d_laplacian(12, 12); }},
        FanInCase{"grid3d_r4", 4, [] { return sparse::grid3d_laplacian(5, 4, 5); }},
        FanInCase{"thermal_r6", 6, [] { return sparse::thermal_irregular(11, 11, 0.4, 5); }},
        FanInCase{"elastic_r4", 4, [] { return sparse::elasticity3d(3, 3, 2); }},
        FanInCase{"dense_r3", 3, [] { return sparse::dense_spd(28, 9); }},
        FanInCase{"arrow_r4", 4, [] { return sparse::arrow(30); }}),
    [](const auto& info) { return info.param.name; });

/// Fan-in under `policy` against fan-out (fifo): same ordering, factor
/// entries equal to rounding.
void expect_fanin_factor_matches_fanout(Policy policy) {
  const auto a = sparse::thermal_irregular(8, 9, 0.5, 21);
  pgas::Runtime rt(cluster(4));

  SolverOptions out_opts;
  out_opts.variant = Variant::kFanOut;
  SymPackSolver fan_out(rt, out_opts);
  fan_out.symbolic_factorize(a);
  fan_out.factorize();

  SolverOptions in_opts;
  in_opts.variant = Variant::kFanIn;
  in_opts.policy = policy;
  SymPackSolver fan_in(rt, in_opts);
  fan_in.symbolic_factorize(a);
  fan_in.factorize();

  ASSERT_EQ(fan_out.permutation(), fan_in.permutation());
  const auto lo = fan_out.dense_factor();
  const auto li = fan_in.dense_factor();
  ASSERT_EQ(lo.size(), li.size());
  for (std::size_t i = 0; i < lo.size(); ++i) {
    EXPECT_NEAR(lo[i], li[i], 1e-10);
  }
}

TEST(FanIn, FactorMatchesFanOutEntrywise) {
  expect_fanin_factor_matches_fanout(Policy::kFifo);
}

// The scheduling policy reorders fan-in's tasks, and with them the order
// updates fold into each aggregate; the factor must still match.
class FanInPolicy : public ::testing::TestWithParam<Policy> {};

TEST_P(FanInPolicy, FactorMatchesFanOutEntrywise) {
  expect_fanin_factor_matches_fanout(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FanInPolicy,
    ::testing::Values(Policy::kLifo, Policy::kPriority, Policy::kCriticalPath),
    [](const ::testing::TestParamInfo<Policy>& info) {
      std::string n = policy_name(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(FanIn, WorksWithGpuOffload) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.gpu.potrf_threshold = 16;
  opts.gpu.trsm_threshold = 16;
  opts.gpu.syrk_threshold = 16;
  opts.gpu.gemm_threshold = 16;
  EXPECT_LT(fanin_residual(rt, sparse::grid3d_laplacian(4, 4, 4), opts),
            1e-11);
}

TEST(FanIn, ThreadedRuntime) {
  auto cfg = cluster(4);
  cfg.threaded = true;
  pgas::Runtime rt(cfg);
  EXPECT_LT(fanin_residual(rt, sparse::grid2d_laplacian(10, 10)), 1e-11);
}

TEST(FanIn, ProtocolOnlyModeRuns) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.variant = Variant::kFanIn;
  opts.numeric = false;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(sparse::grid2d_laplacian(12, 12));
  solver.factorize();
  EXPECT_GT(solver.report().factor_sim_s, 0.0);
}

TEST(FanIn, FewerMessagesThanFanOutOnManyRanks) {
  // The fan-in selling point (paper §2.3): aggregate vectors coalesce
  // updates, so fewer (but larger) messages than broadcasting factors.
  const auto a = sparse::grid3d_laplacian(5, 5, 5);
  auto run = [&](Variant v) {
    pgas::Runtime rt(cluster(8, 4));
    SolverOptions opts;
    opts.variant = v;
    opts.numeric = false;
    SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    return solver.report().comm;
  };
  const auto fan_out = run(Variant::kFanOut);
  const auto fan_in = run(Variant::kFanIn);
  EXPECT_GT(fan_out.rpcs_sent, 0u);
  EXPECT_GT(fan_in.rpcs_sent, 0u);
  // Not asserting which wins globally (matrix-dependent); both patterns
  // must at least run distinct protocols.
  EXPECT_NE(fan_out.rpcs_sent, fan_in.rpcs_sent);
}

TEST(FanIn, IndefiniteThrows) {
  pgas::Runtime rt(cluster(2));
  auto a = sparse::grid2d_laplacian(6, 6);
  a.shift_diagonal(-10.0);
  SolverOptions opts;
  opts.variant = Variant::kFanIn;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  EXPECT_THROW(solver.factorize(), std::runtime_error);
}

}  // namespace
}  // namespace sympack::core
