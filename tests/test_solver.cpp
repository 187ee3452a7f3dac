// End-to-end correctness tests for the symPACK solver: the distributed
// fan-out factorization must reproduce the reference Cholesky factor, and
// factorize+solve must give tiny residuals — across matrices, rank
// counts, orderings, scheduling policies, GPU on/off, and the threaded
// runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "core/solver.hpp"
#include "core/taskrt/executor.hpp"
#include "sparse/coo.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/random.hpp"

namespace sympack::core {

/// Pins the solver's executor: its worker count and an action hook.
struct SolverTestPeer {
  static void set_executor(SymPackSolver& solver, int workers,
                           taskrt::Executor::BeforeAction before) {
    solver.exec_ = std::make_unique<taskrt::Executor>(
        workers, taskrt::Executor::kCapacity, std::move(before));
  }
};

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

double solve_residual(pgas::Runtime& rt, const CscMatrix& a,
                      SolverOptions opts = {}) {
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  return sparse::relative_residual(a, x, b);
}

// Reference: dense Cholesky of the permuted matrix, compared entry-wise
// against the solver's assembled factor.
void expect_factor_matches_dense(pgas::Runtime& rt, const CscMatrix& a,
                                 SolverOptions opts = {}) {
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto ap = sparse::permute_symmetric(a, solver.permutation());
  auto dense = ap.to_dense();
  const auto n = static_cast<int>(a.n());
  ASSERT_EQ(blas::potrf(blas::UpLo::kLower, n, dense.data(), n), 0);
  const auto l = solver.dense_factor();
  double max_err = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      max_err = std::max(max_err, std::fabs(l[i + static_cast<std::size_t>(j) * n] -
                                            dense[i + static_cast<std::size_t>(j) * n]));
    }
  }
  EXPECT_LT(max_err, 1e-8) << "factor mismatch vs dense reference";
}

TEST(Solver, FactorMatchesDenseReferenceSingleRank) {
  pgas::Runtime rt(cluster(1));
  expect_factor_matches_dense(rt, sparse::grid2d_laplacian(8, 8));
}

TEST(Solver, FactorMatchesDenseReferenceFourRanks) {
  pgas::Runtime rt(cluster(4));
  expect_factor_matches_dense(rt, sparse::grid2d_laplacian(9, 7));
}

TEST(Solver, FactorMatchesDenseIrregularSixRanks) {
  pgas::Runtime rt(cluster(6, 2));
  expect_factor_matches_dense(rt, sparse::thermal_irregular(7, 8, 0.5, 5));
}

TEST(Solver, TinyMatrices) {
  pgas::Runtime rt(cluster(2));
  for (idx_t n : {1, 2, 3}) {
    const auto a = sparse::tridiagonal(n);
    EXPECT_LT(solve_residual(rt, a), 1e-12) << "n=" << n;
  }
}

TEST(Solver, DenseBlockMatrix) {
  pgas::Runtime rt(cluster(3, 3));
  EXPECT_LT(solve_residual(rt, sparse::dense_spd(30, 7)), 1e-12);
}

struct SolverCase {
  const char* name;
  int nranks;
  CscMatrix (*make)();
};

class SolverSweep : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverSweep, ResidualTiny) {
  const auto& p = GetParam();
  pgas::Runtime rt(cluster(p.nranks));
  EXPECT_LT(solve_residual(rt, p.make()), 1e-11) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    MatricesAndRanks, SolverSweep,
    ::testing::Values(
        SolverCase{"grid2d_r1", 1, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r2", 2, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r4", 4, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r8", 8, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r13", 13, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid3d_r4", 4, [] { return sparse::grid3d_laplacian(5, 5, 5); }},
        SolverCase{"grid3d27_r6", 6,
                   [] {
                     return sparse::grid3d_laplacian(
                         4, 4, 4, sparse::Stencil3D::kTwentySevenPoint);
                   }},
        SolverCase{"thermal_r4", 4, [] { return sparse::thermal_irregular(12, 12, 0.4, 11); }},
        SolverCase{"elastic_r4", 4, [] { return sparse::elasticity3d(3, 3, 3); }},
        SolverCase{"random_r5", 5, [] { return sparse::random_spd(150, 5.0, 13); }},
        SolverCase{"arrow_r3", 3, [] { return sparse::arrow(40); }},
        SolverCase{"tridiag_r4", 4, [] { return sparse::tridiagonal(100); }}),
    [](const auto& info) { return info.param.name; });

class OrderingSweep2
    : public ::testing::TestWithParam<ordering::Method> {};

TEST_P(OrderingSweep2, AllOrderingsGiveCorrectSolve) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.ordering = GetParam();
  EXPECT_LT(solve_residual(rt, sparse::grid2d_laplacian(10, 11), opts), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Orderings, OrderingSweep2,
                         ::testing::Values(ordering::Method::kNatural,
                                           ordering::Method::kRcm,
                                           ordering::Method::kAmd,
                                           ordering::Method::kNestedDissection),
                         [](const auto& info) {
                           return ordering::method_name(info.param);
                         });

class PolicySweep : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicySweep, AllPoliciesGiveCorrectSolve) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.policy = GetParam();
  EXPECT_LT(solve_residual(rt, sparse::thermal_irregular(10, 10, 0.4, 3), opts),
            1e-11);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep,
                         ::testing::Values(Policy::kFifo, Policy::kLifo,
                                           Policy::kPriority),
                         [](const auto& info) {
                           return policy_name(info.param);
                         });

class MappingSweep
    : public ::testing::TestWithParam<symbolic::Mapping::Kind> {};

TEST_P(MappingSweep, AllMappingsGiveCorrectSolve) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.mapping = GetParam();
  EXPECT_LT(solve_residual(rt, sparse::grid2d_laplacian(11, 9), opts), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, MappingSweep,
    ::testing::Values(symbolic::Mapping::Kind::k2dBlockCyclic,
                      symbolic::Mapping::Kind::kRowCyclic,
                      symbolic::Mapping::Kind::kColCyclic));

TEST(Solver, GpuOffAndOnAgree) {
  const auto a = sparse::grid3d_laplacian(4, 4, 4);
  pgas::Runtime rt(cluster(4));
  SolverOptions cpu_opts;
  cpu_opts.gpu.enabled = false;
  SolverOptions gpu_opts;
  gpu_opts.gpu.enabled = true;
  // Force plenty of offload with tiny thresholds.
  gpu_opts.gpu.potrf_threshold = 4;
  gpu_opts.gpu.trsm_threshold = 4;
  gpu_opts.gpu.syrk_threshold = 4;
  gpu_opts.gpu.gemm_threshold = 4;
  gpu_opts.gpu.device_resident_threshold = 64;
  EXPECT_LT(solve_residual(rt, a, cpu_opts), 1e-11);
  EXPECT_LT(solve_residual(rt, a, gpu_opts), 1e-11);
}

TEST(Solver, GpuOffloadActuallyHappens) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.gpu.potrf_threshold = 16;
  opts.gpu.trsm_threshold = 16;
  opts.gpu.syrk_threshold = 16;
  opts.gpu.gemm_threshold = 16;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid3d_laplacian(5, 5, 5);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto& ops = solver.report().total_ops;
  std::uint64_t gpu_total = 0, cpu_total = 0;
  for (int i = 0; i < 4; ++i) {
    gpu_total += ops.gpu[i];
    cpu_total += ops.cpu[i];
  }
  EXPECT_GT(gpu_total, 0u);
  EXPECT_GT(cpu_total, 0u);  // small blocks stay on the CPU (hybrid!)
}

TEST(Solver, DefaultThresholdsKeepMajorityOnCpu) {
  // Fig. 6's qualitative shape: with realistic thresholds, most calls
  // run on the CPU, the few large ones on the GPU.
  pgas::Runtime rt(cluster(4));
  SymPackSolver solver(rt, SolverOptions{});
  const auto a = sparse::grid3d_laplacian(6, 6, 6);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto& ops = solver.report().total_ops;
  std::uint64_t gpu_total = 0, cpu_total = 0;
  for (int i = 0; i < 4; ++i) {
    gpu_total += ops.gpu[i];
    cpu_total += ops.cpu[i];
  }
  EXPECT_GT(cpu_total, gpu_total);
}

TEST(Solver, DeviceOomFallsBackToCpu) {
  pgas::Runtime::Config cfg = cluster(2);
  cfg.device_memory_bytes = 256;  // nothing but the tiniest scratch fits
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.gpu.potrf_threshold = 4;
  opts.gpu.trsm_threshold = 4;
  opts.gpu.syrk_threshold = 4;
  opts.gpu.gemm_threshold = 4;
  opts.gpu.fallback = GpuFallback::kCpu;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(10, 10);
  solver.symbolic_factorize(a);
  solver.factorize();
  EXPECT_GT(solver.report().gpu_fallbacks, 0u);
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

TEST(Solver, DeviceOomThrowOptionThrows) {
  pgas::Runtime::Config cfg = cluster(2);
  cfg.device_memory_bytes = 256;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.gpu.potrf_threshold = 4;
  opts.gpu.trsm_threshold = 4;
  opts.gpu.syrk_threshold = 4;
  opts.gpu.gemm_threshold = 4;
  opts.gpu.fallback = GpuFallback::kThrow;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(sparse::grid2d_laplacian(10, 10));
  EXPECT_THROW(solver.factorize(), pgas::DeviceOom);
}

TEST(Solver, IndefiniteMatrixThrows) {
  pgas::Runtime rt(cluster(2));
  auto a = sparse::grid2d_laplacian(6, 6);
  a.shift_diagonal(-10.0);  // make it indefinite
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  EXPECT_THROW(solver.factorize(), std::runtime_error);
}

// The grid Laplacian with column `bad`'s diagonal made negative. Every
// principal submatrix without `bad` stays positive definite, so in any
// elimination order the first pivot to fail is bad's own.
CscMatrix indefinite_at(idx_t bad) {
  auto a = sparse::grid2d_laplacian(8, 8);
  for (idx_t p = a.colptr()[bad]; p < a.colptr()[bad + 1]; ++p) {
    if (a.rowind()[p] == bad) a.values()[p] = -1.0;
  }
  return a;
}

struct NotPdCase {
  const char* name;
  Variant variant;
  bool threaded;
  int buddy_replicas;
};

class NotPositiveDefinite : public ::testing::TestWithParam<NotPdCase> {};

// A failed pivot surfaces once per factorize() as NotPositiveDefiniteError
// naming the column in A's own ordering, from either engine and either
// drive mode; with buddy checkpointing on it is not mistaken for a rank death
// (no recovery runs), and the solver stays usable afterwards.
TEST_P(NotPositiveDefinite, SurfacesOnceWithOriginalColumn) {
  const NotPdCase& c = GetParam();
  const idx_t bad = 37;
  const auto a = indefinite_at(bad);
  pgas::Runtime::Config cfg = cluster(4);
  cfg.threaded = c.threaded;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.variant = c.variant;
  opts.resilience.buddy_replicas = c.buddy_replicas;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  const auto& perm = solver.permutation();
  ASSERT_NE(perm[bad], bad) << "ordering must move the column, or the "
                               "test cannot tell the two orderings apart";

  int caught = 0;
  idx_t column = -1;
  try {
    solver.factorize();
  } catch (const NotPositiveDefiniteError& e) {
    ++caught;
    column = e.column();
  }
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(column, bad);
  const pgas::CommStats stats = rt.total_stats();
  EXPECT_EQ(stats.peer_deaths_detected, 0u);
  EXPECT_EQ(stats.ckpt_restores, 0u);
  EXPECT_EQ(stats.blocks_reassembled, 0u);
  for (int r = 0; r < rt.nranks(); ++r) EXPECT_TRUE(rt.rank(r).alive());

  // Same pattern, positive definite values: the unwound attempt left
  // nothing behind.
  const auto spd = sparse::grid2d_laplacian(8, 8);
  solver.refactorize(spd);
  const auto b = sparse::rhs_for_ones(spd);
  EXPECT_LT(sparse::relative_residual(spd, solver.solve(b), b), 1e-12);
  for (int d = 0; d < rt.num_devices(); ++d) {
    EXPECT_EQ(rt.device_bytes_in_use(d), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DriveModes, NotPositiveDefinite,
    ::testing::Values(
        NotPdCase{"FanOutSequential", Variant::kFanOut, false, 0},
        NotPdCase{"FanOutThreaded", Variant::kFanOut, true, 0},
        NotPdCase{"FanOutBuddy", Variant::kFanOut, false, 1},
        NotPdCase{"FanInSequential", Variant::kFanIn, false, 0},
        NotPdCase{"FanInThreaded", Variant::kFanIn, true, 0},
        NotPdCase{"FanInBuddy", Variant::kFanIn, false, 1}),
    [](const ::testing::TestParamInfo<NotPdCase>& info) {
      return std::string(info.param.name);
    });

// Two failing pivots in different subtrees: four independent dense
// blocks, the second and third with one negative diagonal entry. A
// zero-worker run stops at the failing POTRF submitted first. Four
// workers run the four POTRFs side by side, and a hook delays each of the
// first actions less the later it was submitted, so the later failure
// completes first; the executor must still name the earlier one.
TEST(NotPositiveDefiniteSubtrees, ExecutorNamesTheZeroWorkerColumn) {
  constexpr idx_t kBlocks = 4;
  constexpr idx_t kSize = 48;  // a POTRF big enough to leave the caller
  const idx_t bad[2] = {1 * kSize + 17, 2 * kSize + 30};
  sparse::CooBuilder coo(kBlocks * kSize);
  for (idx_t blk = 0; blk < kBlocks; ++blk) {
    for (idx_t j = 0; j < kSize; ++j) {
      for (idx_t i = j; i < kSize; ++i) {
        coo.add(blk * kSize + i, blk * kSize + j,
                i == j ? 2.0 * kSize : 1.0);
      }
    }
  }
  for (const idx_t c : bad) coo.add(c, c, -2.0 * kSize - 1.0);
  const CscMatrix a = coo.build();

  const auto failing_column = [&](int workers,
                                  taskrt::Executor::BeforeAction before) {
    pgas::Runtime rt(cluster(4));
    SymPackSolver solver(rt, SolverOptions{});
    SolverTestPeer::set_executor(solver, workers, std::move(before));
    solver.symbolic_factorize(a);
    try {
      solver.factorize();
    } catch (const NotPositiveDefiniteError& e) {
      return e.column();
    }
    return idx_t{-1};
  };
  const idx_t first = failing_column(0, {});
  ASSERT_TRUE(first == bad[0] || first == bad[1]) << first;
  const idx_t stf = failing_column(4, [](std::uint64_t seq) {
    if (seq < 16) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * (16 - seq)));
    }
  });
  EXPECT_EQ(stf, first);
}

// ------------------------------------------------------------------
// Option ranges: a numeric SolverOptions field out of range makes the
// constructor throw std::invalid_argument naming the field and its value.

struct BadOption {
  const char* name;
  const char* expect;  // "field = value" as the message must show it
  void (*set)(SolverOptions&);
};

class InvalidOption : public ::testing::TestWithParam<BadOption> {};

TEST_P(InvalidOption, ConstructorThrowsNamingField) {
  const BadOption& c = GetParam();
  SolverOptions opts;
  c.set(opts);
  pgas::Runtime rt(cluster(2));
  std::string message;
  try {
    SymPackSolver solver(rt, opts);
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  EXPECT_NE(message.find(c.expect), std::string::npos)
      << "message: \"" << message << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    OptionRanges, InvalidOption,
    ::testing::Values(
        BadOption{"RelaxRatio", "symbolic.relax_ratio = 1.5",
                  [](SolverOptions& o) { o.symbolic.relax_ratio = 1.5; }},
        BadOption{"RelaxSmall", "symbolic.relax_small = -1",
                  [](SolverOptions& o) { o.symbolic.relax_small = -1; }},
        BadOption{"MaxWidth", "symbolic.max_width = -1",
                  [](SolverOptions& o) { o.symbolic.max_width = -1; }},
        BadOption{"PotrfThreshold", "gpu.potrf_threshold = -1",
                  [](SolverOptions& o) { o.gpu.potrf_threshold = -1; }},
        BadOption{"TrsmThreshold", "gpu.trsm_threshold = -1",
                  [](SolverOptions& o) { o.gpu.trsm_threshold = -1; }},
        BadOption{"SyrkThreshold", "gpu.syrk_threshold = -1",
                  [](SolverOptions& o) { o.gpu.syrk_threshold = -1; }},
        BadOption{"GemmThreshold", "gpu.gemm_threshold = -1",
                  [](SolverOptions& o) { o.gpu.gemm_threshold = -1; }},
        BadOption{"DeviceResidentThreshold",
                  "gpu.device_resident_threshold = -1",
                  [](SolverOptions& o) {
                    o.gpu.device_resident_threshold = -1;
                  }},
        BadOption{"RerequestIdleLimit", "fault.rerequest_idle_limit = 0",
                  [](SolverOptions& o) { o.fault.rerequest_idle_limit = 0; }},
        BadOption{"MaxRerequestRounds", "fault.max_rerequest_rounds = -1",
                  [](SolverOptions& o) { o.fault.max_rerequest_rounds = -1; }},
        BadOption{"BackoffBase", "fault.rma_backoff.base_s = -1",
                  [](SolverOptions& o) { o.fault.rma_backoff.base_s = -1.0; }},
        BadOption{"BackoffMultiplier", "fault.rma_backoff.multiplier = 0.5",
                  [](SolverOptions& o) {
                    o.fault.rma_backoff.multiplier = 0.5;
                  }},
        BadOption{"BackoffCap", "fault.rma_backoff.cap_s = -1",
                  [](SolverOptions& o) { o.fault.rma_backoff.cap_s = -1.0; }},
        BadOption{"BackoffJitter", "fault.rma_backoff.jitter = 1.5",
                  [](SolverOptions& o) { o.fault.rma_backoff.jitter = 1.5; }},
        BadOption{"BackoffMaxRetries", "fault.rma_backoff.max_retries = -1",
                  [](SolverOptions& o) {
                    o.fault.rma_backoff.max_retries = -1;
                  }},
        BadOption{"BuddyReplicas", "resilience.buddy_replicas = 2",
                  [](SolverOptions& o) { o.resilience.buddy_replicas = 2; }},
        BadOption{"DetectIdle", "resilience.detect_idle = 0",
                  [](SolverOptions& o) { o.resilience.detect_idle = 0; }},
        BadOption{"RestartDelay", "resilience.restart_delay_s = -1",
                  [](SolverOptions& o) {
                    o.resilience.restart_delay_s = -1.0;
                  }},
        BadOption{"MaxRecoveries", "resilience.max_recoveries = -1",
                  [](SolverOptions& o) { o.resilience.max_recoveries = -1; }},
        BadOption{"EagerBytes", "comm.eager_bytes = -1",
                  [](SolverOptions& o) { o.comm.eager_bytes = -1; }},
        BadOption{"RhsPanel", "solve.rhs_panel = -1",
                  [](SolverOptions& o) { o.solve.rhs_panel = -1; }},
        BadOption{"ServerMaxQueue", "solve.server_max_queue = -1",
                  [](SolverOptions& o) { o.solve.server_max_queue = -1; }}),
    [](const ::testing::TestParamInfo<BadOption>& info) {
      return std::string(info.param.name);
    });

TEST(OptionRanges, DefaultsAndDocumentedEdgesAreAccepted) {
  EXPECT_NO_THROW(validate_options(SolverOptions{}));
  SolverOptions edges;
  edges.symbolic.max_width = 0;      // unlimited
  edges.comm.eager_bytes = 0;        // eager off
  edges.solve.rhs_panel = 0;         // one fused sweep
  edges.solve.server_max_queue = 0;  // unlimited
  edges.resilience.buddy_replicas = 1;
  edges.fault.rma_backoff.jitter = 0.0;
  EXPECT_NO_THROW(validate_options(edges));
}

// ------------------------------------------------------------------
// A solver is its SolverOptions. The variables below once overlaid ten
// of its fields in the constructor; set, malformed or not, they must
// reach neither the options nor the run.

/// Sets every variable for its lifetime, to a malformed or non-default
/// value.
class RetiredSolverEnv {
 public:
  RetiredSolverEnv() {
    for (const auto& v : kVars) ::setenv(v.first, v.second, 1);
  }
  ~RetiredSolverEnv() {
    for (const auto& v : kVars) ::unsetenv(v.first);
  }
  RetiredSolverEnv(const RetiredSolverEnv&) = delete;
  RetiredSolverEnv& operator=(const RetiredSolverEnv&) = delete;

 private:
  static constexpr std::pair<const char*, const char*> kVars[] = {
      {"SYMPACK_EAGER_BYTES", "4k"},     {"SYMPACK_COALESCE", "fasle"},
      {"SYMPACK_BUDDY_REPLICAS", "1"},   {"SYMPACK_DETECT_IDLE", "-1"},
      {"SYMPACK_RESTART_DELAY_S", "-1"}, {"SYMPACK_MAX_RECOVERIES", "-1"},
      {"SYMPACK_RHS_PANEL", "-1"},       {"SYMPACK_SOLVE_MAX_QUEUE", "-1"},
      {"SYMPACK_TRACE_META", "1"},       {"SYMPACK_SYMBOLIC_SHARD", "1"},
  };
};

TEST(SolverEnv, RetiredVariablesReachNeitherOptionsNorRun) {
  SolverOptions opts;
  opts.numeric = false;
  opts.comm.eager_bytes = 4096;
  opts.comm.coalesce = true;
  opts.resilience.detect_idle = 32;
  opts.resilience.restart_delay_s = 2e-4;
  opts.resilience.max_recoveries = 2;
  opts.solve.rhs_panel = 2;
  opts.solve.server_max_queue = 16;
  const CscMatrix a = sparse::flan_proxy(0.02);
  const auto factorize = [&] {
    pgas::Runtime rt(cluster(8));
    SymPackSolver solver(rt, opts);
    const SolverOptions& got = solver.options();
    EXPECT_EQ(got.comm.eager_bytes, opts.comm.eager_bytes);
    EXPECT_EQ(got.comm.coalesce, opts.comm.coalesce);
    EXPECT_EQ(got.resilience.buddy_replicas, opts.resilience.buddy_replicas);
    EXPECT_EQ(got.resilience.detect_idle, opts.resilience.detect_idle);
    EXPECT_EQ(got.resilience.restart_delay_s,
              opts.resilience.restart_delay_s);
    EXPECT_EQ(got.resilience.max_recoveries, opts.resilience.max_recoveries);
    EXPECT_EQ(got.solve.rhs_panel, opts.solve.rhs_panel);
    EXPECT_EQ(got.solve.server_max_queue, opts.solve.server_max_queue);
    EXPECT_EQ(got.trace.metadata, opts.trace.metadata);
    EXPECT_EQ(got.symbolic.shard, opts.symbolic.shard);
    solver.symbolic_factorize(a);
    solver.factorize();
    return solver.report();
  };
  Report clean = factorize();
  Report stray;
  {
    const RetiredSolverEnv env;
    ASSERT_NO_THROW(stray = factorize());
  }
  EXPECT_EQ(stray.factor_sim_s, clean.factor_sim_s);
  // CommStats is nothing but uint64_t counters, so memcmp compares them
  // all; symbolic_build_us is host wall time, which varies run to run.
  static_assert(
      std::has_unique_object_representations_v<pgas::CommStats>);
  clean.comm.symbolic_build_us = stray.comm.symbolic_build_us = 0;
  EXPECT_EQ(std::memcmp(&stray.comm, &clean.comm, sizeof clean.comm), 0);
  EXPECT_GT(clean.comm.eager_sends, 0u);
  EXPECT_GT(clean.comm.coalesced_signals, 0u);
}

TEST(Solver, MultipleRhs) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(9, 9);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const idx_t n = a.n();
  const int nrhs = 3;
  support::Xoshiro256 rng(21);
  std::vector<double> xs(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : xs) v = rng.next_in(-1, 1);
  std::vector<double> b(xs.size());
  for (int c = 0; c < nrhs; ++c) {
    a.symv(xs.data() + static_cast<std::size_t>(c) * n,
           b.data() + static_cast<std::size_t>(c) * n);
  }
  const auto x = solver.solve(b, nrhs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(x[i], xs[i], 1e-8);
  }
}

TEST(Solver, RepeatedFactorizationsReuseSymbolic) {
  // The PEXSI-style use case the paper motivates: many factorizations of
  // matrices with identical structure.
  pgas::Runtime rt(cluster(4));
  auto a = sparse::grid2d_laplacian(10, 10);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  for (int rep = 0; rep < 3; ++rep) {
    solver.factorize();
    const auto b = sparse::rhs_for_ones(a);
    const auto x = solver.solve(b);
    EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
  }
}

TEST(Solver, ThreadedRuntimeProducesCorrectResults) {
  pgas::Runtime::Config cfg = cluster(4);
  cfg.threaded = true;
  pgas::Runtime rt(cfg);
  EXPECT_LT(solve_residual(rt, sparse::grid2d_laplacian(12, 12)), 1e-11);
}

TEST(Solver, ThreadedIrregularStress) {
  pgas::Runtime::Config cfg = cluster(8, 4);
  cfg.threaded = true;
  pgas::Runtime rt(cfg);
  EXPECT_LT(solve_residual(rt, sparse::thermal_irregular(14, 14, 0.5, 9)),
            1e-11);
}

TEST(Solver, ReportPopulated) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(12, 12);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  (void)solver.solve(b);
  const Report& r = solver.report();
  EXPECT_EQ(r.n, a.n());
  EXPECT_GE(r.factor_nnz, a.nnz_stored());
  EXPECT_GT(r.num_supernodes, 0);
  EXPECT_GT(r.factor_sim_s, 0.0);
  EXPECT_GT(r.solve_sim_s, 0.0);
  EXPECT_GT(r.factor_flops, 0.0);
  // 4 ranks on one node exchange messages.
  EXPECT_GT(r.comm.rpcs_sent, 0u);
  EXPECT_GT(r.comm.gets, 0u);
}

TEST(Solver, SimulatedTimeDecreasesWithMoreNodes) {
  // The essence of Figures 7-12: strong scaling in simulated time. Uses
  // a compute-heavy 27-point 3D problem (protocol-only) so the problem
  // is large enough to scale, like the paper's matrices.
  const auto a = sparse::grid3d_laplacian(
      10, 10, 10, sparse::Stencil3D::kTwentySevenPoint);
  auto run = [&](int nranks, int per_node) {
    pgas::Runtime rt(cluster(nranks, per_node));
    SolverOptions opts;
    opts.numeric = false;
    SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    return solver.report().factor_sim_s;
  };
  const double t1 = run(4, 4);    // 1 node
  const double t16 = run(64, 4);  // 16 nodes
  EXPECT_LT(t16, t1);
}

TEST(Solver, ProtocolOnlySolveRuns) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.numeric = false;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(10, 10);
  solver.symbolic_factorize(a);
  solver.factorize();
  std::vector<double> b(a.n(), 1.0);
  (void)solver.solve(b);
  EXPECT_GT(solver.report().solve_sim_s, 0.0);
}

TEST(Solver, ApiMisuseThrows) {
  pgas::Runtime rt(cluster(2));
  SymPackSolver solver(rt, SolverOptions{});
  EXPECT_THROW(solver.factorize(), std::logic_error);
  solver.symbolic_factorize(sparse::tridiagonal(5));
  EXPECT_THROW(solver.solve({1, 2, 3, 4, 5}), std::logic_error);
  solver.factorize();
  EXPECT_THROW(solver.solve({1, 2, 3}), std::invalid_argument);  // wrong size
}

TEST(Solver, PolicyParseRoundTrip) {
  EXPECT_EQ(parse_policy("fifo"), Policy::kFifo);
  EXPECT_EQ(parse_policy("lifo"), Policy::kLifo);
  EXPECT_EQ(parse_policy("priority"), Policy::kPriority);
  EXPECT_THROW(parse_policy("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace sympack::core

namespace sympack::core {
namespace {

// ------------------------------------------------------------------
// Blocked multi-RHS solve: a panel sweep (rhs_panel = w) must reproduce
// w independent per-vector sweeps — the columns are mathematically
// independent, so the only differences are kernel-dispatch crossovers
// (panel GEMMs may take the tiled path where single columns don't),
// which perturb at rounding level only.

const char* kParityProxies[] = {"flan", "bones", "thermal"};

CscMatrix parity_proxy(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

struct ParityCase {
  const char* proxy;
  Policy policy;
};

class MultiRhsParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(MultiRhsParity, BlockedSolveMatchesPerVectorSweeps) {
  const ParityCase& p = GetParam();
  pgas::Runtime rt(cluster(8));
  SolverOptions opts;
  opts.policy = p.policy;
  constexpr int kPanel = 4;  // w
  opts.solve.rhs_panel = kPanel;
  SymPackSolver solver(rt, opts);
  const CscMatrix a = parity_proxy(p.proxy);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto n = static_cast<std::size_t>(a.n());
  support::Xoshiro256 rng(7);
  for (const int nrhs : {1, 3, kPanel, kPanel + 1}) {
    std::vector<double> b(n * static_cast<std::size_t>(nrhs));
    for (auto& v : b) v = rng.next_in(-1, 1);
    const auto blocked = solver.solve(b, nrhs);
    for (int c = 0; c < nrhs; ++c) {
      // Baseline: one independent single-RHS sweep per column (nrhs=1
      // always runs the historical per-vector path).
      const std::vector<double> bc(b.begin() + c * n,
                                   b.begin() + (c + 1) * n);
      const auto xc = solver.solve(bc, 1);
      double scale = 1.0;
      for (const double v : xc) scale = std::max(scale, std::fabs(v));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(blocked[i + c * n], xc[i], 1e-9 * scale)
            << p.proxy << " nrhs=" << nrhs << " col=" << c << " row=" << i;
      }
      EXPECT_LT(sparse::relative_residual(a, xc, bc), 1e-10);
      const std::vector<double> xb(blocked.begin() + c * n,
                                   blocked.begin() + (c + 1) * n);
      EXPECT_LT(sparse::relative_residual(a, xb, bc), 1e-10);
    }
  }
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const char* proxy : kParityProxies) {
    for (Policy policy : {Policy::kFifo, Policy::kLifo, Policy::kPriority,
                          Policy::kCriticalPath}) {
      cases.push_back({proxy, policy});
    }
  }
  return cases;
}

std::string parity_name(const ::testing::TestParamInfo<ParityCase>& info) {
  std::string n = info.param.proxy;
  n += '_';
  n += policy_name(info.param.policy);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(Proxies, MultiRhsParity,
                         ::testing::ValuesIn(parity_cases()), parity_name);

// ------------------------------------------------------------------
// Protocol-only is the numeric run with the bytes left out (DESIGN.md
// §4m): over 3 proxies x both variants x rendezvous or eager+coalesce x
// nrhs {1, 8}, at 8 and 64 ranks, the two modes' factor and solve
// clocks, CommStats and per-op kernel call counts are bitwise equal. Of
// CommStats only the symbolic build time (host wall time) is left out.

struct ModeParityCase {
  const char* proxy;
  Variant variant;
  bool fast_comm;  // eager 4096 + coalescing instead of rendezvous
  int nrhs;
  int nranks;
};

Report run_mode(const ModeParityCase& c, bool numeric) {
  pgas::Runtime rt(cluster(c.nranks));
  SolverOptions opts;
  opts.variant = c.variant;
  opts.numeric = numeric;
  if (c.fast_comm) {
    opts.comm.eager_bytes = 4096;
    opts.comm.coalesce = true;
  }
  SymPackSolver solver(rt, opts);
  const CscMatrix a = parity_proxy(c.proxy);
  solver.symbolic_factorize(a);
  solver.factorize();
  const std::vector<double> b(static_cast<std::size_t>(a.n()) * c.nrhs, 1.0);
  (void)solver.solve(b, c.nrhs);
  return solver.report();
}

class ProtocolOnlyParity : public ::testing::TestWithParam<ModeParityCase> {};

TEST_P(ProtocolOnlyParity, BitwiseEqualToNumeric) {
  const Report num = run_mode(GetParam(), /*numeric=*/true);
  const Report dry = run_mode(GetParam(), /*numeric=*/false);
  EXPECT_GT(dry.factor_sim_s, 0.0);
  EXPECT_EQ(num.factor_sim_s, dry.factor_sim_s);
  EXPECT_EQ(num.solve_sim_s, dry.solve_sim_s);
  EXPECT_EQ(num.total_ops.cpu, dry.total_ops.cpu);
  EXPECT_EQ(num.total_ops.gpu, dry.total_ops.gpu);
  EXPECT_EQ(num.gpu_fallbacks, dry.gpu_fallbacks);
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
  EXPECT_EQ(n.pool_hits, d.pool_hits);
  EXPECT_EQ(n.pool_misses, d.pool_misses);
#define SYMPACK_PROTOCOL_COUNTER(field, label)                 \
  if (std::string_view(label) != "symbolic_build_us") {        \
    EXPECT_EQ(n.field, d.field) << label;                      \
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

std::vector<ModeParityCase> mode_parity_cases() {
  std::vector<ModeParityCase> cases;
  for (const char* proxy : kParityProxies) {
    for (const Variant v : {Variant::kFanOut, Variant::kFanIn}) {
      for (const bool fast : {false, true}) {
        for (const int nrhs : {1, 8}) {
          for (const int p : {8, 64}) {
            cases.push_back({proxy, v, fast, nrhs, p});
          }
        }
      }
    }
  }
  return cases;
}

std::string mode_parity_name(
    const ::testing::TestParamInfo<ModeParityCase>& info) {
  const ModeParityCase& c = info.param;
  return std::string(c.proxy) +
         (c.variant == Variant::kFanOut ? "_fanout" : "_fanin") +
         (c.fast_comm ? "_eager" : "_rdv") + "_nrhs" +
         std::to_string(c.nrhs) + "_p" + std::to_string(c.nranks);
}

INSTANTIATE_TEST_SUITE_P(ProxiesVariantsTransports, ProtocolOnlyParity,
                         ::testing::ValuesIn(mode_parity_cases()),
                         mode_parity_name);

TEST(Solver, RhsPanelUnboundedFusesAllColumns) {
  // rhs_panel = 0: one sweep carries every column; must still match the
  // per-vector result.
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(11, 10);
  SolverOptions fused;
  fused.solve.rhs_panel = 0;
  SymPackSolver solver(rt, fused);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto n = static_cast<std::size_t>(a.n());
  const int nrhs = 6;
  support::Xoshiro256 rng(3);
  std::vector<double> b(n * nrhs);
  for (auto& v : b) v = rng.next_in(-1, 1);
  const auto x = solver.solve(b, nrhs);
  for (int c = 0; c < nrhs; ++c) {
    const std::vector<double> bc(b.begin() + c * n, b.begin() + (c + 1) * n);
    const auto xc = solver.solve(bc, 1);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(x[i + c * n], xc[i], 1e-9) << "col=" << c;
    }
  }
}

TEST(Solver, RefactorizeReusesSymbolicWithNewValues) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(10, 10);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x1 = solver.solve(b);

  // Same pattern, scaled values: A2 = 2A, so x2 = x1 / 2.
  CscMatrix a2 = a;
  for (double& v : a2.values()) v *= 2.0;
  solver.refactorize(a2);
  const auto x2 = solver.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    ASSERT_NEAR(x2[i], 0.5 * x1[i], 1e-9);
  }

  // A different sparsity pattern must be rejected.
  EXPECT_THROW(solver.refactorize(sparse::grid2d_laplacian(10, 11)),
               std::invalid_argument);
  EXPECT_THROW(solver.refactorize(sparse::tridiagonal(100)),
               std::invalid_argument);
}

TEST(ProportionalMappingSolve, CorrectEndToEnd) {
  pgas::Runtime::Config cfg;
  cfg.nranks = 6;
  cfg.ranks_per_node = 3;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.mapping = symbolic::Mapping::Kind::kProportional;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(13, 12);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

TEST(ProportionalMappingSolve, FanInVariantToo) {
  pgas::Runtime::Config cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 4;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.mapping = symbolic::Mapping::Kind::kProportional;
  opts.variant = Variant::kFanIn;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::thermal_irregular(9, 9, 0.4, 3);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

}  // namespace
}  // namespace sympack::core

// ------------------------------------------------------------------
// SolveServer: request admission, drains as one solve() over the queued
// columns, and numeric refactorization on top of a cached factor.

#include "core/solve_server.hpp"

namespace sympack::core {
namespace {

using sparse::CscMatrix;

/// Submit 3 + 1 + 5 random columns, drain, and check every request
/// against its own solve() at 1e-9. `stats` receives the server's stats.
void drain_mixed_submits(SymPackSolver& solver, idx_t n_rows,
                         SolveServer::Stats& stats) {
  SolveServer server(solver);
  const auto n = static_cast<std::size_t>(n_rows);
  support::Xoshiro256 rng(11);
  std::vector<std::vector<double>> bs;
  for (const int nrhs : {3, 1, 5}) {
    std::vector<double> b(n * static_cast<std::size_t>(nrhs));
    for (auto& v : b) v = rng.next_in(-1, 1);
    EXPECT_TRUE(server.submit(b, nrhs));
    bs.push_back(std::move(b));
  }
  EXPECT_EQ(server.queued(), 9);
  const auto xs = server.drain();
  stats = server.stats();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(server.queued(), 0);

  for (std::size_t r = 0; r < bs.size(); ++r) {
    const int nrhs = static_cast<int>(bs[r].size() / n);
    const auto direct = solver.solve(bs[r], nrhs);
    ASSERT_EQ(xs[r].size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(xs[r][i], direct[i], 1e-9) << "req=" << r << " i=" << i;
    }
  }
}

TEST(SolveServer, DrainMatchesDirectSolves) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(12, 11);
  SolverOptions opts;
  opts.solve.rhs_panel = 4;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();

  // Mixed-size submissions; panels cut across request boundaries
  // (3 + 1 + 5 = 9 columns -> panels of 4, 4, 1).
  SolveServer::Stats st;
  drain_mixed_submits(solver, a.n(), st);
  EXPECT_EQ(st.requests, 3);
  EXPECT_EQ(st.columns, 9);
  EXPECT_EQ(st.panels, 3);          // ceil(9 / 4)
  EXPECT_GT(st.serve_sim_s, 0.0);
}

TEST(SolveServer, DefaultDrainIsOneFusedPanel) {
  // Default options: every queued column rides one sweep pair.
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(12, 11);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();

  SolveServer::Stats st;
  drain_mixed_submits(solver, a.n(), st);
  EXPECT_EQ(st.columns, 9);
  EXPECT_EQ(st.panels, 1);
  EXPECT_EQ(st.overlapped, 0);
}

// drain() is one solve() over the queued columns in submission order:
// bitwise-equal columns, equal simulated time and equal wire traffic
// against an identically built solver, at every panel width, numeric
// and protocol-only.
TEST(SolveServer, DrainIsOneSolve) {
  const auto a = sparse::flan_proxy(0.05);
  const auto n = static_cast<std::size_t>(a.n());
  support::Xoshiro256 rng(31);
  const int widths[] = {3, 1, 5};
  std::vector<std::vector<double>> bs;
  std::vector<double> all;  // the 9 columns in submission order
  for (const int nrhs : widths) {
    std::vector<double> b(n * static_cast<std::size_t>(nrhs));
    for (auto& v : b) v = rng.next_in(-1, 1);
    all.insert(all.end(), b.begin(), b.end());
    bs.push_back(std::move(b));
  }

  for (const int rhs_panel : {0, 1, 4}) {
    for (const bool numeric : {true, false}) {
      SCOPED_TRACE("rhs_panel=" + std::to_string(rhs_panel) +
                   (numeric ? " numeric" : " protocol-only"));
      SolverOptions opts;
      opts.numeric = numeric;
      opts.solve.rhs_panel = rhs_panel;
      pgas::Runtime rt_served(cluster(8));
      pgas::Runtime rt_direct(cluster(8));
      SymPackSolver served(rt_served, opts);
      SymPackSolver direct(rt_direct, opts);
      for (SymPackSolver* s : {&served, &direct}) {
        s->symbolic_factorize(a);
        s->factorize();
      }

      SolveServer server(served);
      for (std::size_t r = 0; r < bs.size(); ++r) {
        ASSERT_TRUE(server.submit(bs[r], widths[r]));
      }
      const pgas::CommStats served0 = rt_served.total_stats();
      const auto xs = server.drain();
      const pgas::CommStats served1 = rt_served.total_stats();
      const pgas::CommStats direct0 = rt_direct.total_stats();
      const auto x = direct.solve(all, 9);
      const pgas::CommStats direct1 = rt_direct.total_stats();

      ASSERT_EQ(xs.size(), bs.size());
      std::vector<double> drained;
      for (std::size_t r = 0; r < xs.size(); ++r) {
        ASSERT_EQ(xs[r].size(), bs[r].size());
        drained.insert(drained.end(), xs[r].begin(), xs[r].end());
      }
      ASSERT_EQ(drained.size(), x.size());
      EXPECT_EQ(std::memcmp(drained.data(), x.data(),
                            x.size() * sizeof(double)),
                0);
      EXPECT_EQ(server.stats().serve_sim_s, direct.report().solve_sim_s);
      EXPECT_EQ(served.report().solve_sim_s, direct.report().solve_sim_s);
      EXPECT_EQ(served1.rpcs_sent - served0.rpcs_sent,
                direct1.rpcs_sent - direct0.rpcs_sent);
      EXPECT_EQ(served1.gets - served0.gets, direct1.gets - direct0.gets);
      EXPECT_EQ(served1.bytes_from_host - served0.bytes_from_host,
                direct1.bytes_from_host - direct0.bytes_from_host);

      const int conf = served.options().solve.rhs_panel;
      const int w = conf == 0 ? 9 : std::min(conf, 9);
      EXPECT_EQ(server.stats().panels, (9 + w - 1) / w);
      EXPECT_EQ(server.stats().overlapped, 0);
    }
  }
}

// Columns queued before symbolic_factorize() re-analysed the solver to
// another dimension no longer fit it: drain() throws instead of reading
// past each request's buffer, and the queue survives to drain once the
// dimension matches again.
TEST(SolveServer, DrainAfterReanalysisToOtherSizeThrows) {
  pgas::Runtime rt(cluster(4));
  const auto small = sparse::grid2d_laplacian(6, 6);    // 36 rows
  const auto large = sparse::grid2d_laplacian(12, 12);  // 144 rows
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(small);
  solver.factorize();
  SolveServer server(solver);
  const auto b = sparse::rhs_for_ones(small);
  ASSERT_TRUE(server.submit(b));

  solver.symbolic_factorize(large);
  solver.factorize();
  EXPECT_THROW(server.drain(), std::invalid_argument);
  EXPECT_EQ(server.queued(), 1);

  solver.symbolic_factorize(small);
  solver.factorize();
  const auto xs = server.drain();
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_LT(sparse::relative_residual(small, xs[0], b), 1e-10);
  EXPECT_EQ(server.queued(), 0);
}

TEST(SolveServer, AdmissionCapRejects) {
  pgas::Runtime rt(cluster(2));
  const auto a = sparse::grid2d_laplacian(8, 8);
  SolverOptions opts;
  opts.solve.server_max_queue = 2;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);

  const std::vector<double> b(a.n(), 1.0);
  EXPECT_TRUE(server.submit(b));
  EXPECT_TRUE(server.submit(b));
  EXPECT_FALSE(server.submit(b));  // would exceed the cap
  EXPECT_EQ(server.queued(), 2);
  EXPECT_EQ(server.stats().rejected, 1);
  const auto xs = server.drain();
  EXPECT_EQ(xs.size(), 2u);
  // The queue drained; admission reopens.
  EXPECT_TRUE(server.submit(b));
}

TEST(SolveServer, RefactorizeServesNewValues) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(9, 9);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);

  const auto b = sparse::rhs_for_ones(a);
  EXPECT_TRUE(server.submit(b));
  const auto x1 = server.drain();
  ASSERT_EQ(x1.size(), 1u);

  CscMatrix a2 = a;
  for (double& v : a2.values()) v *= 4.0;
  server.refactorize(a2);
  EXPECT_EQ(server.stats().refactorizations, 1);
  EXPECT_TRUE(server.submit(b));
  const auto x2 = server.drain();
  ASSERT_EQ(x2.size(), 1u);
  for (std::size_t i = 0; i < x1[0].size(); ++i) {
    ASSERT_NEAR(x2[0][i], 0.25 * x1[0][i], 1e-9);
  }
}

TEST(SolveServer, EmptyDrainAndMisuse) {
  pgas::Runtime rt(cluster(2));
  const auto a = sparse::grid2d_laplacian(6, 6);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  SolveServer server(solver);
  EXPECT_TRUE(server.drain().empty());  // nothing queued: no-op
  EXPECT_THROW(server.submit(std::vector<double>(3), 1),
               std::invalid_argument);
  const std::vector<double> b(a.n(), 1.0);
  EXPECT_TRUE(server.submit(b));
  EXPECT_THROW(server.drain(), std::logic_error);  // not factorized
  solver.factorize();
  EXPECT_EQ(server.drain().size(), 1u);
}

TEST(SolveServer, ProtocolOnlyDrainRuns) {
  // numeric=false: the full batched solve protocol runs (panel-scaled
  // messages, one sweep pair per panel) without touching values.
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.numeric = false;
  opts.solve.rhs_panel = 2;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(10, 10);
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);
  const std::vector<double> b(a.n() * 4, 1.0);
  EXPECT_TRUE(server.submit(b, 4));
  const auto xs = server.drain();
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(server.stats().panels, 2);
  EXPECT_GT(server.stats().serve_sim_s, 0.0);
}

}  // namespace
}  // namespace sympack::core
