// Tests for the §6 future-work extensions: device vendor presets
// (portability knob) and the analytical offload-threshold framework.
#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "gpu/autotune.hpp"
#include "gpu/device.hpp"
#include "gpu/vendors.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"

namespace sympack {
namespace {

TEST(Vendors, PresetsChangeGpuConstantsOnly) {
  pgas::MachineModel base;
  pgas::MachineModel amd = base;
  gpu::apply_device_vendor(amd, gpu::DeviceVendor::kAmdMi250x);
  EXPECT_NE(amd.gpu_gemm_Gflops, base.gpu_gemm_Gflops);
  EXPECT_NE(amd.gpu_launch_s, base.gpu_launch_s);
  // Communication-side constants (the memory-kinds machinery) untouched.
  EXPECT_DOUBLE_EQ(amd.net_latency_s, base.net_latency_s);
  EXPECT_DOUBLE_EQ(amd.net_bandwidth_Bps, base.net_bandwidth_Bps);
  EXPECT_DOUBLE_EQ(amd.cpu_gemm_Gflops, base.cpu_gemm_Gflops);
}

TEST(Vendors, NvidiaPresetMatchesDefaultModel) {
  pgas::MachineModel base;
  pgas::MachineModel nv = base;
  gpu::apply_device_vendor(nv, gpu::DeviceVendor::kNvidiaA100);
  EXPECT_DOUBLE_EQ(nv.gpu_gemm_Gflops, base.gpu_gemm_Gflops);
  EXPECT_DOUBLE_EQ(nv.gpu_launch_s, base.gpu_launch_s);
}

TEST(Vendors, ParseAndName) {
  EXPECT_EQ(gpu::parse_vendor("cuda"), gpu::DeviceVendor::kNvidiaA100);
  EXPECT_EQ(gpu::parse_vendor("hip"), gpu::DeviceVendor::kAmdMi250x);
  EXPECT_EQ(gpu::parse_vendor("oneapi"), gpu::DeviceVendor::kIntelPvc);
  EXPECT_STREQ(gpu::vendor_name(gpu::DeviceVendor::kAmdMi250x),
               "amd-mi250x");
  EXPECT_THROW(gpu::parse_vendor("tpu"), std::invalid_argument);
}

TEST(Vendors, SolverRunsCorrectlyOnEveryVendor) {
  const auto a = sparse::grid3d_laplacian(4, 4, 4);
  const auto b = sparse::rhs_for_ones(a);
  for (const auto vendor :
       {gpu::DeviceVendor::kNvidiaA100, gpu::DeviceVendor::kAmdMi250x,
        gpu::DeviceVendor::kIntelPvc}) {
    pgas::Runtime::Config cfg;
    cfg.nranks = 4;
    cfg.ranks_per_node = 4;
    gpu::apply_device_vendor(cfg.model, vendor);
    pgas::Runtime rt(cfg);
    core::SolverOptions opts;
    opts.gpu.potrf_threshold = 16;  // force offloads onto the new device
    opts.gpu.gemm_threshold = 16;
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    const auto x = solver.solve(b);
    EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11)
        << gpu::vendor_name(vendor);
  }
}

TEST(Autotune, ThresholdsArePositiveAndFinite) {
  pgas::MachineModel model;
  const auto t = gpu::analytic_thresholds(model);
  for (auto v : {t.potrf, t.trsm, t.syrk, t.gemm}) {
    EXPECT_GT(v, 0);
    EXPECT_LT(v, 1ll << 30);
  }
}

TEST(Autotune, ThresholdsNearHandTunedDefaults) {
  // The analytic crossovers should land in the same ballpark as the
  // brute-force-tuned defaults (within ~4x either way).
  pgas::MachineModel model;
  const auto t = gpu::analytic_thresholds(model);
  const core::GpuOptions defaults;
  auto close = [](std::int64_t a, std::int64_t b) {
    return a <= 4 * b && b <= 4 * a;
  };
  EXPECT_TRUE(close(t.potrf, defaults.potrf_threshold)) << t.potrf;
  EXPECT_TRUE(close(t.trsm, defaults.trsm_threshold)) << t.trsm;
  EXPECT_TRUE(close(t.syrk, defaults.syrk_threshold)) << t.syrk;
  EXPECT_TRUE(close(t.gemm, defaults.gemm_threshold)) << t.gemm;
}

TEST(Autotune, HigherLaunchOverheadRaisesThresholds) {
  pgas::MachineModel fast;
  pgas::MachineModel slow = fast;
  slow.gpu_launch_s *= 10.0;
  const auto tf = gpu::analytic_thresholds(fast);
  const auto ts = gpu::analytic_thresholds(slow);
  EXPECT_GT(ts.potrf, tf.potrf);
  EXPECT_GT(ts.gemm, tf.gemm);
}

TEST(Autotune, SlowerDeviceRaisesThresholds) {
  // A much slower device needs bigger blocks to win: with the GEMM rate
  // cut 200x (85 GF/s, a few times the CPU) the crossover moves well up.
  pgas::MachineModel fast;
  pgas::MachineModel slow = fast;
  slow.gpu_gemm_Gflops /= 200.0;
  EXPECT_GT(gpu::analytic_thresholds(slow).gemm,
            gpu::analytic_thresholds(fast).gemm);
}

TEST(Autotune, UselessDeviceDisablesOffload) {
  pgas::MachineModel model;
  model.gpu_gemm_Gflops = model.cpu_gemm_Gflops / 100.0;
  model.gpu_potrf_Gflops = model.cpu_potrf_Gflops / 100.0;
  model.gpu_trsm_Gflops = model.cpu_trsm_Gflops / 100.0;
  model.gpu_syrk_Gflops = model.cpu_syrk_Gflops / 100.0;
  const auto t = gpu::analytic_thresholds(model);
  EXPECT_GT(t.gemm, 1ll << 60);  // "never offload"
}

TEST(Autotune, AnalyticGpuOptionsScaleTheModelCrossovers) {
  // One function turns the model's crossovers into GpuOptions, for the
  // solver's callers and autotune's offload stage alike: the four
  // thresholds times the scale, the GPU-block threshold from TRSM, and
  // every other field from the base.
  pgas::MachineModel model;
  const auto t = gpu::analytic_thresholds(model);
  core::GpuOptions base;
  base.fallback = core::GpuFallback::kThrow;
  const auto g = core::analytic_gpu_options(base, model);
  EXPECT_EQ(g.potrf_threshold, t.potrf);
  EXPECT_EQ(g.trsm_threshold, t.trsm);
  EXPECT_EQ(g.syrk_threshold, t.syrk);
  EXPECT_EQ(g.gemm_threshold, t.gemm);
  EXPECT_EQ(g.device_resident_threshold, t.trsm);
  EXPECT_EQ(g.fallback, core::GpuFallback::kThrow);
  EXPECT_TRUE(g.enabled);
  const auto half = core::analytic_gpu_options(base, model, 0.5);
  EXPECT_EQ(half.gemm_threshold, t.gemm / 2);
  EXPECT_EQ(half.device_resident_threshold, t.trsm / 2);
}

TEST(Autotune, SolverUsesAutoThresholdsAndStaysCorrect) {
  const auto a = sparse::grid3d_laplacian(4, 5, 4);
  const auto b = sparse::rhs_for_ones(a);
  pgas::Runtime::Config cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 4;
  pgas::Runtime rt(cfg);
  core::SolverOptions opts;
  opts.gpu = core::analytic_gpu_options(opts.gpu, rt.model());
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

TEST(Autotune, AutoCompetitiveWithDefaultsOnProxyWorkload) {
  const auto a = sparse::grid3d_laplacian(
      8, 8, 8, sparse::Stencil3D::kTwentySevenPoint);
  auto run = [&](bool analytic) {
    pgas::Runtime::Config cfg;
    cfg.nranks = 16;
    cfg.ranks_per_node = 4;
    pgas::Runtime rt(cfg);
    core::SolverOptions opts;
    opts.numeric = false;
    if (analytic) opts.gpu = core::analytic_gpu_options(opts.gpu, rt.model());
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    return solver.report().factor_sim_s;
  };
  const double defaults = run(false);
  const double autotuned = run(true);
  EXPECT_LT(autotuned, 1.3 * defaults);
}

}  // namespace
}  // namespace sympack
