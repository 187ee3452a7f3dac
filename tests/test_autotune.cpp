// Tests for the §6 future-work extensions: device vendor presets
// (portability knob) and the analytical offload-threshold framework;
// and for the schedule autotuner's concurrent pilots (core/autotune.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "core/solver.hpp"
#include "gpu/autotune.hpp"
#include "gpu/device.hpp"
#include "gpu/vendors.hpp"
#include "ordering/ordering.hpp"
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
  EXPECT_STREQ(gpu::vendor_name(gpu::DeviceVendor::kAmdMi250x),
               "amd-mi250x");
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

// ---------------------------------------------------------------------
// Concurrent autotune pilots. Each stage's pilots run side by side; the
// suite name matches the TSan job's 'Threaded|Drive' filter. Inputs are
// small (proxies at 0.05, 8 ranks) so the suite stays quick under TSan.

pgas::Runtime::Config pilot_cluster(bool threaded = false) {
  pgas::Runtime::Config cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.threaded = threaded;
  return cfg;
}

core::SolverOptions auto_options() {
  core::SolverOptions opts;
  opts.numeric = false;
  opts.ordering = ordering::Method::kNatural;
  opts.policy = core::Policy::kAuto;
  return opts;
}

/// Resolves Policy::kAuto for `a`: symbolic_factorize runs the pilots.
core::AutoTuneChoice tune(const sparse::CscMatrix& a,
                          const pgas::Runtime::Config& cfg,
                          const core::SolverOptions& opts = auto_options()) {
  pgas::Runtime rt(cfg);
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  return *solver.autotune_choice();
}

/// Everything a choice decides and measures in simulated time, bitwise.
/// (Host seconds differ from run to run.)
void expect_same_choice(const core::AutoTuneChoice& x,
                        const core::AutoTuneChoice& y) {
  EXPECT_EQ(x.policy, y.policy);
  EXPECT_EQ(x.max_width, y.max_width);
  EXPECT_EQ(x.mapping, y.mapping);
  EXPECT_EQ(x.offload_scale, y.offload_scale);
  EXPECT_EQ(x.gpu.potrf_threshold, y.gpu.potrf_threshold);
  EXPECT_EQ(x.gpu.trsm_threshold, y.gpu.trsm_threshold);
  EXPECT_EQ(x.gpu.syrk_threshold, y.gpu.syrk_threshold);
  EXPECT_EQ(x.gpu.gemm_threshold, y.gpu.gemm_threshold);
  EXPECT_EQ(x.gpu.device_resident_threshold, y.gpu.device_resident_threshold);
  EXPECT_EQ(x.pilot_sim_s, y.pilot_sim_s);
  EXPECT_EQ(x.default_sim_s, y.default_sim_s);
  ASSERT_EQ(x.candidates.size(), y.candidates.size());
  for (std::size_t i = 0; i < x.candidates.size(); ++i) {
    const auto& cx = x.candidates[i];
    const auto& cy = y.candidates[i];
    EXPECT_EQ(cx.policy, cy.policy) << "candidate " << i;
    EXPECT_EQ(cx.max_width, cy.max_width) << "candidate " << i;
    EXPECT_EQ(cx.mapping, cy.mapping) << "candidate " << i;
    EXPECT_EQ(cx.offload_scale, cy.offload_scale) << "candidate " << i;
    EXPECT_EQ(cx.sim_s, cy.sim_s) << "candidate " << i;
  }
}

/// Sets environment variables for one scope, then restores each one's
/// previous value (or unsets it).
class ScopedEnv {
 public:
  ScopedEnv(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      const char* old = std::getenv(name);
      saved_.emplace_back(name, old != nullptr
                                    ? std::optional<std::string>(old)
                                    : std::nullopt);
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    for (const auto& [name, old] : saved_) {
      if (old) {
        ::setenv(name, old->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(AutotuneDrive, EveryPilotMatchesAStandaloneRun) {
  // A pilot that ran beside others measures exactly what the same
  // configuration measures alone: protocol-only, fault-free, sequential.
  const auto cfg = pilot_cluster();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const auto& a : {sparse::flan_proxy(0.05), sparse::bones_proxy(0.05)}) {
    const core::AutoTuneChoice choice = tune(a, cfg);
    ASSERT_EQ(choice.candidates.size(), 11u);  // 4 + 2 + 2 + 3 pilots
    EXPECT_EQ(choice.workers, static_cast<int>(std::min(hw, 4u)));
    for (const auto& c : choice.candidates) {
      pgas::Runtime rt(cfg, pgas::Runtime::EnvOverlay::kSkip);
      core::SolverOptions opts = auto_options();
      opts.policy = c.policy;
      opts.symbolic.max_width = c.max_width;
      opts.mapping = c.mapping;
      if (c.offload_scale > 0.0) {
        opts.gpu =
            core::analytic_gpu_options(opts.gpu, rt.model(), c.offload_scale);
      }
      core::SymPackSolver solver(rt, opts);
      solver.symbolic_factorize(a);
      solver.factorize();
      EXPECT_EQ(c.sim_s, solver.report().factor_sim_s)
          << core::policy_name(c.policy) << " / " << c.max_width << " / "
          << symbolic::Mapping::kind_name(c.mapping) << " / "
          << c.offload_scale;
      EXPECT_GT(c.host_s, 0.0);
      EXPECT_LE(c.host_s, choice.wall_s);
    }
  }
}

TEST(AutotuneDrive, AdoptionIsStrictlyBetterInCandidateOrder) {
  // Replays the search over the recorded candidates: stage by stage, each
  // candidate varies only its stage's coordinate of the incumbent the
  // stage started from, and replaces the incumbent only when strictly
  // faster. The choice is where that walk ends.
  const auto cfg = pilot_cluster();
  const core::SolverOptions defaults;
  const sparse::idx_t w0 = defaults.symbolic.max_width;
  const core::AutoTuneChoice choice = tune(sparse::bones_proxy(0.05), cfg);
  const auto& cands = choice.candidates;
  ASSERT_EQ(cands.size(), 11u);

  const core::Policy policies[] = {core::Policy::kFifo, core::Policy::kLifo,
                                   core::Policy::kPriority,
                                   core::Policy::kCriticalPath};
  const sparse::idx_t widths[] = {w0 / 2, w0 * 2};
  const symbolic::Mapping::Kind mappings[] = {
      symbolic::Mapping::Kind::kRowCyclic,
      symbolic::Mapping::Kind::kColCyclic};
  const double scales[] = {0.5, 1.0, 2.0};
  const std::size_t stage_end[] = {4, 6, 8, 11};

  core::AutoTuneCandidate incumbent;
  incumbent.max_width = w0;
  incumbent.mapping = defaults.mapping;
  double best = 1e300;
  std::size_t i = 0;
  for (int stage = 0; stage < 4; ++stage) {
    const core::AutoTuneCandidate start = incumbent;
    for (std::size_t k = 0; i < stage_end[stage]; ++i, ++k) {
      const auto& c = cands[i];
      EXPECT_EQ(c.policy, stage == 0 ? policies[k] : start.policy) << i;
      EXPECT_EQ(c.max_width, stage == 1 ? widths[k] : start.max_width) << i;
      EXPECT_EQ(c.mapping, stage == 2 ? mappings[k] : start.mapping) << i;
      EXPECT_EQ(c.offload_scale, stage == 3 ? scales[k] : start.offload_scale)
          << i;
      if (c.sim_s < best) {
        best = c.sim_s;
        incumbent = c;
      }
    }
  }
  EXPECT_EQ(choice.default_sim_s, cands[0].sim_s);  // FIFO's pilot
  EXPECT_EQ(choice.pilot_sim_s, best);
  EXPECT_EQ(choice.policy, incumbent.policy);
  EXPECT_EQ(choice.max_width, incumbent.max_width);
  EXPECT_EQ(choice.mapping, incumbent.mapping);
  EXPECT_EQ(choice.offload_scale, incumbent.offload_scale);
  const core::GpuOptions gpu =
      incumbent.offload_scale > 0.0
          ? core::analytic_gpu_options(defaults.gpu, cfg.model,
                                       incumbent.offload_scale)
          : defaults.gpu;
  EXPECT_EQ(choice.gpu.gemm_threshold, gpu.gemm_threshold);
  EXPECT_EQ(choice.gpu.device_resident_threshold,
            gpu.device_resident_threshold);
}

TEST(AutotuneDrive, StageWallsBoundTheirPilotsAndSumToAtMostTheTuner) {
  // One wall per stage that ran (policy, width, mapping, offload): each
  // stage lasts at least as long as its slowest pilot, and the stages
  // run one after another inside the tuner's own wall time.
  const core::AutoTuneChoice choice =
      tune(sparse::bones_proxy(0.05), pilot_cluster());
  ASSERT_EQ(choice.candidates.size(), 11u);
  ASSERT_EQ(choice.stage_wall_s.size(), 4u);
  const std::size_t stage_end[] = {4, 6, 8, 11};
  std::size_t i = 0;
  double sum = 0.0;
  for (std::size_t stage = 0; stage < 4; ++stage) {
    double slowest = 0.0;
    for (; i < stage_end[stage]; ++i) {
      slowest = std::max(slowest, choice.candidates[i].host_s);
    }
    EXPECT_GT(slowest, 0.0) << "stage " << stage;
    EXPECT_GE(choice.stage_wall_s[stage], slowest) << "stage " << stage;
    sum += choice.stage_wall_s[stage];
  }
  EXPECT_LE(sum, choice.wall_s);
}

TEST(AutotuneDrive, RepeatedRunsChooseIdentically) {
  const auto a = sparse::flan_proxy(0.05);
  expect_same_choice(tune(a, pilot_cluster()), tune(a, pilot_cluster()));
}

TEST(AutotuneDrive, ThreadedCallerGetsSequentialPilots) {
  // A threaded caller's runtime does not make the pilots threaded:
  // threaded makespans vary with thread timing, so the choice would too.
  const auto a = sparse::flan_proxy(0.05);
  expect_same_choice(tune(a, pilot_cluster(/*threaded=*/true)),
                     tune(a, pilot_cluster()));
}

TEST(AutotuneDrive, FaultEnvDoesNotReachPilots) {
  // SYMPACK_FAULT_* set while symbolic_factorize runs must not reach the
  // pilots' runtimes: they tune the healthy schedule.
  const auto a = sparse::flan_proxy(0.05);
  core::SolverOptions opts = auto_options();
  opts.resilience.buddy_replicas = 1;  // a killed pilot would recover
  auto tune_under = [&](std::initializer_list<
                        std::pair<const char*, const char*>> env) {
    pgas::Runtime rt(pilot_cluster());
    core::SymPackSolver solver(rt, opts);
    {
      const ScopedEnv scoped(env);
      solver.symbolic_factorize(a);
    }
    return *solver.autotune_choice();
  };
  const core::AutoTuneChoice clean = tune_under({});
  expect_same_choice(tune_under({{"SYMPACK_FAULT_KILL", "3@40"}}), clean);
  expect_same_choice(tune_under({{"SYMPACK_FAULT_ENABLED", "1"},
                                 {"SYMPACK_FAULT_DROP", "0.02"}}),
                     clean);
}

TEST(AutotuneDrive, PilotExceptionSurfacesOnceWithItsType) {
  // Every pilot offloads into a device share too small for any kernel's
  // device buffer and is told to throw rather than fall back. The stage joins
  // its threads, then symbolic_factorize throws one pgas::DeviceOom.
  pgas::Runtime::Config cfg = pilot_cluster();
  cfg.device_memory_bytes = 4096;
  pgas::Runtime rt(cfg);
  core::SolverOptions opts = auto_options();
  opts.gpu.fallback = core::GpuFallback::kThrow;
  opts.gpu.potrf_threshold = 1;
  opts.gpu.trsm_threshold = 1;
  opts.gpu.syrk_threshold = 1;
  opts.gpu.gemm_threshold = 1;
  core::SymPackSolver solver(rt, opts);
  int device_ooms = 0;
  try {
    solver.symbolic_factorize(sparse::flan_proxy(0.05));
  } catch (const pgas::DeviceOom&) {
    ++device_ooms;
  }
  EXPECT_EQ(device_ooms, 1);
  EXPECT_EQ(solver.autotune_choice(), nullptr);
}

}  // namespace
}  // namespace sympack
