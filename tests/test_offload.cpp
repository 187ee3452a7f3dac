// Kernel execution through core::Offload (paper §4.2). With every
// threshold at 0 each call takes the device path, which must compute
// exactly what the host kernel computes, name POTRF's failing column,
// launch one kernel per call, make the rank wait behind a busy device,
// and stage and reserve every operand it reads. A protocol-only Offload runs the same
// skeleton with the math left out, so it charges the same clock and
// counts the same calls.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "blas/blas.hpp"
#include "core/errors.hpp"
#include "core/offload.hpp"
#include "gpu/device.hpp"
#include "support/random.hpp"

namespace sympack::core {
namespace {

constexpr auto kGemm = static_cast<std::size_t>(gpu::Op::kGemm);
constexpr auto kTrsm = static_cast<std::size_t>(gpu::Op::kTrsm);
constexpr auto kPotrf = static_cast<std::size_t>(gpu::Op::kPotrf);

/// Two ranks on one node, each bound to its own device.
pgas::Runtime::Config cluster(std::size_t device_bytes = 512ull << 20) {
  pgas::Runtime::Config cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 2;
  cfg.gpus_per_node = 2;
  cfg.device_memory_bytes = device_bytes;
  return cfg;
}

GpuOptions always_offload() {
  GpuOptions g;
  g.potrf_threshold = 0;
  g.trsm_threshold = 0;
  g.syrk_threshold = 0;
  g.gemm_threshold = 0;
  return g;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_in(-1, 1);
  return v;
}

TEST(OffloadGpu, GemmMatchesHostKernel) {
  pgas::Runtime rt(cluster());
  Offload offload(always_offload(), rt, /*numeric=*/true);
  auto& rank = rt.rank(0);
  const int n = 12;
  const auto a = random_vector(n * n, 3);
  const auto b = random_vector(n * n, 4);

  // The factorization's update GEMM: c := a b^T.
  std::vector<double> c_dev(n * n), c_host(n * n);
  offload.run_gemm(rank, n, n, n, a.data(), n, b.data(), n, c_dev.data(), n,
                   false, false);
  blas::gemm(blas::Trans::kNo, blas::Trans::kYes, n, n, n, 1.0, a.data(), n,
             b.data(), n, 0.0, c_host.data(), n);
  for (int i = 0; i < n * n; ++i) EXPECT_DOUBLE_EQ(c_dev[i], c_host[i]);

  // The solve's general GEMM, run through the skeleton as the solve
  // engine does: d := d - a b.
  std::vector<double> d_dev(n * n, 0.5), d_host(n * n, 0.5);
  offload.run(
      rank, Offload::Call::gemm_any(n, n, n),
      [a = a.data(), b = b.data(), d = d_dev.data()] {
        blas::gemm(blas::Trans::kNo, blas::Trans::kNo, n, n, n, -1.0, a, n,
                   b, n, 1.0, d, n);
      },
      {pgas::reads(a.data()), pgas::reads(b.data()),
       pgas::writes(d_dev.data())});
  blas::gemm(blas::Trans::kNo, blas::Trans::kNo, n, n, n, -1.0, a.data(), n,
             b.data(), n, 1.0, d_host.data(), n);
  for (int i = 0; i < n * n; ++i) EXPECT_DOUBLE_EQ(d_dev[i], d_host[i]);

  EXPECT_GT(rank.now(), 0.0);  // simulated time charged
  EXPECT_EQ(offload.counts(0).gpu[kGemm], 2u);
  EXPECT_EQ(offload.counts(0).cpu[kGemm], 0u);
}

TEST(OffloadGpu, PotrfReportsInfo) {
  pgas::Runtime rt(cluster());
  Offload offload(always_offload(), rt, /*numeric=*/true);
  auto& rank = rt.rank(0);
  std::vector<double> spd = {4.0, 2.0, 2.0, 5.0};
  offload.run_potrf(rank, 2, spd.data(), 2, /*first_column=*/10);
  EXPECT_DOUBLE_EQ(spd[0], 2.0);
  EXPECT_DOUBLE_EQ(spd[1], 1.0);
  EXPECT_DOUBLE_EQ(spd[3], 2.0);
  // The second pivot fails: info 2 names the block's second column.
  std::vector<double> indef = {1.0, 0.0, 0.0, -1.0};
  try {
    offload.run_potrf(rank, 2, indef.data(), 2, /*first_column=*/10);
    ADD_FAILURE() << "a failed pivot must throw";
  } catch (const NotPositiveDefiniteError& e) {
    EXPECT_EQ(e.column(), 11);
  }
  EXPECT_EQ(offload.counts(0).gpu[kPotrf], 2u);
}

TEST(OffloadGpu, EachCallLaunchesOneKernel) {
  pgas::Runtime rt(cluster());
  Offload offload(always_offload(), rt, /*numeric=*/true);
  auto& rank = rt.rank(1);
  auto& dev = offload.devices().device_for(rank);
  const auto kernels_before = dev.kernels_launched();
  // x L^T = rhs with L = [2 0; 1 3].
  std::vector<double> tri = {2.0, 1.0, 0.0, 3.0};
  std::vector<double> rhs = {4.0, 6.0};
  offload.run_trsm(rank, 1, 2, tri.data(), 2, rhs.data(), 1, false);
  // c := -a a^T on the lower triangle, run through the skeleton as the
  // factorization's update does.
  std::vector<double> c = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> a = {1.0, 2.0};
  offload.run(
      rank, Offload::Call::syrk(2, 1, false),
      [a = a.data(), c = c.data()] {
        blas::syrk(blas::UpLo::kLower, blas::Trans::kNo, 2, 1, -1.0, a, 2,
                   0.0, c, 2);
      },
      {pgas::reads(a.data()), pgas::writes(c.data())});
  EXPECT_EQ(dev.kernels_launched(), kernels_before + 2);
  EXPECT_DOUBLE_EQ(rhs[0], 2.0);
  EXPECT_NEAR(rhs[1], 4.0 / 3.0, 1e-15);
  EXPECT_DOUBLE_EQ(c[0], -1.0);
  EXPECT_DOUBLE_EQ(c[1], -2.0);
  EXPECT_DOUBLE_EQ(c[3], -4.0);
}

TEST(OffloadGpu, RankWaitsBehindBusyDevice) {
  pgas::Runtime rt(cluster());
  Offload offload(always_offload(), rt, /*numeric=*/true);
  auto& r0 = rt.rank(0);
  // Pre-load the device with a long kernel from "another rank".
  const double long_done =
      offload.devices().device_for(r0).submit(gpu::Op::kGemm, 1e12, 0.0);
  std::vector<double> a(4, 1.0), b(4, 1.0), c(4, 0.0);
  offload.run_gemm(r0, 2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2, false,
                   false);
  EXPECT_GT(r0.now(), long_done);  // queued behind the long kernel
  EXPECT_DOUBLE_EQ(c[0], 2.0);
}

// The solve's diagonal TRSM reads the n-by-n factor and the n-by-nrhs
// panel, so an offloaded call stages and reserves both, even when the
// panel is thinner than the factor.
TEST(OffloadGpu, LeftTrsmStagesAndReservesTheDiagonalFactor) {
  const int n = 16;
  const int nrhs = 2;
  const std::size_t x_bytes = sizeof(double) * n * nrhs;
  const std::size_t in_bytes = sizeof(double) * n * n + x_bytes;
  std::vector<double> diag(n * n, 0.0);
  for (int i = 0; i < n; ++i) diag[i + i * n] = 2.0;

  {
    pgas::Runtime rt(cluster());
    Offload offload(always_offload(), rt, /*numeric=*/true);
    auto& rank = rt.rank(0);
    std::vector<double> x(n * nrhs, 1.0);
    offload.run_trsm_left(rank, false, n, nrhs, diag.data(), n, x.data(), n);
    EXPECT_EQ(offload.counts(0).gpu[kTrsm], 1u);
    EXPECT_DOUBLE_EQ(x[0], 0.5);
    // One staging copy of L and x in, one copy of x back.
    const auto& model = rt.model();
    gpu::Device reference(0, model);
    const double flops = static_cast<double>(
        blas::trsm_flops(blas::Side::kLeft, n, nrhs));
    EXPECT_DOUBLE_EQ(rank.now(),
                     reference.submit(gpu::Op::kTrsm, flops,
                                      model.hd_copy_time(in_bytes)) +
                         model.hd_copy_time(x_bytes));
    EXPECT_EQ(rank.stats().hd_copies, 2u);
  }
  {
    // A device share one double short of L plus x takes the CPU
    // fallback: the scratch covers the factor, not just two panels.
    pgas::Runtime rt(cluster(in_bytes - sizeof(double)));
    Offload offload(always_offload(), rt, /*numeric=*/true);
    std::vector<double> x(n * nrhs, 1.0);
    offload.run_trsm_left(rt.rank(0), true, n, nrhs, diag.data(), n,
                          x.data(), n);
    EXPECT_EQ(offload.fallbacks(), 1u);
    EXPECT_EQ(offload.counts(0).cpu[kTrsm], 1u);
    EXPECT_DOUBLE_EQ(x[0], 0.5);
  }
}

// Protocol-only is the numeric call sequence with null buffers: the same
// clock, staging copies, call counts and fallbacks, for every entry
// point, on both the device path and the CPU path.
TEST(OffloadGpu, ProtocolOnlyChargesLikeNumeric) {
  for (const bool offloaded : {false, true}) {
    const GpuOptions opts = offloaded ? always_offload() : GpuOptions{};
    pgas::Runtime rt_num(cluster());
    pgas::Runtime rt_dry(cluster());
    Offload num(opts, rt_num, /*numeric=*/true);
    Offload dry(opts, rt_dry, /*numeric=*/false);
    constexpr int n = 24;
    constexpr int k = 8;
    // The engines run SYRK and the solve's GEMM through run(), with the
    // math as the action; so do these two.
    const auto syrk = [](Offload& o, pgas::Rank& rank, const double* a,
                         double* c) {
      o.run(
          rank, Offload::Call::syrk(n, k, false),
          [a, c] {
            blas::syrk(blas::UpLo::kLower, blas::Trans::kNo, n, k, -1.0, a,
                       n, 0.0, c, n);
          },
          {pgas::reads(a), pgas::writes(c)});
    };
    const auto gemm_any = [](Offload& o, pgas::Rank& rank, const double* a,
                             double* c) {
      o.run(
          rank, Offload::Call::gemm_any(k, k, n),
          [a, c] {
            blas::gemm(blas::Trans::kYes, blas::Trans::kNo, k, k, n, 1.0, a,
                       n, a, n, 0.0, c, k);
          },
          {pgas::reads(a), pgas::writes(c)});
    };
    std::vector<double> spd(n * n, 0.0);
    for (int i = 0; i < n; ++i) spd[i + i * n] = 4.0;
    auto panel = random_vector(n * k, 5);
    auto other = random_vector(n * k, 6);
    std::vector<double> out(n * n);

    auto& r = rt_num.rank(0);
    num.run_potrf(r, n, spd.data(), n, 0);
    num.run_trsm(r, k, n, spd.data(), n, other.data(), k, true);
    syrk(num, r, panel.data(), out.data());
    num.run_gemm(r, n, n, k, panel.data(), n, panel.data(), n, out.data(), n,
                 false, true);
    num.run_trsm_left(r, false, n, k, spd.data(), n, panel.data(), n);
    gemm_any(num, r, panel.data(), out.data());

    auto& d = rt_dry.rank(0);
    dry.run_potrf(d, n, nullptr, n, 0);
    dry.run_trsm(d, k, n, nullptr, n, nullptr, k, true);
    syrk(dry, d, nullptr, nullptr);
    dry.run_gemm(d, n, n, k, nullptr, n, nullptr, n, nullptr, n, false,
                 true);
    dry.run_trsm_left(d, false, n, k, nullptr, n, nullptr, n);
    gemm_any(dry, d, nullptr, nullptr);

    EXPECT_EQ(r.now(), d.now()) << "offloaded=" << offloaded;
    EXPECT_EQ(r.stats().hd_copies, d.stats().hd_copies);
    EXPECT_EQ(num.counts(0).cpu, dry.counts(0).cpu);
    EXPECT_EQ(num.counts(0).gpu, dry.counts(0).gpu);
    EXPECT_EQ(num.fallbacks(), dry.fallbacks());
    EXPECT_EQ(num.counts(0).gpu[kGemm], offloaded ? 2u : 0u);
  }
}

}  // namespace
}  // namespace sympack::core
