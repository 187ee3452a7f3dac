// Tests for the simulated GPU substrate: kernel cost model, device
// contention/serialization, and the CPU-vs-GPU crossover that motivates
// the offload thresholds (paper §4.2). The offloaded kernels' numerics
// are tested through core::Offload (tests/test_offload.cpp).
#include <gtest/gtest.h>

#include <vector>

#include "gpu/device.hpp"

namespace sympack::gpu {
namespace {

pgas::Runtime::Config config(int nranks, int per_node, int gpus) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = per_node;
  cfg.gpus_per_node = gpus;
  return cfg;
}

TEST(KernelCost, GpuFasterPerFlopButHasLaunchOverhead) {
  pgas::MachineModel m;
  const double flops = 1e9;
  EXPECT_LT(gpu_kernel_time(m, Op::kGemm, flops),
            cpu_kernel_time(m, Op::kGemm, flops));
  // Tiny kernels: launch overhead dominates, CPU wins. This is exactly
  // the crossover the paper's per-op thresholds exploit.
  const double tiny = 1e4;
  EXPECT_LT(cpu_kernel_time(m, Op::kGemm, tiny),
            m.gpu_launch_s + gpu_kernel_time(m, Op::kGemm, tiny));
}

TEST(KernelCost, OpRatesDiffer) {
  pgas::MachineModel m;
  const double flops = 1e9;
  EXPECT_LT(gpu_kernel_time(m, Op::kGemm, flops),
            gpu_kernel_time(m, Op::kTrsm, flops));
  EXPECT_LT(cpu_kernel_time(m, Op::kGemm, flops),
            cpu_kernel_time(m, Op::kPotrf, flops));
}

TEST(KernelCost, OpNames) {
  EXPECT_STREQ(op_name(Op::kGemm), "GEMM");
  EXPECT_STREQ(op_name(Op::kPotrf), "POTRF");
}

TEST(Device, SubmitAdvancesBusyTime) {
  pgas::MachineModel m;
  Device dev(0, m);
  const double done = dev.submit(Op::kGemm, 2e9, 0.0);
  EXPECT_NEAR(done, m.gpu_launch_s + gpu_kernel_time(m, Op::kGemm, 2e9),
              1e-12);
  EXPECT_DOUBLE_EQ(dev.busy_until(), done);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(Device, SerializesConcurrentKernels) {
  // Two ranks sharing a device: the second kernel queues behind the
  // first even though both callers were ready at t=0.
  pgas::MachineModel m;
  Device dev(0, m);
  const double first = dev.submit(Op::kGemm, 2e9, 0.0);
  const double second = dev.submit(Op::kGemm, 2e9, 0.0);
  EXPECT_NEAR(second, 2.0 * first, 1e-12);
}

TEST(Device, LaterReadyTimeDelaysStart) {
  pgas::MachineModel m;
  Device dev(0, m);
  const double done = dev.submit(Op::kSyrk, 1e9, 5.0);
  EXPECT_GT(done, 5.0);
}

TEST(Device, ResetClearsState) {
  pgas::MachineModel m;
  Device dev(0, m);
  dev.submit(Op::kGemm, 1e9, 0.0);
  dev.reset();
  EXPECT_DOUBLE_EQ(dev.busy_until(), 0.0);
  EXPECT_EQ(dev.kernels_launched(), 0u);
}

TEST(DeviceManager, OneDevicePerPhysicalGpu) {
  pgas::Runtime rt(config(8, 4, 4));
  DeviceManager mgr(rt);
  EXPECT_EQ(mgr.count(), 8);  // 2 nodes x 4 GPUs
  EXPECT_EQ(mgr.device_for(rt.rank(0)).id(), 0);
  EXPECT_EQ(mgr.device_for(rt.rank(5)).id(), 5);
}

TEST(DeviceManager, SharedBindingWhenOversubscribed) {
  pgas::Runtime rt(config(8, 8, 4));
  DeviceManager mgr(rt);
  EXPECT_EQ(mgr.count(), 4);
  EXPECT_EQ(&mgr.device_for(rt.rank(0)), &mgr.device_for(rt.rank(4)));
  EXPECT_NE(&mgr.device_for(rt.rank(0)), &mgr.device_for(rt.rank(1)));
}

}  // namespace
}  // namespace sympack::gpu
