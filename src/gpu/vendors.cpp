#include "gpu/vendors.hpp"

namespace sympack::gpu {

void apply_device_vendor(pgas::MachineModel& model, DeviceVendor vendor) {
  switch (vendor) {
    case DeviceVendor::kNvidiaA100:
      model.gpu_gemm_Gflops = 17000.0;
      model.gpu_syrk_Gflops = 12000.0;
      model.gpu_trsm_Gflops = 6000.0;
      model.gpu_potrf_Gflops = 4000.0;
      model.gpu_launch_s = 12.0e-6;
      model.pcie_bandwidth_Bps = 18.6e9;
      break;
    case DeviceVendor::kAmdMi250x:
      // One GCD of an MI250X; HIP launch latency is somewhat higher.
      model.gpu_gemm_Gflops = 19000.0;
      model.gpu_syrk_Gflops = 12500.0;
      model.gpu_trsm_Gflops = 5000.0;
      model.gpu_potrf_Gflops = 3500.0;
      model.gpu_launch_s = 16.0e-6;
      model.pcie_bandwidth_Bps = 27.0e9;  // Infinity Fabric host link
      break;
    case DeviceVendor::kIntelPvc:
      model.gpu_gemm_Gflops = 12000.0;
      model.gpu_syrk_Gflops = 9000.0;
      model.gpu_trsm_Gflops = 4500.0;
      model.gpu_potrf_Gflops = 3000.0;
      model.gpu_launch_s = 14.0e-6;
      model.pcie_bandwidth_Bps = 22.0e9;
      break;
  }
}

const char* vendor_name(DeviceVendor vendor) {
  switch (vendor) {
    case DeviceVendor::kNvidiaA100: return "nvidia-a100";
    case DeviceVendor::kAmdMi250x: return "amd-mi250x";
    case DeviceVendor::kIntelPvc: return "intel-pvc";
  }
  return "?";
}

}  // namespace sympack::gpu
