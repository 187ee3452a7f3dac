#include "pgas/machine_model.hpp"

namespace sympack::pgas {

double MachineModel::transfer_time(std::size_t bytes, bool same_node,
                                   MemKind src, MemKind dst) const {
  const double b = static_cast<double>(bytes);
  if (same_node) {
    // Same-node transfers: shared memory, plus a PCIe hop per device
    // endpoint involved.
    double t = shm_latency_s + b / shm_bandwidth_Bps;
    if (src == MemKind::kDevice) t += pcie_latency_s + b / pcie_bandwidth_Bps;
    if (dst == MemKind::kDevice) t += pcie_latency_s + b / pcie_bandwidth_Bps;
    return t;
  }
  const bool touches_device = src == MemKind::kDevice || dst == MemKind::kDevice;
  if (!touches_device || memkinds == MemKindsImpl::kNative) {
    // Zero-copy path: the NIC reads/writes GPU memory directly
    // (GPUDirect RDMA); one network transfer, no staging.
    return net_latency_s + b / net_bandwidth_Bps;
  }
  // Reference implementation: stage through a host bounce buffer — a
  // network hop plus a PCIe hop per device endpoint, plus the rendezvous
  // overhead of managing the intermediate buffer.
  double t = staging_latency_s + net_latency_s + b / net_bandwidth_Bps;
  if (src == MemKind::kDevice) t += b / pcie_bandwidth_Bps;
  if (dst == MemKind::kDevice) t += b / pcie_bandwidth_Bps;
  return t;
}

double MachineModel::hd_copy_time(std::size_t bytes) const {
  return pcie_latency_s + static_cast<double>(bytes) / pcie_bandwidth_Bps;
}

}  // namespace sympack::pgas
