// Calibrated performance model of a Perlmutter-like GPU node (paper §5,
// AD/AE §A.2.2): AMD EPYC 7763 CPU (flat-MPI, one core per process),
// NVIDIA A100 GPUs, HPE Slingshot 11 NICs (~25 GB/s wire speed).
//
// The PGAS runtime executes all numerics for real (bit-correct) on the
// local machine and *charges simulated time* from this model, so that the
// strong-scaling experiments of Figures 7-12 can be reproduced on a
// single box. Constants below were calibrated so the Fig. 5
// microbenchmark reproduces the paper's measured ratios: native memory
// kinds within ~20% of MPI, and 5.9x (8 KiB) to 2.3x (>=1 MiB) faster
// than the reference (host-staged) implementation.
#pragma once

#include <cstddef>

namespace sympack::pgas {

/// Where a buffer lives; the PGAS analogue of UPC++ memory kinds.
enum class MemKind { kHost, kDevice };

/// Which implementation of memory kinds the runtime models (Fig. 5):
/// native = zero-copy GPUDirect-RDMA path, reference = transfers staged
/// through an intermediate host bounce buffer.
enum class MemKindsImpl { kNative, kReference };

struct MachineModel {
  // --- Network (per NIC path, Slingshot 11).
  double net_latency_s = 3.0e-6;       // one-sided get latency
  double net_bandwidth_Bps = 23.4e9;   // achievable RMA bandwidth
  double wire_speed_Bps = 25.0e9;      // physical limit (plot reference)
  double rpc_overhead_s = 1.2e-6;      // async RPC injection + execution
  /// Payload bandwidth for bytes carried *inside* an RPC (eager-protocol
  /// inlined payloads ride the active-message medium, which is slightly
  /// slower than the RMA path — GASNet-EX AM payload vs RDMA). The RPC
  /// cost model is per-message overhead + per-byte time, so a coalesced
  /// batch of N signals pays rpc_overhead_s once instead of N times; a
  /// zero-payload RPC costs exactly rpc_overhead_s, bit-identical to the
  /// historical flat model.
  double rpc_byte_Bps = 19.0e9;
  double rma_issue_s = 0.3e-6;         // CPU cost to inject one RMA op
  // MPI comparator for Fig. 5 (slightly lower latency, same bandwidth).
  double mpi_latency_s = 2.7e-6;

  // --- Host staging path (reference memory-kinds implementation).
  double staging_latency_s = 16.0e-6;  // rendezvous + bounce management
  double pcie_bandwidth_Bps = 18.6e9;  // host <-> device link
  double pcie_latency_s = 8.0e-6;

  // --- Intra-node transfers (shared memory between co-located ranks).
  double shm_latency_s = 0.6e-6;
  double shm_bandwidth_Bps = 40.0e9;

  // --- CPU compute (one EPYC core per flat-MPI process), per-op rates.
  double cpu_gemm_Gflops = 28.0;
  double cpu_syrk_Gflops = 22.0;
  double cpu_trsm_Gflops = 15.0;
  double cpu_potrf_Gflops = 10.0;
  double cpu_mem_bandwidth_Bps = 12.0e9;  // scatter/assembly traffic

  // --- GPU compute (A100, FP64), per-op rates and launch cost.
  double gpu_gemm_Gflops = 17000.0;
  double gpu_syrk_Gflops = 12000.0;
  double gpu_trsm_Gflops = 6000.0;
  double gpu_potrf_Gflops = 4000.0;
  double gpu_launch_s = 12.0e-6;       // kernel launch + sync overhead

  MemKindsImpl memkinds = MemKindsImpl::kNative;

  /// Time for a one-sided transfer of `bytes` between the given memory
  /// kinds, where src and dst may live on the same node or across the
  /// network. This is the cost model behind rget/rput/copy.
  [[nodiscard]] double transfer_time(std::size_t bytes, bool same_node,
                                     MemKind src, MemKind dst) const;

  /// Host <-> device copy within one rank (PCIe).
  [[nodiscard]] double hd_copy_time(std::size_t bytes) const;

  /// Cost of one RPC message carrying `payload_bytes` of inlined payload:
  /// per-message overhead plus the per-byte active-message term. Zero
  /// payload reproduces the historical flat rpc_overhead_s exactly.
  [[nodiscard]] double rpc_time(std::size_t payload_bytes) const {
    return rpc_overhead_s +
           static_cast<double>(payload_bytes) / rpc_byte_Bps;
  }
};

}  // namespace sympack::pgas
