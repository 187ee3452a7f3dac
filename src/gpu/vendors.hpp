// Multi-vendor device presets (paper §4.1/§6).
//
// The paper argues that UPC++ memory kinds make the solver portable
// across GPU vendors by "simply changing a template parameter" — the
// communication layer is device-agnostic and only the BLAS backend and
// device constants change. This module is that knob for the simulated
// machine: selecting a vendor swaps the device performance constants
// (core::Offload's kernel calls and the memory-kinds transfer paths are
// untouched, exactly as the paper predicts).
//
// Rates are modeled approximations of public FP64 figures for each part;
// they parameterize the simulation only.
#pragma once

#include "pgas/machine_model.hpp"

namespace sympack::gpu {

enum class DeviceVendor {
  kNvidiaA100,  // the paper's Perlmutter configuration (cuBLAS/cuSolver)
  kAmdMi250x,   // rocBLAS/rocSOLVER-class device
  kIntelPvc,    // oneMKL-class device
};

/// Overwrite the GPU-side constants of `model` with the vendor preset.
void apply_device_vendor(pgas::MachineModel& model, DeviceVendor vendor);

const char* vendor_name(DeviceVendor vendor);

}  // namespace sympack::gpu
