#include "core/offload.hpp"

#include <algorithm>
#include <string>

namespace sympack::core {

namespace {
constexpr std::size_t idx(gpu::Op op) { return static_cast<std::size_t>(op); }
}  // namespace

Offload::Offload(const GpuOptions& opts, pgas::Runtime& rt, bool numeric)
    : opts_(opts), rt_(&rt), devices_(rt), numeric_(numeric),
      counts_(rt.nranks()) {
  if (opts_.auto_tune) {
    const auto t = gpu::analytic_thresholds(rt.model());
    opts_.potrf_threshold = t.potrf;
    opts_.trsm_threshold = t.trsm;
    opts_.syrk_threshold = t.syrk;
    opts_.gemm_threshold = t.gemm;
    opts_.device_resident_threshold = t.trsm;
  }
}

bool Offload::should_offload(gpu::Op op, std::int64_t elems) const {
  if (!opts_.enabled) return false;
  switch (op) {
    case gpu::Op::kPotrf: return elems >= opts_.potrf_threshold;
    case gpu::Op::kTrsm: return elems >= opts_.trsm_threshold;
    case gpu::Op::kSyrk: return elems >= opts_.syrk_threshold;
    case gpu::Op::kGemm: return elems >= opts_.gemm_threshold;
  }
  return false;
}

bool Offload::device_resident(std::int64_t elems) const {
  return opts_.enabled && elems >= opts_.device_resident_threshold;
}

Offload::GpuPlan Offload::plan(pgas::Rank& rank, gpu::Op op,
                               std::int64_t elems, std::size_t scratch_bytes) {
  GpuPlan p;
  if (!should_offload(op, elems)) return p;
  p.scratch = rank.allocate_device(scratch_bytes, /*nothrow=*/true);
  if (p.scratch.is_null()) {
    // Device segment exhausted: apply the configured fallback (§4.2).
    if (opts_.fallback == GpuFallback::kThrow) {
      throw pgas::DeviceOom("device scratch allocation failed (" +
                            std::to_string(scratch_bytes) + " B)");
    }
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    ++rank.stats().oom_fallbacks;
    return p;  // use_gpu stays false -> CPU path
  }
  p.use_gpu = true;
  return p;
}

void Offload::finish(pgas::Rank& rank, GpuPlan& plan,
                     std::size_t result_bytes) {
  // Result copied back to host memory, then the scratch is released.
  charge_stage(rank, result_bytes);
  rank.deallocate(plan.scratch);
  plan.scratch = pgas::GlobalPtr{};
}

void Offload::charge_stage(pgas::Rank& rank, std::size_t bytes) {
  rank.advance(rt_->model().hd_copy_time(bytes));
  ++rank.stats().hd_copies;
}

void Offload::charge_scatter(pgas::Rank& rank, std::size_t bytes) {
  // Read the update, read+write the target: ~3 bytes of traffic per byte.
  rank.advance(3.0 * static_cast<double>(bytes) /
               rt_->model().cpu_mem_bandwidth_Bps);
}

int Offload::run_potrf(pgas::Rank& rank, int w, double* a, int lda) {
  const std::int64_t elems = static_cast<std::int64_t>(w) * w;
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(elems);
  const double flops = static_cast<double>(blas::potrf_flops(w));
  GpuPlan p = plan(rank, gpu::Op::kPotrf, elems, bytes);
  int info = 0;
  if (p.use_gpu) {
    charge_stage(rank, bytes);  // diagonal block host -> device
    auto& dev = devices_.device_for(rank);
    if (numeric_) {
      info = gpu::dev_potrf(rank, dev, blas::UpLo::kLower, w, a, lda);
    } else {
      rank.merge_clock(dev.submit(gpu::Op::kPotrf, flops, rank.now()));
    }
    finish(rank, p, bytes);
    ++counts_[rank.id()].gpu[idx(gpu::Op::kPotrf)];
  } else {
    if (numeric_) info = blas::potrf(blas::UpLo::kLower, w, a, lda);
    rank.advance(gpu::cpu_kernel_time(rt_->model(), gpu::Op::kPotrf, flops));
    ++counts_[rank.id()].cpu[idx(gpu::Op::kPotrf)];
  }
  return info;
}

void Offload::run_trsm(pgas::Rank& rank, int m, int w, const double* diag,
                       int ldd, double* b, int ldb, bool diag_resident) {
  const std::int64_t elems = static_cast<std::int64_t>(m) * w;
  const std::size_t b_bytes = sizeof(double) * static_cast<std::size_t>(elems);
  const std::size_t d_bytes =
      sizeof(double) * static_cast<std::size_t>(w) * w;
  const double flops =
      static_cast<double>(blas::trsm_flops(blas::Side::kRight, m, w));
  GpuPlan p = plan(rank, gpu::Op::kTrsm, elems, b_bytes + d_bytes);
  if (p.use_gpu) {
    charge_stage(rank, b_bytes);
    if (!diag_resident) charge_stage(rank, d_bytes);
    auto& dev = devices_.device_for(rank);
    if (numeric_) {
      gpu::dev_trsm(rank, dev, blas::Side::kRight, blas::UpLo::kLower,
                    blas::Trans::kYes, blas::Diag::kNonUnit, m, w, 1.0, diag,
                    ldd, b, ldb);
    } else {
      rank.merge_clock(dev.submit(gpu::Op::kTrsm, flops, rank.now()));
    }
    finish(rank, p, b_bytes);
    ++counts_[rank.id()].gpu[idx(gpu::Op::kTrsm)];
  } else {
    if (numeric_) {
      blas::trsm(blas::Side::kRight, blas::UpLo::kLower, blas::Trans::kYes,
                 blas::Diag::kNonUnit, m, w, 1.0, diag, ldd, b, ldb);
    }
    rank.advance(gpu::cpu_kernel_time(rt_->model(), gpu::Op::kTrsm, flops));
    ++counts_[rank.id()].cpu[idx(gpu::Op::kTrsm)];
  }
}

void Offload::run_syrk(pgas::Rank& rank, int n, int k, const double* a,
                       int lda, double* c, int ldc, bool a_resident) {
  const std::int64_t elems = static_cast<std::int64_t>(n) * k;
  const std::size_t a_bytes = sizeof(double) * static_cast<std::size_t>(elems);
  const std::size_t c_bytes =
      sizeof(double) * static_cast<std::size_t>(n) * n;
  const double flops = static_cast<double>(blas::syrk_flops(n, k));
  GpuPlan p = plan(rank, gpu::Op::kSyrk, elems, a_bytes + c_bytes);
  if (p.use_gpu) {
    if (!a_resident) charge_stage(rank, a_bytes);
    charge_stage(rank, c_bytes);
    auto& dev = devices_.device_for(rank);
    if (numeric_) {
      gpu::dev_syrk(rank, dev, blas::UpLo::kLower, blas::Trans::kNo, n, k,
                    -1.0, a, lda, 0.0, c, ldc);
    } else {
      rank.merge_clock(dev.submit(gpu::Op::kSyrk, flops, rank.now()));
    }
    finish(rank, p, c_bytes);
    ++counts_[rank.id()].gpu[idx(gpu::Op::kSyrk)];
  } else {
    if (numeric_) {
      blas::syrk(blas::UpLo::kLower, blas::Trans::kNo, n, k, -1.0, a, lda,
                 0.0, c, ldc);
    }
    rank.advance(gpu::cpu_kernel_time(rt_->model(), gpu::Op::kSyrk, flops));
    ++counts_[rank.id()].cpu[idx(gpu::Op::kSyrk)];
  }
}

void Offload::run_gemm(pgas::Rank& rank, int m, int n, int k, const double* a,
                       int lda, const double* b, int ldb, double* c, int ldc,
                       bool a_resident, bool b_resident) {
  const std::int64_t elems =
      std::max<std::int64_t>(static_cast<std::int64_t>(m) * k,
                             static_cast<std::int64_t>(n) * k);
  const std::size_t a_bytes =
      sizeof(double) * static_cast<std::size_t>(m) * k;
  const std::size_t b_bytes =
      sizeof(double) * static_cast<std::size_t>(n) * k;
  const std::size_t c_bytes =
      sizeof(double) * static_cast<std::size_t>(m) * n;
  const double flops = static_cast<double>(blas::gemm_flops(m, n, k));
  GpuPlan p = plan(rank, gpu::Op::kGemm, elems, a_bytes + b_bytes + c_bytes);
  if (p.use_gpu) {
    if (!a_resident) charge_stage(rank, a_bytes);
    if (!b_resident) charge_stage(rank, b_bytes);
    auto& dev = devices_.device_for(rank);
    if (numeric_) {
      gpu::dev_gemm(rank, dev, blas::Trans::kNo, blas::Trans::kYes, m, n, k,
                    1.0, a, lda, b, ldb, 0.0, c, ldc);
    } else {
      rank.merge_clock(dev.submit(gpu::Op::kGemm, flops, rank.now()));
    }
    finish(rank, p, c_bytes);
    ++counts_[rank.id()].gpu[idx(gpu::Op::kGemm)];
  } else {
    if (numeric_) {
      blas::gemm(blas::Trans::kNo, blas::Trans::kYes, m, n, k, 1.0, a, lda, b,
                 ldb, 0.0, c, ldc);
    }
    rank.advance(gpu::cpu_kernel_time(rt_->model(), gpu::Op::kGemm, flops));
    ++counts_[rank.id()].cpu[idx(gpu::Op::kGemm)];
  }
}

void Offload::run_trsm_left(pgas::Rank& rank, bool transposed, int n,
                            int nrhs, const double* diag, int ldd, double* x,
                            int ldx) {
  // The offload decision keys on the RHS panel (the buffer the solve
  // actually computes on): with one right-hand side these stay on the
  // CPU, with blocked RHS the GPU pays off — matching the hybrid
  // behaviour of the paper's tuned thresholds.
  const std::int64_t elems = static_cast<std::int64_t>(n) * nrhs;
  const std::size_t d_bytes = sizeof(double) * static_cast<std::size_t>(elems);
  const std::size_t x_bytes =
      sizeof(double) * static_cast<std::size_t>(n) * nrhs;
  const double flops = static_cast<double>(nrhs) * n * n;
  const auto trans = transposed ? blas::Trans::kYes : blas::Trans::kNo;
  GpuPlan p = plan(rank, gpu::Op::kTrsm, elems, d_bytes + x_bytes);
  if (p.use_gpu) {
    charge_stage(rank, d_bytes + x_bytes);
    auto& dev = devices_.device_for(rank);
    if (numeric_) {
      gpu::dev_trsm(rank, dev, blas::Side::kLeft, blas::UpLo::kLower, trans,
                    blas::Diag::kNonUnit, n, nrhs, 1.0, diag, ldd, x, ldx);
    } else {
      rank.merge_clock(dev.submit(gpu::Op::kTrsm, flops, rank.now()));
    }
    finish(rank, p, x_bytes);
    ++counts_[rank.id()].gpu[idx(gpu::Op::kTrsm)];
  } else {
    if (numeric_) {
      blas::trsm(blas::Side::kLeft, blas::UpLo::kLower, trans,
                 blas::Diag::kNonUnit, n, nrhs, 1.0, diag, ldd, x, ldx);
    }
    rank.advance(gpu::cpu_kernel_time(rt_->model(), gpu::Op::kTrsm, flops));
    ++counts_[rank.id()].cpu[idx(gpu::Op::kTrsm)];
  }
}

void Offload::run_gemm_any(pgas::Rank& rank, blas::Trans trans_a, int m,
                           int n, int k, double alpha, const double* a,
                           int lda, const double* b, int ldb, double beta,
                           double* c, int ldc) {
  // Like run_trsm_left: key on the RHS/solution panels (n = nrhs here),
  // not on the factor block, so thin solves stay on the CPU.
  const std::int64_t elems =
      static_cast<std::int64_t>(std::max(m, k)) * n;
  const std::size_t a_bytes =
      sizeof(double) * static_cast<std::size_t>(m) * k;
  const std::size_t b_bytes =
      sizeof(double) * static_cast<std::size_t>(k) * n;
  const std::size_t c_bytes =
      sizeof(double) * static_cast<std::size_t>(m) * n;
  const double flops = static_cast<double>(blas::gemm_flops(m, n, k));
  GpuPlan p = plan(rank, gpu::Op::kGemm, elems, a_bytes + b_bytes + c_bytes);
  if (p.use_gpu) {
    charge_stage(rank, a_bytes + b_bytes);
    auto& dev = devices_.device_for(rank);
    if (numeric_) {
      gpu::dev_gemm(rank, dev, trans_a, blas::Trans::kNo, m, n, k, alpha, a,
                    lda, b, ldb, beta, c, ldc);
    } else {
      rank.merge_clock(dev.submit(gpu::Op::kGemm, flops, rank.now()));
    }
    finish(rank, p, c_bytes);
    ++counts_[rank.id()].gpu[idx(gpu::Op::kGemm)];
  } else {
    if (numeric_) {
      blas::gemm(trans_a, blas::Trans::kNo, m, n, k, alpha, a, lda, b, ldb,
                 beta, c, ldc);
    }
    rank.advance(gpu::cpu_kernel_time(rt_->model(), gpu::Op::kGemm, flops));
    ++counts_[rank.id()].cpu[idx(gpu::Op::kGemm)];
  }
}

OpCounts Offload::total_counts() const {
  OpCounts total;
  for (const auto& c : counts_) total += c;
  return total;
}

void Offload::reset_counters() {
  for (auto& c : counts_) c = OpCounts{};
  fallbacks_.store(0, std::memory_order_relaxed);
  devices_.reset();
}

}  // namespace sympack::core
