#include "core/offload.hpp"

#include <algorithm>
#include <string>

#include "core/errors.hpp"
#include "gpu/autotune.hpp"

namespace sympack::core {

namespace {
/// Bytes of an a-by-b matrix of doubles.
constexpr std::size_t doubles(std::int64_t a, std::int64_t b) {
  return sizeof(double) * static_cast<std::size_t>(a) *
         static_cast<std::size_t>(b);
}
}  // namespace

GpuOptions analytic_gpu_options(GpuOptions base,
                                const pgas::MachineModel& model,
                                double scale) {
  const gpu::Thresholds t = gpu::analytic_thresholds(model);
  const auto scaled = [scale](std::int64_t v) {
    return static_cast<std::int64_t>(static_cast<double>(v) * scale);
  };
  base.potrf_threshold = scaled(t.potrf);
  base.trsm_threshold = scaled(t.trsm);
  base.syrk_threshold = scaled(t.syrk);
  base.gemm_threshold = scaled(t.gemm);
  base.device_resident_threshold = scaled(t.trsm);
  return base;
}

Offload::Offload(const GpuOptions& opts, pgas::Runtime& rt, bool numeric)
    : opts_(opts), rt_(&rt), devices_(rt), numeric_(numeric),
      counts_(rt.nranks()) {}

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

pgas::GlobalPtr Offload::reserve(pgas::Rank& rank, const Call& call) {
  pgas::GlobalPtr scratch;
  if (should_offload(call.op, call.elems)) {
    scratch = rank.allocate_device(call.scratch_bytes, /*nothrow=*/true);
    if (scratch.is_null()) {
      // Device segment exhausted: apply the configured fallback (§4.2).
      if (opts_.fallback == GpuFallback::kThrow) {
        throw pgas::DeviceOom("device scratch allocation failed (" +
                              std::to_string(call.scratch_bytes) + " B)");
      }
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
      ++rank.stats().oom_fallbacks;
    }
  }
  if (!scratch.is_null()) {
    for (const std::size_t bytes : call.staged) {
      if (bytes > 0) charge_stage(rank, bytes);
    }
  }
  return scratch;
}

void Offload::settle(pgas::Rank& rank, const Call& call,
                     pgas::GlobalPtr scratch) {
  const auto op = static_cast<std::size_t>(call.op);
  if (!scratch.is_null()) {
    // symPACK synchronizes after each offloaded kernel: the rank waits
    // for it behind whatever the shared device is already running.
    rank.merge_clock(
        devices_.device_for(rank).submit(call.op, call.flops, rank.now()));
    charge_stage(rank, call.result_bytes);
    rank.deallocate(scratch);
    ++counts_[rank.id()].gpu[op];
  } else {
    rank.advance(gpu::cpu_kernel_time(rt_->model(), call.op, call.flops));
    ++counts_[rank.id()].cpu[op];
  }
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

Offload::Call Offload::Call::potrf(int w) {
  const std::size_t bytes = doubles(w, w);
  return {gpu::Op::kPotrf, std::int64_t{w} * w,
          static_cast<double>(blas::potrf_flops(w)), bytes, {bytes, 0}, bytes};
}

Offload::Call Offload::Call::trsm(int m, int w, bool diag_resident) {
  const std::size_t b_bytes = doubles(m, w);
  const std::size_t d_bytes = doubles(w, w);
  return {gpu::Op::kTrsm, std::int64_t{m} * w,
          static_cast<double>(blas::trsm_flops(blas::Side::kRight, m, w)),
          b_bytes + d_bytes, {b_bytes, diag_resident ? 0 : d_bytes}, b_bytes};
}

Offload::Call Offload::Call::syrk(int n, int k, bool a_resident) {
  const std::size_t a_bytes = doubles(n, k);
  const std::size_t c_bytes = doubles(n, n);
  return {gpu::Op::kSyrk, std::int64_t{n} * k,
          static_cast<double>(blas::syrk_flops(n, k)), a_bytes + c_bytes,
          {a_resident ? 0 : a_bytes, c_bytes}, c_bytes};
}

Offload::Call Offload::Call::gemm(int m, int n, int k, bool a_resident,
                                  bool b_resident) {
  const std::size_t a_bytes = doubles(m, k);
  const std::size_t b_bytes = doubles(n, k);
  const std::size_t c_bytes = doubles(m, n);
  return {gpu::Op::kGemm, std::int64_t{std::max(m, n)} * k,
          static_cast<double>(blas::gemm_flops(m, n, k)),
          a_bytes + b_bytes + c_bytes,
          {a_resident ? 0 : a_bytes, b_resident ? 0 : b_bytes}, c_bytes};
}

Offload::Call Offload::Call::trsm_left(int n, int nrhs) {
  // The offload decision keys on the RHS panel (the buffer the solve
  // actually computes on): with one right-hand side these stay on the
  // CPU, with blocked RHS the GPU pays off — matching the hybrid
  // behaviour of the paper's tuned thresholds. Offloaded, the n-by-n
  // diagonal factor travels with the panel.
  const std::size_t x_bytes = doubles(n, nrhs);
  const std::size_t in_bytes = doubles(n, n) + x_bytes;
  return {gpu::Op::kTrsm, std::int64_t{n} * nrhs,
          static_cast<double>(blas::trsm_flops(blas::Side::kLeft, n, nrhs)),
          in_bytes, {in_bytes, 0}, x_bytes};
}

Offload::Call Offload::Call::gemm_any(int m, int n, int k) {
  // Like trsm_left: key on the RHS/solution panels (n = nrhs here), not
  // on the factor block, so thin solves stay on the CPU.
  const std::size_t a_bytes = doubles(m, k);
  const std::size_t b_bytes = doubles(k, n);
  const std::size_t c_bytes = doubles(m, n);
  return {gpu::Op::kGemm, std::int64_t{std::max(m, k)} * n,
          static_cast<double>(blas::gemm_flops(m, n, k)),
          a_bytes + b_bytes + c_bytes, {a_bytes + b_bytes, 0}, c_bytes};
}

void Offload::run_potrf(pgas::Rank& rank, int w, double* a, int lda,
                        sparse::idx_t first_column) {
  run(rank, Call::potrf(w),
      [w, a, lda, first_column] {
        const int info = blas::potrf(blas::UpLo::kLower, w, a, lda);
        if (info != 0) throw NotPositiveDefiniteError(first_column + info - 1);
      },
      {pgas::writes(a)});
}

void Offload::run_trsm(pgas::Rank& rank, int m, int w, const double* diag,
                       int ldd, double* b, int ldb, bool diag_resident) {
  run(rank, Call::trsm(m, w, diag_resident),
      [m, w, diag, ldd, b, ldb] {
        blas::trsm(blas::Side::kRight, blas::UpLo::kLower, blas::Trans::kYes,
                   blas::Diag::kNonUnit, m, w, 1.0, diag, ldd, b, ldb);
      },
      {pgas::reads(diag), pgas::writes(b)});
}

void Offload::run_gemm(pgas::Rank& rank, int m, int n, int k, const double* a,
                       int lda, const double* b, int ldb, double* c, int ldc,
                       bool a_resident, bool b_resident) {
  run(rank, Call::gemm(m, n, k, a_resident, b_resident),
      [m, n, k, a, lda, b, ldb, c, ldc] {
        blas::gemm(blas::Trans::kNo, blas::Trans::kYes, m, n, k, 1.0, a, lda,
                   b, ldb, 0.0, c, ldc);
      },
      {pgas::reads(a), pgas::reads(b), pgas::writes(c)});
}

void Offload::run_trsm_left(pgas::Rank& rank, bool transposed, int n,
                            int nrhs, const double* diag, int ldd, double* x,
                            int ldx) {
  const auto trans = transposed ? blas::Trans::kYes : blas::Trans::kNo;
  run(rank, Call::trsm_left(n, nrhs),
      [trans, n, nrhs, diag, ldd, x, ldx] {
        blas::trsm(blas::Side::kLeft, blas::UpLo::kLower, trans,
                   blas::Diag::kNonUnit, n, nrhs, 1.0, diag, ldd, x, ldx);
      },
      {pgas::reads(diag), pgas::writes(x)});
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
