#include "core/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/factor.hpp"
#include "core/solve.hpp"
#include "core/taskrt/reliable.hpp"
#include "ordering/etree.hpp"
#include "sparse/permute.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"

namespace sympack::core {

CommOptions env_comm_options(CommOptions base) {
  base.eager_bytes =
      support::env_int("SYMPACK_EAGER_BYTES", base.eager_bytes);
  base.coalesce = support::env_bool("SYMPACK_COALESCE", base.coalesce);
  return base;
}

ResilienceOptions env_resilience_options(ResilienceOptions base) {
  base.buddy_replicas = static_cast<int>(
      support::env_int("SYMPACK_BUDDY_REPLICAS", base.buddy_replicas));
  base.detect_idle = static_cast<int>(
      support::env_int("SYMPACK_DETECT_IDLE", base.detect_idle));
  base.restart_delay_s =
      support::env_double("SYMPACK_RESTART_DELAY_S", base.restart_delay_s);
  base.max_recoveries = static_cast<int>(
      support::env_int("SYMPACK_MAX_RECOVERIES", base.max_recoveries));
  return base;
}

int rhs_panel_width(const SolveOptions& solve, int nrhs) {
  return solve.rhs_panel <= 0 ? nrhs : std::min(solve.rhs_panel, nrhs);
}

SolveOptions env_solve_options(SolveOptions base) {
  base.rhs_panel = static_cast<int>(
      support::env_int("SYMPACK_RHS_PANEL", base.rhs_panel));
  base.server_max_queue = static_cast<int>(
      support::env_int("SYMPACK_SOLVE_MAX_QUEUE", base.server_max_queue));
  return base;
}

TraceOptions env_trace_options(TraceOptions base) {
  base.metadata = support::env_bool("SYMPACK_TRACE_META", base.metadata);
  return base;
}

symbolic::SymbolicOptions env_symbolic_options(symbolic::SymbolicOptions base) {
  base.shard = support::env_bool("SYMPACK_SYMBOLIC_SHARD", base.shard);
  return base;
}

void validate_options(const SolverOptions& opts) {
  auto check = [](bool ok, const char* field, auto value, const char* range) {
    if (ok) return;
    std::ostringstream msg;
    msg << "SolverOptions: " << field << " = " << value
        << " is out of range (" << range << ")";
    throw std::invalid_argument(msg.str());
  };
  auto non_negative = [](double v) { return std::isfinite(v) && v >= 0.0; };
  const auto& sym = opts.symbolic;
  check(non_negative(sym.relax_ratio) && sym.relax_ratio <= 1.0,
        "symbolic.relax_ratio", sym.relax_ratio, "[0, 1]");
  check(sym.relax_small >= 0, "symbolic.relax_small", sym.relax_small, ">= 0");
  check(sym.max_width >= 0, "symbolic.max_width", sym.max_width,
        ">= 0, 0 = unlimited");
  const auto& gpu = opts.gpu;
  check(gpu.potrf_threshold >= 0, "gpu.potrf_threshold", gpu.potrf_threshold,
        ">= 0");
  check(gpu.trsm_threshold >= 0, "gpu.trsm_threshold", gpu.trsm_threshold,
        ">= 0");
  check(gpu.syrk_threshold >= 0, "gpu.syrk_threshold", gpu.syrk_threshold,
        ">= 0");
  check(gpu.gemm_threshold >= 0, "gpu.gemm_threshold", gpu.gemm_threshold,
        ">= 0");
  check(gpu.device_resident_threshold >= 0, "gpu.device_resident_threshold",
        gpu.device_resident_threshold, ">= 0");
  const auto& fault = opts.fault;
  check(fault.rerequest_idle_limit >= 1, "fault.rerequest_idle_limit",
        fault.rerequest_idle_limit, ">= 1");
  check(fault.max_rerequest_rounds >= 0, "fault.max_rerequest_rounds",
        fault.max_rerequest_rounds, ">= 0");
  const auto& rma = fault.rma_backoff;
  check(non_negative(rma.base_s), "fault.rma_backoff.base_s", rma.base_s,
        ">= 0");
  check(std::isfinite(rma.multiplier) && rma.multiplier >= 1.0,
        "fault.rma_backoff.multiplier", rma.multiplier, ">= 1");
  check(non_negative(rma.cap_s), "fault.rma_backoff.cap_s", rma.cap_s, ">= 0");
  check(non_negative(rma.jitter) && rma.jitter <= 1.0,
        "fault.rma_backoff.jitter", rma.jitter, "[0, 1]");
  check(rma.max_retries >= 0, "fault.rma_backoff.max_retries",
        rma.max_retries, ">= 0");
  const auto& res = opts.resilience;
  check(res.buddy_replicas == 0 || res.buddy_replicas == 1,
        "resilience.buddy_replicas", res.buddy_replicas, "0 or 1");
  check(res.detect_idle >= 1, "resilience.detect_idle", res.detect_idle,
        ">= 1");
  check(non_negative(res.restart_delay_s), "resilience.restart_delay_s",
        res.restart_delay_s, ">= 0");
  check(res.max_recoveries >= 0, "resilience.max_recoveries",
        res.max_recoveries, ">= 0");
  // Eager payload sizes travel in a 32-bit signal field.
  check(opts.comm.eager_bytes >= 0 &&
            opts.comm.eager_bytes <= std::numeric_limits<std::uint32_t>::max(),
        "comm.eager_bytes", opts.comm.eager_bytes, "[0, 2^32 - 1], 0 = off");
  check(opts.solve.rhs_panel >= 0, "solve.rhs_panel", opts.solve.rhs_panel,
        ">= 0, 0 = unbounded");
  check(opts.solve.server_max_queue >= 0, "solve.server_max_queue",
        opts.solve.server_max_queue, ">= 0, 0 = unlimited");
}

Policy parse_policy(const std::string& name) {
  if (name == "fifo") return Policy::kFifo;
  if (name == "lifo") return Policy::kLifo;
  if (name == "priority" || name == "prio") return Policy::kPriority;
  if (name == "critical-path" || name == "critical") {
    return Policy::kCriticalPath;
  }
  if (name == "auto") return Policy::kAuto;
  throw std::invalid_argument("unknown scheduling policy: " + name);
}

std::string policy_name(Policy p) {
  switch (p) {
    case Policy::kFifo: return "fifo";
    case Policy::kLifo: return "lifo";
    case Policy::kPriority: return "priority";
    case Policy::kCriticalPath: return "critical-path";
    case Policy::kAuto: return "auto";
  }
  return "?";
}

Variant parse_variant(const std::string& name) {
  if (name == "fan-out" || name == "fanout") return Variant::kFanOut;
  if (name == "fan-in" || name == "fanin") return Variant::kFanIn;
  throw std::invalid_argument("unknown variant: " + name);
}

std::string variant_name(Variant v) {
  return v == Variant::kFanOut ? "fan-out" : "fan-in";
}

SymPackSolver::SymPackSolver(pgas::Runtime& rt, SolverOptions opts)
    : rt_(&rt), opts_(opts) {
  opts_.comm = env_comm_options(opts_.comm);
  opts_.resilience = env_resilience_options(opts_.resilience);
  opts_.solve = env_solve_options(opts_.solve);
  opts_.trace = env_trace_options(opts_.trace);
  opts_.symbolic = env_symbolic_options(opts_.symbolic);
  validate_options(opts_);
}

SymPackSolver::~SymPackSolver() = default;

void SymPackSolver::symbolic_factorize(const sparse::CscMatrix& a) {
  using support::WallClock;

  double t0 = WallClock::now();
  perm_ = ordering::compute_ordering(a, opts_.ordering);
  a_perm_ = sparse::permute_symmetric(a, perm_);
  report_.ordering_wall_s = WallClock::now() - t0;

  // Resolve Policy::kAuto before the symbolic analysis consumes the
  // (possibly retuned) split width: run cheap protocol-only pilot
  // factorizations on fresh runtimes with the same cluster shape and
  // adopt the policy/width — and, when a pilot measured them strictly
  // faster, the block-to-process mapping and GPU offload thresholds —
  // with the shortest simulated makespan (core/autotune.hpp). The pilots
  // run fault-free with ranks stepped sequentially — they tune the
  // healthy schedule, not a particular injected failure pattern or
  // thread timing. The adoption happens before the Mapping and Offload
  // below are constructed, so the real factorization runs exactly the
  // winning pilot's configuration.
  if (opts_.policy == Policy::kAuto) {
    auto_choice_ = std::make_unique<AutoTuneChoice>(
        autotune_schedule(rt_->config(), a_perm_, opts_));
    opts_.policy = auto_choice_->policy;
    opts_.symbolic.max_width = auto_choice_->max_width;
    opts_.mapping = auto_choice_->mapping;
    opts_.gpu = auto_choice_->gpu;
  }

  t0 = WallClock::now();
  const auto parent = ordering::elimination_tree(a_perm_);
  // Sharded runs parallelize the analysis across the ranks (cyclic panel
  // slices; the per-rank work/exchange attribution lands in sym_stats_).
  // Replicated runs keep the serial prologue every rank repeats.
  sym_stats_ = symbolic::AnalyzeStats{};
  sym_ = symbolic::analyze(a_perm_, parent, opts_.symbolic,
                           opts_.symbolic.shard ? rt_->nranks() : 0,
                           &sym_stats_);
  auto mapping = std::make_shared<const symbolic::Mapping>(
      opts_.mapping == symbolic::Mapping::Kind::kProportional
          ? symbolic::Mapping::proportional(rt_->nranks(), sym_)
          : symbolic::Mapping(rt_->nranks(), opts_.mapping));
  tg_ = std::make_unique<symbolic::TaskGraph>(sym_, std::move(mapping),
                                              opts_.variant);
  view_ = opts_.symbolic.shard
              ? std::make_unique<symbolic::SymbolicView>(
                    *tg_, rt_->model(), rt_->nranks(), sym_stats_)
              : std::make_unique<symbolic::SymbolicView>(*tg_,
                                                         sym_stats_.wall_s);
  store_ = std::make_unique<BlockStore>(*tg_, *rt_, opts_.numeric);
  offload_ = std::make_unique<Offload>(opts_.gpu, *rt_, opts_.numeric);
  report_.symbolic_wall_s = WallClock::now() - t0;
  seed_symbolic_counters();

  report_.n = a.n();
  report_.matrix_nnz = a.nnz_stored();
  report_.factor_nnz = sym_.factor_nnz();
  report_.factor_flops = sym_.flops();
  report_.num_supernodes = sym_.num_snodes();
  report_.num_blocks = store_->num_blocks();
  factorized_ = false;
}

void SymPackSolver::factorize() {
  if (!tg_) {
    throw std::logic_error("factorize() requires symbolic_factorize()");
  }
  const double t0 = support::WallClock::now();
  store_->assemble(a_perm_);
  rt_->reset_clocks();
  rt_->reset_stats();
  seed_symbolic_counters();
  offload_->reset_counters();

  // Arm the resilience layer: fresh buddy replicas + completed-block
  // ledger per numeric factorization (refactorize starts clean).
  RecoveryContext* rec = nullptr;
  if (opts_.resilience.buddy_replicas > 0) {
    ckpt_ = std::make_unique<CheckpointStore>(
        *rt_, *store_, opts_.resilience.buddy_replicas, tracer_);
    rec_ = RecoveryContext{};
    rec_.ckpt = ckpt_.get();
    rec_.complete.assign(static_cast<std::size_t>(store_->num_blocks()), 0);
    rec = &rec_;
  }

  // A confirmed rank death unwinds the engine; run_recoverable
  // resurrects the victim, restores its completed panels from the
  // buddies, re-assembles the incomplete blocks, and re-drives with the
  // completed sub-DAG cut out (rec_ tells the fresh engine what is done).
  try {
    run_recoverable([&] {
      FactorEngine engine(*rt_, *tg_, *view_, *store_, *offload_, opts_,
                          tracer_, rec);
      engine.run();
    });
  } catch (const NotPositiveDefiniteError& e) {
    // The engines name the column in the factor's ordering.
    throw NotPositiveDefiniteError(perm_[e.column()]);
  }

  report_.factor_wall_s = support::WallClock::now() - t0;
  report_.factor_sim_s = rt_->max_clock();
  report_.rank0_ops = offload_->counts(0);
  report_.total_ops = offload_->total_counts();
  report_.comm = rt_->total_stats();
  report_.gpu_fallbacks = offload_->fallbacks();
  report_.peak_memory_bytes = rt_->peak_bytes();
  factorized_ = true;
}

void SymPackSolver::refactorize(const sparse::CscMatrix& a) {
  if (!tg_) {
    throw std::logic_error("refactorize() requires symbolic_factorize()");
  }
  if (a.n() != a_perm_.n()) {
    throw std::invalid_argument(
        "refactorize: dimension differs from the analyzed matrix");
  }
  sparse::CscMatrix a_perm = sparse::permute_symmetric(a, perm_);
  if (a_perm.colptr() != a_perm_.colptr() ||
      a_perm.rowind() != a_perm_.rowind()) {
    throw std::invalid_argument(
        "refactorize: sparsity pattern differs from the analyzed matrix");
  }
  a_perm_ = std::move(a_perm);
  factorize();
}

std::vector<double> SymPackSolver::solve(const std::vector<double>& b,
                                         int nrhs) {
  if (!factorized_) throw std::logic_error("solve() requires factorize()");
  const auto n = static_cast<std::size_t>(sym_.n());
  if (b.size() != n * static_cast<std::size_t>(nrhs)) {
    throw std::invalid_argument("solve: rhs size mismatch");
  }

  // Permute the right-hand sides into the factor's ordering.
  std::vector<double> b_perm(b.size());
  for (int c = 0; c < nrhs; ++c) {
    for (std::size_t k = 0; k < n; ++k) {
      b_perm[k + c * n] = b[static_cast<std::size_t>(perm_[k]) + c * n];
    }
  }

  const double t0 = support::WallClock::now();
  rt_->reset_clocks();
  // A kill landing in the solve phase unwinds the engine, the victim's
  // factor panels come back from the buddies (all blocks are complete
  // post-factorization), and the whole triangular solve re-runs on a
  // fresh engine: the failed attempt's partial sweeps die with it.
  std::vector<double> x_perm;
  run_recoverable([&] {
    SolveEngine engine(*rt_, *tg_, *view_, *store_, *offload_, opts_,
                       tracer_);
    x_perm = engine.solve(b_perm, nrhs);
  });
  report_.solve_wall_s = support::WallClock::now() - t0;
  report_.solve_sim_s = rt_->max_clock();
  // Fold solve-phase ops and comm into the report totals.
  report_.rank0_ops = offload_->counts(0);
  report_.total_ops = offload_->total_counts();
  report_.comm = rt_->total_stats();

  // Un-permute the solution.
  std::vector<double> x(b.size());
  for (int c = 0; c < nrhs; ++c) {
    for (std::size_t k = 0; k < n; ++k) {
      x[static_cast<std::size_t>(perm_[k]) + c * n] = x_perm[k + c * n];
    }
  }
  return x;
}

SymPackSolver::RefinedSolve SymPackSolver::solve_refined(
    const std::vector<double>& b, int nrhs, int max_iterations,
    double tolerance) {
  RefinedSolve result;
  result.x = solve(b, nrhs);
  const auto n = static_cast<std::size_t>(sym_.n());

  auto residual_norms = [&](const std::vector<double>& x,
                            std::vector<double>& r) {
    // r = b - A x per RHS; returns the worst relative 2-norm.
    double worst = 0.0;
    std::vector<double> ax(n);
    for (int c = 0; c < nrhs; ++c) {
      // A is held permuted; apply P^T A P through the permutation.
      std::vector<double> xp(n);
      for (std::size_t k = 0; k < n; ++k) {
        xp[k] = x[static_cast<std::size_t>(perm_[k]) + c * n];
      }
      a_perm_.symv(xp.data(), ax.data());
      double rr = 0.0, bb = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double bv = b[static_cast<std::size_t>(perm_[k]) + c * n];
        const double rv = bv - ax[k];
        r[static_cast<std::size_t>(perm_[k]) + c * n] = rv;
        rr += rv * rv;
        bb += bv * bv;
      }
      worst = std::max(worst, bb > 0 ? std::sqrt(rr / bb) : std::sqrt(rr));
    }
    return worst;
  };

  std::vector<double> r(b.size());
  result.residual = residual_norms(result.x, r);
  for (int it = 0; it < max_iterations && result.residual > tolerance; ++it) {
    const auto dx = solve(r, nrhs);
    std::vector<double> candidate = result.x;
    for (std::size_t i = 0; i < candidate.size(); ++i) candidate[i] += dx[i];
    std::vector<double> r2(b.size());
    const double improved = residual_norms(candidate, r2);
    if (improved >= result.residual) break;  // stagnated
    result.x = std::move(candidate);
    r = std::move(r2);
    result.residual = improved;
    ++result.iterations;
  }
  return result;
}

std::vector<double> SymPackSolver::dense_factor() const {
  if (!factorized_) {
    throw std::logic_error("dense_factor() requires factorize()");
  }
  return store_->to_dense_lower();
}

void SymPackSolver::seed_symbolic_counters() {
  if (!view_) return;
  // The view keeps the cumulative per-rank truth (build share, resident
  // footprint, pulls); the CommStats mirror is re-seeded from it after
  // every reset so the invariant stats == view accessors always holds —
  // touch() bumps both sides by the same amounts during a run.
  for (int r = 0; r < rt_->nranks(); ++r) {
    auto& s = rt_->rank(r).stats();
    s.symbolic_build_us =
        static_cast<std::uint64_t>(view_->build_seconds(r) * 1e6);
    s.symbolic_bytes =
        static_cast<std::uint64_t>(view_->resident_bytes(r));
    s.symbolic_pull_rpcs = view_->pull_rpcs(r);
  }
}

void SymPackSolver::run_recoverable(const std::function<void()>& phase) {
  for (int attempt = 0;; ++attempt) {
    try {
      phase();
      return;
    } catch (const pgas::RankDeathError& e) {
      if (ckpt_ == nullptr || attempt >= opts_.resilience.max_recoveries) {
        throw;
      }
      recover_from_death(e);
      ++rec_.attempt;
    }
  }
}

void SymPackSolver::recover_from_death(const pgas::RankDeathError& e) {
  // Drop every in-flight RPC: the parked lambdas capture the failed
  // attempt's engine and must never run inside the next attempt.
  rt_->purge_inboxes();
  pgas::Rank& dead = rt_->rank(e.dead_rank);
  dead.resurrect(rt_->max_clock() + opts_.resilience.restart_delay_s);

  // The victim's memory is gone with the process: wipe its completed
  // blocks and pull the buddy replicas back (the charge lands on the
  // resurrected rank — restart cost is part of the makespan). Blocks
  // nobody finished — any owner — are re-zeroed and re-scattered from A
  // so the re-driven tasks fold updates into pristine panels.
  support::Xoshiro256 rng(rt_->config().faults.seed ^ 0x9e3779b97f4a7c15ull);
  const idx_t nb = store_->num_blocks();
  std::vector<char> select(static_cast<std::size_t>(nb), 0);
  for (idx_t bid = 0; bid < nb; ++bid) {
    if (rec_.complete[static_cast<std::size_t>(bid)] != 0) {
      if (store_->owner(bid) != e.dead_rank) continue;
      if (store_->numeric()) {
        std::memset(store_->data(bid), 0, store_->bytes(bid));
      }
      taskrt::with_rma_retry(dead, opts_.fault.rma_backoff, rng, tracer_,
                             [&] {
                               ckpt_->restore(dead, bid);
                               return dead.now();
                             });
    } else {
      select[static_cast<std::size_t>(bid)] = 1;
      ++rt_->rank(store_->owner(bid)).stats().blocks_reassembled;
    }
  }
  store_->assemble_subset(a_perm_, select);
}

const BlockStore& SymPackSolver::block_store() const {
  if (!factorized_) {
    throw std::logic_error("block_store() requires factorize()");
  }
  return *store_;
}

}  // namespace sympack::core
