// bench_e2e: the end-to-end benchmark of the default solver pipeline.
//
// Four workloads run through the public API the way a user runs the
// solver: the raw matrix goes in, and ordering, analysis, factorization
// and solve come out. Each run is one process on one thread (the
// sequential driver). Every rep builds a fresh runtime and solver. Host
// metrics are medians over the timed reps. Simulated-clock metrics are
// deterministic. One extra traced rep, plus a replay of the
// factorization's dense kernels on the workload's own shapes, gives the
// per-layer numbers. README.md describes the workloads, the metrics and
// their bounds.
//
//   bench_e2e [--json PATH] [--seed S] [--reps 5]
//       all four workloads, one warm-up round, then interleaved rounds
//   bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//       one workload; timed reps fill T seconds (at least 3)
//   bench_e2e --smoke --benchmark-json BENCHMARK.json
//       all four at scale 0.05 with P/16 ranks, one rep; also checks the
//       emitted metric names and units against BENCHMARK.json
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Exit 0 when every check passed, 1 when
// one failed, 2 on a usage or environment error.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "core/critpath.hpp"
#include "core/solve_server.hpp"
#include "core/solver.hpp"
#include "pgas/runtime.hpp"
#include "sparse/generators.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

extern char** environ;

namespace {

using namespace sympack;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kDefaultSeed = 0x7e37a1;
constexpr double kResidualCeiling = 1e-10;
constexpr double kPathTolerance = 1e-9;
constexpr int kMinTimedReps = 3;
// A timed rep repeats a phase shorter than this and keeps its median call,
// so a short phase (setup at P=8; factor and solve when protocol-only) is
// more than one noisy sample per rep. --smoke uses a twentieth of it.
constexpr double kMinPhaseSeconds = 1.0;

enum class Proxy { kFlan, kBones, kThermal };

struct Workload {
  const char* name;
  Proxy proxy;
  int nranks;
  bool numeric;
  bool shard;     // SolverOptions::symbolic.shard
  bool autotune;  // SolverOptions::policy = auto
  int nrhs;       // columns per solve() or per SolveServer::submit()
  int submits;    // 0: one solve(); otherwise this many submits + drain()
};

// Why each workload is here is in README.md; every other SolverOptions
// field keeps its default, so default changes show up as gains.
constexpr std::array<Workload, 4> kWorkloads{{
    {"factor-flan-8", Proxy::kFlan, 8, true, false, false, 8, 0},
    {"scale-thermal-1024", Proxy::kThermal, 1024, false, true, false, 2, 0},
    {"autotune-flan-64", Proxy::kFlan, 64, false, false, true, 1, 0},
    {"serve-bones-8", Proxy::kBones, 8, true, false, false, 2, 16},
}};

// ---------------------------------------------------------------- checks

// Counts operations and checks; every failure also goes to stderr.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  bool check(bool ok, const std::string& workload, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "bench_e2e: FAILED [%s] %s\n", workload.c_str(),
                   what.c_str());
    }
    return ok;
  }

  // Runs one solver call; an exception counts as a failed operation.
  bool call(const std::string& workload, const char* what,
            const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      return check(false, workload, std::string(what) + " threw: " + e.what());
    }
    return check(true, workload, what);
  }
};

bool close_rel(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max(std::abs(a), std::abs(b));
}

std::uint64_t recovery_events(const pgas::CommStats& s) {
  std::uint64_t total = 0;
#define SYMPACK_RECOVERY_COUNTER(field, label, trace_name) total += s.field;
#include "core/taskrt/counters.def"
#undef SYMPACK_RECOVERY_COUNTER
  return total;
}

pgas::CommStats delta(const pgas::CommStats& before,
                      const pgas::CommStats& after) {
  pgas::CommStats d;
  d.rpcs_sent = after.rpcs_sent - before.rpcs_sent;
  d.gets = after.gets - before.gets;
  d.bytes_from_host = after.bytes_from_host - before.bytes_from_host;
  d.bytes_from_device = after.bytes_from_device - before.bytes_from_device;
  d.bytes_to_device = after.bytes_to_device - before.bytes_to_device;
  return d;
}

// Worst ||b - A x|| / ||b|| over the columns of one solve.
double max_residual(const sparse::CscMatrix& a, const std::vector<double>& b,
                    const std::vector<double>& x, int ncols) {
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> ax(n);
  double worst = 0.0;
  for (int c = 0; c < ncols; ++c) {
    const double* bc = b.data() + c * n;
    a.symv(x.data() + c * n, ax.data());
    double rr = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rr += (bc[i] - ax[i]) * (bc[i] - ax[i]);
      bb += bc[i] * bc[i];
    }
    worst = std::max(worst, std::sqrt(rr / bb));
  }
  return worst;
}

// ---------------------------------------------------------------- inputs

struct Problem {
  Workload spec;
  sparse::CscMatrix a;
  std::vector<std::vector<double>> rhs;  // one n x nrhs block per call
};

Problem make_problem(const Workload& w, double scale, int rank_divisor,
                     std::uint64_t seed) {
  Problem p{w, {}, {}};
  p.spec.nranks = std::max(2, w.nranks / rank_divisor);
  switch (w.proxy) {
    case Proxy::kFlan: p.a = sparse::flan_proxy(scale); break;
    case Proxy::kBones: p.a = sparse::bones_proxy(scale); break;
    case Proxy::kThermal: p.a = sparse::thermal_proxy(scale); break;
  }
  // The seed draws only the right-hand sides. Drawing the thermal
  // matrix's irregular edges from it too would move factor_sim_s by up to
  // 10% between seeds, far past that metric's 1% bound.
  support::Xoshiro256 rng(seed);
  const auto n = static_cast<std::size_t>(p.a.n());
  for (int call = 0; call < std::max(1, w.submits); ++call) {
    std::vector<double> b(n * static_cast<std::size_t>(w.nrhs));
    for (double& v : b) v = rng.next_in(-1.0, 1.0);
    p.rhs.push_back(std::move(b));
  }
  return p;
}

pgas::Runtime::Config cluster(int nranks) {
  pgas::Runtime::Config cfg;  // threaded stays false: one OS thread
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 4ull << 30;
  return cfg;
}

// ---------------------------------------------------------- kernel replay

// The factorization's dense kernel calls (potrf per supernode, trsm per
// block, syrk per block, gemm per block pair), replayed on the host with
// the solver's shapes and layouts, and the solve's calls at the run's
// panel widths. Index order is gpu::Op's: gemm, syrk, trsm, potrf.
struct Replay {
  std::array<double, 4> seconds{};
  std::array<double, 4> flops{};
  std::array<std::uint64_t, 4> calls{};
  double solve_seconds = 0.0;

  [[nodiscard]] double factor_seconds() const {
    return seconds[0] + seconds[1] + seconds[2] + seconds[3];
  }
  [[nodiscard]] double factor_flops() const {
    return flops[0] + flops[1] + flops[2] + flops[3];
  }
};

enum Op { kGemm = 0, kSyrk = 1, kTrsm = 2, kPotrf = 3 };

// Counts (and, when `timed`, runs and times) the replay.
Replay replay_kernels(const symbolic::Symbolic& sym,
                      const std::vector<int>& sweep_widths, bool timed) {
  using sparse::idx_t;
  Replay r;
  idx_t max_w = 1, max_b = 1, max_m = 1;
  for (const auto& sn : sym.snodes()) {
    max_w = std::max(max_w, sn.width());
    max_b = std::max(max_b, sn.nrows_below());
    for (const auto& blk : sn.blocks) max_m = std::max(max_m, blk.nrows);
  }
  for (const auto& sn : sym.snodes()) {
    const int w = static_cast<int>(sn.width());
    ++r.calls[kPotrf];
    r.flops[kPotrf] += static_cast<double>(blas::potrf_flops(w));
    for (std::size_t i = 0; i < sn.blocks.size(); ++i) {
      const int mi = static_cast<int>(sn.blocks[i].nrows);
      ++r.calls[kTrsm];
      r.flops[kTrsm] +=
          static_cast<double>(blas::trsm_flops(blas::Side::kRight, mi, w));
      ++r.calls[kSyrk];
      r.flops[kSyrk] += static_cast<double>(blas::syrk_flops(mi, w));
      for (std::size_t j = 0; j < i; ++j) {
        const int mj = static_cast<int>(sn.blocks[j].nrows);
        ++r.calls[kGemm];
        r.flops[kGemm] += static_cast<double>(blas::gemm_flops(mi, mj, w));
      }
    }
  }
  if (!timed) return r;

  // Operand templates: a diagonally dominant SPD diagonal block, its
  // factor (for the solve), and bounded panel entries.
  support::Xoshiro256 rng(42);
  const auto mw = static_cast<std::size_t>(max_w);
  std::vector<double> spd(mw * mw), chol;
  for (std::size_t j = 0; j < mw; ++j) {
    for (std::size_t i = 0; i < mw; ++i) {
      spd[i + j * mw] = i == j ? static_cast<double>(mw) + 1.0
                               : 0.5 / (1.0 + static_cast<double>(
                                                  i > j ? i - j : j - i));
    }
  }
  chol = spd;
  const int ld = static_cast<int>(max_w);
  (void)blas::potrf(blas::UpLo::kLower, ld, chol.data(), ld);
  std::vector<double> panel_src(static_cast<std::size_t>(max_b) * mw);
  for (double& v : panel_src) v = rng.next_in(-1.0, 1.0);
  std::vector<double> diag(mw * mw), panel(panel_src.size());
  std::vector<double> scratch(static_cast<std::size_t>(max_m) * max_m);

  auto timed_call = [](double& acc, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    acc += since(t0);
  };
  for (const auto& sn : sym.snodes()) {
    const int w = static_cast<int>(sn.width());
    for (int j = 0; j < w; ++j) {
      std::copy_n(spd.data() + j * mw, w, diag.data() + j * w);
    }
    timed_call(r.seconds[kPotrf], [&] {
      (void)blas::potrf(blas::UpLo::kLower, w, diag.data(), w);
    });
    // The solver stores each block contiguously (m x w, leading dim m).
    std::copy_n(panel_src.data(),
                static_cast<std::size_t>(sn.nrows_below()) * w, panel.data());
    std::vector<double*> block(sn.blocks.size());
    std::size_t off = 0;
    for (std::size_t i = 0; i < sn.blocks.size(); ++i) {
      const int mi = static_cast<int>(sn.blocks[i].nrows);
      block[i] = panel.data() + off;
      off += static_cast<std::size_t>(mi) * w;
      timed_call(r.seconds[kTrsm], [&] {
        blas::trsm(blas::Side::kRight, blas::UpLo::kLower, blas::Trans::kYes,
                   blas::Diag::kNonUnit, mi, w, 1.0, diag.data(), w, block[i],
                   mi);
      });
    }
    for (std::size_t i = 0; i < sn.blocks.size(); ++i) {
      const int mi = static_cast<int>(sn.blocks[i].nrows);
      std::fill_n(scratch.data(), static_cast<std::size_t>(mi) * mi, 0.0);
      timed_call(r.seconds[kSyrk], [&] {
        blas::syrk(blas::UpLo::kLower, blas::Trans::kNo, mi, w, -1.0,
                   block[i], mi, 1.0, scratch.data(), mi);
      });
      for (std::size_t j = 0; j < i; ++j) {
        const int mj = static_cast<int>(sn.blocks[j].nrows);
        timed_call(r.seconds[kGemm], [&] {
          blas::gemm(blas::Trans::kNo, blas::Trans::kYes, mi, mj, w, 1.0,
                     block[i], mi, block[j], mj, 0.0, scratch.data(), mi);
        });
      }
    }
  }

  // Solve: per sweep of width pw, a forward and a backward diagonal trsm
  // per supernode and a forward and a backward gemm per block.
  int max_pw = 1;
  for (int pw : sweep_widths) max_pw = std::max(max_pw, pw);
  std::vector<double> x(mw * max_pw, 1.0), z(static_cast<std::size_t>(
                                                 std::max(max_m, max_w)) *
                                             max_pw);
  std::vector<double> xm(static_cast<std::size_t>(max_m) * max_pw, 1.0);
  for (int pw : sweep_widths) {
    for (const auto& sn : sym.snodes()) {
      const int w = static_cast<int>(sn.width());
      for (auto trans : {blas::Trans::kNo, blas::Trans::kYes}) {
        timed_call(r.solve_seconds, [&] {
          blas::trsm(blas::Side::kLeft, blas::UpLo::kLower, trans,
                     blas::Diag::kNonUnit, w, pw, 1.0, chol.data(), ld,
                     x.data(), w);
        });
      }
      std::size_t off = 0;
      for (const auto& blk : sn.blocks) {
        const int m = static_cast<int>(blk.nrows);
        const double* b = panel_src.data() + off;
        off += static_cast<std::size_t>(m) * w;
        timed_call(r.solve_seconds, [&] {
          blas::gemm(blas::Trans::kNo, blas::Trans::kNo, m, pw, w, 1.0, b, m,
                     x.data(), w, 0.0, z.data(), m);
          blas::gemm(blas::Trans::kYes, blas::Trans::kNo, w, pw, m, 1.0, b, m,
                     xm.data(), m, 0.0, z.data(), w);
        });
      }
    }
  }
  return r;
}

// ------------------------------------------------------------ one rep

// Host times are the median call of the rep's phase (see time_calls).
struct Rep {
  double setup_s = 0.0;
  double factor_wall_s = 0.0;
  double solve_wall_s = 0.0;
  double ordering_wall_s = 0.0;
  double symbolic_wall_s = 0.0;
  double autotune_wall_s = 0.0;  // setup - ordering - symbolic
  double factor_sim_s = 0.0;
  double solve_sim_s = 0.0;
  double peak_memory_bytes = 0.0;
  double max_residual = 0.0;
};

// What only the traced rep records.
struct Traced {
  core::Report factor_report;  // snapshot right after factorize()
  pgas::CommStats factor_comm, solve_comm, total_comm;
  core::CritPathReport factor_path, solve_path;
  std::size_t events = 0;
  int pilots = 0;
  double autotune_speedup = 1.0;
  core::SolveServer::Stats server{};
  std::uint64_t symbolic_peak_resident = 0;
  std::uint64_t symbolic_pulls = 0;
  Replay replay;
};

double median(const std::vector<double>& v) {
  return support::summarize(v).median;
}

// Calls fn() until the calls have taken min_seconds in all (at least
// once), running fresh() untimed before each call. Returns the seconds of
// each call; empty when a call threw.
std::vector<double> time_calls(Tally& tally, const std::string& workload,
                               const char* what, double min_seconds,
                               const std::function<void()>& fn,
                               const std::function<void()>& fresh = {}) {
  std::vector<double> calls;
  for (double spent = 0.0; calls.empty() || spent < min_seconds;) {
    if (fresh) fresh();
    const auto t0 = Clock::now();
    if (!tally.call(workload, what, fn)) return {};
    calls.push_back(since(t0));
    spent += calls.back();
  }
  return calls;
}

// One rep: setup, factor and solve on a fresh runtime + solver. A timed
// rep repeats a phase shorter than min_phase_s and keeps its median call;
// each setup call gets its own fresh runtime + solver. The traced rep runs
// each phase once. Returns false when a phase threw (the rest is skipped).
bool run_rep(const Problem& p, double min_phase_s, Tally& tally, Rep& out,
             Traced* traced) {
  const Workload& w = p.spec;
  const std::string name = w.name;
  const double min_s = traced == nullptr ? min_phase_s : 0.0;
  core::SolverOptions opts;
  opts.numeric = w.numeric;
  opts.symbolic.shard = w.shard;
  if (w.autotune) opts.policy = core::Policy::kAuto;
  if (traced != nullptr) opts.trace.metadata = true;
  // Declaration order is teardown order reversed: the solver goes first.
  core::Tracer factor_trace, solve_trace;
  std::unique_ptr<pgas::Runtime> rt;
  std::unique_ptr<core::SymPackSolver> solver;

  std::vector<double> ordering, symbolic;
  const auto setup = time_calls(
      tally, name, "symbolic_factorize", min_s,
      [&] {
        solver->symbolic_factorize(p.a);
        ordering.push_back(solver->report().ordering_wall_s);
        symbolic.push_back(solver->report().symbolic_wall_s);
      },
      [&] {
        solver.reset();
        rt = std::make_unique<pgas::Runtime>(cluster(w.nranks));
        solver = std::make_unique<core::SymPackSolver>(*rt, opts);
      });
  if (setup.empty()) return false;
  std::vector<double> autotune;
  for (std::size_t i = 0; i < setup.size(); ++i) {
    autotune.push_back(setup[i] - ordering[i] - symbolic[i]);
  }
  out.setup_s = median(setup);
  out.ordering_wall_s = median(ordering);
  out.symbolic_wall_s = median(symbolic);
  out.autotune_wall_s = median(autotune);

  if (traced != nullptr) solver->set_tracer(&factor_trace);
  const auto factor =
      time_calls(tally, name, "factorize", min_s, [&] { solver->factorize(); });
  if (factor.empty()) return false;
  out.factor_wall_s = median(factor);
  const core::Report factor_report = solver->report();
  const pgas::CommStats factor_comm = rt->total_stats();
  out.factor_sim_s = factor_report.factor_sim_s;
  out.peak_memory_bytes = static_cast<double>(factor_report.peak_memory_bytes);

  if (traced != nullptr) solver->set_tracer(&solve_trace);
  std::vector<std::vector<double>> xs;
  core::SolveServer::Stats server_stats{};
  std::vector<double> solve;
  if (w.submits == 0) {
    solve = time_calls(tally, name, "solve", min_s, [&] {
      xs.assign(1, solver->solve(p.rhs[0], w.nrhs));
    });
    out.solve_sim_s = solver->report().solve_sim_s;
  } else {
    solve = time_calls(tally, name, "SolveServer::drain", min_s, [&] {
      core::SolveServer server(*solver);
      for (const auto& b : p.rhs) {
        tally.check(server.submit(b, w.nrhs), name, "SolveServer::submit");
      }
      xs = server.drain();
      server_stats = server.stats();
    });
    out.solve_sim_s = server_stats.serve_sim_s;
  }
  if (solve.empty()) return false;
  out.solve_wall_s = median(solve);
  solver->set_tracer(nullptr);
  const pgas::CommStats total_comm = rt->total_stats();

  if (w.numeric) {
    bool shapes_ok = xs.size() == p.rhs.size();
    for (std::size_t i = 0; shapes_ok && i < xs.size(); ++i) {
      shapes_ok = xs[i].size() == p.rhs[i].size();
      if (shapes_ok) {
        out.max_residual = std::max(
            out.max_residual, max_residual(p.a, p.rhs[i], xs[i], w.nrhs));
      }
    }
    tally.check(shapes_ok && out.max_residual <= kResidualCeiling, name,
                "relative residual " + std::to_string(out.max_residual) +
                    " above " + std::to_string(kResidualCeiling));
  }
  tally.check(recovery_events(total_comm) == 0 &&
                  factor_report.gpu_fallbacks == 0,
              name, "recovery counters or GPU fallbacks nonzero");
  const core::AutoTuneChoice* choice = solver->autotune_choice();
  if (w.autotune) {
    tally.check(choice != nullptr && choice->pilot_sim_s == out.factor_sim_s,
                name, "autotune pilot_sim_s differs from factor_sim_s");
  }
  if (traced == nullptr) return true;

  Traced& t = *traced;
  t.factor_report = factor_report;
  t.factor_comm = factor_comm;
  t.solve_comm = delta(factor_comm, total_comm);
  t.total_comm = total_comm;
  t.events = factor_trace.size() + solve_trace.size();
  t.factor_path = core::CritPathAnalyzer(factor_trace.events()).analyze();
  t.solve_path = core::CritPathAnalyzer(solve_trace.events()).analyze();
  t.server = server_stats;
  if (choice != nullptr) {
    t.pilots = static_cast<int>(choice->candidates.size());
    t.autotune_speedup = choice->default_sim_s / choice->pilot_sim_s;
  }
  for (int r = 0; r < w.nranks; ++r) {
    t.symbolic_peak_resident = std::max(
        t.symbolic_peak_resident, solver->symbolic_view().resident_bytes(r));
    t.symbolic_pulls += solver->symbolic_view().pull_rpcs(r);
  }
  auto path_sum = [](const core::CritPathReport& cp) {
    return cp.path.compute() + cp.path.comm + cp.path.wait;
  };
  tally.check(close_rel(path_sum(t.factor_path), out.factor_sim_s,
                        kPathTolerance),
              name, "factor critical-path breakdown does not sum to "
                    "factor_sim_s");
  tally.check(close_rel(path_sum(t.solve_path), out.solve_sim_s,
                        kPathTolerance),
              name, "solve critical-path breakdown does not sum to "
                    "solve_sim_s");

  // Sweep widths exactly as the solve engine and the server panel them.
  const int columns = w.nrhs * std::max(1, w.submits);
  const int per_call = w.submits == 0 ? w.nrhs : columns;
  const int conf = solver->options().solve.rhs_panel;
  const int pw = conf <= 0 ? per_call : std::min(conf, per_call);
  std::vector<int> widths;
  for (int c0 = 0; c0 < per_call; c0 += pw) {
    widths.push_back(std::min(pw, per_call - c0));
  }
  t.replay = replay_kernels(solver->symbolic(), widths, w.numeric);
  bool calls_ok = true;
  for (std::size_t op = 0; op < 4; ++op) {
    calls_ok = calls_ok && t.replay.calls[op] ==
                               factor_report.total_ops.cpu[op] +
                                   factor_report.total_ops.gpu[op];
  }
  tally.check(calls_ok && t.replay.factor_flops() == factor_report.factor_flops,
              name, "replayed kernel calls/flops differ from the Report");
  return true;
}

// --------------------------------------------------------------- metrics

enum class Tier { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  std::string unit;
  Tier tier;
  std::vector<double> samples;  // timed reps for host metrics, else one
  bool host = false;

  [[nodiscard]] double value() const {
    return host ? median(samples) : samples.front();
  }
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct WorkloadRun {
  Problem problem;
  std::vector<Rep> reps;  // timed reps only
  Traced traced;
  bool traced_ok = false;
  std::vector<Metric> metrics;
};

void build_metrics(WorkloadRun& run) {
  const Workload& w = run.problem.spec;
  auto& m = run.metrics;
  m.clear();
  auto host = [&](const char* name, const char* unit, Tier tier,
                  const std::function<double(const Rep&)>& f) {
    Metric x{name, unit, tier, {}, true};
    for (const Rep& r : run.reps) x.samples.push_back(f(r));
    m.push_back(std::move(x));
  };
  auto value = [&](const std::string& name, const char* unit, Tier tier,
                   double v) { m.push_back(Metric{name, unit, tier, {v}}); };
  auto rep_median = [&](const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : run.reps) v.push_back(f(r));
    return median(v);
  };
  if (run.reps.empty()) return;
  const Rep& first = run.reps.front();

  constexpr auto E = Tier::kEndToEnd;
  constexpr auto L = Tier::kLayer;
  constexpr auto I = Tier::kInfo;
  // factor and solve wall times are per-layer (core.factor / core.solve):
  // alone they drift up to 26% between runs on a shared host, too wide to
  // gate; time_to_solution_s gates host time as a whole.
  host("setup_s", "s", E, [](const Rep& r) { return r.setup_s; });
  host("time_to_solution_s", "s", E, [](const Rep& r) {
    return r.setup_s + r.factor_wall_s + r.solve_wall_s;
  });
  value("factor_sim_s", "sim_s", E, first.factor_sim_s);
  value("solve_sim_s", "sim_s", E, first.solve_sim_s);
  value("peak_memory_bytes", "bytes", E, first.peak_memory_bytes);
  if (w.numeric) {
    double worst = 0.0;
    for (const Rep& r : run.reps) worst = std::max(worst, r.max_residual);
    value("max_residual", "ratio", I, worst);
  }

  const double factor_wall = rep_median([](const Rep& r) { return r.factor_wall_s; });
  const double solve_wall = rep_median([](const Rep& r) { return r.solve_wall_s; });
  host("ordering.wall_s", "s", L,
       [](const Rep& r) { return r.ordering_wall_s; });
  host("symbolic.wall_s", "s", L,
       [](const Rep& r) { return r.symbolic_wall_s; });
  host("core.autotune.wall_s", "s", L,
       [](const Rep& r) { return r.autotune_wall_s; });
  host("core.factor.wall_s", "s", L,
       [](const Rep& r) { return r.factor_wall_s; });
  host("core.solve.wall_s", "s", L,
       [](const Rep& r) { return r.solve_wall_s; });
  if (!run.traced_ok) return;

  const Traced& t = run.traced;
  const core::Report& rep = t.factor_report;
  value("ordering.factor_nnz", "count", L, static_cast<double>(rep.factor_nnz));
  value("symbolic.supernodes", "count", L,
        static_cast<double>(rep.num_supernodes));
  value("symbolic.blocks", "count", L, static_cast<double>(rep.num_blocks));
  value("symbolic.peak_resident_bytes", "bytes", L,
        static_cast<double>(t.symbolic_peak_resident));
  value("symbolic.pull_rpcs", "count", L,
        static_cast<double>(t.symbolic_pulls));

  const double autotune_wall =
      rep_median([](const Rep& r) { return r.autotune_wall_s; });
  value("core.autotune.pilots", "count", L, t.pilots);
  value("core.autotune.wall_per_pilot_s", "s", I,
        t.pilots > 0 ? autotune_wall / t.pilots : 0.0);
  value("core.autotune.speedup", "ratio", L, t.autotune_speedup);

  const Replay& rp = t.replay;
  static constexpr const char* kOps[4] = {"gemm", "syrk", "trsm", "potrf"};
  value("blas.factor_kernel_s", "s", I, rp.factor_seconds());
  for (int op : {kPotrf, kTrsm, kSyrk, kGemm}) {
    value(std::string("blas.") + kOps[op] + "_gflops", "GFLOP/s", L,
          rp.seconds[op] > 0 ? rp.flops[op] / rp.seconds[op] * 1e-9 : 0.0);
  }
  value("blas.factor_flops", "flop", L, rp.factor_flops());
  value("blas.solve_kernel_s", "s", I, rp.solve_seconds);

  for (int op : {kPotrf, kTrsm, kSyrk, kGemm}) {
    value(std::string("gpu.") + kOps[op] + "_gpu_calls", "count", L,
          static_cast<double>(rep.total_ops.gpu[op]));
    value(std::string("gpu.") + kOps[op] + "_cpu_calls", "count", L,
          static_cast<double>(rep.total_ops.cpu[op]));
  }
  value("gpu.fallbacks", "count", L, static_cast<double>(rep.gpu_fallbacks));
  value("pgas.factor.hd_copies", "count", L,
        static_cast<double>(t.factor_comm.hd_copies));

  const auto& fp = t.factor_path;
  const double factor_overhead = factor_wall - rp.factor_seconds();
  value("core.factor.tasks", "count", L, static_cast<double>(fp.num_spans));
  value("core.factor.path_potrf_s", "sim_s", L, fp.path.potrf);
  value("core.factor.path_trsm_s", "sim_s", L, fp.path.trsm);
  value("core.factor.path_update_s", "sim_s", L, fp.path.update);
  value("core.factor.path_comm_s", "sim_s", L, fp.path.comm);
  value("core.factor.path_wait_s", "sim_s", L, fp.path.wait);
  value("core.factor.utilization", "ratio", L,
        fp.busy_s / (static_cast<double>(w.nranks) * fp.makespan_s));
  value("core.factor.host_overhead_s", "s", L, factor_overhead);
  value("core.factor.host_us_per_task", "us", L,
        factor_overhead / static_cast<double>(fp.num_spans) * 1e6);

  const auto& sp = t.solve_path;
  const double solve_overhead = solve_wall - rp.solve_seconds;
  value("core.solve.tasks", "count", L, static_cast<double>(sp.num_spans));
  value("core.solve.path_compute_s", "sim_s", L, sp.path.compute());
  value("core.solve.path_comm_s", "sim_s", L, sp.path.comm);
  value("core.solve.path_wait_s", "sim_s", L, sp.path.wait);
  value("core.solve.host_overhead_s", "s", L, solve_overhead);

  value("core.solve_server.panels", "count", L,
        static_cast<double>(t.server.panels));
  value("core.solve_server.columns_per_panel", "columns", L,
        t.server.panels > 0 ? static_cast<double>(t.server.columns) /
                                  static_cast<double>(t.server.panels)
                            : 0.0);
  value("core.solve_server.overlapped", "count", L,
        static_cast<double>(t.server.overlapped));

  const auto& fc = t.factor_comm;
  const auto& sc = t.solve_comm;
  value("pgas.factor.rpcs", "count", L, static_cast<double>(fc.rpcs_sent));
  value("pgas.factor.gets", "count", L, static_cast<double>(fc.gets));
  value("pgas.factor.bytes", "bytes", L, static_cast<double>(fc.total_bytes()));
  value("pgas.factor.bytes_to_device", "bytes", L,
        static_cast<double>(fc.bytes_to_device));
  value("pgas.factor.eager_sends", "count", L,
        static_cast<double>(fc.eager_sends));
  value("pgas.factor.coalesced_signals", "count", L,
        static_cast<double>(fc.coalesced_signals));
  value("pgas.solve.rpcs", "count", L, static_cast<double>(sc.rpcs_sent));
  value("pgas.solve.gets", "count", L, static_cast<double>(sc.gets));
  value("pgas.solve.bytes", "bytes", L, static_cast<double>(sc.total_bytes()));
  const auto& tc = t.total_comm;
  const double pool = static_cast<double>(tc.pool_hits + tc.pool_misses);
  value("pgas.pool_hit_rate", "ratio", L,
        pool > 0 ? static_cast<double>(tc.pool_hits) / pool : 0.0);
  const double rpcs = static_cast<double>(fc.rpcs_sent + sc.rpcs_sent);
  value("pgas.host_us_per_rpc", "us", L,
        rpcs > 0 ? (factor_overhead + solve_overhead) / rpcs * 1e6 : 0.0);
  value("pgas.recovery_events", "count", L,
        static_cast<double>(recovery_events(tc)));

  value("trace.events", "count", L, static_cast<double>(t.events));
  value("trace.factor_overhead", "ratio", L,
        t.factor_report.factor_wall_s / factor_wall);
}

// "metric": {"value": v, "unit": u} pairs of one tier, for the result line.
std::string result_line(const Tally& tally, const std::vector<Metric>& ms,
                        Tier tier) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : ms) {
    if (x.tier != tier) continue;
    os << (first ? "" : ", ") << '"' << support::json_escape(x.name)
       << "\": {\"value\": " << num(x.value()) << ", \"unit\": \""
       << support::json_escape(x.unit) << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const Metric& x : ms) {
    os << (first ? "" : ",") << "\n      \"" << support::json_escape(x.name)
       << "\": {\"unit\": \"" << support::json_escape(x.unit) << '"';
    if (x.host) {
      const auto s = support::summarize(x.samples);
      os << ", \"median\": " << num(s.median) << ", \"min\": " << num(s.min)
         << ", \"max\": " << num(s.max) << ", \"n\": " << s.count
         << ", \"samples\": [";
      for (std::size_t i = 0; i < x.samples.size(); ++i) {
        os << (i ? ", " : "") << num(x.samples[i]);
      }
      os << ']';
    } else {
      os << ", \"value\": " << num(x.value());
    }
    os << '}';
    first = false;
  }
  os << "\n    }";
  return os.str();
}

void print_table(const WorkloadRun& run) {
  std::printf("== %s (n=%lld, P=%d)\n", run.problem.spec.name,
              static_cast<long long>(run.problem.a.n()),
              run.problem.spec.nranks);
  for (const Metric& x : run.metrics) {
    if (x.host) {
      const auto s = support::summarize(x.samples);
      std::printf("  %-36s %14.6g %-8s (min %.6g, max %.6g, n=%zu)\n",
                  x.name.c_str(), s.median, x.unit.c_str(), s.min, s.max,
                  s.count);
    } else {
      std::printf("  %-36s %14.6g %s\n", x.name.c_str(), x.value(),
                  x.unit.c_str());
    }
  }
}

// "name [unit]" of each metric declared in one array ("end_to_end" or
// "per_layer") of BENCHMARK.json.
std::set<std::string> declared_metrics(const std::string& text,
                                       const std::string& key) {
  std::set<std::string> names;
  const auto at = text.find('"' + key + '"');
  if (at == std::string::npos) return names;
  const std::string section = text.substr(at, text.find(']', at) - at);
  static const std::regex kMetric(
      R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  for (std::sregex_iterator it(section.begin(), section.end(), kMetric), stop;
       it != stop; ++it) {
    names.insert((*it)[1].str() + " [" + (*it)[2].str() + "]");
  }
  return names;
}

// The result line of every run must carry exactly the metrics (name and
// unit) that BENCHMARK.json declares for its tier.
void check_declared(Tally& tally, const WorkloadRun& run,
                    const std::string& benchmark_json) {
  for (auto [key, tier] : {std::pair{"end_to_end", Tier::kEndToEnd},
                           std::pair{"per_layer", Tier::kLayer}}) {
    std::set<std::string> emitted;
    for (const Metric& x : run.metrics) {
      if (x.tier == tier) emitted.insert(x.name + " [" + x.unit + "]");
    }
    const auto declared = declared_metrics(benchmark_json, key);
    std::string diff;
    for (const auto& n : declared) {
      if (emitted.count(n) == 0) diff += " missing:" + n;
    }
    for (const auto& n : emitted) {
      if (declared.count(n) == 0) diff += " undeclared:" + n;
    }
    tally.check(diff.empty(), run.problem.spec.name,
                std::string(key) + " metrics differ from BENCHMARK.json:" +
                    diff);
  }
}

// Exit 2 (naming the variable) when the environment would change what is
// measured: the solver and runtime apply SYMPACK_* over their options.
bool environment_clean() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SYMPACK_", 8) == 0) {
      const char* eq = std::strchr(*e, '=');
      std::fprintf(stderr,
                   "bench_e2e: refusing to run: %.*s is set; SYMPACK_* "
                   "variables override solver options\n",
                   static_cast<int>(eq != nullptr ? eq - *e : std::strlen(*e)),
                   *e);
      return false;
    }
  }
  if (std::strcmp(BENCH_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to run a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 BENCH_E2E_BUILD_TYPE);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!environment_clean()) return 2;
  support::Options opts;
  try {
    opts = support::Options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
  const bool smoke = opts.get_bool("smoke", false);
  const auto seed = static_cast<std::uint64_t>(
      opts.get_int("seed", static_cast<std::int64_t>(kDefaultSeed)));
  const double seconds = opts.get_double("seconds", 0.0);
  const int reps = static_cast<int>(opts.get_int("reps", smoke ? 1 : 5));
  // Without --trace the traced rep still runs and the result line carries
  // the end-to-end metrics; --trace 1 puts the per-layer ones there.
  const bool trace = opts.get_int("trace", 1) != 0;
  const Tier line_tier =
      opts.has("trace") && trace ? Tier::kLayer : Tier::kEndToEnd;
  const std::string only = opts.get_string("workload", "");
  const double scale = smoke ? 0.05 : 1.0;
  const int rank_divisor = smoke ? 16 : 1;
  const double min_phase_s = smoke ? kMinPhaseSeconds / 20 : kMinPhaseSeconds;

  std::vector<WorkloadRun> runs;
  for (const Workload& w : kWorkloads) {
    if (!only.empty() && only != w.name) continue;
    runs.emplace_back().problem = make_problem(w, scale, rank_divisor, seed);
  }
  if (runs.empty() || reps < 1) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s' or --reps < 1\n",
                 only.c_str());
    return 2;
  }

  Tally tally;
  // Warm-up round (checked, not timed), then interleaved timed rounds:
  // round r runs every workload once, so drift hits all workloads alike.
  // A time-bounded run spends its budget on timed reps instead; the
  // median of at least three absorbs the slower first rep.
  const bool warmup = !smoke && seconds <= 0;
  if (warmup) {
    for (auto& run : runs) {
      Rep rep;
      (void)run_rep(run.problem, min_phase_s, tally, rep, nullptr);
    }
  }
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    for (auto& run : runs) {
      Rep rep;
      if (run_rep(run.problem, min_phase_s, tally, rep, nullptr)) {
        const Rep& first = run.reps.empty() ? rep : run.reps.front();
        tally.check(rep.factor_sim_s == first.factor_sim_s &&
                        rep.solve_sim_s == first.solve_sim_s &&
                        rep.peak_memory_bytes == first.peak_memory_bytes,
                    run.problem.spec.name,
                    "simulated time or peak memory differs between reps");
        run.reps.push_back(rep);
      }
    }
    const int done = round + 1;
    if (seconds > 0) {
      // Stop once another round would overrun the budget.
      const double elapsed = since(start);
      if (done >= kMinTimedReps && elapsed * (done + 1) / done > seconds) {
        break;
      }
    } else if (done >= reps) {
      break;
    }
  }
  if (trace) {
    for (auto& run : runs) {
      Rep rep;
      run.traced_ok = run_rep(run.problem, 0.0, tally, rep, &run.traced);
    }
  }
  for (auto& run : runs) {
    build_metrics(run);
    print_table(run);
  }

  if (smoke) {
    const std::string path = opts.get_string("benchmark-json", "BENCHMARK.json");
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    if (tally.check(static_cast<bool>(in), "smoke", "cannot read " + path)) {
      for (const auto& run : runs) check_declared(tally, run, text.str());
    }
  }

  std::ostringstream doc;
  doc << "{\n  \"benchmark\": \"bench_e2e\",\n  \"header\": {\"compiler\": \""
      << support::json_escape(BENCH_E2E_COMPILER) << "\", \"build_type\": \""
      << BENCH_E2E_BUILD_TYPE
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"seed\": " << seed << ", \"scale\": " << num(scale)
      << ", \"timed_reps\": " << runs.front().reps.size()
      << ", \"warmup_rounds\": " << (warmup ? 1 : 0) << "},\n"
      << "  \"attempted\": " << tally.attempted
      << ",\n  \"failed\": " << tally.failed << ",\n  \"error_rate\": "
      << num(static_cast<double>(tally.failed) /
             static_cast<double>(std::max<std::int64_t>(1, tally.attempted)))
      << ",\n  \"workloads\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    doc << (i ? "," : "") << "\n    {\"name\": \"" << run.problem.spec.name
        << "\", \"n\": " << run.problem.a.n()
        << ", \"nranks\": " << run.problem.spec.nranks
        << ", \"metrics\": " << metrics_json(run.metrics) << '}';
  }
  doc << "\n  ]\n}\n";
  std::string error;
  tally.check(support::json_validate(doc.str(), &error), "json",
              "report is not valid JSON: " + error);
  const std::string json_path = opts.get_string("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << doc.str();
    tally.check(static_cast<bool>(out), "json", "cannot write " + json_path);
  }

  std::string line;
  if (runs.size() == 1) {
    line = result_line(tally, runs.front().metrics, line_tier);
  } else {
    std::vector<Metric> all;
    for (const auto& run : runs) {
      for (Metric x : run.metrics) {
        if (x.tier != Tier::kEndToEnd) continue;
        x.name = std::string(run.problem.spec.name) + "/" + x.name;
        all.push_back(std::move(x));
      }
    }
    line = result_line(tally, all, Tier::kEndToEnd);
  }
  std::printf("%s\n", line.c_str());
  return tally.failed == 0 ? 0 : 1;
}
