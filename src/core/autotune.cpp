#include "core/autotune.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

#include "core/offload.hpp"
#include "core/solver.hpp"
#include "support/timer.hpp"

namespace sympack::core {

namespace {

using support::WallClock;

/// One pilot: a candidate's coordinates, the GPU options it runs with,
/// and (once run) its measured makespan and host cost.
struct Pilot {
  AutoTuneCandidate cand;
  GpuOptions gpu;
};

/// Protocol-only factorization of one configuration on a runtime and
/// solver of its own; the pilot writes nothing but its own slot.
void run_pilot(Pilot& p, const pgas::Runtime::Config& cluster,
               const sparse::CscMatrix& a_perm, const SolverOptions& base) {
  const double t0 = WallClock::now();
  // The cluster config is already resolved and fault-free: skip the
  // SYMPACK_FAULT_* overlay, which would turn the caller's environment
  // faults back on.
  pgas::Runtime rt(cluster, pgas::Runtime::EnvOverlay::kSkip);
  SolverOptions opts = base;
  opts.policy = p.cand.policy;
  opts.symbolic.max_width = p.cand.max_width;
  opts.mapping = p.cand.mapping;
  opts.gpu = p.gpu;
  // Protocol-only: the numeric run's code path with the bytes left out
  // (null buffers, no kernel math), so a pilot costs a fraction of a
  // real factorization yet measures the simulated makespan the real
  // run would have.
  opts.numeric = false;
  opts.ordering = ordering::Method::kNatural;  // a_perm is pre-permuted
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a_perm);
  solver.factorize();
  p.cand.sim_s = solver.report().factor_sim_s;
  p.cand.host_s = WallClock::now() - t0;
}

/// Runs one stage's pilots side by side on min(hardware_concurrency,
/// stage size) threads, the calling thread among them, and returns how
/// many threads ran. Every thread is joined before anything is thrown;
/// then the first failing pilot in candidate order rethrows its own
/// exception.
int run_stage(std::vector<Pilot>& stage, const pgas::Runtime::Config& cluster,
              const sparse::CscMatrix& a_perm, const SolverOptions& base) {
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), stage.size());
  std::vector<std::exception_ptr> errors(stage.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < stage.size(); i = next++) {
      try {
        run_pilot(stage[i], cluster, a_perm, base);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);  // emplace_back below cannot reallocate
  try {
    while (threads.size() + 1 < workers) threads.emplace_back(work);
  } catch (const std::system_error&) {
    // No more threads to be had: the ones running drain the queue.
  }
  work();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return static_cast<int>(threads.size()) + 1;
}

}  // namespace

AutoTuneChoice autotune_schedule(pgas::Runtime::Config cluster,
                                 const sparse::CscMatrix& a_perm,
                                 const SolverOptions& base) {
  const double t0 = WallClock::now();
  // Pilots tune the healthy schedule on the same cluster shape, with
  // ranks stepped sequentially: threaded makespans vary with thread
  // timing, and each threaded pilot would start one thread per rank.
  cluster.faults = {};
  cluster.threaded = false;

  const sparse::idx_t w0 = base.symbolic.max_width;
  AutoTuneChoice choice;
  choice.max_width = w0;
  choice.mapping = base.mapping;
  choice.gpu = base.gpu;
  choice.pilot_sim_s = 1e300;

  // A pilot of the incumbent configuration; each stage varies one
  // coordinate of it.
  auto incumbent = [&] {
    Pilot p;
    p.cand.policy = choice.policy;
    p.cand.max_width = choice.max_width;
    p.cand.mapping = choice.mapping;
    p.cand.offload_scale = choice.offload_scale;
    p.gpu = choice.gpu;
    return p;
  };
  // Runs a stage, then walks its pilots in candidate order: each is
  // recorded, and adopted when strictly faster than the incumbent. A
  // stage's candidates differ from the incumbent in that stage's
  // coordinate only, so adopting the candidate adopts that coordinate,
  // exactly as a serial search would.
  auto stage = [&](std::vector<Pilot>& pilots) {
    const double stage_t0 = WallClock::now();
    choice.workers =
        std::max(choice.workers, run_stage(pilots, cluster, a_perm, base));
    choice.stage_wall_s.push_back(WallClock::now() - stage_t0);
    for (const Pilot& p : pilots) {
      choice.candidates.push_back(p.cand);
      if (p.cand.sim_s < choice.pilot_sim_s) {
        choice.pilot_sim_s = p.cand.sim_s;
        choice.policy = p.cand.policy;
        choice.max_width = p.cand.max_width;
        choice.mapping = p.cand.mapping;
        choice.offload_scale = p.cand.offload_scale;
        choice.gpu = p.gpu;
      }
    }
  };

  // Stage 1: every fixed policy at the configured split width. The
  // winner can therefore never be slower (in simulated time) than the
  // best fixed policy at the defaults.
  {
    std::vector<Pilot> pilots;
    for (const Policy p : {Policy::kFifo, Policy::kLifo, Policy::kPriority,
                           Policy::kCriticalPath}) {
      pilots.push_back(incumbent());
      pilots.back().cand.policy = p;
    }
    stage(pilots);
    choice.default_sim_s = pilots.front().cand.sim_s;  // FIFO's pilot
  }

  // Stage 2: nudge the supernode split width around the configured one
  // under the winning policy (finer panels trade more parallelism for
  // more messages; the pilot measures which side wins on this matrix).
  if (w0 > 0) {
    std::vector<Pilot> pilots;
    for (const sparse::idx_t w :
         {std::max<sparse::idx_t>(16, w0 / 2), w0 * 2}) {
      if (w == w0) continue;
      pilots.push_back(incumbent());
      pilots.back().cand.max_width = w;
    }
    stage(pilots);
  }

  // Stage 3: block-to-process mapping grids. The 2D block-cyclic grid is
  // the paper's default; the 1D cyclic maps can win on tall elimination
  // trees (row-cyclic keeps a panel's blocks on one rank) or very wide
  // ones. Strictly-better adoption keeps the configured mapping on ties,
  // so this stage can only improve on the stage-1/2 result.
  {
    std::vector<Pilot> pilots;
    for (const auto m : {symbolic::Mapping::Kind::k2dBlockCyclic,
                         symbolic::Mapping::Kind::kRowCyclic,
                         symbolic::Mapping::Kind::kColCyclic}) {
      if (m == choice.mapping) continue;
      pilots.push_back(incumbent());
      pilots.back().cand.mapping = m;
    }
    stage(pilots);
  }

  // Stage 4: GPU offload thresholds. Candidates are the machine model's
  // analytic crossovers (gpu/autotune.hpp) scaled by {0.5, 1, 2} —
  // the scale sweeps offload aggressiveness around the modeled
  // break-even point, and the pilot measures the real schedule effect
  // (offload changes task durations and with them the critical path).
  // Skipped entirely when the GPU is disabled: the thresholds are dead
  // knobs there and every pilot would measure the same schedule.
  if (base.gpu.enabled) {
    std::vector<Pilot> pilots;
    for (const double scale : {0.5, 1.0, 2.0}) {
      pilots.push_back(incumbent());
      pilots.back().cand.offload_scale = scale;
      pilots.back().gpu =
          analytic_gpu_options(base.gpu, cluster.model, scale);
    }
    stage(pilots);
  }
  choice.wall_s = WallClock::now() - t0;
  return choice;
}

}  // namespace sympack::core
