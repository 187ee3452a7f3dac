// The sequential-task-flow executor (core/taskrt/executor.hpp, DESIGN.md
// §4n) and the solver runs it carries.
//
// Unit tests: with four workers and adversarial delays, every buffer
// sees its reads and writes in submission order (read after write, write
// after read, write after write); join() rethrows the earliest failure in
// submission order, not the first to complete; a lane never holds more
// than its bound, and a submitter at the bound runs actions itself; and
// with zero workers every action runs at submission on the caller.
//
// Parity matrix: on the sequential driver, a solver whose executor has
// four workers leaves every factor block, solve(b, 4) and
// SolveServer::drain() bitwise equal to the zero-worker run, with the same
// CommStats, simulated times and peak memory, over the three proxies,
// both variants and both transports, plus a faulted row and a rank-kill
// row with buddy checkpoints.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/solve_server.hpp"
#include "core/solver.hpp"
#include "core/taskrt/executor.hpp"
#include "sparse/generators.hpp"
#include "support/random.hpp"

namespace sympack::core {

/// Pins the solver's executor (the solver picks its worker count from
/// the hardware).
struct SolverTestPeer {
  static void set_workers(SymPackSolver& solver, int workers) {
    solver.exec_ = std::make_unique<taskrt::Executor>(workers);
  }
};

namespace {

using taskrt::Executor;

/// Enough work that an action is always queued, never run at submission.
constexpr std::size_t kQueued = Executor::kInlineWork;

/// An element of `cells` whose writes run in another lane than `base`'s.
double* other_lane(std::vector<double>& cells, const void* base) {
  for (double& c : cells) {
    if (Executor::lane_of(&c) != Executor::lane_of(base)) return &c;
  }
  ADD_FAILURE() << "no element in another lane";
  return cells.data();
}

/// Sleeps 0-200 us, pseudo-randomly by submission index.
void jitter(std::uint64_t seq) {
  const std::uint64_t h = (seq + 1) * 0x9e3779b97f4a7c15ull;
  std::this_thread::sleep_for(std::chrono::microseconds((h >> 40) % 200));
}

// A random mix of reads and non-commuting writes over a few buffers: the
// values each read sees and the final buffers must be the sequential
// program's, whatever order the workers reach the actions in.
struct Program {
  static constexpr int kBuffers = 6;
  std::vector<std::unique_ptr<double>> cells;
  std::vector<double> seen;

  explicit Program(std::size_t ops) : seen(ops, -1.0) {
    for (int i = 0; i < kBuffers; ++i) {
      cells.push_back(std::make_unique<double>(i));
    }
  }
};

/// Runs `ops` operations; `write_share` of them (out of 8) write.
std::vector<double> run_program(Executor* exec, std::size_t ops,
                                int write_share, std::vector<double>* seen) {
  Program p(ops);
  support::Xoshiro256 rng(42);
  for (std::size_t i = 0; i < ops; ++i) {
    double* cell = p.cells[rng.next_below(Program::kBuffers)].get();
    double* out = &p.seen[i];
    const bool write = static_cast<int>(rng.next_below(8)) < write_share;
    const auto k = static_cast<double>(i % 7);
    auto action = [cell, out, write, k] {
      if (write) {
        *cell = *cell * 3.0 - k;  // order matters
      } else {
        *out = *cell;
      }
    };
    if (exec == nullptr) {
      action();
    } else if (write) {
      exec->submit(action, {pgas::writes(cell)}, kQueued);
    } else {
      // The read's output slot is private to it.
      exec->submit(action, {pgas::reads(cell), pgas::writes(out)}, kQueued);
    }
  }
  if (exec != nullptr) exec->join();
  *seen = p.seen;
  std::vector<double> final;
  for (const auto& c : p.cells) final.push_back(*c);
  return final;
}

void expect_sequential_order(int write_share) {
  std::vector<double> want_seen, got_seen;
  const auto want = run_program(nullptr, 400, write_share, &want_seen);
  Executor exec(4, Executor::kCapacity, jitter);
  const auto got = run_program(&exec, 400, write_share, &got_seen);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_seen, want_seen);
}

TEST(Executor, ReadAfterWriteSeesTheWrite) {
  expect_sequential_order(/*write_share=*/2);  // mostly reads
}

TEST(Executor, WriteAfterReadWaitsForTheReaders) {
  // Readers of one buffer may overlap; a slow reader must still see the
  // value from before the write submitted after it.
  double cell = 1.0;
  std::vector<double> seen(8, 0.0);
  Executor exec(4, Executor::kCapacity, [](std::uint64_t seq) {
    if (seq < 8) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  for (int i = 0; i < 8; ++i) {
    double* out = &seen[static_cast<std::size_t>(i)];
    exec.submit([&cell, out] { *out = cell; },
                {pgas::reads(&cell), pgas::writes(out)}, kQueued);
  }
  exec.submit([&cell] { cell = 2.0; }, {pgas::writes(&cell)}, kQueued);
  exec.join();
  EXPECT_EQ(seen, std::vector<double>(8, 1.0));
  EXPECT_EQ(cell, 2.0);
  expect_sequential_order(/*write_share=*/4);
}

TEST(Executor, WriteAfterWriteKeepsSubmissionOrder) {
  expect_sequential_order(/*write_share=*/7);  // mostly writes
}

TEST(Executor, JoinRethrowsTheFirstFailureInSubmissionOrder) {
  // The first action fails late, the second at once: join() must name
  // the first, although the second finished first. The two buffers sit
  // in different lanes, so neither action waits for the other.
  std::vector<double> cells(64, 0.0);
  double* a = cells.data();
  double* b = other_lane(cells, a);
  Executor exec(4, Executor::kCapacity, [](std::uint64_t seq) {
    if (seq == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  exec.submit([] { throw std::runtime_error("first"); }, {pgas::writes(a)},
              kQueued);
  exec.submit([] { throw std::runtime_error("second"); }, {pgas::writes(b)},
              kQueued);
  exec.wait();  // never throws
  try {
    exec.join();
    ADD_FAILURE() << "join() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_NO_THROW(exec.join());  // the failure was reported once
}

TEST(Executor, InFlightBoundHoldsAndTheSubmitterHelps) {
  // One worker, stuck in an action on buffer x until the submitter has
  // run one itself. Actions on y, in another lane, pile up to the bound;
  // the submitter must then run them, or it would wait forever.
  double x = 0.0;
  std::vector<double> ys(64, 0.0);
  double* y = other_lane(ys, &x);
  // The bound is at least a batch, so the blocker's batch fits its lane.
  constexpr std::size_t kBound = Executor::kBatch;
  Executor exec(1, kBound);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> started{false};
  std::atomic<int> by_caller{0};
  std::atomic<int> done{0};
  exec.submit(
      [&] {
        started = true;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (by_caller.load() == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      },
      {pgas::writes(&x)}, kQueued);
  // A lane is published a batch at a time: fill the blocker's batch, and
  // let the worker take the blocker before anything else is queued.
  for (std::uint64_t i = 1; i < Executor::kBatch; ++i) {
    exec.submit([] {}, {pgas::writes(&x)}, kQueued);
  }
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 32; ++i) {
    exec.submit(
        [&, caller] {
          *y += 1.0;
          if (std::this_thread::get_id() == caller) ++by_caller;
          ++done;
        },
        {pgas::writes(y)}, kQueued);
    EXPECT_LE(static_cast<std::size_t>(i + 1 - done.load()), kBound)
        << "after submit " << i;
  }
  exec.join();
  EXPECT_GT(by_caller.load(), 0);
  EXPECT_EQ(*y, 32.0);
}

TEST(Executor, ZeroWorkersRunEachActionInlineOnTheCaller) {
  Executor exec(0);
  EXPECT_EQ(exec.workers(), 0);
  double cell = 0.0;
  std::thread::id ran_on;
  exec.submit(
      [&] {
        cell = 1.0;
        ran_on = std::this_thread::get_id();
      },
      {pgas::writes(&cell)}, kQueued);
  EXPECT_EQ(cell, 1.0);  // before submit() returned
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // A failure surfaces from submit(), as in the inline run.
  EXPECT_THROW(exec.submit([] { throw std::runtime_error("now"); },
                           {pgas::writes(&cell)}, kQueued),
               std::runtime_error);
  EXPECT_NO_THROW(exec.join());
}

// ------------------------------------------------------------------
// Parity matrix.

pgas::Runtime::Config cluster() {
  pgas::Runtime::Config cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  return cfg;
}

sparse::CscMatrix proxy(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.1);
  if (name == "bones") return sparse::bones_proxy(0.1);
  return sparse::thermal_proxy(0.1);
}

struct Outcome {
  std::vector<std::vector<double>> blocks;
  std::vector<double> x;
  std::vector<double> drained;
  Report factor;
  Report report;
  pgas::CommStats stats;
};

enum class Extra { kNone, kFaults, kKill };

Outcome run_case(const std::string& name, Variant variant, bool eager, Extra extra,
        int workers) {
  pgas::Runtime::Config cfg = cluster();
  SolverOptions opts;
  opts.variant = variant;
  if (eager) {
    opts.comm.eager_bytes = 4096;
    opts.comm.coalesce = true;
  }
  if (extra == Extra::kFaults) {
    // The faults-on goldens' injection mix.
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xfeedbeefull;
    cfg.faults.drop_rate = 0.02;
    cfg.faults.duplicate_rate = 0.02;
    cfg.faults.delay_rate = 0.05;
    cfg.faults.reorder_rate = 0.05;
    cfg.faults.transfer_fail_rate = 0.02;
    cfg.faults.device_deny_rate = 0.05;
  } else if (extra == Extra::kKill) {
    cfg.faults.enabled = true;
    cfg.faults.kill_rank = 2;
    cfg.faults.kill_event = 200;
    opts.resilience.buddy_replicas = 1;
  }
  pgas::Runtime rt(cfg, pgas::Runtime::EnvOverlay::kSkip);
  SymPackSolver solver(rt, opts);
  SolverTestPeer::set_workers(solver, workers);
  const auto a = proxy(name);
  solver.symbolic_factorize(a);
  solver.factorize();
  Outcome r;
  r.factor = solver.report();
  const BlockStore& store = solver.block_store();
  for (idx_t bid = 0; bid < store.num_blocks(); ++bid) {
    const double* d = store.data(bid);
    r.blocks.emplace_back(d, d + store.bytes(bid) / sizeof(double));
  }
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> b(n * 4);
  support::Xoshiro256 rng(7);
  for (double& v : b) v = rng.next_in(-1, 1);
  r.x = solver.solve(b, 4);
  SolveServer server(solver);
  for (int q = 0; q < 2; ++q) {
    server.submit(std::vector<double>(b.begin() + q * 2 * n,
                                      b.begin() + (q + 1) * 2 * n),
                  2);
  }
  for (const auto& sol : server.drain()) {
    r.drained.insert(r.drained.end(), sol.begin(), sol.end());
  }
  r.report = solver.report();
  r.stats = rt.total_stats();
  return r;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

using ParityParam = std::tuple<std::string, Variant, bool, Extra>;

class ExecutorParity : public ::testing::TestWithParam<ParityParam> {};

TEST_P(ExecutorParity, FourWorkersMatchZeroBitwise) {
  const auto& [name, variant, eager, extra] = GetParam();
  const Outcome inline_run = run_case(name, variant, eager, extra, 0);
  const Outcome stf = run_case(name, variant, eager, extra, 4);
  EXPECT_EQ(inline_run.factor.executor_workers, 0);
  EXPECT_EQ(stf.factor.executor_workers, 4);
  ASSERT_EQ(inline_run.blocks.size(), stf.blocks.size());
  for (std::size_t bid = 0; bid < stf.blocks.size(); ++bid) {
    ASSERT_TRUE(same_bits(inline_run.blocks[bid], stf.blocks[bid]))
        << "block " << bid;
  }
  EXPECT_TRUE(same_bits(inline_run.x, stf.x));
  EXPECT_TRUE(same_bits(inline_run.drained, stf.drained));
  // Every counter, except the symbolic build time, which is host time.
  pgas::CommStats a = inline_run.stats;
  pgas::CommStats b = stf.stats;
  a.symbolic_build_us = b.symbolic_build_us = 0;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(pgas::CommStats)), 0);
  EXPECT_EQ(inline_run.factor.factor_sim_s, stf.factor.factor_sim_s);
  EXPECT_EQ(inline_run.report.solve_sim_s, stf.report.solve_sim_s);
  EXPECT_EQ(inline_run.factor.peak_memory_bytes,
            stf.factor.peak_memory_bytes);
  EXPECT_EQ(inline_run.report.peak_memory_bytes,
            stf.report.peak_memory_bytes);
  if (extra == Extra::kFaults) {
    EXPECT_GT(stf.stats.retries, 0u);
  }
  if (extra == Extra::kKill) {
    EXPECT_GT(stf.stats.peer_deaths_detected, 0u);
  }
}

std::string parity_name(const ::testing::TestParamInfo<ParityParam>& info) {
  const auto& [name, variant, eager, extra] = info.param;
  std::string s = name + (variant == Variant::kFanOut ? "_fanout" : "_fanin") +
                  (eager ? "_eager" : "_rdv");
  if (extra == Extra::kFaults) s += "_faults";
  if (extra == Extra::kKill) s += "_kill";
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    ProxiesVariantsTransports, ExecutorParity,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Values(Variant::kFanOut, Variant::kFanIn),
                       ::testing::Bool(), ::testing::Values(Extra::kNone)),
    parity_name);

INSTANTIATE_TEST_SUITE_P(
    FaultsAndKill, ExecutorParity,
    ::testing::Values(
        ParityParam{"flan", Variant::kFanOut, true, Extra::kFaults},
        ParityParam{"flan", Variant::kFanOut, false, Extra::kKill}),
    parity_name);

}  // namespace
}  // namespace sympack::core
