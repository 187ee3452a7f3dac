// Rank-death resilience suite (DESIGN.md §4h): kill injection, buddy
// checkpoint replication, and re-execution recovery.
//
// The acceptance matrix: a deterministic kill of a single rank at a
// randomized heartbeat epoch (>= 4 seeds x 3 proxy generators x both
// engine variants at 8 ranks) must complete factorization and solve
// with the fault-free numerics, tick the recovery counters, and replay
// bitwise from the kill seed. Plus: solve-phase deaths (the factor
// comes back from the buddies), SolveServer degradation (in-flight
// panels re-run, queued requests preserved), the admission-cap
// satellite, ReliableLink edge paths (stash high-water, re-request
// round-cap exhaustion), the typed RMA-retry exhaustion error, the
// recovery-overhead gate at 16 ranks, and the pay-for-what-you-use
// guarantees when resilience is off.
//
// The chaos CI job rotates SYMPACK_FAULT_SEED_BASE (mixed into every
// kill seed below, same contract as tests/test_faults.cpp), so each CI
// run explores a fresh deterministic kill schedule and a failure names
// the base seed for replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/solve_server.hpp"
#include "core/solver.hpp"
#include "core/taskrt/reliable.hpp"
#include "pgas/fault.hpp"
#include "pgas/runtime.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "support/env.hpp"

namespace sympack {
namespace {

using sparse::CscMatrix;

pgas::Runtime::Config cluster(int nranks, bool threaded) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  cfg.threaded = threaded;
  return cfg;
}

CscMatrix proxy_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

std::uint64_t chaos_seed(std::uint64_t case_seed) {
  const auto base = static_cast<std::uint64_t>(
      support::env_int("SYMPACK_FAULT_SEED_BASE", 0));
  return case_seed ^ (base * 0x9e3779b97f4a7c15ull);
}

core::SolverOptions resilient_opts(core::Variant variant) {
  core::SolverOptions opts;
  opts.variant = variant;
  opts.resilience.buddy_replicas = 1;
  return opts;
}

// A kill schedule in random mode: victim and heartbeat epoch drawn from
// the seed. The event window is kept well inside the factorization's
// progress-call count so every seed actually fires mid-phase.
pgas::FaultConfig kill_config(std::uint64_t seed) {
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.kill_rank = -2;
  faults.kill_seed = seed;
  faults.kill_max_event = 256;
  return faults;
}

struct RunResult {
  double residual = 0.0;
  std::vector<double> factor;
  pgas::CommStats stats;
  pgas::FaultInjector::Counters injected;
  core::Report report;
  std::size_t device_bytes_left = 0;
};

RunResult run_solver(const CscMatrix& a, int nranks, bool threaded,
                     const pgas::FaultConfig& faults,
                     core::SolverOptions opts = {}) {
  pgas::Runtime::Config cfg = cluster(nranks, threaded);
  cfg.faults = faults;
  pgas::Runtime rt(cfg);
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);

  RunResult r;
  r.residual = sparse::relative_residual(a, x, b);
  r.factor = solver.dense_factor();
  r.stats = rt.total_stats();
  if (rt.injector() != nullptr) r.injected = rt.injector()->total();
  r.report = solver.report();
  for (int d = 0; d < rt.num_devices(); ++d) {
    r.device_bytes_left += rt.device_bytes_in_use(d);
  }
  return r;
}

void expect_factor_matches(const RunResult& base, const RunResult& faulty) {
  // Recovery reshuffles the schedule, so scatter-adds fold update
  // contributions in a different order: entries agree to rounding, not
  // bitwise (same contract as the transient-fault chaos suite).
  ASSERT_EQ(base.factor.size(), faulty.factor.size());
  for (std::size_t i = 0; i < base.factor.size(); ++i) {
    ASSERT_NEAR(base.factor[i], faulty.factor[i], 1e-9) << "entry " << i;
  }
}

// ------------------------------------------------------------------
// Kill matrix: randomized victim/epoch x proxies x both variants. Every
// run must survive the death with fault-free numerics and nonzero
// recovery counters.

using KillParam = std::tuple<int, int, int>;  // (matrix, variant, seed)
const char* const kMatrices[] = {"flan", "bones", "thermal"};

class RankKill : public ::testing::TestWithParam<KillParam> {};

TEST_P(RankKill, SurvivesWithFaultFreeNumerics) {
  const auto& [mi, vi, seed] = GetParam();
  const auto a = proxy_matrix(kMatrices[mi]);
  const auto variant = vi == 0 ? core::Variant::kFanOut : core::Variant::kFanIn;
  const core::SolverOptions opts = resilient_opts(variant);

  const RunResult base =
      run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{}, opts);
  const pgas::FaultConfig faults = kill_config(
      chaos_seed(10000ull * static_cast<std::uint64_t>(mi + 1) +
                 1000ull * static_cast<std::uint64_t>(vi) +
                 static_cast<std::uint64_t>(seed)));
  const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);

  EXPECT_LT(base.residual, 1e-10);
  EXPECT_LT(r.residual, 1e-10) << "kill seed " << faults.kill_seed;
  expect_factor_matches(base, r);
  // The kill fired (the event window sits inside the factorization),
  // a survivor confirmed the death, and the completed sub-DAG came
  // back through the checkpoint layer.
  EXPECT_EQ(r.injected.kills, 1u) << "kill seed " << faults.kill_seed;
  EXPECT_GT(r.stats.peer_deaths_detected, 0u)
      << "kill seed " << faults.kill_seed;
  EXPECT_GT(r.stats.ckpt_saves, 0u);
  EXPECT_GT(r.stats.ckpt_restores + r.stats.blocks_reassembled, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

std::string kill_name(const ::testing::TestParamInfo<KillParam>& info) {
  return std::string(kMatrices[std::get<0>(info.param)]) +
         (std::get<1>(info.param) == 0 ? "_fanout_s" : "_fanin_s") +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(ProxiesVariantsSeeds, RankKill,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 2),
                                            ::testing::Range(1, 5)),
                         kill_name);

// ------------------------------------------------------------------
// Deterministic late kill: by epoch 200 the victim has published
// panels, so recovery must restore real checkpointed data (not just
// re-assemble everything from A).

TEST(RankKillDeterministic, LateKillRestoresCheckpointedPanels) {
  const auto a = sparse::flan_proxy(0.02);
  const core::SolverOptions opts = resilient_opts(core::Variant::kFanOut);
  const RunResult base =
      run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{}, opts);

  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.kill_rank = 2;
  faults.kill_event = 200;
  const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);

  EXPECT_LT(r.residual, 1e-10);
  expect_factor_matches(base, r);
  EXPECT_EQ(r.injected.kills, 1u);
  EXPECT_GT(r.stats.ckpt_restores, 0u);
  EXPECT_GT(r.stats.blocks_reassembled, 0u);
}

// ------------------------------------------------------------------
// Replayability: the kill seed pins the entire run — bitwise-identical
// factor and identical comm/recovery counters.

TEST(RankKillReplay, SameSeedReplaysBitwiseIdenticalRun) {
  const auto a = sparse::bones_proxy(0.02);
  const core::SolverOptions opts = resilient_opts(core::Variant::kFanOut);
  const pgas::FaultConfig faults = kill_config(chaos_seed(20260807));

  const RunResult r1 = run_solver(a, 8, /*threaded=*/false, faults, opts);
  const RunResult r2 = run_solver(a, 8, /*threaded=*/false, faults, opts);

  ASSERT_EQ(r1.factor.size(), r2.factor.size());
  EXPECT_EQ(std::memcmp(r1.factor.data(), r2.factor.data(),
                        r1.factor.size() * sizeof(double)),
            0);
  EXPECT_EQ(r1.injected.kills, r2.injected.kills);
  EXPECT_EQ(r1.stats.peer_deaths_detected, r2.stats.peer_deaths_detected);
  EXPECT_EQ(r1.stats.ckpt_saves, r2.stats.ckpt_saves);
  EXPECT_EQ(r1.stats.ckpt_restores, r2.stats.ckpt_restores);
  EXPECT_EQ(r1.stats.blocks_reassembled, r2.stats.blocks_reassembled);
  EXPECT_EQ(r1.stats.rpcs_sent, r2.stats.rpcs_sent);
  EXPECT_EQ(r1.stats.gets, r2.stats.gets);
  EXPECT_EQ(r1.stats.puts, r2.stats.puts);
  EXPECT_EQ(r1.stats.bytes_from_host, r2.stats.bytes_from_host);
}

// ------------------------------------------------------------------
// Solve-phase death: the factor is complete when the rank dies, so
// recovery is purely checkpoint restore + a fresh solve.

TEST(SolvePhaseKill, FactorComesBackFromTheBuddies) {
  const auto a = sparse::flan_proxy(0.02);
  pgas::Runtime::Config cfg = cluster(8, /*threaded=*/false);
  cfg.faults.enabled = true;  // arms the endpoint's death scan
  pgas::Runtime rt(cfg);
  core::SymPackSolver solver(rt, resilient_opts(core::Variant::kFanOut));
  solver.symbolic_factorize(a);
  solver.factorize();

  const auto b = sparse::rhs_for_ones(a);
  rt.rank(3).die();  // deterministic death between the phases
  const auto x = solver.solve(b);

  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-10);
  const auto stats = rt.total_stats();
  EXPECT_GT(stats.peer_deaths_detected, 0u);
  EXPECT_GT(stats.ckpt_restores, 0u);
  EXPECT_EQ(stats.blocks_reassembled, 0u);  // nothing was incomplete
}

// ------------------------------------------------------------------
// SolveServer degradation: a death mid-drain re-runs the in-flight
// panels against the restored factor; queued requests are preserved and
// submissions after the failure keep working.

TEST(SolveServerResilience, DrainSurvivesDeathAndKeepsServing) {
  const auto a = sparse::flan_proxy(0.02);
  pgas::Runtime::Config cfg = cluster(8, /*threaded=*/false);
  cfg.faults.enabled = true;
  pgas::Runtime rt(cfg);
  core::SolverOptions opts = resilient_opts(core::Variant::kFanOut);
  opts.solve.rhs_panel = 2;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  core::SolveServer server(solver);

  const auto b = sparse::rhs_for_ones(a);
  ASSERT_TRUE(server.submit(b));
  ASSERT_TRUE(server.submit(b));
  ASSERT_TRUE(server.submit(b));
  EXPECT_EQ(server.queued(), 3);

  rt.rank(5).die();  // every queued panel becomes "in-flight over a death"
  const auto xs = server.drain();
  ASSERT_EQ(xs.size(), 3u);
  for (const auto& x : xs) {
    EXPECT_LT(sparse::relative_residual(a, x, b), 1e-10);
  }
  EXPECT_GT(rt.total_stats().peer_deaths_detected, 0u);
  EXPECT_GT(rt.total_stats().ckpt_restores, 0u);

  // Submit-after-failure: the recovered server keeps serving.
  ASSERT_TRUE(server.submit(b));
  const auto xs2 = server.drain();
  ASSERT_EQ(xs2.size(), 1u);
  EXPECT_LT(sparse::relative_residual(a, xs2[0], b), 1e-10);
}

// ------------------------------------------------------------------
// SolveServer admission satellite: submissions at/over server_max_queue
// are refused without disturbing the queue, the cap frees up after a
// drain, and a multi-panel drain still runs under a capped queue.

TEST(SolveServerAdmission, CapRefusesThenFreesAfterDrain) {
  const auto a = sparse::flan_proxy(0.02);
  pgas::Runtime rt(cluster(8, /*threaded=*/false));
  core::SolverOptions opts;
  opts.solve.rhs_panel = 2;
  opts.solve.server_max_queue = 4;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  core::SolveServer server(solver);

  const auto b = sparse::rhs_for_ones(a);
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> b3(n * 3);
  for (std::size_t c = 0; c < 3; ++c) {
    std::copy(b.begin(), b.end(), b3.begin() + static_cast<std::ptrdiff_t>(c * n));
  }
  std::vector<double> b2(b3.begin(), b3.begin() + static_cast<std::ptrdiff_t>(2 * n));

  ASSERT_TRUE(server.submit(b3, 3));         // 3 of 4
  EXPECT_FALSE(server.submit(b3, 3));        // 3 more would overflow
  EXPECT_FALSE(server.submit(b2, 2));        // 2 over as well
  ASSERT_TRUE(server.submit(b));             // exactly at the cap
  EXPECT_EQ(server.queued(), 4);
  EXPECT_FALSE(server.submit(b));            // full
  EXPECT_EQ(server.stats().rejected, 3);

  const auto xs = server.drain();            // 2 panels
  ASSERT_EQ(xs.size(), 2u);
  for (const auto& x : xs) {
    for (std::size_t c = 0; c < x.size() / n; ++c) {
      std::vector<double> col(x.begin() + c * n, x.begin() + (c + 1) * n);
      EXPECT_LT(sparse::relative_residual(a, col, b), 1e-10);
    }
  }

  // The drain emptied the queue: admission works again.
  EXPECT_TRUE(server.submit(b));
  EXPECT_EQ(server.queued(), 1);
}

// ------------------------------------------------------------------
// ReliableLink edge paths (satellite): out-of-order stash high-water
// survives the stash draining, and duplicates of stashed sequence
// numbers are dropped, not double-stashed.

TEST(ReliableLinkEdges, StashHighWaterSurvivesDrain) {
  core::taskrt::ReliableLink<int> link;
  link.init(2);
  pgas::CommStats stats;
  std::vector<int> run;

  // Seqs 1..5 arrive ahead of 0: all stashed.
  for (std::uint64_t s = 1; s <= 5; ++s) {
    EXPECT_FALSE(link.admit(1, s, static_cast<int>(s), run, stats));
  }
  EXPECT_EQ(link.stash_depth(1), 5u);
  EXPECT_EQ(link.stash_high_water(1), 5u);
  EXPECT_EQ(stats.out_of_order, 5u);

  // A duplicate of a stashed seq is dropped without growing the stash.
  EXPECT_FALSE(link.admit(1, 3, 3, run, stats));
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(link.stash_depth(1), 5u);

  // The gap fills: the whole run drains in order, high-water persists.
  EXPECT_TRUE(link.admit(1, 0, 0, run, stats));
  ASSERT_EQ(run.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(run[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(link.stash_depth(1), 0u);
  EXPECT_EQ(link.stash_high_water(1), 5u);
  EXPECT_EQ(link.next_expected(1), 6u);

  // Stale retransmits of delivered seqs are duplicates too.
  EXPECT_FALSE(link.admit(1, 2, 2, run, stats));
  EXPECT_EQ(stats.duplicates_dropped, 2u);
}

// Re-request round-cap exhaustion: when every signal (and every
// re-request) is swallowed, the capped rounds must hand the phase to
// the driver's stall guard instead of re-requesting forever.

TEST(ReliableLinkEdges, RerequestRoundCapExhaustionAbortsTheDrive) {
  const auto a = sparse::flan_proxy(0.02);
  pgas::Runtime::Config cfg = cluster(8, /*threaded=*/false);
  cfg.faults.enabled = true;
  cfg.faults.seed = 99;
  cfg.faults.drop_rate = 1.0;  // nothing is ever delivered
  pgas::Runtime rt(cfg);
  core::SolverOptions opts;
  opts.fault.rerequest_idle_limit = 4;
  opts.fault.max_rerequest_rounds = 3;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  EXPECT_THROW(solver.factorize(), std::runtime_error);
}

// The round cap counts rounds since the last new message, not rounds per
// phase: ranks fire rounds while they wait on slow peers, and with a
// per-phase count that waiting used up the budget before a later drop
// needed it (the drive then stalled on a message nobody re-requested).
// A tiny cap with frequent rounds must still recover every drop.
TEST(ReliableLinkEdges, RoundBudgetRestartsOnNewMessages) {
  const auto a = sparse::flan_proxy(0.02);
  pgas::Runtime::Config cfg = cluster(8, /*threaded=*/false);
  cfg.faults.enabled = true;
  cfg.faults.seed = 17;
  cfg.faults.drop_rate = 0.05;
  pgas::Runtime rt(cfg);
  core::SolverOptions opts;
  opts.fault.rerequest_idle_limit = 2;
  opts.fault.max_rerequest_rounds = 4;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const pgas::CommStats stats = rt.total_stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.dropped_detected,
            static_cast<std::uint64_t>(opts.fault.max_rerequest_rounds) *
                static_cast<std::uint64_t>(rt.nranks()));
  const auto b = sparse::rhs_for_ones(a);
  EXPECT_LT(sparse::relative_residual(a, solver.solve(b), b), 1e-10);
}

// ------------------------------------------------------------------
// RMA-retry exhaustion satellite: the typed error carries the
// rank/attempt/backoff context and ticks the rma_exhausted counter.

TEST(RmaRetry, ExhaustionThrowsTypedErrorWithContext) {
  pgas::Runtime rt(cluster(2, /*threaded=*/false));
  pgas::Rank& rank = rt.rank(0);
  support::BackoffPolicy policy;
  policy.max_retries = 4;
  support::Xoshiro256 rng(7);

  try {
    core::taskrt::with_rma_retry(rank, policy, rng, nullptr, [&]() -> double {
      throw pgas::TransferError("injected transfer failure");
    });
    FAIL() << "with_rma_retry must throw on exhaustion";
  } catch (const core::taskrt::RmaRetryError& e) {
    EXPECT_EQ(e.rank, 0);
    EXPECT_EQ(e.attempts, 4);
    EXPECT_GT(e.waited_s, 0.0);
    EXPECT_NE(std::string(e.what()).find("injected transfer failure"),
              std::string::npos);
  }
  EXPECT_EQ(rank.stats().rma_exhausted, 1u);
  EXPECT_EQ(rank.stats().retries, 4u);
}

// The second row is fan-in with the column-cyclic mapping, where every
// factorization rget is an aggregate pull, and with eager coalescing,
// so small aggregates wait in their senders' outboxes and in inboxes.
// The first failed pull then unwinds the phase while RPCs that own
// aggregate buffers are still in flight: drive() must drop them while
// the runtime that frees those buffers is whole.
TEST(RmaRetry, HardDownLinkSurfacesAsRmaRetryError) {
  const auto a = sparse::flan_proxy(0.02);
  core::SolverOptions fan_in;
  fan_in.variant = core::Variant::kFanIn;
  fan_in.mapping = symbolic::Mapping::Kind::kColCyclic;
  fan_in.comm.eager_bytes = 4096;
  fan_in.comm.coalesce = true;
  for (const core::SolverOptions& opts : {core::SolverOptions{}, fan_in}) {
    SCOPED_TRACE(opts.variant == core::Variant::kFanIn ? "fan-in" : "fan-out");
    pgas::Runtime::Config cfg = cluster(8, /*threaded=*/false);
    cfg.faults.enabled = true;
    cfg.faults.seed = 41;
    cfg.faults.transfer_fail_rate = 1.0;  // every rget fails, forever
    pgas::Runtime rt(cfg);
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    EXPECT_THROW(solver.factorize(), core::taskrt::RmaRetryError);
    EXPECT_GT(rt.total_stats().rma_exhausted, 0u);
    for (int r = 0; r < rt.nranks(); ++r) {
      EXPECT_EQ(rt.rank(r).pending_rpc_count(), 0u) << "rank " << r;
      EXPECT_FALSE(rt.rank(r).has_unflushed_signals()) << "rank " << r;
    }
  }
}

// ------------------------------------------------------------------
// Recovery-overhead gate (CI satellite): at 16 ranks, protocol-only,
// a mid-phase kill + full recovery must cost at most 1.5x the
// fault-free simulated factorization time (checkpointing included in
// both runs, so the gate isolates detection + restore + re-execution).
// The gate's kill seed is pinned — unlike the survival matrix above it
// is a deterministic regression bound, not a chaos sweep, so a red run
// always means the protocol regressed and never "an unlucky epoch".

TEST(RecoveryOverheadGate, KillRecoveryWithinBudgetAt16Ranks) {
  for (const char* name : {"flan", "bones", "thermal"}) {
    const auto a = proxy_matrix(name);
    core::SolverOptions opts = resilient_opts(core::Variant::kFanOut);
    opts.numeric = false;

    pgas::Runtime rt0(cluster(16, /*threaded=*/false));
    core::SymPackSolver s0(rt0, opts);
    s0.symbolic_factorize(a);
    s0.factorize();
    const double fault_free_s = s0.report().factor_sim_s;

    pgas::Runtime::Config cfg = cluster(16, /*threaded=*/false);
    cfg.faults = kill_config(4242);
    pgas::Runtime rt1(cfg);
    core::SymPackSolver s1(rt1, opts);
    s1.symbolic_factorize(a);
    s1.factorize();
    const double with_kill_s = s1.report().factor_sim_s;

    EXPECT_EQ(rt1.injector()->total().kills, 1u) << name;
    EXPECT_LE(with_kill_s, 1.5 * fault_free_s)
        << name << ": recovery overhead "
        << (with_kill_s / fault_free_s - 1.0) * 100.0 << "%";
  }
}

// ------------------------------------------------------------------
// Pay-for-what-you-use: with resilience off a kill is fatal (surfaced
// as the typed death, not a hang), and without faults the resilience
// counters stay zero even with buddy checkpointing armed.

TEST(ResilienceOff, KillSurfacesAsRankDeathError) {
  const auto a = sparse::flan_proxy(0.02);
  pgas::Runtime::Config cfg = cluster(8, /*threaded=*/false);
  cfg.faults.enabled = true;
  cfg.faults.kill_rank = 1;
  cfg.faults.kill_event = 50;
  pgas::Runtime rt(cfg);
  core::SymPackSolver solver(rt, {});  // no buddy replicas
  solver.symbolic_factorize(a);
  try {
    solver.factorize();
    FAIL() << "a kill without resilience must be fatal";
  } catch (const pgas::RankDeathError& e) {
    EXPECT_EQ(e.dead_rank, 1);
  }
}

TEST(ResilienceOff, CountersStayZeroWithoutFaults) {
  const auto a = sparse::thermal_proxy(0.005);
  const RunResult r =
      run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{});
  EXPECT_LT(r.residual, 1e-10);
  EXPECT_EQ(r.stats.peer_deaths_detected, 0u);
  EXPECT_EQ(r.stats.ckpt_saves, 0u);
  EXPECT_EQ(r.stats.ckpt_restores, 0u);
  EXPECT_EQ(r.stats.blocks_reassembled, 0u);
  EXPECT_EQ(r.stats.rma_exhausted, 0u);
}

TEST(ResilienceEnv, FaultKillKnobParsesBothForms) {
  ::setenv("SYMPACK_FAULT_KILL", "3@77", 1);
  pgas::FaultConfig f = pgas::env_fault_config(pgas::FaultConfig{});
  EXPECT_TRUE(f.enabled);
  EXPECT_EQ(f.kill_rank, 3);
  EXPECT_EQ(f.kill_event, 77u);

  ::setenv("SYMPACK_FAULT_KILL", "random@42", 1);
  f = pgas::env_fault_config(pgas::FaultConfig{});
  EXPECT_TRUE(f.enabled);
  EXPECT_EQ(f.kill_rank, -2);
  EXPECT_EQ(f.kill_seed, 42u);
  ::unsetenv("SYMPACK_FAULT_KILL");
}

// Any other kill spec, or a victim that is not one of the runtime's
// ranks, fails at runtime construction with std::invalid_argument naming
// the cause, instead of killing at a truncated epoch or seed, never
// killing, or throwing a bare std::stoi error.
struct BadKill {
  const char* name;
  const char* value;   // of SYMPACK_FAULT_KILL
  const char* expect;  // the message must contain this
};

class FaultKillSpec : public ::testing::TestWithParam<BadKill> {};

TEST_P(FaultKillSpec, RuntimeThrowsNamingTheCause) {
  const BadKill& c = GetParam();
  ASSERT_EQ(::setenv("SYMPACK_FAULT_KILL", c.value, 1), 0);
  std::string message = "no throw";
  try {
    pgas::Runtime rt(cluster(8, /*threaded=*/false));
  } catch (const std::invalid_argument& e) {
    message = e.what();
  } catch (...) {  // any other type fails below, after the unsetenv
    message = "another exception type";
  }
  ::unsetenv("SYMPACK_FAULT_KILL");
  EXPECT_NE(message.find(c.expect), std::string::npos)
      << "message: \"" << message << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    ResilienceEnv, FaultKillSpec,
    ::testing::Values(
        BadKill{"EventTrailingChars", "3@7x", "SYMPACK_FAULT_KILL=\"3@7x\""},
        BadKill{"SeedTrailingChars", "random@4x2",
                "SYMPACK_FAULT_KILL=\"random@4x2\""},
        BadKill{"NegativeRank", "-5@3", "SYMPACK_FAULT_KILL=\"-5@3\""},
        BadKill{"NegativeEvent", "3@-1", "SYMPACK_FAULT_KILL=\"3@-1\""},
        BadKill{"RankNotANumber", "abc@1", "SYMPACK_FAULT_KILL=\"abc@1\""},
        BadKill{"RankBeyondInt", "99999999999@1",
                "SYMPACK_FAULT_KILL=\"99999999999@1\""},
        BadKill{"RankBeyondNranks", "12@5", "faults.kill_rank = 12"}),
    [](const ::testing::TestParamInfo<BadKill>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------------------------
// Threaded driver under a kill (name matches the TSan CI job's
// -R 'Threaded|Drive' regex): the watchdog/death-scan path and the
// recovery loop must be race-free.

TEST(ChaosThreadedDrive, SurvivesRankKillWithRecovery) {
  const auto a = sparse::thermal_proxy(0.005);
  const core::SolverOptions opts = resilient_opts(core::Variant::kFanOut);
  const RunResult base =
      run_solver(a, 6, /*threaded=*/true, pgas::FaultConfig{}, opts);
  const pgas::FaultConfig faults = kill_config(chaos_seed(777));
  const RunResult r = run_solver(a, 6, /*threaded=*/true, faults, opts);
  EXPECT_LT(r.residual, 1e-10) << "kill seed " << faults.kill_seed;
  expect_factor_matches(base, r);
  EXPECT_EQ(r.injected.kills, 1u);
  EXPECT_GT(r.stats.ckpt_saves, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

}  // namespace
}  // namespace sympack
