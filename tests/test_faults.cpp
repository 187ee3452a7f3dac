// Chaos suite: the solver must survive deterministic fault injection in
// the PGAS runtime (pgas/fault.hpp) with fault-free numerics.
//
// Matrix of fault classes x scheduling policies x proxy generators at 8
// ranks: each class runs at its documented default rate under >= 4
// injection seeds and must (a) complete, (b) reproduce the fault-free
// residual, (c) agree entrywise with the fault-free factor to rounding,
// and (d) tick the corresponding recovery counter. Plus: bitwise
// replayability from the fault seed, zero recovery counters when faults
// are off, fan-in variant coverage (kAggregate application is not
// idempotent, so the dedup ledger is load-bearing there), white-box
// isolation of the two nothrow allocate_device call sites, and
// ChaosThreaded* tests that the TSan CI job picks up via its
// -R 'Threaded|Drive' regex.
//
// The chaos CI job rotates SYMPACK_FAULT_SEED_BASE (the workflow passes
// the run number); it is mixed into every injection seed below so each
// CI run explores a fresh deterministic fault schedule, and a failure
// log names the base seed for replay. The variable is read only here,
// never by the runtime (SYMPACK_FAULT_SEED is the runtime knob).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/solver.hpp"
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

// Mix the CI-rotated base seed into a per-case seed. base = 0 (local
// runs with the variable unset) leaves the case seed untouched.
std::uint64_t chaos_seed(std::uint64_t case_seed) {
  const auto base = static_cast<std::uint64_t>(
      support::env_int("SYMPACK_FAULT_SEED_BASE", 0));
  return case_seed ^ (base * 0x9e3779b97f4a7c15ull);
}

struct RunResult {
  double residual = 0.0;
  std::vector<double> factor;
  pgas::CommStats stats;                    // factor + solve, all ranks
  pgas::FaultInjector::Counters injected;   // what the injector did
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

void expect_stats_equal(const pgas::CommStats& a, const pgas::CommStats& b) {
  EXPECT_EQ(a.rpcs_sent, b.rpcs_sent);
  EXPECT_EQ(a.rpcs_executed, b.rpcs_executed);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.bytes_from_host, b.bytes_from_host);
  EXPECT_EQ(a.bytes_from_device, b.bytes_from_device);
  EXPECT_EQ(a.bytes_to_device, b.bytes_to_device);
  EXPECT_EQ(a.hd_copies, b.hd_copies);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.dropped_detected, b.dropped_detected);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.out_of_order, b.out_of_order);
  EXPECT_EQ(a.rpcs_deferred, b.rpcs_deferred);
  EXPECT_EQ(a.oom_fallbacks, b.oom_fallbacks);
}

void expect_factor_matches(const RunResult& base, const RunResult& faulty) {
  // Recovery reshuffles the schedule, so scatter-adds fold update
  // contributions in a different order: entries agree to rounding, not
  // bitwise (same contract as threaded-vs-sequential parity).
  ASSERT_EQ(base.factor.size(), faulty.factor.size());
  for (std::size_t i = 0; i < base.factor.size(); ++i) {
    ASSERT_NEAR(base.factor[i], faulty.factor[i], 1e-9) << "entry " << i;
  }
}

// ------------------------------------------------------------------
// Fault-class matrix: one class per row at its documented default rate,
// spreading policies and proxy matrices across the rows so all four
// policies and all three generators see chaos.

struct FaultCase {
  const char* name;
  const char* matrix;
  core::Policy policy;
  void (*arm)(pgas::FaultConfig&);
  // The recovery counter this class must tick (0 => test failure).
  std::uint64_t (*ticked)(const RunResult&);
  // Optional solver-option tweak (applied to baseline and faulty run).
  void (*tune)(core::SolverOptions&) = nullptr;
};

const FaultCase kFaultCases[] = {
    {"drop", "flan", core::Policy::kFifo,
     [](pgas::FaultConfig& f) { f.drop_rate = 0.02; },
     [](const RunResult& r) {
       // A swallowed signal must be noticed (pull re-request) AND
       // re-sent from the producer's ledger.
       return std::min(r.stats.dropped_detected, r.stats.retransmits);
     }},
    {"duplicate", "bones", core::Policy::kLifo,
     [](pgas::FaultConfig& f) { f.duplicate_rate = 0.02; },
     [](const RunResult& r) { return r.stats.duplicates_dropped; }},
    {"delay", "thermal", core::Policy::kPriority,
     [](pgas::FaultConfig& f) { f.delay_rate = 0.05; },
     [](const RunResult& r) { return r.stats.rpcs_deferred; }},
    {"reorder", "flan", core::Policy::kCriticalPath,
     // A reorder between messages of *different* producers is absorbed
     // by the per-producer FIFO without a CommStats trace, so the
     // guaranteed-nonzero counter here is the injector's own tally; the
     // out_of_order stash path is pinned by FaultCombined below.
     [](pgas::FaultConfig& f) { f.reorder_rate = 0.05; },
     [](const RunResult& r) { return r.injected.reorders; }},
    {"transfer", "bones", core::Policy::kPriority,
     [](pgas::FaultConfig& f) { f.transfer_fail_rate = 0.02; },
     [](const RunResult& r) { return r.stats.retries; }},
    {"device", "thermal", core::Policy::kFifo,
     [](pgas::FaultConfig& f) { f.device_deny_rate = 0.05; },
     [](const RunResult& r) { return r.stats.oom_fallbacks; },
     // The proxy blocks sit below the hand-tuned GPU thresholds, so
     // lower them to make both nothrow allocate_device sites reachable.
     [](core::SolverOptions& o) {
       o.gpu.device_resident_threshold = 1;
       o.gpu.potrf_threshold = o.gpu.trsm_threshold = o.gpu.syrk_threshold =
           o.gpu.gemm_threshold = 1;
     }},
};

using ChaosParam = std::tuple<int, int>;  // (class index, injection seed)

class FaultClass : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(FaultClass, SurvivesWithFaultFreeNumerics) {
  const auto& [idx, seed] = GetParam();
  const FaultCase& fc = kFaultCases[idx];
  const auto a = proxy_matrix(fc.matrix);
  core::SolverOptions opts;
  opts.policy = fc.policy;
  if (fc.tune != nullptr) fc.tune(opts);

  const RunResult base =
      run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{}, opts);
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(1000ull * static_cast<std::uint64_t>(idx) +
                           static_cast<std::uint64_t>(seed));
  fc.arm(faults);
  const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);

  EXPECT_LT(base.residual, 1e-10);
  EXPECT_LT(r.residual, 1e-10) << "fault seed " << faults.seed;
  expect_factor_matches(base, r);
  EXPECT_GT(fc.ticked(r), 0u) << "fault seed " << faults.seed;
  // Recovery must not leak device memory either.
  EXPECT_EQ(r.device_bytes_left, 0u);
}

std::string chaos_name(const ::testing::TestParamInfo<ChaosParam>& info) {
  return std::string(kFaultCases[std::get<0>(info.param)].name) + "_s" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(ClassesAndSeeds, FaultClass,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(1, 5)),
                         chaos_name);

// ------------------------------------------------------------------
// Eager-on column of the fault matrix: the same chaos classes with the
// eager/coalesced fast path enabled (payloads ride the recovery ledger,
// so a retransmit replays the data inline). Only the four RPC-level
// classes run here: transfer faults target the pull rget and device
// denials the device-resident fetch, both of which the eager path
// deliberately removes for messages under the threshold, so their
// counters have nothing to tick.

class FaultClassEager : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(FaultClassEager, SurvivesWithFaultFreeNumerics) {
  const auto& [idx, seed] = GetParam();
  const FaultCase& fc = kFaultCases[idx];
  const auto a = proxy_matrix(fc.matrix);
  core::SolverOptions opts;
  opts.policy = fc.policy;
  opts.comm.eager_bytes = 4096;
  opts.comm.coalesce = true;
  if (fc.tune != nullptr) fc.tune(opts);

  const RunResult base =
      run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{}, opts);
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(7000ull + 1000ull * static_cast<std::uint64_t>(idx) +
                           static_cast<std::uint64_t>(seed));
  fc.arm(faults);
  const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);

  EXPECT_LT(base.residual, 1e-10);
  EXPECT_LT(r.residual, 1e-10) << "fault seed " << faults.seed;
  expect_factor_matches(base, r);
  EXPECT_GT(fc.ticked(r), 0u) << "fault seed " << faults.seed;
  EXPECT_GT(r.stats.eager_sends, 0u);
  EXPECT_GT(r.stats.coalesced_signals, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

INSTANTIATE_TEST_SUITE_P(ClassesAndSeeds, FaultClassEager,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(1, 5)),
                         chaos_name);

// ------------------------------------------------------------------
// Protocol-only runs under faults. A protocol-only run is the numeric run
// with the bytes left out, so under the faults-on goldens' injection mix
// it draws and retries the same transfer failures. Fan-in rows must
// match the numeric run bit for bit: clocks, CommStats, kernel call
// counts and the injector's tally. Fan-out keeps one documented gap: only
// numeric runs allocate "GPU blocks" (paper §4.2), whose device-denial
// draws share the per-rank fault stream, so its rows (rendezvous, where
// every block is pulled) check that the protocol-only run retries failed
// transfers at all. The proxies are larger than the chaos matrix's, so
// that blocks above the eager threshold are still pulled with rget.

CscMatrix mode_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.05);
  if (name == "bones") return sparse::bones_proxy(0.05);
  return sparse::thermal_proxy(0.02);
}

pgas::FaultConfig golden_fault_mix() {
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(0xfeedbeefull);
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.02;
  faults.delay_rate = 0.05;
  faults.reorder_rate = 0.05;
  faults.transfer_fail_rate = 0.02;
  faults.device_deny_rate = 0.05;
  return faults;
}

struct ModeRun {
  core::Report factor;                         // after factorize()
  std::uint64_t factor_transfer_failures = 0;  // injected by factorize()
  core::Report report;                         // factorize + solve(b)
  pgas::FaultInjector::Counters injected;      // all zero with faults off
  double residual = 0.0;                       // numeric runs only
};

ModeRun run_mode(const CscMatrix& a, core::Variant variant, bool eager,
                 bool numeric,
                 const pgas::FaultConfig& faults = golden_fault_mix(),
                 symbolic::Mapping::Kind mapping =
                     core::SolverOptions{}.mapping) {
  pgas::Runtime::Config cfg = cluster(8, /*threaded=*/false);
  cfg.faults = faults;
  pgas::Runtime rt(cfg);
  core::SolverOptions opts;
  opts.variant = variant;
  opts.mapping = mapping;
  opts.numeric = numeric;
  if (eager) {
    opts.comm.eager_bytes = 4096;
    opts.comm.coalesce = true;
  }
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  ModeRun r;
  r.factor = solver.report();
  if (rt.injector() != nullptr) {
    r.factor_transfer_failures = rt.injector()->total().transfer_failures;
  }
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  if (numeric) r.residual = sparse::relative_residual(a, x, b);
  r.report = solver.report();
  if (rt.injector() != nullptr) r.injected = rt.injector()->total();
  return r;
}

using ModeParam = std::tuple<std::string, bool>;  // (proxy, eager+coalesce)

class FaultProtocolOnlyFanIn : public ::testing::TestWithParam<ModeParam> {};

TEST_P(FaultProtocolOnlyFanIn, MatchesNumericBitwise) {
  const auto& [name, eager] = GetParam();
  const auto a = mode_matrix(name);
  const ModeRun num = run_mode(a, core::Variant::kFanIn, eager, true);
  const ModeRun dry = run_mode(a, core::Variant::kFanIn, eager, false);
  const auto seed = golden_fault_mix().seed;
  // Every rget draws from the rank's fault stream, failed or not.
  EXPECT_GT(num.report.comm.gets, 0u);
  EXPECT_EQ(num.report.factor_sim_s, dry.report.factor_sim_s)
      << "fault seed " << seed;
  EXPECT_EQ(num.report.solve_sim_s, dry.report.solve_sim_s);
  expect_stats_equal(num.report.comm, dry.report.comm);
  EXPECT_EQ(num.report.comm.rma_exhausted, dry.report.comm.rma_exhausted);
  EXPECT_EQ(num.report.total_ops.cpu, dry.report.total_ops.cpu);
  EXPECT_EQ(num.report.total_ops.gpu, dry.report.total_ops.gpu);
  EXPECT_EQ(num.injected.transfer_failures, dry.injected.transfer_failures);
  EXPECT_EQ(num.injected.device_denials, dry.injected.device_denials);
  EXPECT_EQ(num.injected.drops, dry.injected.drops);
}

std::string mode_name(const ::testing::TestParamInfo<ModeParam>& info) {
  return std::get<0>(info.param) +
         (std::get<1>(info.param) ? "_eager" : "_rdv");
}

INSTANTIATE_TEST_SUITE_P(
    ProxiesAndTransports, FaultProtocolOnlyFanIn,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Bool()),
    mode_name);

class FaultProtocolOnlyFanOut : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultProtocolOnlyFanOut, RetriesFailedTransfers) {
  const auto a = mode_matrix(GetParam());
  const ModeRun dry = run_mode(a, core::Variant::kFanOut, false, false);
  EXPECT_GT(dry.injected.transfer_failures, 0u);
  EXPECT_GT(dry.report.comm.retries, 0u)
      << "fault seed " << golden_fault_mix().seed;
}

INSTANTIATE_TEST_SUITE_P(
    Proxies, FaultProtocolOnlyFanOut,
    ::testing::Values("flan", "bones", "thermal"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------------------
// Combined drop + reorder: a dropped message whose successor (same
// producer) arrives before the retransmit lands in the consumer's stash
// — the out_of_order path a single-class run cannot guarantee.

TEST(FaultCombined, DropPlusReorderExercisesTheStash) {
  const auto a = sparse::flan_proxy(0.02);
  core::SolverOptions opts;
  opts.interleave_seed = 3;  // fuzzed stepping widens inbox windows
  const RunResult base =
      run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{}, opts);

  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(0xc0ffee);
  faults.drop_rate = 0.05;
  faults.reorder_rate = 0.25;
  const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);

  EXPECT_LT(r.residual, 1e-10) << "fault seed " << faults.seed;
  expect_factor_matches(base, r);
  EXPECT_GT(r.stats.out_of_order, 0u) << "fault seed " << faults.seed;
  EXPECT_GT(r.stats.retransmits, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

// ------------------------------------------------------------------
// Replayability: the fault seed pins the entire run — bitwise-identical
// factor, identical CommStats, identical injected-fault tallies.

TEST(FaultReplay, SameSeedReplaysBitwiseIdenticalRun) {
  const auto a = sparse::bones_proxy(0.02);
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(20260806);
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.02;
  faults.delay_rate = 0.05;
  faults.reorder_rate = 0.05;
  faults.transfer_fail_rate = 0.02;
  faults.device_deny_rate = 0.02;

  const RunResult r1 = run_solver(a, 8, /*threaded=*/false, faults);
  const RunResult r2 = run_solver(a, 8, /*threaded=*/false, faults);

  ASSERT_EQ(r1.factor.size(), r2.factor.size());
  EXPECT_EQ(std::memcmp(r1.factor.data(), r2.factor.data(),
                        r1.factor.size() * sizeof(double)),
            0);
  expect_stats_equal(r1.stats, r2.stats);
  EXPECT_EQ(r1.injected.drops, r2.injected.drops);
  EXPECT_EQ(r1.injected.duplicates, r2.injected.duplicates);
  EXPECT_EQ(r1.injected.delays, r2.injected.delays);
  EXPECT_EQ(r1.injected.reorders, r2.injected.reorders);
  EXPECT_EQ(r1.injected.transfer_failures, r2.injected.transfer_failures);
  EXPECT_EQ(r1.injected.device_denials, r2.injected.device_denials);
}

// ------------------------------------------------------------------
// Faults off => every recovery counter stays zero (the machinery is
// pay-for-what-you-use; the byte-identical-schedule guarantee is pinned
// at the runtime level in test_pgas).

TEST(FaultOff, RecoveryCountersStayZero) {
  const auto a = sparse::thermal_proxy(0.005);
  const RunResult r = run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{});
  EXPECT_LT(r.residual, 1e-10);
  EXPECT_EQ(r.stats.retries, 0u);
  EXPECT_EQ(r.stats.retransmits, 0u);
  EXPECT_EQ(r.stats.dropped_detected, 0u);
  EXPECT_EQ(r.stats.duplicates_dropped, 0u);
  EXPECT_EQ(r.stats.out_of_order, 0u);
  EXPECT_EQ(r.stats.rpcs_deferred, 0u);
  EXPECT_EQ(r.stats.oom_fallbacks, 0u);
}

// ------------------------------------------------------------------
// Fan-in variant: kAggregate application is NOT idempotent (an update
// folded twice corrupts the factor), so surviving duplicates proves the
// sequence-number dedup ledger is doing the work, not luck.

TEST(FaultFanin, SurvivesDropsAndDuplicates) {
  const auto a = sparse::flan_proxy(0.02);
  core::SolverOptions opts;
  opts.variant = core::Variant::kFanIn;
  const RunResult base =
      run_solver(a, 8, /*threaded=*/false, pgas::FaultConfig{}, opts);
  EXPECT_LT(base.residual, 1e-10);

  for (const std::uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
    pgas::FaultConfig faults;
    faults.enabled = true;
    faults.seed = chaos_seed(seed);
    faults.drop_rate = 0.02;
    faults.duplicate_rate = 0.02;
    const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);
    EXPECT_LT(r.residual, 1e-10) << "fault seed " << faults.seed;
    expect_factor_matches(base, r);
    EXPECT_GT(r.stats.duplicates_dropped, 0u) << "fault seed " << faults.seed;
    EXPECT_GT(r.stats.retransmits, 0u) << "fault seed " << faults.seed;
  }
}

// The owner pulls a rendezvous aggregate with rget under the endpoint's
// retry wrapper, so the pull draws transfer faults like every other
// pull, in numeric and protocol-only runs alike. With the column-cyclic
// mapping a panel's blocks share one rank, so every update's operands
// are local: the factorization's only messages are aggregate signals,
// and its only rgets are aggregate pulls.

TEST(FaultFanin, AggregatePullRetriesTransferFailures) {
  const auto a = sparse::flan_proxy(0.02);
  const auto cyclic = symbolic::Mapping::Kind::kColCyclic;
  const ModeRun clean = run_mode(a, core::Variant::kFanIn, false, true,
                                 pgas::FaultConfig{}, cyclic);
  EXPECT_GT(clean.factor.comm.rpcs_sent, 0u);
  EXPECT_EQ(clean.factor.comm.gets, clean.factor.comm.rpcs_sent);

  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(0x5eed);
  faults.transfer_fail_rate = 0.05;
  const ModeRun num =
      run_mode(a, core::Variant::kFanIn, false, true, faults, cyclic);
  const ModeRun dry =
      run_mode(a, core::Variant::kFanIn, false, false, faults, cyclic);
  EXPECT_GT(num.factor.comm.retries, 0u) << "fault seed " << faults.seed;
  EXPECT_EQ(num.factor.comm.retries, num.factor_transfer_failures);
  EXPECT_EQ(num.factor.factor_sim_s, dry.factor.factor_sim_s)
      << "fault seed " << faults.seed;
  EXPECT_EQ(num.factor.comm.retries, dry.factor.comm.retries);
  EXPECT_LT(num.residual, 1e-10) << "fault seed " << faults.seed;
}

// ------------------------------------------------------------------
// White-box isolation of the two nothrow allocate_device call sites
// (the satellite audit; block_store.cpp has none — see DESIGN.md §4c).
// Each test makes exactly one site reachable and denies every
// allocation: the run must complete on the host-fallback path.

TEST(FaultDeviceSites, ConsumerFetchSiteFallsBackToHost) {
  // FactorEngine::handle_signal: remote GPU-block fetch into device
  // memory. Offload::plan is inert (op thresholds unreachably high).
  const auto a = sparse::flan_proxy(0.02);
  core::SolverOptions opts;
  opts.gpu.device_resident_threshold = 1;  // every factor block is a
                                           // "GPU block"
  opts.gpu.potrf_threshold = opts.gpu.trsm_threshold =
      opts.gpu.syrk_threshold = opts.gpu.gemm_threshold = 1ll << 60;

  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(77);
  faults.device_deny_rate = 1.0;
  const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);

  EXPECT_LT(r.residual, 1e-10);
  EXPECT_GT(r.injected.device_denials, 0u);
  EXPECT_GT(r.stats.oom_fallbacks, 0u);
  // Every denial fell back to a host-staged fetch: nothing ever moved
  // to (or stayed on) a device.
  EXPECT_EQ(r.stats.bytes_to_device, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

TEST(FaultDeviceSites, OffloadPlanSiteFallsBackToCpu) {
  // Offload::plan: per-op device scratch. The consumer-fetch site is
  // inert (no block clears the device-resident threshold).
  const auto a = sparse::flan_proxy(0.02);
  core::SolverOptions opts;
  opts.gpu.device_resident_threshold = 1ll << 60;
  opts.gpu.potrf_threshold = opts.gpu.trsm_threshold =
      opts.gpu.syrk_threshold = opts.gpu.gemm_threshold = 1;

  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(78);
  faults.device_deny_rate = 1.0;
  const RunResult r = run_solver(a, 8, /*threaded=*/false, faults, opts);

  EXPECT_LT(r.residual, 1e-10);
  EXPECT_GT(r.injected.device_denials, 0u);
  EXPECT_GT(r.stats.oom_fallbacks, 0u);
  EXPECT_GT(r.report.gpu_fallbacks, 0u);
  for (std::size_t op = 0; op < 4; ++op) {
    EXPECT_EQ(r.report.total_ops.gpu[op], 0u) << "op " << op;
  }
  EXPECT_EQ(r.device_bytes_left, 0u);
}

// ------------------------------------------------------------------
// Threaded driver under chaos. The names match the TSan CI job's
// -R 'Threaded|Drive' regex, so data races in the recovery protocol
// (ledger, stash, counters, held-entry warps) run under TSan every CI.

TEST(ChaosThreadedDrive, SurvivesDrops) {
  const auto a = sparse::thermal_proxy(0.005);
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(31);
  faults.drop_rate = 0.03;
  const RunResult r = run_solver(a, 6, /*threaded=*/true, faults);
  EXPECT_LT(r.residual, 1e-10) << "fault seed " << faults.seed;
  EXPECT_GT(r.stats.retransmits, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

TEST(ChaosThreadedDrive, SurvivesDelayAndReorder) {
  const auto a = sparse::thermal_proxy(0.005);
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(32);
  faults.delay_rate = 0.05;
  faults.delay_s = 1e-4;
  faults.reorder_rate = 0.10;
  const RunResult r = run_solver(a, 6, /*threaded=*/true, faults);
  EXPECT_LT(r.residual, 1e-10) << "fault seed " << faults.seed;
  EXPECT_GT(r.stats.rpcs_deferred, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

TEST(ChaosThreadedDrive, SurvivesTransferFailures) {
  const auto a = sparse::thermal_proxy(0.005);
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = chaos_seed(33);
  faults.transfer_fail_rate = 0.02;
  const RunResult r = run_solver(a, 6, /*threaded=*/true, faults);
  EXPECT_LT(r.residual, 1e-10) << "fault seed " << faults.seed;
  EXPECT_GT(r.stats.retries, 0u);
  EXPECT_EQ(r.device_bytes_left, 0u);
}

}  // namespace
}  // namespace sympack
