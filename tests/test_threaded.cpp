// Threaded-mode hardening suite (the TSan CI job runs exactly these
// binaries): threaded-vs-sequential parity on the three paper proxy
// generators across all four scheduling policies (and for the fan-in
// variant and a protocol-only run, whose null-buffer rget/copy calls
// then run on rank threads), a fused multi-column solve and SolveServer
// drain (whose consumers free producers' buffers across threads),
// seeded-interleaving replay at the solver level, the duplicate-signal
// device-leak regression for FactorEngine::handle_signal, and fan-in
// aggregates freed under both drivers (on the consumer's thread when
// threaded).
//
// Parity is *numeric*, not bitwise: the threaded schedule changes the
// order scatter-adds fold update contributions into a block, so entries
// agree to rounding (1e-9) while residuals and every CommStats counter
// must match the sequential driver exactly (the task/communication
// protocol is schedule-independent).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/factor.hpp"
#include "core/solve_server.hpp"
#include "core/solver.hpp"
#include "core/trace.hpp"
#include "ordering/etree.hpp"
#include "ordering/ordering.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/random.hpp"
#include "symbolic/taskgraph.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

// White-box access to FactorEngine for the duplicate-signal regression:
// TaskGraph::recipients() deduplicates senders, so a duplicate signal
// cannot be produced through the public protocol — inject one directly.
struct FactorEngineTestPeer {
  static void inject_signal(FactorEngine& e, pgas::Rank& rank,
                            sparse::idx_t k, symbolic::BlockSlot slot) {
    e.handle_signal(rank, FactorEngine::Signal{k, slot});
  }
  static std::size_t cache_entries(const FactorEngine& e, int rank) {
    return e.per_rank_[rank].cache.size();
  }
  static std::size_t aggregates(const FactorEngine& e, int rank) {
    return e.per_rank_[rank].aggs.size();
  }
  /// Run update task U_{k, si, ti} on `rank` as the RTQ would.
  static void run_update(FactorEngine& e, pgas::Rank& rank, sparse::idx_t k,
                         sparse::idx_t si, sparse::idx_t ti) {
    e.execute(rank, FactorEngine::Task{FactorEngine::TaskType::kUpdate, k, 0,
                                       si, ti, 0.0});
  }
  static void drain_cache(FactorEngine& e, pgas::Rank& rank) {
    e.per_rank_[rank.id()].cache.clear();  // each copy frees itself
  }
};

}  // namespace sympack::core

namespace sympack {
namespace {

using sparse::CscMatrix;
using sparse::idx_t;

pgas::Runtime::Config cluster(int nranks, bool threaded) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;  // one rank per device: no share-OOM fallbacks,
                          // so CommStats are schedule-independent
  cfg.device_memory_bytes = 64 << 20;
  cfg.threaded = threaded;
  return cfg;
}

CscMatrix proxy_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

/// The pieces SymPackSolver builds around a FactorEngine (replicated
/// view, numeric store assembled from A), for tests that drive the
/// engine directly. The task graph is built for `opts.variant`.
struct EngineParts {
  EngineParts(const CscMatrix& a, pgas::Runtime& rt,
              const core::SolverOptions& opts)
      : ap(sparse::permute_symmetric(
            a, ordering::compute_ordering(a, opts.ordering))),
        sym(symbolic::analyze(ap, ordering::elimination_tree(ap),
                              opts.symbolic)),
        mapping(rt.nranks(), opts.mapping),
        tg(sym, mapping, opts.variant),
        view(tg),
        store(tg, rt, /*numeric=*/true),
        offload(opts.gpu, rt, /*numeric=*/true) {
    store.assemble(ap);
  }

  CscMatrix ap;
  symbolic::Symbolic sym;
  symbolic::Mapping mapping;
  symbolic::TaskGraph tg;
  symbolic::SymbolicView view;
  core::BlockStore store;
  core::Offload offload;
};

struct RunResult {
  double factor_residual = 0.0;
  std::vector<double> factor;
  pgas::CommStats stats;  // factorization + solve, aggregated over ranks
  std::uint64_t fallbacks = 0;
  std::uint64_t peak_bytes = 0;
  std::size_t device_bytes_left = 0;
};

RunResult run_solver(const CscMatrix& a, int nranks, bool threaded,
                     core::Policy policy, std::uint64_t seed = 0,
                     core::Variant variant = core::Variant::kFanOut) {
  pgas::Runtime rt(cluster(nranks, threaded));
  core::SolverOptions opts;
  opts.policy = policy;
  opts.interleave_seed = seed;
  opts.variant = variant;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);

  RunResult r;
  r.factor_residual = sparse::relative_residual(a, x, b);
  r.factor = solver.dense_factor();
  r.stats = rt.total_stats();
  r.fallbacks = solver.report().gpu_fallbacks;
  r.peak_bytes = rt.peak_bytes();
  for (int d = 0; d < rt.num_devices(); ++d) {
    r.device_bytes_left += rt.device_bytes_in_use(d);
  }
  return r;
}

/// Aggregate CommStats of a protocol-only factorization plus solve.
pgas::CommStats protocol_only_stats(const CscMatrix& a, int nranks,
                                    bool threaded, core::Policy policy) {
  pgas::Runtime rt(cluster(nranks, threaded));
  core::SolverOptions opts;
  opts.policy = policy;
  opts.numeric = false;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  (void)solver.solve(sparse::rhs_for_ones(a));
  return rt.total_stats();
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

// ------------------------------------------------------------------
// Threaded-vs-sequential parity: 3 proxy matrices x 4 policies x 8 ranks,
// plus a protocol-only row.

using ParityParam = std::tuple<std::string, core::Policy, bool /*numeric*/>;

class ThreadedParity : public ::testing::TestWithParam<ParityParam> {};

TEST_P(ThreadedParity, MatchesSequentialDriver) {
  const auto& [name, policy, numeric] = GetParam();
  const auto a = proxy_matrix(name);
  const int nranks = 8;

  if (!numeric) {
    // A protocol-only run is the numeric run without bytes, on either
    // driver: the same counters as the sequential protocol-only run and
    // as the threaded numeric run.
    const pgas::CommStats thr = protocol_only_stats(a, nranks, true, policy);
    expect_stats_equal(protocol_only_stats(a, nranks, false, policy), thr);
    expect_stats_equal(run_solver(a, nranks, true, policy).stats, thr);
    return;
  }

  const RunResult seq = run_solver(a, nranks, /*threaded=*/false, policy);
  const RunResult thr = run_solver(a, nranks, /*threaded=*/true, policy);

  // Both drivers solve the system.
  EXPECT_LT(seq.factor_residual, 1e-10);
  EXPECT_LT(thr.factor_residual, 1e-10);

  // Factors agree entry-wise to rounding (scatter-add order differs).
  ASSERT_EQ(seq.factor.size(), thr.factor.size());
  for (std::size_t i = 0; i < seq.factor.size(); ++i) {
    ASSERT_NEAR(seq.factor[i], thr.factor[i], 1e-9) << "entry " << i;
  }

  // The communication protocol is schedule-independent: identical
  // aggregate counters. Determinism presumes no device-OOM fallbacks.
  EXPECT_EQ(seq.fallbacks, 0u);
  EXPECT_EQ(thr.fallbacks, 0u);
  expect_stats_equal(seq.stats, thr.stats);

  // Memory sanity: everything returned to the device segments, and the
  // threaded peak stays in the same regime as the sequential one (more
  // concurrently-live fetch buffers, but bounded).
  EXPECT_EQ(seq.device_bytes_left, 0u);
  EXPECT_EQ(thr.device_bytes_left, 0u);
  EXPECT_GE(thr.peak_bytes, static_cast<std::uint64_t>(a.n()));
  EXPECT_LE(thr.peak_bytes, 8 * seq.peak_bytes);
}

std::string parity_name(const ::testing::TestParamInfo<ParityParam>& info) {
  return std::get<0>(info.param) + "_" +
         core::policy_name(std::get<1>(info.param)).substr(0, 4) +
         (core::policy_name(std::get<1>(info.param)).size() > 4 ? "p" : "");
}

INSTANTIATE_TEST_SUITE_P(
    MatricesAndPolicies, ThreadedParity,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Values(core::Policy::kFifo,
                                         core::Policy::kLifo,
                                         core::Policy::kPriority,
                                         core::Policy::kCriticalPath),
                       ::testing::Values(true)),
    parity_name);

INSTANTIATE_TEST_SUITE_P(ProtocolOnly, ThreadedParity,
                         ::testing::Values(ParityParam{
                             "flan", core::Policy::kFifo, false}),
                         parity_name);

// The fan-in variant under both drive modes: its per-rank aggregate
// vectors, update scratch and fetched-pivot copies are single-writer like
// the rest of the engine's per-rank state.
class ThreadedFanInParity : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadedFanInParity, MatchesSequentialMode) {
  const auto a = proxy_matrix(GetParam());
  const RunResult seq = run_solver(a, 8, /*threaded=*/false,
                                   core::Policy::kFifo, 0,
                                   core::Variant::kFanIn);
  const RunResult thr = run_solver(a, 8, /*threaded=*/true,
                                   core::Policy::kFifo, 0,
                                   core::Variant::kFanIn);
  EXPECT_LT(seq.factor_residual, 1e-10);
  EXPECT_LT(thr.factor_residual, 1e-10);
  ASSERT_EQ(seq.factor.size(), thr.factor.size());
  for (std::size_t i = 0; i < seq.factor.size(); ++i) {
    ASSERT_NEAR(seq.factor[i], thr.factor[i], 1e-9) << "entry " << i;
  }
  expect_stats_equal(seq.stats, thr.stats);
  EXPECT_EQ(thr.device_bytes_left, 0u);
}

INSTANTIATE_TEST_SUITE_P(Proxies, ThreadedFanInParity,
                         ::testing::Values("flan", "bones", "thermal"));

// Fan-in drops each aggregate once it is flushed (sent, or applied at the
// target's owner): every rank starts with the aggregates it owes and
// holds none after run(), whichever driver stepped the ranks. A sent
// aggregate's buffer is freed with the last copy of its signal, which
// under the threaded driver happens on the owner's thread, so once run()
// returns the runtime holds the factor blocks and nothing else.
class FanInAggregates : public ::testing::TestWithParam<bool> {};

TEST_P(FanInAggregates, NoneLeftAfterRun) {
  pgas::Runtime rt(cluster(8, /*threaded=*/GetParam()));
  core::SolverOptions opts;
  opts.variant = core::Variant::kFanIn;
  EngineParts parts(proxy_matrix("flan"), rt, opts);
  core::FactorEngine engine(rt, parts.tg, parts.view, parts.store,
                            parts.offload, opts);

  using Peer = core::FactorEngineTestPeer;
  std::size_t owed = 0;
  for (int r = 0; r < rt.nranks(); ++r) owed += Peer::aggregates(engine, r);
  EXPECT_GT(owed, 0u);
  engine.run();
  for (int r = 0; r < rt.nranks(); ++r) {
    EXPECT_EQ(Peer::aggregates(engine, r), 0u) << "rank " << r;
  }
  std::size_t block_bytes = 0;
  for (idx_t bid = 0; bid < parts.store.num_blocks(); ++bid) {
    block_bytes += parts.store.bytes(bid);
  }
  EXPECT_EQ(rt.bytes_in_use(), block_bytes);
}

INSTANTIATE_TEST_SUITE_P(Drivers, FanInAggregates, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threaded" : "Sequential";
                         });

// The dense update table: an update task runs only once both its
// operands have arrived, and only once. Running one by hand before its
// operands arrive (or again after it ran) throws the engine's
// std::logic_error; a full run, under every policy, both variants and
// both drivers, executes every update exactly once.
TEST(UpdateTable, UpdateWithoutStateThrowsAndRunsOnce) {
  pgas::Runtime rt(cluster(8, /*threaded=*/false));
  const core::SolverOptions opts;
  EngineParts parts(proxy_matrix("flan"), rt, opts);
  core::FactorEngine engine(rt, parts.tg, parts.view, parts.store,
                            parts.offload, opts);
  using Peer = core::FactorEngineTestPeer;
  // The first panel with two blocks has a GEMM task (2, 1) and a SYRK
  // task (1, 1).
  idx_t k = 0;
  while (parts.sym.snode(k).blocks.size() < 2) ++k;
  const auto& sn = parts.sym.snode(k);
  const auto rank_of = [&](idx_t si, idx_t ti) {
    return parts.tg.update_rank(sn.blocks[si - 1].target, k,
                                sn.blocks[ti - 1].target);
  };
  EXPECT_THROW(Peer::run_update(engine, rt.rank(rank_of(2, 1)), k, 2, 1),
               std::logic_error);
  EXPECT_THROW(Peer::run_update(engine, rt.rank(rank_of(1, 1)), k, 1, 1),
               std::logic_error);
  // The refused calls changed nothing: the run completes and factors.
  engine.run();
  EXPECT_THROW(Peer::run_update(engine, rt.rank(rank_of(2, 1)), k, 2, 1),
               std::logic_error);
  EXPECT_THROW(Peer::run_update(engine, rt.rank(rank_of(1, 1)), k, 1, 1),
               std::logic_error);
}

using UpdateOnceParam = std::tuple<core::Policy, core::Variant, bool>;

class UpdateTableOnce : public ::testing::TestWithParam<UpdateOnceParam> {};

TEST_P(UpdateTableOnce, EveryUpdateRunsExactlyOnce) {
  const auto& [policy, variant, threaded] = GetParam();
  pgas::Runtime rt(cluster(8, threaded));
  core::SolverOptions opts;
  opts.policy = policy;
  opts.variant = variant;
  EngineParts parts(proxy_matrix("bones"), rt, opts);
  ASSERT_GT(parts.tg.total_updates(), 100);
  core::Tracer tracer;
  core::FactorEngine engine(rt, parts.tg, parts.view, parts.store,
                            parts.offload, opts, &tracer);
  engine.run();
  std::map<std::string, int> runs;
  for (const core::Tracer::Event& ev : tracer.events()) {
    if (ev.name.rfind("U ", 0) == 0) ++runs[ev.name];
  }
  EXPECT_EQ(static_cast<idx_t>(runs.size()), parts.tg.total_updates());
  for (const auto& [name, n] : runs) EXPECT_EQ(n, 1) << name;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesVariantsDrivers, UpdateTableOnce,
    ::testing::Combine(::testing::Values(core::Policy::kFifo,
                                         core::Policy::kLifo,
                                         core::Policy::kPriority,
                                         core::Policy::kCriticalPath),
                       ::testing::Values(core::Variant::kFanOut,
                                         core::Variant::kFanIn),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<UpdateOnceParam>& info) {
      std::string name = core::policy_name(std::get<0>(info.param));
      std::erase(name, '-');
      name += std::get<1>(info.param) == core::Variant::kFanIn ? "_fanin"
                                                               : "_fanout";
      return name + (std::get<2>(info.param) ? "_Threaded" : "_Sequential");
    });

// ------------------------------------------------------------------
// Fused solves under both drivers. With default options solve(b, 8) and
// a drain carry every column through one sweep pair, and each consumer
// thread frees the producer's segment and partial-sum buffers once it
// has handled the message (DESIGN.md §4f).

struct SolveRun {
  std::vector<double> x;                     // solve(b, 8)
  std::vector<std::vector<double>> drained;  // 4 submits of 2 columns
  pgas::CommStats solve_stats;
  pgas::CommStats drain_stats;
  std::size_t live_before = 0;  // after factorize()
  std::size_t live_after_solve = 0;
  std::size_t live_after_server = 0;  // after ~SolveServer()
};

SolveRun run_fused_solves(const CscMatrix& a, bool threaded) {
  pgas::Runtime rt(cluster(8, threaded));
  core::SymPackSolver solver(rt, core::SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> b(n * 8);
  support::Xoshiro256 rng(21);
  for (auto& v : b) v = rng.next_in(-1, 1);

  SolveRun r;
  r.live_before = rt.bytes_in_use();
  rt.reset_stats();
  r.x = solver.solve(b, 8);
  r.solve_stats = rt.total_stats();
  r.live_after_solve = rt.bytes_in_use();
  rt.reset_stats();
  {
    core::SolveServer server(solver);
    for (std::size_t i = 0; i < 4; ++i) {
      std::vector<double> cols(b.begin() + 2 * i * n,
                               b.begin() + 2 * (i + 1) * n);
      EXPECT_TRUE(server.submit(std::move(cols), 2));
    }
    r.drained = server.drain();
    r.drain_stats = rt.total_stats();
  }
  r.live_after_server = rt.bytes_in_use();
  return r;
}

void expect_near_all(const std::vector<double>& a,
                     const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-9) << "entry " << i;
  }
}

TEST(ThreadedSolve, FusedSolveAndDrainMatchSequential) {
  const auto a = proxy_matrix("bones");
  const SolveRun seq = run_fused_solves(a, /*threaded=*/false);
  const SolveRun thr = run_fused_solves(a, /*threaded=*/true);

  expect_stats_equal(seq.solve_stats, thr.solve_stats);
  expect_stats_equal(seq.drain_stats, thr.drain_stats);
  expect_near_all(seq.x, thr.x);
  ASSERT_EQ(seq.drained.size(), 4u);
  ASSERT_EQ(thr.drained.size(), 4u);
  for (std::size_t i = 0; i < seq.drained.size(); ++i) {
    expect_near_all(seq.drained[i], thr.drained[i]);
    // The drain solved the same columns as solve(b, 8).
    const auto n = static_cast<std::size_t>(a.n());
    expect_near_all(thr.drained[i],
                    std::vector<double>(thr.x.begin() + 2 * i * n,
                                        thr.x.begin() + 2 * (i + 1) * n));
  }

  for (const SolveRun* r : {&seq, &thr}) {
    EXPECT_EQ(r->live_after_solve, r->live_before);
    EXPECT_EQ(r->live_after_server, r->live_before);
  }
}

// ------------------------------------------------------------------
// Host buffers freed from rank threads. Every host buffer is one
// allocate_host allocation of exactly its size, and whichever thread
// drops the last reference frees it with Rank::deallocate (DESIGN.md
// §4f), so the accounting must come out exact under the threaded
// driver too.

TEST(ThreadedHostMemory, FactorizeHoldsExactlyTheBlockBytes) {
  pgas::Runtime rt(cluster(8, /*threaded=*/true));
  core::SymPackSolver solver(rt, core::SolverOptions{});
  solver.symbolic_factorize(proxy_matrix("flan"));
  solver.factorize();
  const core::BlockStore& store = solver.block_store();
  std::size_t block_bytes = 0;
  for (idx_t bid = 0; bid < store.num_blocks(); ++bid) {
    block_bytes += store.bytes(bid);
  }
  EXPECT_EQ(rt.bytes_in_use(), block_bytes);
}

TEST(ThreadedHostMemory, SharedHostBuffersFreedOnConsumerThreads) {
  pgas::Runtime rt(cluster(4, /*threaded=*/true));
  const std::size_t base = rt.bytes_in_use();
  constexpr int kPayloads = 64;
  constexpr int kConsumers = 3;

  // Rank 0 produces the payloads; every consumer thread holds a
  // reference to each, as every recipient of one eager signal does.
  std::vector<std::shared_ptr<double>> payloads;
  std::size_t payload_bytes = 0;
  for (int i = 0; i < kPayloads; ++i) {
    const auto count = static_cast<std::size_t>(i + 1);
    payloads.push_back(pgas::shared_host_buffer(rt.rank(0), count));
    for (std::size_t j = 0; j < count; ++j) payloads.back().get()[j] = i;
    payload_bytes += count * sizeof(double);
  }
  EXPECT_EQ(rt.bytes_in_use(), base + payload_bytes);

  std::vector<int> mismatches(kConsumers, 0);
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&rt, &mismatches, c, held = payloads]() mutable {
      // Each consumer also allocates and frees on its own rank while
      // the payloads are released around it.
      pgas::Rank& own = rt.rank(c + 1);
      for (int i = 0; i < kPayloads; ++i) {
        const pgas::GlobalPtr scratch = own.allocate_host(64);
        if (held[i].get()[i] != i) ++mismatches[c];
        own.deallocate(scratch);
        held[i].reset();
      }
    });
  }
  payloads.clear();  // the producer's references die mid-flight
  for (auto& t : consumers) t.join();

  for (int c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "consumer " << c;
  }
  EXPECT_EQ(rt.bytes_in_use(), base);
}

// ------------------------------------------------------------------
// Seeded interleaving fuzzer at the solver level.

TEST(ThreadedFuzzer, SameSeedReplaysBitwiseIdenticalFactor) {
  const auto a = sparse::thermal_proxy(0.005);
  const RunResult r1 =
      run_solver(a, 6, /*threaded=*/false, core::Policy::kFifo, 42);
  const RunResult r2 =
      run_solver(a, 6, /*threaded=*/false, core::Policy::kFifo, 42);
  ASSERT_EQ(r1.factor.size(), r2.factor.size());
  // Same seed -> same stepping schedule -> bitwise-identical numerics.
  EXPECT_EQ(std::memcmp(r1.factor.data(), r2.factor.data(),
                        r1.factor.size() * sizeof(double)),
            0);
  expect_stats_equal(r1.stats, r2.stats);
}

TEST(ThreadedFuzzer, AdversarialSchedulesStayCorrect) {
  // The protocol must produce a correct factorization under arbitrary
  // rank-stepping orders; sweep a few fuzzer seeds and policies.
  const auto a = sparse::bones_proxy(0.02);
  for (const std::uint64_t seed : {1ull, 7ull, 0xfeedull}) {
    for (const auto policy :
         {core::Policy::kFifo, core::Policy::kCriticalPath}) {
      const RunResult r = run_solver(a, 8, /*threaded=*/false, policy, seed);
      EXPECT_LT(r.factor_residual, 1e-10)
          << "seed " << seed << " policy " << core::policy_name(policy);
      EXPECT_EQ(r.device_bytes_left, 0u);
    }
  }
}

TEST(ThreadedFuzzer, FuzzedAndRoundRobinStatsAgree) {
  // Counters are schedule-independent under the sequential fuzzer too.
  const auto a = sparse::flan_proxy(0.02);
  const RunResult plain =
      run_solver(a, 8, /*threaded=*/false, core::Policy::kFifo, 0);
  const RunResult fuzzed =
      run_solver(a, 8, /*threaded=*/false, core::Policy::kFifo, 1234);
  expect_stats_equal(plain.stats, fuzzed.stats);
}

// ------------------------------------------------------------------
// Duplicate-signal device-leak regression (satellite fix in
// FactorEngine::handle_signal): a duplicate signal used to rget into a
// fresh device allocation and drop it when cache.emplace found the
// existing entry, permanently shrinking the shared device segment.

TEST(ThreadedLeakRegression, DuplicateSignalDoesNotLeakDeviceMemory) {
  const auto a = sparse::grid3d_laplacian(4, 4, 4);
  pgas::Runtime rt(cluster(4, /*threaded=*/false));

  core::SolverOptions opts;
  opts.gpu.device_resident_threshold = 1;  // every factor block is a
                                           // "GPU block"
  EngineParts parts(a, rt, opts);
  core::FactorEngine engine(rt, parts.tg, parts.view, parts.store,
                            parts.offload, opts);

  // Find a factor block with at least one remote consumer.
  idx_t sig_k = -1;
  int recipient = -1;
  for (idx_t k = 0; k < parts.sym.num_snodes() && recipient < 0; ++k) {
    const auto rcpts = parts.tg.recipients(k, 0);
    if (!rcpts.empty()) {
      sig_k = k;
      recipient = rcpts.front();
    }
  }
  ASSERT_GE(recipient, 0) << "no cross-rank block in the mapping";

  pgas::Rank& rank = rt.rank(recipient);
  using Peer = core::FactorEngineTestPeer;
  ASSERT_EQ(rt.device_bytes_in_use(rank.device()), 0u);

  Peer::inject_signal(engine, rank, sig_k, 0);
  const std::size_t after_first = rt.device_bytes_in_use(rank.device());
  ASSERT_GT(after_first, 0u);  // the block was fetched into device memory
  ASSERT_EQ(Peer::cache_entries(engine, recipient), 1u);

  // A duplicate of the same signal must not grow device usage: the
  // refetched copy has to be released when the cache already holds the
  // block (pre-fix this leaked one block-sized device allocation).
  Peer::inject_signal(engine, rank, sig_k, 0);
  EXPECT_EQ(rt.device_bytes_in_use(rank.device()), after_first);
  EXPECT_EQ(Peer::cache_entries(engine, recipient), 1u);

  // Releasing the cache must return the segment to exactly zero — any
  // orphaned duplicate allocation shows up here.
  Peer::drain_cache(engine, rank);
  EXPECT_EQ(rt.device_bytes_in_use(rank.device()), 0u);
}

// Regression for a data race TSan flagged: events() handed out a
// reference into events_ and size() read it unlocked, while the threaded
// drive mode calls record() concurrently from every rank thread. Both
// accessors now take the mutex (events() returns a snapshot copy), so
// this runs clean under -DSYMPACK_SANITIZE=thread.
TEST(ThreadedTracer, ConcurrentRecordAndReadAreRaceFree) {
  core::Tracer tracer;
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 500;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&tracer, w] {
      for (int i = 0; i < kEventsPerWriter; ++i) {
        tracer.record(w, "D " + std::to_string(i), i * 1e-6, i * 1e-6 + 5e-7);
      }
    });
  }
  threads.emplace_back([&tracer] {
    // Reader hammers every const accessor while the writers append.
    std::size_t seen = 0;
    while (seen < kWriters * kEventsPerWriter) {
      seen = tracer.size();
      const std::vector<core::Tracer::Event> snapshot = tracer.events();
      ASSERT_LE(snapshot.size(), static_cast<std::size_t>(kWriters) *
                                     kEventsPerWriter);
      ASSERT_FALSE(tracer.to_chrome_json().empty());
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kWriters) * kEventsPerWriter);
}

}  // namespace
}  // namespace sympack
