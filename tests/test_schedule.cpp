// Golden-schedule regression suite.
//
// The task-runtime refactor (core/taskrt/) must not move a single task:
// for every (proxy, policy, faults on/off) combination the sequential
// driver's execution order — the exact sequence of (rank, task) pairs
// the tracer records — and the aggregated CommStats must stay
// byte-identical to the pre-refactor engines. The hashes below were
// captured on the hand-rolled engines (before taskrt existed) and are
// checked in; any scheduling change, however subtle, flips the hash.
//
// The hash folds, in record order, each traced event's rank and name
// (task ids, not timestamps — simulated times are equal in exact
// arithmetic but names are platform-proof), then the full CommStats
// counter block. Faults-on runs pin the recovery protocol's schedule
// too (ledger replays, dedup, re-requests) under a fixed injection seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/rightlooking.hpp"
#include "core/solve_server.hpp"
#include "core/solver.hpp"
#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "sparse/generators.hpp"

namespace sympack {
namespace {

using sparse::CscMatrix;

CscMatrix proxy_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

/// Every Runtime here takes its config as written: each row pins its
/// own FaultConfig, so a stray SYMPACK_FAULT_* in the environment must
/// not reach it.
constexpr auto kNoEnv = pgas::Runtime::EnvOverlay::kSkip;

/// Sharded symbolic metadata changes only where the metadata lives, so
/// every golden row must reproduce with sharding off and on.
constexpr bool kShardModes[] = {false, true};

void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

std::uint64_t schedule_hash(const core::Tracer& tracer,
                            const pgas::CommStats& stats) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& e : tracer.events()) {
    const std::int32_t rank = e.rank;
    fnv_mix(h, &rank, sizeof rank);
    fnv_mix(h, e.name.data(), e.name.size());
  }
  const std::uint64_t counters[] = {
      stats.rpcs_sent,      stats.rpcs_executed,      stats.gets,
      stats.puts,           stats.bytes_from_host,    stats.bytes_from_device,
      stats.bytes_to_device, stats.hd_copies,         stats.retries,
      stats.retransmits,    stats.dropped_detected,   stats.duplicates_dropped,
      stats.out_of_order,   stats.rpcs_deferred,      stats.oom_fallbacks,
  };
  fnv_mix(h, counters, sizeof counters);
  return h;
}

/// The goldens' cluster: 8 ranks, 4 per node, one device per rank.
pgas::Runtime::Config golden_cluster() {
  pgas::Runtime::Config cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  return cfg;
}

/// The faults-on goldens' injection: every message and transfer fault
/// class at a fixed seed.
pgas::FaultConfig golden_faults() {
  pgas::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 0xfeedbeefull;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.02;
  faults.delay_rate = 0.05;
  faults.reorder_rate = 0.05;
  faults.transfer_fail_rate = 0.02;
  faults.device_deny_rate = 0.05;
  return faults;
}

std::uint64_t run_golden(const std::string& proxy, core::Policy policy,
                         bool faults, core::CommOptions comm = {},
                         pgas::CommStats* stats_out = nullptr,
                         core::Variant variant = core::Variant::kFanOut,
                         bool shard = false) {
  pgas::Runtime::Config cfg = golden_cluster();
  if (faults) cfg.faults = golden_faults();
  pgas::Runtime rt(cfg, kNoEnv);
  core::SolverOptions opts;
  opts.policy = policy;
  opts.comm = comm;
  opts.variant = variant;
  opts.symbolic.shard = shard;
  core::SymPackSolver solver(rt, opts);
  core::Tracer tracer;
  solver.set_tracer(&tracer);
  solver.symbolic_factorize(proxy_matrix(proxy));
  solver.factorize();
  if (stats_out != nullptr) *stats_out = rt.total_stats();
  return schedule_hash(tracer, rt.total_stats());
}

struct Golden {
  const char* proxy;
  core::Policy policy;
  bool faults;
  std::uint64_t hash;
};

// Captured on the pre-taskrt engines (commit 7619baa), sequential
// driver, 8 ranks. Regenerate only for an *intentional* schedule change
// by running with --gtest_also_run_disabled_tests and copying the
// printed table (see DISABLED_PrintTable below).
const Golden kGolden[] = {
    {"flan", core::Policy::kFifo, false, 0x67e219a50b2fd360ull},
    {"flan", core::Policy::kLifo, false, 0xa303dbffc7517104ull},
    {"flan", core::Policy::kPriority, false, 0xd62aa162eae797a6ull},
    {"flan", core::Policy::kCriticalPath, false, 0xedf0fd89526dae06ull},
    {"bones", core::Policy::kFifo, false, 0xc38644e6093ca449ull},
    {"bones", core::Policy::kLifo, false, 0x71727e5b1a11a631ull},
    {"bones", core::Policy::kPriority, false, 0x1dd70933042954ffull},
    {"bones", core::Policy::kCriticalPath, false, 0x583ff9c950d8b3f9ull},
    {"thermal", core::Policy::kFifo, false, 0x194c29fd2a19d069ull},
    {"thermal", core::Policy::kLifo, false, 0x81f2835147a17d9ull},
    {"thermal", core::Policy::kPriority, false, 0xdf5e4539dcf5ffedull},
    {"thermal", core::Policy::kCriticalPath, false, 0x99cbee1e807b2597ull},
    {"flan", core::Policy::kFifo, true, 0xbc515dae9a5af28eull},
    {"flan", core::Policy::kLifo, true, 0x68dd77823ebe2287ull},
    {"flan", core::Policy::kPriority, true, 0x4b29f2790b94e844ull},
    {"flan", core::Policy::kCriticalPath, true, 0x5207cbdbacecae95ull},
    {"bones", core::Policy::kFifo, true, 0x90474dae94051043ull},
    {"bones", core::Policy::kLifo, true, 0x93014c1c8743e936ull},
    {"bones", core::Policy::kPriority, true, 0x6d89d802e1d8af1eull},
    {"bones", core::Policy::kCriticalPath, true, 0xe790ed8b916b231full},
    {"thermal", core::Policy::kFifo, true, 0x141d9b9a632dd1d4ull},
    {"thermal", core::Policy::kLifo, true, 0x30060880d1dbde8cull},
    {"thermal", core::Policy::kPriority, true, 0xe7e9645da31b1734ull},
    {"thermal", core::Policy::kCriticalPath, true, 0xdebd2d57b69be4eaull},
};

class GoldenSchedule : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenSchedule, HashMatchesPreRefactorCapture) {
  const Golden& g = GetParam();
  for (const bool shard : kShardModes) {
    const std::uint64_t h = run_golden(g.proxy, g.policy, g.faults, {},
                                       nullptr, core::Variant::kFanOut, shard);
    EXPECT_EQ(h, g.hash) << "schedule drifted: proxy=" << g.proxy
                         << " policy=" << core::policy_name(g.policy)
                         << " faults=" << (g.faults ? "on" : "off")
                         << " shard=" << shard << " actual=0x" << std::hex
                         << h << "ull";
  }
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string n = info.param.proxy;
  n += '_';
  n += core::policy_name(info.param.policy);
  if (info.param.faults) n += "_faults";
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(All, GoldenSchedule, ::testing::ValuesIn(kGolden),
                         golden_name);

// Regeneration helper: prints the full golden table in source form.
TEST(GoldenScheduleTable, DISABLED_PrintTable) {
  for (const Golden& g : kGolden) {
    const std::uint64_t h = run_golden(g.proxy, g.policy, g.faults);
    printf("    {\"%s\", core::Policy::k%s, %s, 0x%llxull},\n", g.proxy,
           g.policy == core::Policy::kFifo      ? "Fifo"
           : g.policy == core::Policy::kLifo    ? "Lifo"
           : g.policy == core::Policy::kPriority ? "Priority"
                                                 : "CriticalPath",
           g.faults ? "true" : "false", static_cast<unsigned long long>(h));
  }
}

// ------------------------------------------------------------------
// Eager + coalesced schedules are deterministic too (sequential driver):
// with a pinned threshold the fast path must not drift either. The rows
// double as a regression net for the transport itself — the hash covers
// the historical CommStats block, so an accidental extra rget or
// un-batched signal flips it.

core::CommOptions golden_comm() {
  core::CommOptions comm;
  comm.eager_bytes = 4096;
  comm.coalesce = true;
  return comm;
}

// Captured with eager_bytes=4096 + coalesce on (sequential driver, 8
// ranks, fifo), and re-captured when the slab pool was deleted: its
// zero-width pool-hit/pool-miss trace events were folded into these
// hashes and nothing else moved. Regenerate via DISABLED_PrintEagerTable.
const Golden kGoldenEager[] = {
    {"flan", core::Policy::kFifo, false, 0xbfd6b1472d664788ull},
    {"bones", core::Policy::kFifo, false, 0x3c6748155189f3eaull},
    {"thermal", core::Policy::kFifo, false, 0x8707dfb0dc286caaull},
    {"flan", core::Policy::kFifo, true, 0xe7c87391361d0265ull},
    {"bones", core::Policy::kFifo, true, 0xe33ee2500d15829dull},
    {"thermal", core::Policy::kFifo, true, 0xafcc5d9ecf379a3cull},
};

class GoldenEagerSchedule : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenEagerSchedule, HashMatchesCapture) {
  const Golden& g = GetParam();
  for (const bool shard : kShardModes) {
    pgas::CommStats stats;
    const std::uint64_t h =
        run_golden(g.proxy, g.policy, g.faults, golden_comm(), &stats,
                   core::Variant::kFanOut, shard);
    // The fast path actually engaged on every row.
    EXPECT_GT(stats.eager_sends, 0u);
    EXPECT_GT(stats.coalesced_signals, 0u);
    EXPECT_EQ(h, g.hash) << "eager schedule drifted: proxy=" << g.proxy
                         << " faults=" << (g.faults ? "on" : "off")
                         << " shard=" << shard << " actual=0x" << std::hex
                         << h << "ull";
  }
}

INSTANTIATE_TEST_SUITE_P(Eager, GoldenEagerSchedule,
                         ::testing::ValuesIn(kGoldenEager), golden_name);

TEST(GoldenScheduleTable, DISABLED_PrintEagerTable) {
  for (const Golden& g : kGoldenEager) {
    const std::uint64_t h =
        run_golden(g.proxy, g.policy, g.faults, golden_comm());
    printf("    {\"%s\", core::Policy::kFifo, %s, 0x%llxull},\n", g.proxy,
           g.faults ? "true" : "false", static_cast<unsigned long long>(h));
  }
}

// ------------------------------------------------------------------
// Fan-in goldens: the fan-in variant's schedule (fifo, sequential
// driver, 8 ranks) on the rendezvous transport and on the eager +
// coalesced one, faults off and on. Captured on the standalone fan-in
// engine before both variants ran through core::FactorEngine, so these
// rows pin that the merge moved no fan-in task or message. The eager
// rows were re-captured when the slab pool was deleted (its trace
// events went away, as in kGoldenEager). The faults-on rows were
// re-captured when the owner's aggregate pull became an rget under the
// retry wrapper: it now draws transfer faults from the rank's stream
// and retries them. The fault-free rows did not move. Regenerate via
// DISABLED_PrintFanInTable.

struct FanInGolden {
  const char* proxy;
  bool faults;
  bool eager;  // golden_comm() instead of the rendezvous transport
  std::uint64_t hash;
};

std::uint64_t run_fanin_golden(const FanInGolden& g, bool shard = false) {
  return run_golden(g.proxy, core::Policy::kFifo, g.faults,
                    g.eager ? golden_comm() : core::CommOptions{}, nullptr,
                    core::Variant::kFanIn, shard);
}

const FanInGolden kGoldenFanIn[] = {
    {"flan", false, false, 0x41493cc4c8c5c815ull},
    {"bones", false, false, 0xb0438c34147ea18cull},
    {"thermal", false, false, 0x8d5f5fe4f3541042ull},
    {"flan", true, false, 0xa85bb5a8c432c254ull},
    {"bones", true, false, 0x99f73604923346c2ull},
    {"thermal", true, false, 0x42c6d21080df2975ull},
    {"flan", false, true, 0xe071a337870170d1ull},
    {"bones", false, true, 0x6135cd805a875c60ull},
    {"thermal", false, true, 0x273e34719cda9b65ull},
    {"flan", true, true, 0x72e8f8b96b8979dcull},
    {"bones", true, true, 0x9c50d955f49c4ed7ull},
    {"thermal", true, true, 0xf5815460c40bca57ull},
};

class GoldenFanInSchedule : public ::testing::TestWithParam<FanInGolden> {};

TEST_P(GoldenFanInSchedule, HashMatchesCapture) {
  const FanInGolden& g = GetParam();
  for (const bool shard : kShardModes) {
    const std::uint64_t h = run_fanin_golden(g, shard);
    EXPECT_EQ(h, g.hash) << "fan-in schedule drifted: proxy=" << g.proxy
                         << " faults=" << (g.faults ? "on" : "off")
                         << " eager=" << (g.eager ? "on" : "off")
                         << " shard=" << shard << " actual=0x" << std::hex
                         << h << "ull";
  }
}

std::string fanin_golden_name(
    const ::testing::TestParamInfo<FanInGolden>& info) {
  std::string n = info.param.proxy;
  if (info.param.eager) n += "_eager";
  if (info.param.faults) n += "_faults";
  return n;
}

INSTANTIATE_TEST_SUITE_P(FanIn, GoldenFanInSchedule,
                         ::testing::ValuesIn(kGoldenFanIn), fanin_golden_name);

// Fan-in runs the scheduling policy too: priority and critical-path each
// reorder its tasks on at least one golden proxy.
TEST(FanInSchedule, PolicyReordersTasks) {
  auto fan_in = [](const char* proxy, core::Policy policy) {
    return run_golden(proxy, policy, /*faults=*/false, {}, nullptr,
                      core::Variant::kFanIn);
  };
  bool priority_moved = false;
  bool critical_path_moved = false;
  for (const char* proxy : {"flan", "bones", "thermal"}) {
    const std::uint64_t fifo = fan_in(proxy, core::Policy::kFifo);
    priority_moved |= fan_in(proxy, core::Policy::kPriority) != fifo;
    critical_path_moved |= fan_in(proxy, core::Policy::kCriticalPath) != fifo;
  }
  EXPECT_TRUE(priority_moved);
  EXPECT_TRUE(critical_path_moved);
}

TEST(GoldenScheduleTable, DISABLED_PrintFanInTable) {
  for (const FanInGolden& g : kGoldenFanIn) {
    printf("    {\"%s\", %s, %s, 0x%llxull},\n", g.proxy,
           g.faults ? "true" : "false", g.eager ? "true" : "false",
           static_cast<unsigned long long>(run_fanin_golden(g)));
  }
}

// ------------------------------------------------------------------
// Solve-phase goldens. The solve engine is untraced (the tracer only
// attaches during factorization), so these pin the CommStats counter
// block of the solve phase alone: stats are reset after factorize and
// hashed after the sweeps. rhs_panel=1 rows pin the historical
// per-vector protocol; rhs_panel>1 rows pin the blocked panel protocol
// (fewer, larger messages — any accounting drift flips the hash).

std::uint64_t comm_stats_hash(const pgas::CommStats& stats) {
  std::uint64_t h = 14695981039346656037ull;
  const std::uint64_t counters[] = {
      stats.rpcs_sent,      stats.rpcs_executed,      stats.gets,
      stats.puts,           stats.bytes_from_host,    stats.bytes_from_device,
      stats.bytes_to_device, stats.hd_copies,         stats.retries,
      stats.retransmits,    stats.dropped_detected,   stats.duplicates_dropped,
      stats.out_of_order,   stats.rpcs_deferred,      stats.oom_fallbacks,
  };
  fnv_mix(h, counters, sizeof counters);
  return h;
}

/// rhs_panel argument that leaves SolverOptions::solve at its default.
constexpr int kDefaultPanel = -1;

std::uint64_t run_solve_golden(const std::string& proxy, int rhs_panel,
                               int nrhs,
                               pgas::CommStats* stats_out = nullptr,
                               bool shard = false) {
  pgas::Runtime rt(golden_cluster(), kNoEnv);
  core::SolverOptions opts;
  if (rhs_panel != kDefaultPanel) opts.solve.rhs_panel = rhs_panel;
  opts.symbolic.shard = shard;
  core::SymPackSolver solver(rt, opts);
  const CscMatrix a = proxy_matrix(proxy);
  solver.symbolic_factorize(a);
  solver.factorize();
  rt.reset_stats();  // isolate the solve phase's counters
  const std::vector<double> b(
      static_cast<std::size_t>(a.n()) * static_cast<std::size_t>(nrhs), 1.0);
  (void)solver.solve(b, nrhs);
  if (stats_out != nullptr) *stats_out = rt.total_stats();
  return comm_stats_hash(rt.total_stats());
}

struct SolveGolden {
  const char* proxy;
  int rhs_panel;
  int nrhs;
  std::uint64_t hash;
};

// Captured at the introduction of the blocked multi-RHS path, 8 ranks,
// fifo, faults off. The rhs_panel=1 rows reproduce the per-vector
// protocol the engine shipped with. Regenerate via
// DISABLED_PrintSolveTable.
const SolveGolden kGoldenSolve[] = {
    {"flan", 1, 1, 0xdbb2b7b69b6cf05full},
    {"flan", 2, 4, 0xfa6dc3d8729d7305ull},
    {"bones", 1, 1, 0x19c38ef727eff95bull},
    {"bones", 2, 4, 0xe95f57d63b30a6feull},
    {"thermal", 1, 1, 0xd6b6f84d3cfde61aull},
    {"thermal", 2, 4, 0xeadcf55bc8b13c66ull},
};

class GoldenSolveSchedule : public ::testing::TestWithParam<SolveGolden> {};

TEST_P(GoldenSolveSchedule, CommStatsMatchCapture) {
  const SolveGolden& g = GetParam();
  for (const bool shard : kShardModes) {
    const std::uint64_t h =
        run_solve_golden(g.proxy, g.rhs_panel, g.nrhs, nullptr, shard);
    EXPECT_EQ(h, g.hash) << "solve schedule drifted: proxy=" << g.proxy
                         << " rhs_panel=" << g.rhs_panel
                         << " nrhs=" << g.nrhs << " shard=" << shard
                         << " actual=0x" << std::hex << h << "ull";
  }
}

std::string solve_golden_name(
    const ::testing::TestParamInfo<SolveGolden>& info) {
  std::string n = info.param.proxy;
  n += "_panel";
  n += std::to_string(info.param.rhs_panel);
  n += "_nrhs";
  n += std::to_string(info.param.nrhs);
  return n;
}

INSTANTIATE_TEST_SUITE_P(Solve, GoldenSolveSchedule,
                         ::testing::ValuesIn(kGoldenSolve),
                         solve_golden_name);

TEST(GoldenScheduleTable, DISABLED_PrintSolveTable) {
  for (const SolveGolden& g : kGoldenSolve) {
    const std::uint64_t h = run_solve_golden(g.proxy, g.rhs_panel, g.nrhs);
    printf("    {\"%s\", %d, %d, 0x%llxull},\n", g.proxy, g.rhs_panel,
           g.nrhs, static_cast<unsigned long long>(h));
  }
}

// Structural invariant behind the batched path's win: a fused panel
// sweep moves the same payload bytes as per-vector sweeps but in
// proportionally fewer protocol messages. The default options fuse too.
TEST(SolveSchedule, PanelSweepAmortizesMessages) {
  pgas::CommStats per_vector, blocked, by_default;
  run_solve_golden("flan", 1, 8, &per_vector);
  run_solve_golden("flan", 8, 8, &blocked);
  run_solve_golden("flan", kDefaultPanel, 8, &by_default);
  for (const pgas::CommStats* fused : {&blocked, &by_default}) {
    EXPECT_EQ(fused->bytes_from_host, per_vector.bytes_from_host);
    // 8 columns per message instead of 1: signals and pulls collapse ~8x.
    EXPECT_LT(fused->rpcs_sent * 4, per_vector.rpcs_sent);
    EXPECT_LT(fused->gets * 4, per_vector.gets);
  }
}

// ------------------------------------------------------------------
// Host accounting: every factor block is one allocate_host buffer of
// exactly its size, so once factorize() returns the runtime holds the
// blocks' bytes and nothing else — peak_bytes() counts what the solver
// asked for.

/// Sum of every factor block's size: the bytes the block store asked for.
std::size_t block_bytes(const core::SymPackSolver& solver) {
  const core::BlockStore& store = solver.block_store();
  std::size_t bytes = 0;
  for (sparse::idx_t bid = 0; bid < store.num_blocks(); ++bid) {
    bytes += store.bytes(bid);
  }
  return bytes;
}

TEST(HostMemory, FactorizeHoldsExactlyTheBlockBytes) {
  pgas::Runtime rt(golden_cluster(), kNoEnv);
  core::SymPackSolver solver(rt, core::SolverOptions{});
  solver.symbolic_factorize(proxy_matrix("flan"));
  solver.factorize();
  EXPECT_EQ(rt.bytes_in_use(), block_bytes(solver));
}

// Fan-in sums a rank's updates to a block in an aggregate: one
// allocate_host buffer of exactly the block's size, which is also the
// message to the block's owner. The last copy of that message frees it
// (or the owner, once it has applied its own). The aggregates raise the
// peak, and once factorize() returns only the blocks are left. On one
// rank with GPU offload off nothing is sent and no device scratch is
// reserved, so the peak counts blocks and aggregates alone.
TEST(HostMemory, FanInCountsAndFreesEveryAggregate) {
  struct Row {
    int nranks;
    bool gpu;
  };
  for (const Row row : {Row{8, true}, Row{1, false}}) {
    pgas::Runtime::Config cfg = golden_cluster();
    cfg.nranks = row.nranks;
    pgas::Runtime rt(cfg, kNoEnv);
    core::SolverOptions opts;
    opts.variant = core::Variant::kFanIn;
    opts.gpu.enabled = row.gpu;
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(proxy_matrix("flan"));
    solver.factorize();
    EXPECT_GT(rt.peak_bytes(), block_bytes(solver)) << "P = " << row.nranks;
    EXPECT_EQ(rt.bytes_in_use(), block_bytes(solver)) << "P = " << row.nranks;
    if (row.nranks == 1) {
      EXPECT_EQ(rt.total_stats().rpcs_sent, 0u);
    }
  }
}

// Buddy checkpointing keeps one replica of every completed panel in the
// buddy's segment, allocated at the panel's own size: with faults off
// every block completes once, so the runtime holds each block twice.
TEST(HostMemory, BuddyReplicasDoubleTheBlockBytes) {
  pgas::Runtime rt(golden_cluster(), kNoEnv);
  core::SolverOptions opts;
  opts.resilience.buddy_replicas = 1;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(proxy_matrix("flan"));
  solver.factorize();
  EXPECT_EQ(rt.bytes_in_use(), 2 * block_bytes(solver));
}

// Protocol-only runs allocate no factor, eager, aggregate, solve or
// checkpoint buffer (DESIGN.md §4m): nothing ever reaches the host
// allocator, in either variant. GPU offload is off because a
// protocol-only run still allocates each kernel's device scratch (its
// share-OOM fallbacks are a numeric run's), and peak_bytes() counts
// device bytes too.
TEST(HostMemory, ProtocolOnlyAllocatesNoHostBuffers) {
  for (const core::Variant variant :
       {core::Variant::kFanOut, core::Variant::kFanIn}) {
    pgas::Runtime rt(golden_cluster(), kNoEnv);
    core::SolverOptions opts;
    opts.numeric = false;
    opts.variant = variant;
    opts.gpu.enabled = false;
    opts.comm = golden_comm();  // eager payloads and coalesced signals
    opts.resilience.buddy_replicas = 1;
    core::SymPackSolver solver(rt, opts);
    const CscMatrix a = proxy_matrix("flan");
    solver.symbolic_factorize(a);
    solver.factorize();
    (void)solver.solve(
        std::vector<double>(static_cast<std::size_t>(a.n()) * 8, 1.0), 8);
    EXPECT_EQ(rt.peak_bytes(), 0u) << core::variant_name(variant);
  }
}

// ------------------------------------------------------------------
// Solve-phase memory. Every solve buffer is freed at its last use
// (DESIGN.md §4f), so a sweep holds only the segments and partial sums
// still in flight. These pin the solve phase's transient high-water
// mark: the peak bytes during solve(b, 8) above the bytes in use once
// factorize() returned.

std::size_t run_solve_memory(const std::string& proxy, int rhs_panel,
                             bool shard = false) {
  pgas::Runtime rt(golden_cluster(), kNoEnv);
  core::SolverOptions opts;
  opts.solve.rhs_panel = rhs_panel;
  opts.symbolic.shard = shard;
  core::SymPackSolver solver(rt, opts);
  const CscMatrix a = proxy_matrix(proxy);
  solver.symbolic_factorize(a);
  solver.factorize();
  rt.reset_peak_memory();
  const std::size_t base = rt.bytes_in_use();
  const std::vector<double> b(static_cast<std::size_t>(a.n()) * 8, 1.0);
  (void)solver.solve(b, 8);
  return rt.peak_bytes() - base;
}

struct SolveMemoryGolden {
  const char* proxy;
  int rhs_panel;
  std::size_t bytes;
};

// Captured when the slab pool was deleted (every buffer is the size
// asked for, not a power-of-two class), sequential driver, 8 ranks,
// faults off. Regenerate via DISABLED_PrintSolveMemoryTable.
const SolveMemoryGolden kGoldenSolveMemory[] = {
    {"flan", 1, 4744},   {"flan", 0, 37952},    {"bones", 1, 2888},
    {"bones", 0, 23104}, {"thermal", 1, 1784}, {"thermal", 0, 14272},
};

class SolveMemory : public ::testing::TestWithParam<SolveMemoryGolden> {};

TEST_P(SolveMemory, TransientPeakMatchesCapture) {
  const SolveMemoryGolden& g = GetParam();
  for (const bool shard : kShardModes) {
    EXPECT_EQ(run_solve_memory(g.proxy, g.rhs_panel, shard), g.bytes)
        << "solve memory drifted: proxy=" << g.proxy
        << " rhs_panel=" << g.rhs_panel << " shard=" << shard;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Solve, SolveMemory, ::testing::ValuesIn(kGoldenSolveMemory),
    [](const ::testing::TestParamInfo<SolveMemoryGolden>& info) {
      return std::string(info.param.proxy) + "_panel" +
             std::to_string(info.param.rhs_panel);
    });

TEST(GoldenScheduleTable, DISABLED_PrintSolveMemoryTable) {
  for (const SolveMemoryGolden& g : kGoldenSolveMemory) {
    printf("    {\"%s\", %d, %zu},\n", g.proxy, g.rhs_panel,
           run_solve_memory(g.proxy, g.rhs_panel));
  }
}

// Leak check: solve() and a SolveServer drain give back every buffer
// they allocate. With faults off nothing outlives its last use; under
// injection the ledger's message copies hold their payloads until the
// sweep resets, and the engine takes the last sweep's ledger with it
// when solve() returns. A drain is one solve(), so the server holds no
// buffer of its own.
using LeakParam = std::tuple<std::string, bool>;

class SolveBuffers : public ::testing::TestWithParam<LeakParam> {};

TEST_P(SolveBuffers, AllReturnedAfterSolveAndDrain) {
  const auto& [proxy, faults] = GetParam();
  pgas::Runtime::Config cfg = golden_cluster();
  if (faults) cfg.faults = golden_faults();
  pgas::Runtime rt(cfg, kNoEnv);
  core::SymPackSolver solver(rt, core::SolverOptions{});
  const CscMatrix a = proxy_matrix(proxy);
  solver.symbolic_factorize(a);
  solver.factorize();
  const std::size_t before = rt.bytes_in_use();
  const auto n = static_cast<std::size_t>(a.n());

  (void)solver.solve(std::vector<double>(n * 8, 1.0), 8);
  EXPECT_EQ(rt.bytes_in_use(), before) << "after solve()";

  {
    core::SolveServer server(solver);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(server.submit(std::vector<double>(n * 2, 1.0), 2));
    }
    EXPECT_EQ(server.drain().size(), 4u);
    EXPECT_EQ(rt.bytes_in_use(), before) << "after drain()";
  }
  EXPECT_EQ(rt.bytes_in_use(), before) << "after ~SolveServer()";
}

INSTANTIATE_TEST_SUITE_P(
    ProxiesAndFaults, SolveBuffers,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<LeakParam>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_faults" : "_clean");
    });

// ------------------------------------------------------------------
// PaStiX-like baseline goldens. Figures 7-12 compare symPACK against
// baseline::RightLookingSolver, so its schedule is pinned like the
// engines': factor_sim_s and solve_sim_s exactly (the cost model is
// plain + * / max, so the values are bitwise on any build that does not
// contract to FMA), and the CommStats block of the factorization and of
// the solve, each phase on its own. Rows cover the goldens' proxies and
// cluster, protocol-only and numeric. Regenerate via
// DISABLED_PrintBaselineTable.

struct BaselineGolden {
  const char* proxy;
  bool numeric;
  double factor_sim_s;
  double solve_sim_s;
  std::uint64_t factor_comm;  // comm_stats_hash after factorize()
  std::uint64_t solve_comm;   // comm_stats_hash of solve() alone
};

BaselineGolden run_baseline_golden(const char* proxy, bool numeric) {
  pgas::Runtime rt(golden_cluster(), kNoEnv);
  baseline::BaselineOptions opts;
  opts.numeric = numeric;
  baseline::RightLookingSolver solver(rt, opts);
  const CscMatrix a = proxy_matrix(proxy);
  solver.symbolic_factorize(a);
  solver.factorize();
  BaselineGolden run{proxy, numeric, 0.0, 0.0, 0, 0};
  run.factor_comm = comm_stats_hash(rt.total_stats());
  rt.reset_stats();
  (void)solver.solve(std::vector<double>(static_cast<std::size_t>(a.n()), 1.0));
  run.solve_comm = comm_stats_hash(rt.total_stats());
  run.factor_sim_s = solver.report().factor_sim_s;
  run.solve_sim_s = solver.report().solve_sim_s;
  return run;
}

// Captured at a265d93, before the baseline moved onto core/taskrt. The
// protocol-only rows' factor_sim_s were re-pinned once, when those runs
// began charging the panel packing as numeric runs do; since then every
// protocol-only row equals its numeric one.
const BaselineGolden kGoldenBaseline[] = {
    {"flan", false, 0x1.f2acea28505d4p-9, 0x1.426b0d3dcc635p-10,
     0xa9402e014d011407ull, 0xfb1b4f9d02fc0dcfull},
    {"flan", true, 0x1.f2acea28505d4p-9, 0x1.426b0d3dcc635p-10,
     0xa9402e014d011407ull, 0xfb1b4f9d02fc0dcfull},
    {"bones", false, 0x1.126f83e667368p-8, 0x1.d64264bab4f2fp-11,
     0xe3277fc4bc581f5dull, 0xf5feffe2089e182aull},
    {"bones", true, 0x1.126f83e667368p-8, 0x1.d64264bab4f2fp-11,
     0xe3277fc4bc581f5dull, 0xf5feffe2089e182aull},
    {"thermal", false, 0x1.c362b4b5bfedbp-8, 0x1.97eeca38afd5cp-9,
     0x6ca6a5a9d70f46aaull, 0x43fc3492ed3c4759ull},
    {"thermal", true, 0x1.c362b4b5bfedbp-8, 0x1.97eeca38afd5cp-9,
     0x6ca6a5a9d70f46aaull, 0x43fc3492ed3c4759ull},
};

class GoldenBaselineSchedule
    : public ::testing::TestWithParam<BaselineGolden> {};

TEST_P(GoldenBaselineSchedule, TimesAndCommStatsMatchCapture) {
  const BaselineGolden& g = GetParam();
  const BaselineGolden run = run_baseline_golden(g.proxy, g.numeric);
  EXPECT_EQ(run.factor_sim_s, g.factor_sim_s)
      << std::hexfloat << "actual " << run.factor_sim_s;
  EXPECT_EQ(run.solve_sim_s, g.solve_sim_s)
      << std::hexfloat << "actual " << run.solve_sim_s;
  EXPECT_EQ(run.factor_comm, g.factor_comm)
      << "actual 0x" << std::hex << run.factor_comm << "ull";
  EXPECT_EQ(run.solve_comm, g.solve_comm)
      << "actual 0x" << std::hex << run.solve_comm << "ull";
}

INSTANTIATE_TEST_SUITE_P(
    Baseline, GoldenBaselineSchedule, ::testing::ValuesIn(kGoldenBaseline),
    [](const ::testing::TestParamInfo<BaselineGolden>& info) {
      return std::string(info.param.proxy) +
             (info.param.numeric ? "_numeric" : "_protocol_only");
    });

TEST(GoldenScheduleTable, DISABLED_PrintBaselineTable) {
  for (const char* proxy : {"flan", "bones", "thermal"}) {
    for (const bool numeric : {false, true}) {
      const BaselineGolden g = run_baseline_golden(proxy, numeric);
      printf("    {\"%s\", %s, %a, %a, 0x%llxull, 0x%llxull},\n", g.proxy,
             g.numeric ? "true" : "false", g.factor_sim_s, g.solve_sim_s,
             static_cast<unsigned long long>(g.factor_comm),
             static_cast<unsigned long long>(g.solve_comm));
    }
  }
}

}  // namespace
}  // namespace sympack
