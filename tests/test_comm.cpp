// Tests for the eager/coalesced signal transport and the shared host
// buffers that carry its payloads (DESIGN.md §4e).
//
// Covers: the machine model's per-message/per-byte RPC cost split (N
// coalesced signals must cost less simulated time than N singletons),
// shared host buffers freed at their last release, eager inlined payloads
// charging bytes_from_host without any rget, engine-level coalescing
// (fewer RPCs, same numerics), and the solve phase's endpoint reset
// across sweeps with eager payloads riding the recovery ledger.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/solver.hpp"
#include "pgas/fault.hpp"
#include "pgas/machine_model.hpp"
#include "pgas/runtime.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"

namespace sympack {
namespace {

using sparse::CscMatrix;

pgas::Runtime::Config cluster(int nranks) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  return cfg;
}

// ------------------------------------------------------------------
// Machine model: the RPC cost is per-message overhead plus a per-byte
// active-message term, so batching N signals into one RPC saves
// (N-1) * rpc_overhead_s while the payload term is unchanged.

TEST(MachineModel, RpcTimeSplitsMessageAndByteCost) {
  pgas::MachineModel m;
  EXPECT_DOUBLE_EQ(m.rpc_time(0), m.rpc_overhead_s);
  EXPECT_DOUBLE_EQ(m.rpc_time(4096),
                   m.rpc_overhead_s + 4096.0 / m.rpc_byte_Bps);
  EXPECT_LT(m.rpc_time(64), m.rpc_time(1u << 20));
  // Batching pays the overhead once: one batch of N payloads is cheaper
  // than N separate messages by exactly (N-1) overheads.
  const int n = 8;
  const std::size_t bytes = 512;
  EXPECT_NEAR(n * m.rpc_time(bytes) - m.rpc_time(n * bytes),
              (n - 1) * m.rpc_overhead_s, 1e-12);
}

TEST(Coalesce, BatchedSignalsCostLessSimTimeThanSingletons) {
  constexpr int kSignals = 16;
  const auto run = [](bool coalesce) {
    pgas::Runtime rt(cluster(2));
    pgas::Rank& src = rt.rank(0);
    pgas::Rank& dst = rt.rank(1);
    for (int i = 0; i < kSignals; ++i) {
      if (coalesce) {
        src.rpc_coalesced(1, [](pgas::Rank&) {});
      } else {
        src.rpc(1, [](pgas::Rank&) {});
      }
    }
    src.flush_signals();
    dst.progress();
    return std::tuple(src.now(), dst.now(), rt.total_stats());
  };
  const auto [src_s, dst_s, stats_s] = run(/*coalesce=*/false);
  const auto [src_c, dst_c, stats_c] = run(/*coalesce=*/true);

  // Counts: one batch RPC instead of kSignals, with the riders tallied.
  EXPECT_EQ(stats_s.rpcs_sent, static_cast<std::uint64_t>(kSignals));
  EXPECT_EQ(stats_s.coalesced_signals, 0u);
  EXPECT_EQ(stats_c.rpcs_sent, 1u);
  EXPECT_EQ(stats_c.coalesced_signals,
            static_cast<std::uint64_t>(kSignals - 1));
  EXPECT_EQ(stats_c.rpcs_executed, 1u);

  // Simulated time: both ends pay the per-message overhead once instead
  // of kSignals times.
  EXPECT_LT(src_c, src_s);
  EXPECT_LT(dst_c, dst_s);
}

TEST(Coalesce, FlushSignalsReportsAndEmptiesOutboxes) {
  pgas::Runtime rt(cluster(4));
  pgas::Rank& src = rt.rank(0);
  src.rpc_coalesced(1, [](pgas::Rank&) {});
  src.rpc_coalesced(1, [](pgas::Rank&) {});
  src.rpc_coalesced(2, [](pgas::Rank&) {});
  EXPECT_TRUE(src.has_unflushed_signals());
  EXPECT_TRUE(src.has_unflushed_signals_to(1));
  EXPECT_FALSE(src.has_unflushed_signals_to(3));
  EXPECT_EQ(src.flush_signals(), 2);  // two open outboxes
  EXPECT_FALSE(src.has_unflushed_signals());
  EXPECT_EQ(src.flush_signals(), 0);
  // Rank 1 drains one batched entry (two riders), rank 2 one singleton.
  EXPECT_EQ(rt.rank(1).progress(), 1);
  EXPECT_EQ(rt.rank(2).progress(), 1);
}

TEST(Coalesce, ProgressAgesOutParkedBatches) {
  pgas::Runtime::Config cfg = cluster(2);
  cfg.coalesce_defer = 2;
  pgas::Runtime rt(cfg);
  pgas::Rank& src = rt.rank(0);
  src.rpc_coalesced(1, [](pgas::Rank&) {});
  // The batch waits for riders for coalesce_defer progress calls, then
  // progress() itself flushes it (returning the flush as work done).
  EXPECT_EQ(src.progress(), 0);
  const int second = src.progress();
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(src.has_unflushed_signals());
  EXPECT_EQ(rt.rank(1).progress(), 1);
}

// ------------------------------------------------------------------
// Shared host buffers: every eager payload and solve segment is one
// allocate_host buffer, freed by whichever reference dies last.

TEST(SharedHostBuffer, FreesOnLastRelease) {
  pgas::Runtime rt(cluster(2));
  const std::size_t base = rt.bytes_in_use();
  auto buf = pgas::shared_host_buffer(rt.rank(0), 13);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(rt.bytes_in_use(), base + 13 * sizeof(double));  // no rounding
  auto alias = buf;  // a second recipient of the same eager payload
  buf.reset();
  EXPECT_EQ(rt.bytes_in_use(), base + 13 * sizeof(double));  // still held
  alias.reset();
  EXPECT_EQ(rt.bytes_in_use(), base);
}

// ------------------------------------------------------------------
// Eager protocol, engine level.

core::Report run_factor(const CscMatrix& a, core::SolverOptions opts) {
  pgas::Runtime rt(cluster(8));
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  return solver.report();
}

TEST(Eager, InlinedBytesStillCountAsHostTraffic) {
  const auto a = sparse::flan_proxy(0.02);
  core::SolverOptions opts;
  opts.numeric = false;  // protocol-only: pure schedule + accounting
  const core::Report rendezvous = run_factor(a, opts);
  opts.comm.eager_bytes = std::int64_t{1} << 30;  // inline everything
  const core::Report eager = run_factor(a, opts);

  EXPECT_EQ(rendezvous.comm.eager_sends, 0u);
  EXPECT_GT(rendezvous.comm.gets, 0u);
  EXPECT_GT(eager.comm.eager_sends, 0u);
  EXPECT_EQ(eager.comm.gets, 0u);  // every pull rget was elided
  // Satellite invariant: inlining must not hide wire traffic — the same
  // block bytes flow either way, just charged at the RPC instead of the
  // rget.
  EXPECT_EQ(eager.comm.bytes_from_host, rendezvous.comm.bytes_from_host);
}

TEST(Coalesce, FactorizationSendsFewerRpcsWithSameNumerics) {
  const auto a = sparse::bones_proxy(0.02);
  const auto b = sparse::rhs_for_ones(a);
  const auto run = [&](bool coalesce) {
    pgas::Runtime rt(cluster(8));
    core::SolverOptions opts;
    opts.comm.coalesce = coalesce;
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    const auto x = solver.solve(b);
    return std::tuple(sparse::relative_residual(a, x, b),
                      solver.report().comm);
  };
  const auto [res_off, comm_off] = run(false);
  const auto [res_on, comm_on] = run(true);
  EXPECT_LT(res_off, 1e-10);
  EXPECT_LT(res_on, 1e-10);
  EXPECT_EQ(comm_off.coalesced_signals, 0u);
  EXPECT_GT(comm_on.coalesced_signals, 0u);
  EXPECT_LT(comm_on.rpcs_sent, comm_off.rpcs_sent);
}

TEST(Eager, SolveSweepsResetCleanlyUnderFaults) {
  // Two solves x two sweeps each, eager payloads riding the recovery
  // ledger: the endpoint reset between sweeps must restart sequence
  // numbers so no stale eager payload from the forward sweep is ever
  // replayed into the backward sweep (and vice versa across solves).
  const auto a = sparse::flan_proxy(0.02);
  const auto b = sparse::rhs_for_ones(a);
  const auto run = [&](bool faults) {
    pgas::Runtime::Config cfg = cluster(8);
    if (faults) {
      cfg.faults.enabled = true;
      cfg.faults.seed = 0x5eedull;
      cfg.faults.drop_rate = 0.02;
      cfg.faults.duplicate_rate = 0.02;
      cfg.faults.delay_rate = 0.05;
      cfg.faults.reorder_rate = 0.05;
    }
    pgas::Runtime rt(cfg);
    core::SolverOptions opts;
    opts.comm.eager_bytes = 4096;
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    const auto x1 = solver.solve(b);
    const auto x2 = solver.solve(b);  // endpoint reset across solves too
    return std::tuple(x1, x2, rt.total_stats());
  };
  const auto [clean1, clean2, clean_stats] = run(/*faults=*/false);
  const auto [fault1, fault2, fault_stats] = run(/*faults=*/true);

  EXPECT_GT(clean_stats.eager_sends, 0u);
  EXPECT_GT(fault_stats.eager_sends, 0u);
  // The recovery protocol actually fired on eager messages.
  EXPECT_GT(fault_stats.retransmits, 0u);
  ASSERT_EQ(clean1.size(), fault1.size());
  for (std::size_t i = 0; i < clean1.size(); ++i) {
    ASSERT_NEAR(clean1[i], fault1[i], 1e-9) << "solve 1 entry " << i;
    ASSERT_NEAR(clean2[i], fault2[i], 1e-9) << "solve 2 entry " << i;
  }
  EXPECT_LT(sparse::relative_residual(a, fault2, b), 1e-10);
}

}  // namespace
}  // namespace sympack
