// Sharded-vs-replicated symbolic parity suite (DESIGN.md §4i).
//
// SymbolicOptions::shard changes where symbolic metadata lives — each
// rank retains only its locally relevant supernodes plus ancestor
// closure, pulling the rest on demand — but it must change NOTHING the
// numerics, the wire protocol or the simulated clocks can observe:
//
//   * the Symbolic structure from the parallel analysis is bit-identical
//     to the serial one (owner / recipients / update_count agree exactly
//     for every panel and slot, across proxies × policies × rank counts),
//   * for fan-out and fan-in, the factor and the solution agree entrywise
//     to 1e-9, the 15 protocol CommStats counters (the golden-hash block)
//     are equal, the simulated factor and solve times are bitwise equal,
//     and the sharded run makes zero metadata pulls,
//   * under fault injection the recovery protocol behaves identically,
//   * residency equals a plain per-rank reference computation of the
//     relevance rules and ancestor closure, for every rank and panel,
//   * the residency sets actually shrink: every rank's sharded
//     footprint is strictly below the replicated footprint,
//   * and pulls stay exact when ranks touch from their own threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/solver.hpp"
#include "pgas/runtime.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "symbolic/view.hpp"

namespace sympack {
namespace {

using sparse::CscMatrix;
using sparse::idx_t;

CscMatrix proxy_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

/// The Runtime constructor overlays SYMPACK_FAULT_* onto its fault
/// config, which perturbs the faulted legs.
bool fault_env_overridden() {
  static const char* kVars[] = {
      "SYMPACK_FAULT_ENABLED", "SYMPACK_FAULT_SEED",    "SYMPACK_FAULT_DROP",
      "SYMPACK_FAULT_DUP",     "SYMPACK_FAULT_DELAY",   "SYMPACK_FAULT_DELAY_S",
      "SYMPACK_FAULT_REORDER", "SYMPACK_FAULT_TRANSFER", "SYMPACK_FAULT_DEVICE",
  };
  for (const char* v : kVars) {
    if (std::getenv(v) != nullptr) return true;
  }
  return false;
}

pgas::Runtime::Config cluster(int nranks, bool faults = false,
                              bool threaded = false) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  cfg.threaded = threaded;
  if (faults) {
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xfeedbeefull;
    cfg.faults.drop_rate = 0.02;
    cfg.faults.duplicate_rate = 0.02;
    cfg.faults.delay_rate = 0.05;
    cfg.faults.reorder_rate = 0.05;
    cfg.faults.transfer_fail_rate = 0.02;
    cfg.faults.device_deny_rate = 0.05;
  }
  return cfg;
}

/// The 15 wire-protocol counters the golden hashes fold — exactly this
/// block must be shard-invariant (the symbolic_* family is excluded by
/// design: it is where the pulls are charged).
std::vector<std::uint64_t> protocol_counters(const pgas::CommStats& s) {
  return {s.rpcs_sent,      s.rpcs_executed,    s.gets,
          s.puts,           s.bytes_from_host,  s.bytes_from_device,
          s.bytes_to_device, s.hd_copies,       s.retries,
          s.retransmits,    s.dropped_detected, s.duplicates_dropped,
          s.out_of_order,   s.rpcs_deferred,    s.oom_fallbacks};
}

std::string variant_name(core::Variant v) {
  return v == core::Variant::kFanIn ? "fanin" : "fanout";
}

// ------------------------------------------------------------------
// Structure agreement: the parallel (sliced) analysis and the task
// graph built on it must agree exactly with the serial replicated run.

using StructureParam = std::tuple<const char*, core::Policy, int>;

class ShardStructure : public ::testing::TestWithParam<StructureParam> {};

TEST_P(ShardStructure, OwnerRecipientsUpdateCountAgree) {
  const auto [proxy, policy, nranks] = GetParam();
  const CscMatrix a = proxy_matrix(proxy);

  pgas::Runtime rt_rep(cluster(nranks));
  pgas::Runtime rt_shd(cluster(nranks));
  core::SolverOptions opts;
  opts.policy = policy;
  opts.numeric = false;
  core::SymPackSolver rep(rt_rep, opts);
  opts.symbolic.shard = true;
  core::SymPackSolver shd(rt_shd, opts);
  rep.symbolic_factorize(a);
  shd.symbolic_factorize(a);

  ASSERT_FALSE(rep.symbolic_view().sharded());
  ASSERT_TRUE(shd.symbolic_view().sharded());
  const auto& tr = rep.taskgraph();
  const auto& ts = shd.taskgraph();

  const auto& sym_r = rep.symbolic();
  const auto& sym_s = shd.symbolic();
  ASSERT_EQ(sym_r.num_snodes(), sym_s.num_snodes());
  ASSERT_EQ(sym_r.factor_nnz(), sym_s.factor_nnz());
  for (idx_t k = 0; k < sym_r.num_snodes(); ++k) {
    const auto& sn_r = sym_r.snode(k);
    const auto& sn_s = sym_s.snode(k);
    ASSERT_EQ(sn_r.first, sn_s.first) << "panel " << k;
    ASSERT_EQ(sn_r.last, sn_s.last) << "panel " << k;
    ASSERT_EQ(sn_r.below, sn_s.below) << "panel " << k;
    ASSERT_EQ(sn_r.blocks.size(), sn_s.blocks.size()) << "panel " << k;
    const auto nslots = static_cast<idx_t>(sn_r.blocks.size()) + 1;
    for (idx_t slot = 0; slot < nslots; ++slot) {
      ASSERT_EQ(tr.owner(k, slot), ts.owner(k, slot))
          << "panel " << k << " slot " << slot;
      ASSERT_EQ(tr.update_count(k, slot), ts.update_count(k, slot))
          << "panel " << k << " slot " << slot;
      ASSERT_EQ(tr.recipients(k, slot), ts.recipients(k, slot))
          << "panel " << k << " slot " << slot;
      ASSERT_EQ(tr.consumers(k, slot), ts.consumers(k, slot))
          << "panel " << k << " slot " << slot;
    }
  }
  EXPECT_EQ(tr.total_factor_tasks(), ts.total_factor_tasks());
  EXPECT_EQ(tr.total_updates(), ts.total_updates());
}

INSTANTIATE_TEST_SUITE_P(
    ProxiesPoliciesRanks, ShardStructure,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Values(core::Policy::kFifo,
                                         core::Policy::kLifo,
                                         core::Policy::kPriority,
                                         core::Policy::kCriticalPath),
                       ::testing::Values(8, 64)));

// ------------------------------------------------------------------
// Numeric, protocol and clock parity, for both variants: same factor,
// same solution, same wire counters, bitwise-equal simulated times, and
// no metadata pull in the sharded run.

struct SolverRun {
  std::vector<double> dense;
  std::vector<double> x;
  std::vector<std::uint64_t> protocol;
  pgas::CommStats stats;
  double factor_sim_s = 0.0;
  double solve_sim_s = 0.0;
};

SolverRun run_solver(const CscMatrix& a, int nranks, bool shard,
               core::Variant variant, bool faults = false) {
  pgas::Runtime rt(cluster(nranks, faults));
  core::SolverOptions opts;
  opts.variant = variant;
  opts.symbolic.shard = shard;
  if (faults) opts.resilience.buddy_replicas = 1;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> b(2 * n);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.25 * (i % 7);
  SolverRun out;
  out.x = solver.solve(b, 2);
  out.dense = solver.dense_factor();
  out.stats = rt.total_stats();
  out.protocol = protocol_counters(out.stats);
  out.factor_sim_s = solver.report().factor_sim_s;
  out.solve_sim_s = solver.report().solve_sim_s;
  return out;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

void expect_parity(const SolverRun& rep, const SolverRun& shd) {
  ASSERT_EQ(rep.dense.size(), shd.dense.size());
  ASSERT_EQ(rep.x.size(), shd.x.size());
  EXPECT_LE(max_abs_diff(rep.dense, shd.dense), 1e-9)
      << "factor entries drifted";
  EXPECT_LE(max_abs_diff(rep.x, shd.x), 1e-9) << "solution drifted";
  EXPECT_EQ(rep.protocol, shd.protocol)
      << "sharding leaked into the wire-protocol counters";
  // The relevance rules cover every panel factor and solve dereference,
  // so no pull moves a clock: the simulated times are bitwise equal.
  EXPECT_EQ(shd.stats.symbolic_pull_rpcs, 0u);
  EXPECT_EQ(rep.factor_sim_s, shd.factor_sim_s);
  EXPECT_EQ(rep.solve_sim_s, shd.solve_sim_s);
}

class ShardParity : public ::testing::TestWithParam<core::Variant> {};

TEST_P(ShardParity, FactorSolveAndProtocolCountersAgreeAt8) {
  for (const char* proxy : {"flan", "bones", "thermal"}) {
    const CscMatrix a = proxy_matrix(proxy);
    SCOPED_TRACE(proxy);
    expect_parity(run_solver(a, 8, /*shard=*/false, GetParam()),
                  run_solver(a, 8, /*shard=*/true, GetParam()));
  }
}

TEST_P(ShardParity, FactorSolveAndProtocolCountersAgreeAt64) {
  const CscMatrix a = proxy_matrix("flan");
  expect_parity(run_solver(a, 64, /*shard=*/false, GetParam()),
                run_solver(a, 64, /*shard=*/true, GetParam()));
}

TEST_P(ShardParity, FaultInjectionRecoveryIsShardInvariant) {
  if (fault_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_FAULT_* environment override active";
  }
  const CscMatrix a = proxy_matrix("bones");
  const SolverRun rep = run_solver(a, 8, /*shard=*/false, GetParam(), true);
  const SolverRun shd = run_solver(a, 8, /*shard=*/true, GetParam(), true);
  expect_parity(rep, shd);
  // The injected-fault protocol actually fired (the leg is not vacuous).
  EXPECT_GT(rep.stats.retransmits + rep.stats.duplicates_dropped +
                rep.stats.dropped_detected,
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ShardParity,
    ::testing::Values(core::Variant::kFanOut, core::Variant::kFanIn),
    [](const ::testing::TestParamInfo<core::Variant>& info) {
      return variant_name(info.param);
    });

// ------------------------------------------------------------------
// Residency semantics: exact agreement with a plain reference, the
// footprint actually shrinks, and the CommStats mirror matches the view.

/// Residency computed the plain way: one row per rank, the four
/// relevance rules of symbolic/view.hpp, then a walk from every relevant
/// panel to its assembly-tree root. resident[r][k] != 0 iff rank r keeps
/// panel k; bytes[r] is its footprint.
struct Reference {
  std::vector<std::vector<char>> resident;
  std::vector<std::uint64_t> bytes;
};

Reference reference_residency(const symbolic::Symbolic& sym,
                              const symbolic::TaskGraph& tg, int nranks) {
  const idx_t ns = sym.num_snodes();
  std::vector<std::vector<char>> relevant(
      static_cast<std::size_t>(nranks),
      std::vector<char>(static_cast<std::size_t>(ns), 0));
  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym.snode(k);
    const auto nslots = static_cast<idx_t>(sn.blocks.size()) + 1;
    for (idx_t slot = 0; slot < nslots; ++slot) {
      relevant[tg.owner(k, slot)][k] = 1;
      for (int c : tg.consumers(k, slot)) relevant[c][k] = 1;
      if (slot == 0) continue;
      const idx_t t = sn.blocks[slot - 1].target;
      relevant[tg.owner(k, slot)][t] = 1;
      relevant[tg.owner(t, 0)][k] = 1;
    }
  }
  const auto parent = [&sym](idx_t k) -> idx_t {
    const auto& below = sym.snode(k).below;
    return below.empty() ? -1 : sym.snode_of(below.front());
  };
  Reference ref;
  ref.resident = relevant;
  for (int r = 0; r < nranks; ++r) {
    auto& row = ref.resident[r];
    for (idx_t k = 0; k < ns; ++k) {
      if (relevant[r][k] == 0) continue;
      for (idx_t p = parent(k); p >= 0; p = parent(p)) row[p] = 1;
    }
    std::uint64_t bytes = static_cast<std::uint64_t>(ns) * 2 * sizeof(idx_t);
    for (idx_t k = 0; k < ns; ++k) {
      if (row[k] == 0) continue;
      const auto& sn = sym.snode(k);
      bytes += sizeof(symbolic::Supernode) + sn.below.size() * sizeof(idx_t) +
               sn.blocks.size() * sizeof(symbolic::Block) +
               tg.panel_table_bytes(k);
    }
    ref.bytes.push_back(bytes);
  }
  return ref;
}

using ReferenceParam = std::tuple<const char*, int, core::Variant>;

class ShardReference : public ::testing::TestWithParam<ReferenceParam> {};

TEST_P(ShardReference, ResidencyMatchesPlainRules) {
  const auto [proxy, nranks, variant] = GetParam();
  pgas::Runtime rt(cluster(nranks));
  core::SolverOptions opts;
  opts.numeric = false;
  opts.variant = variant;
  opts.symbolic.shard = true;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(proxy_matrix(proxy));

  const auto& view = solver.symbolic_view();
  const auto& sym = solver.symbolic();
  const Reference ref =
      reference_residency(sym, solver.taskgraph(), nranks);
  for (int r = 0; r < nranks; ++r) {
    for (idx_t k = 0; k < sym.num_snodes(); ++k) {
      ASSERT_EQ(view.resident(r, k), ref.resident[r][k] != 0)
          << "rank " << r << " panel " << k;
    }
    EXPECT_EQ(view.resident_bytes(r), ref.bytes[r]) << "rank " << r;
  }
}

// P = 63, 64, 65 and 130 put the last rank just inside, at and across
// the boundaries of the 64-rank residency words.
INSTANTIATE_TEST_SUITE_P(
    ProxiesRanksVariants, ShardReference,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Values(1, 63, 64, 65, 130),
                       ::testing::Values(core::Variant::kFanOut,
                                         core::Variant::kFanIn)),
    [](const ::testing::TestParamInfo<ReferenceParam>& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "_" +
             variant_name(std::get<2>(info.param));
    });

TEST(ShardResidency, FootprintShrinksAndClosureHolds) {
  const CscMatrix a = proxy_matrix("flan");
  const int nranks = 64;

  pgas::Runtime rt_rep(cluster(nranks));
  pgas::Runtime rt_shd(cluster(nranks));
  core::SolverOptions opts;
  opts.numeric = false;
  core::SymPackSolver rep(rt_rep, opts);
  opts.symbolic.shard = true;
  core::SymPackSolver shd(rt_shd, opts);
  rep.symbolic_factorize(a);
  shd.symbolic_factorize(a);

  const auto& vr = rep.symbolic_view();
  const auto& vs = shd.symbolic_view();
  const auto& sym = shd.symbolic();
  for (int r = 0; r < nranks; ++r) {
    EXPECT_LT(vs.resident_bytes(r), vr.resident_bytes(r)) << "rank " << r;
    EXPECT_GT(vs.resident_bytes(r), 0u) << "rank " << r;
    for (idx_t k = 0; k < sym.num_snodes(); ++k) {
      if (!vs.resident(r, k)) continue;
      const auto& below = sym.snode(k).below;
      if (below.empty()) continue;  // assembly-tree root
      const idx_t parent = sym.snode_of(below.front());
      EXPECT_TRUE(vs.resident(r, parent))
          << "ancestor closure violated: rank " << r << " holds " << k
          << " but not its parent " << parent;
    }
  }
}

TEST(ShardResidency, CommStatsMirrorMatchesViewAfterFactorize) {
  const CscMatrix a = proxy_matrix("bones");
  pgas::Runtime rt(cluster(8));
  core::SolverOptions opts;
  opts.symbolic.shard = true;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();

  const auto& view = solver.symbolic_view();
  for (int r = 0; r < rt.nranks(); ++r) {
    const auto& s = rt.rank(r).stats();
    EXPECT_EQ(s.symbolic_bytes, view.resident_bytes(r)) << "rank " << r;
    EXPECT_EQ(s.symbolic_pull_rpcs, view.pull_rpcs(r)) << "rank " << r;
    EXPECT_GT(s.symbolic_build_us, 0u) << "rank " << r;
  }
}

/// A sharded protocol-only thermal solver at 64 ranks (one residency
/// word) and its least-resident panel, for driving pulls directly.
struct PullTarget {
  PullTarget()
      : rt(cluster(64)),
        solver(rt, [] {
          core::SolverOptions opts;
          opts.numeric = false;
          opts.symbolic.shard = true;
          return opts;
        }()) {
    solver.symbolic_factorize(proxy_matrix("thermal"));
    int fewest = rt.nranks() + 1;
    for (idx_t k = 0; k < solver.symbolic().num_snodes(); ++k) {
      int holders = 0;
      for (int r = 0; r < rt.nranks(); ++r) {
        holders += solver.symbolic_view().resident(r, k) ? 1 : 0;
      }
      if (holders < fewest) {
        fewest = holders;
        panel = k;
      }
    }
  }

  pgas::Runtime rt;
  core::SymPackSolver solver;
  idx_t panel = -1;
};

TEST(ShardResidency, OnDemandPullChargesAndCaches) {
  // The relevance rule plus ancestor closure covers everything the
  // engines dereference in a healthy run (the parity tests above confirm
  // zero pulls there), so drive the pull protocol directly: touching a
  // non-resident panel must advance the touching rank's clock, charge
  // exactly one symbolic pull with the panel's metadata bytes, make the
  // panel resident, and be free on every later touch.
  PullTarget target;
  const auto& view = target.solver.symbolic_view();
  int r = 0;
  while (r < target.rt.nranks() && view.resident(r, target.panel)) ++r;
  ASSERT_LT(r, target.rt.nranks())
      << "every panel resident on every rank: nothing sharded";
  const idx_t k = target.panel;

  pgas::Rank& rank = target.rt.rank(r);
  const double clock_before = rank.now();
  const std::uint64_t bytes_before = rank.stats().symbolic_bytes;
  view.touch(rank, k);
  EXPECT_TRUE(view.resident(r, k));
  EXPECT_EQ(view.pull_rpcs(r), 1u);
  EXPECT_EQ(rank.stats().symbolic_pull_rpcs, 1u);
  EXPECT_GT(rank.stats().symbolic_bytes, bytes_before);
  EXPECT_GT(rank.now(), clock_before);
  EXPECT_EQ(rank.stats().symbolic_bytes, view.resident_bytes(r));

  // Cached: the second touch is free.
  const double clock_after = rank.now();
  view.touch(rank, k);
  EXPECT_EQ(view.pull_rpcs(r), 1u);
  EXPECT_EQ(rank.now(), clock_after);

  // A replicated-protocol counter audit: pulls never leak there.
  const auto total = target.rt.total_stats();
  EXPECT_EQ(total.rpcs_sent, 0u);
  EXPECT_EQ(total.gets, 0u);
}

// ------------------------------------------------------------------
// Threaded driver (run under TSan in CI): the 64 ranks of one residency
// word share its bits, and each touches from its own thread.

TEST(ShardThreaded, ConcurrentPullsIntoOneWordAreExact) {
  PullTarget target;
  const auto& view = target.solver.symbolic_view();
  const int nranks = target.rt.nranks();
  const idx_t k = target.panel;
  std::vector<char> held(static_cast<std::size_t>(nranks));
  int pulling = 0;
  for (int r = 0; r < nranks; ++r) {
    held[r] = view.resident(r, k) ? 1 : 0;
    pulling += held[r] != 0 ? 0 : 1;
  }
  ASSERT_GT(pulling, 1) << "need concurrent pulls of one panel";

  std::vector<std::thread> threads;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&target, &view, k, r] {
      pgas::Rank& rank = target.rt.rank(r);
      view.touch(rank, k);
      view.touch(rank, k);  // cached: free
    });
  }
  for (auto& t : threads) t.join();

  for (int r = 0; r < nranks; ++r) {
    const std::uint64_t expected = held[r] != 0 ? 0u : 1u;
    EXPECT_TRUE(view.resident(r, k)) << "rank " << r;
    EXPECT_EQ(view.pull_rpcs(r), expected) << "rank " << r;
    EXPECT_EQ(target.rt.rank(r).stats().symbolic_pull_rpcs, expected)
        << "rank " << r;
    EXPECT_EQ(target.rt.rank(r).stats().symbolic_bytes,
              view.resident_bytes(r))
        << "rank " << r;
  }
}

TEST(ShardThreaded, FanInFactorAndSolveMatchSequential) {
  const CscMatrix a = proxy_matrix("bones");
  const int nranks = 8;
  struct Result {
    std::vector<std::uint64_t> protocol;
    std::vector<std::uint64_t> resident_bytes;
    std::uint64_t pulls = 0;
    std::vector<double> x;
  };
  auto run = [&](bool threaded) {
    pgas::Runtime rt(cluster(nranks, /*faults=*/false, threaded));
    core::SolverOptions opts;
    opts.variant = core::Variant::kFanIn;
    opts.symbolic.shard = true;
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    Result out;
    out.x = solver.solve(sparse::rhs_for_ones(a));
    out.protocol = protocol_counters(rt.total_stats());
    for (int r = 0; r < nranks; ++r) {
      out.resident_bytes.push_back(solver.symbolic_view().resident_bytes(r));
      out.pulls += solver.symbolic_view().pull_rpcs(r);
    }
    return out;
  };
  const Result seq = run(false);
  const Result thr = run(true);
  EXPECT_EQ(seq.protocol, thr.protocol);
  EXPECT_EQ(seq.resident_bytes, thr.resident_bytes);
  EXPECT_EQ(seq.pulls, 0u);
  EXPECT_EQ(thr.pulls, 0u);
  EXPECT_LE(max_abs_diff(seq.x, thr.x), 1e-9);
}

}  // namespace
}  // namespace sympack
