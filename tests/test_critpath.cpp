// Tests for the trace/JSON emission fixes and the critical-path
// analyzer (core/critpath.hpp):
//
//   * Tracer::to_chrome_json with hostile task names — quotes,
//     backslashes, control characters, and names far beyond the old
//     fixed 160-byte formatting buffer — must still emit valid JSON
//     (the pre-fix serializer truncated and never escaped).
//   * A full factor + solve trace round-trips through the serializer
//     and parses.
//   * bench::JsonReport renders non-finite doubles as null, not as the
//     unparseable bare tokens nan/inf, and quotes and escapes strings.
//   * DepTracker::satisfy asserts on a decrement below zero in debug
//     builds (a duplicate signal that escaped the dedup layer).
//   * CritPathAnalyzer on a hand-built five-task DAG: known critical
//     path, per-category breakdown, comm/wait split at a fetch-marked
//     cross-rank handoff, and the name-parse fallback for plain traces.
//   * Policy::kAuto resolves to a concrete policy whose simulated
//     makespan is no worse than every fixed policy (the pilots are
//     protocol-only and sim-exact, so this holds by construction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/critpath.hpp"
#include "core/solver.hpp"
#include "core/taskrt/dep_tracker.hpp"
#include "core/trace.hpp"
#include "ordering/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/json.hpp"

namespace sympack {
namespace {

// ---------------------------------------------------------------------
// Tracer JSON emission.

TEST(TracerJson, HostileNamesStillEmitValidJson) {
  core::Tracer tracer;
  // Quote, backslash, newline, tab, a raw control byte, and padding well
  // past the old 160-byte snprintf buffer.
  std::string evil = "evil\"name\\with\nbad\tcontrols\x01";
  evil.append(200, 'x');
  tracer.record(0, evil, 0.0, 1.0);
  tracer.record(1, "plain", 0.5, 2.0);

  const std::string doc = tracer.to_chrome_json();
  std::string err;
  EXPECT_TRUE(support::json_validate(doc, &err)) << err;
  // The raw quote/control bytes must not appear unescaped.
  EXPECT_NE(doc.find("evil\\\"name\\\\with\\nbad\\tcontrols\\u0001"),
            std::string::npos);
  // Nothing got truncated: the long tail survives.
  EXPECT_NE(doc.find(std::string(200, 'x')), std::string::npos);
}

TEST(TracerJson, MetadataEventsCarryArgsAndValidate) {
  core::Tracer tracer;
  core::Tracer::Meta meta;
  meta.kind = 'U';
  meta.snode = 7;
  meta.a = 2;
  meta.b = 1;
  meta.tgt = 9;
  meta.tgt_slot = 3;
  tracer.record(0, "U 7:2:1", 1.0, 2.0, meta);
  const std::string doc = tracer.to_chrome_json();
  std::string err;
  EXPECT_TRUE(support::json_validate(doc, &err)) << err;
  EXPECT_NE(doc.find("\"cat\""), std::string::npos);
  EXPECT_NE(doc.find("\"args\""), std::string::npos);
}

TEST(TracerJson, FactorAndSolveTraceRoundTrips) {
  const auto raw = sparse::flan_proxy(0.08);
  const auto perm =
      ordering::compute_ordering(raw, ordering::Method::kNestedDissection);
  const auto a = sparse::permute_symmetric(raw, perm);

  pgas::Runtime::Config cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  pgas::Runtime rt(cfg);
  core::SolverOptions sopts;
  sopts.ordering = ordering::Method::kNatural;
  sopts.numeric = true;
  sopts.trace.metadata = true;
  core::SymPackSolver solver(rt, sopts);
  core::Tracer tracer;
  solver.set_tracer(&tracer);
  solver.symbolic_factorize(a);
  solver.factorize();
  const std::vector<double> b(static_cast<std::size_t>(a.n()), 1.0);
  (void)solver.solve(b, 1);

  ASSERT_GT(tracer.size(), 0u);
  std::string err;
  EXPECT_TRUE(support::json_validate(tracer.to_chrome_json(), &err)) << err;
}

// ---------------------------------------------------------------------
// Bench JSON report.

TEST(JsonReport, NonFiniteRendersAsNull) {
  bench::JsonReport report;
  report.add_row()
      .set("nan", std::nan(""))
      .set("pinf", std::numeric_limits<double>::infinity())
      .set("ninf", -std::numeric_limits<double>::infinity())
      .set("ok", 1.5);
  const std::string doc = report.to_string();
  std::string err;
  EXPECT_TRUE(support::json_validate(doc, &err)) << err << "\n" << doc;
  EXPECT_NE(doc.find("\"nan\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"pinf\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ninf\": null"), std::string::npos) << doc;
  // No bare nan/inf tokens anywhere (the pre-fix emitter printed them).
  EXPECT_EQ(doc.find(": nan"), std::string::npos) << doc;
  EXPECT_EQ(doc.find(": inf"), std::string::npos) << doc;
  EXPECT_EQ(doc.find(": -inf"), std::string::npos) << doc;
}

// String values and keys are quoted and escaped, and rows and fields
// are laid out byte for byte as every bench's --json output expects.
TEST(JsonReport, StringsAreQuotedAndEscaped) {
  bench::JsonReport report;
  report.add_row()
      .set("name", std::string("a\"b\\c\n"))
      .set("k\"ey", "tab\there\x01")
      .set("n", 3);
  report.add_row();
  report.add_row().set("", "");
  const std::string doc = report.to_string();
  EXPECT_EQ(doc,
            "[\n"
            "  {\"name\": \"a\\\"b\\\\c\\n\", \"k\\\"ey\": "
            "\"tab\\there\\u0001\", \"n\": 3},\n"
            "  {},\n"
            "  {\"\": \"\"}\n"
            "]\n");
  std::string err;
  EXPECT_TRUE(support::json_validate(doc, &err)) << err << "\n" << doc;
}

// ---------------------------------------------------------------------
// DepTracker duplicate-signal guard.

TEST(DepTrackerDeathTest, DuplicateSatisfyAssertsInDebug) {
  core::taskrt::DepTracker deps;
  deps.init(1);
  deps.set_count(0, 1);
  EXPECT_TRUE(deps.satisfy(0, 1.0));
  // A second satisfy has no outstanding dependency: debug builds abort
  // with the assert message; release builds keep the historical
  // decrement (the dedup layers are tested to keep this unreachable).
  EXPECT_DEBUG_DEATH(deps.satisfy(0, 2.0), "no outstanding dependency");
}

// ---------------------------------------------------------------------
// Critical-path analyzer on a hand-built DAG.
//
//   rank 0:  D 1 [0.1,1.0] --> F 1:1 [1.0,2.0]
//                                  |  (block (1,1) fetch-marked on rank
//                                  v   1 at t=2.5: comm 0.5, wait 0.5)
//   rank 1:              U 1:1:1 [3.0,4.0] --> D 2 [4.0,5.0]
//
// Critical path: D 2 <- U <- F <- D 1, four tasks, ending at 5.0.

std::vector<core::Tracer::Event> hand_built_dag(bool with_meta) {
  auto ev = [&](int rank, const char* name, double b, double e,
                core::Tracer::Meta m) {
    core::Tracer::Event out;
    out.rank = rank;
    out.name = name;
    out.begin_s = b;
    out.end_s = e;
    if (with_meta) out.meta = m;
    return out;
  };
  core::Tracer::Meta d1{'D', 1, -1, -1, -1, -1};
  core::Tracer::Meta f11{'F', 1, 1, -1, -1, -1};
  core::Tracer::Meta g11{'g', 1, 1, -1, -1, -1};
  core::Tracer::Meta u{'U', 1, 1, 1, 2, 0};
  core::Tracer::Meta d2{'D', 2, -1, -1, -1, -1};
  return {
      ev(0, "D 1", 0.1, 1.0, d1),      ev(0, "F 1:1", 1.0, 2.0, f11),
      ev(1, "g 1:1", 2.5, 2.5, g11),   ev(1, "U 1:1:1", 3.0, 4.0, u),
      ev(1, "D 2", 4.0, 5.0, d2),
  };
}

TEST(CritPath, HandBuiltDagBreakdown) {
  core::CritPathAnalyzer analyzer(hand_built_dag(/*with_meta=*/true));
  const auto rep = analyzer.analyze(/*top_k=*/10);

  EXPECT_TRUE(rep.had_metadata);
  EXPECT_EQ(rep.nranks, 2);
  EXPECT_EQ(rep.num_events, 5u);
  EXPECT_EQ(rep.num_spans, 4u);  // the fetch mark is not a task span
  EXPECT_DOUBLE_EQ(rep.makespan_s, 5.0);
  EXPECT_DOUBLE_EQ(rep.critical_path_s, 5.0);
  EXPECT_EQ(rep.path_tasks, 4);

  // Per-category path breakdown: D 1 (0.9) + D 2 (1.0) potrf, F (1.0)
  // trsm, U (1.0) update; the rank-0 -> rank-1 handoff gap [2.0,3.0]
  // splits at the fetch mark (2.5) into comm 0.5 + wait 0.5; the 0.1
  // before D 1 is path-start wait.
  EXPECT_NEAR(rep.path.potrf, 1.9, 1e-12);
  EXPECT_NEAR(rep.path.trsm, 1.0, 1e-12);
  EXPECT_NEAR(rep.path.update, 1.0, 1e-12);
  EXPECT_NEAR(rep.path.solve, 0.0, 1e-12);
  EXPECT_NEAR(rep.path.comm, 0.5, 1e-12);
  EXPECT_NEAR(rep.path.wait, 0.6, 1e-12);
  // The categories tile the critical path exactly.
  EXPECT_NEAR(rep.path.compute() + rep.path.comm + rep.path.wait,
              rep.critical_path_s, 1e-12);

  EXPECT_NEAR(rep.busy_s, 3.9, 1e-12);
  EXPECT_NEAR(rep.idle_s, 2 * 5.0 - 3.9, 1e-12);

  // Top segments: the three 1.0 s spans first, then D 1 (0.9 s).
  ASSERT_EQ(rep.top.size(), 4u);
  EXPECT_DOUBLE_EQ(rep.top[0].duration(), 1.0);
  EXPECT_DOUBLE_EQ(rep.top[3].duration(), 0.9);
  EXPECT_EQ(rep.top[3].name, "D 1");

  std::string err;
  EXPECT_TRUE(support::json_validate(rep.to_json(), &err)) << err;
}

TEST(CritPath, NameParseFallbackWithoutMetadata) {
  core::CritPathAnalyzer analyzer(hand_built_dag(/*with_meta=*/false));
  const auto rep = analyzer.analyze();

  // Names alone carry kind/snode/slots but no fold-target hints; the
  // chain still reconstructs through producer edges and same-rank order.
  EXPECT_FALSE(rep.had_metadata);
  EXPECT_EQ(rep.path_tasks, 4);
  EXPECT_DOUBLE_EQ(rep.critical_path_s, 5.0);
  EXPECT_NEAR(rep.path.compute() + rep.path.comm + rep.path.wait,
              rep.critical_path_s, 1e-12);
}

TEST(CritPath, EmptyTraceYieldsEmptyReport) {
  core::CritPathAnalyzer analyzer({});
  const auto rep = analyzer.analyze();
  EXPECT_EQ(rep.path_tasks, 0);
  EXPECT_DOUBLE_EQ(rep.makespan_s, 0.0);
  std::string err;
  EXPECT_TRUE(support::json_validate(rep.to_json(), &err)) << err;
}

// ---------------------------------------------------------------------
// Auto policy resolution.

TEST(AutoPolicy, NoWorseThanEveryFixedPolicy) {
  const auto raw = sparse::thermal_proxy(0.12);
  const auto perm =
      ordering::compute_ordering(raw, ordering::Method::kNestedDissection);
  const auto a = sparse::permute_symmetric(raw, perm);

  auto run = [&](core::Policy policy, const core::SymPackSolver** keep,
                 std::unique_ptr<core::SymPackSolver>* storage,
                 std::unique_ptr<pgas::Runtime>* rt_storage) {
    // Fault-free whatever SYMPACK_FAULT_* says, like the pilots: the
    // comparisons below hold for the healthy schedule.
    auto rt = std::make_unique<pgas::Runtime>(
        pgas::Runtime::Config{.nranks = 8, .ranks_per_node = 4},
        pgas::Runtime::EnvOverlay::kSkip);
    core::SolverOptions sopts;
    sopts.numeric = false;  // protocol-only: sim-exact, cheap
    sopts.ordering = ordering::Method::kNatural;
    sopts.policy = policy;
    auto solver = std::make_unique<core::SymPackSolver>(*rt, sopts);
    solver->symbolic_factorize(a);
    solver->factorize();
    const double sim = solver->report().factor_sim_s;
    if (keep != nullptr) {
      *keep = solver.get();
      *storage = std::move(solver);
      *rt_storage = std::move(rt);
    }
    return sim;
  };

  double best_fixed = 0.0;
  bool first = true;
  for (core::Policy p : {core::Policy::kFifo, core::Policy::kLifo,
                         core::Policy::kPriority,
                         core::Policy::kCriticalPath}) {
    const double sim = run(p, nullptr, nullptr, nullptr);
    best_fixed = first ? sim : std::min(best_fixed, sim);
    first = false;
  }

  const core::SymPackSolver* auto_solver = nullptr;
  std::unique_ptr<core::SymPackSolver> storage;
  std::unique_ptr<pgas::Runtime> rt_storage;
  const double auto_sim =
      run(core::Policy::kAuto, &auto_solver, &storage, &rt_storage);

  // The pilots cover every fixed policy at the base width, and
  // protocol-only pilots are sim-exact, so auto can never lose to a
  // fixed policy.
  EXPECT_LE(auto_sim, best_fixed + 1e-9);

  ASSERT_NE(auto_solver, nullptr);
  const auto* choice = auto_solver->autotune_choice();
  ASSERT_NE(choice, nullptr);
  EXPECT_NE(choice->policy, core::Policy::kAuto);  // resolved to concrete
  EXPECT_NEAR(choice->pilot_sim_s, auto_sim, 1e-9);  // pilot is exact
  EXPECT_GE(choice->candidates.size(), 4u);  // all fixed policies piloted
  EXPECT_EQ(auto_solver->options().policy, choice->policy);

  // The mapping and offload-threshold stages ran: the candidate list
  // contains non-default mapping grids and analytic-threshold pilots,
  // and whatever they measured, the adopted configuration is what the
  // solver actually runs with.
  bool saw_mapping_pilot = false;
  bool saw_offload_pilot = false;
  for (const auto& cand : choice->candidates) {
    if (cand.mapping != symbolic::Mapping::Kind::k2dBlockCyclic) {
      saw_mapping_pilot = true;
    }
    if (cand.offload_scale > 0.0) saw_offload_pilot = true;
    // Greedy strictly-better adoption: no candidate beats the winner.
    EXPECT_GE(cand.sim_s, choice->pilot_sim_s - 1e-12);
  }
  EXPECT_TRUE(saw_mapping_pilot);
  EXPECT_TRUE(saw_offload_pilot);
  EXPECT_EQ(auto_solver->options().mapping, choice->mapping);
  EXPECT_EQ(auto_solver->options().gpu.gemm_threshold,
            choice->gpu.gemm_threshold);

  // Never-loses-to-the-old-auto: the mapping/offload stages only adopt
  // strictly faster pilots, so the winner is at least as good as the
  // best candidate restricted to the old (policy x width) search space.
  double old_auto = 1e300;
  for (const auto& cand : choice->candidates) {
    if (cand.mapping == core::SolverOptions{}.mapping &&
        cand.offload_scale == 0.0) {
      old_auto = std::min(old_auto, cand.sim_s);
    }
  }
  EXPECT_LE(choice->pilot_sim_s, old_auto + 1e-12);

  // The adopted configuration is one of the pilots, and the real run
  // reproduces that pilot's makespan bit for bit: a protocol-only pilot
  // runs the same code path as the run it tunes.
  EXPECT_TRUE(std::any_of(
      choice->candidates.begin(), choice->candidates.end(),
      [&](const core::AutoTuneCandidate& c) {
        return c.sim_s == choice->pilot_sim_s;
      }));
  EXPECT_EQ(choice->pilot_sim_s, auto_sim);
}

}  // namespace
}  // namespace sympack
