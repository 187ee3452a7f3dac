// sympack-critpath: trace-driven critical-path profiler CLI.
//
// Runs a factorization (and a solve) of one of the paper's proxy
// matrices on the simulated cluster with structured trace metadata
// enabled, feeds the traces through core::CritPathAnalyzer, and reports
// where the makespan went: per-category compute on the critical path
// (potrf / trsm / update / solve), communication, and idle wait — plus
// the top-k longest path segments with rank and supernode attribution.
//
//   sympack-critpath --matrix flan --scale 0.3 --nodes 4 --ppn 4
//   sympack-critpath --matrix thermal --policy auto --json report.json
//   sympack-critpath --matrix bones --trace trace.json   # chrome://tracing
//
// Flags:
//   --matrix  flan|bones|thermal   proxy matrix (default flan)
//   --scale   double               proxy size scale (default 0.25)
//   --nodes   int                  simulated nodes (default 4)
//   --ppn     int                  ranks per node (default 4)
//   --policy  fifo|lifo|priority|critical-path|auto (default fifo)
//   --auto    bool                 shorthand for --policy auto
//   --numeric bool                 real numerics (default false:
//                                  protocol-only, same schedule, cheap)
//   --shard   bool                 sharded per-rank symbolic metadata
//                                  (default false; DESIGN.md §4i)
//   --nrhs    int                  right-hand sides to solve (default 1;
//                                  0 skips the solve phase)
//   --topk    int                  path segments to print (default 8)
//   --trace   path                 write the Chrome trace JSON
//   --json    path                 write the analyzer reports as JSON
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/critpath.hpp"
#include "core/solver.hpp"
#include "ordering/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace sympack;

sparse::CscMatrix make_proxy(const std::string& name, double scale) {
  sparse::CscMatrix raw;
  if (name == "flan") {
    raw = sparse::flan_proxy(scale);
  } else if (name == "bones") {
    raw = sparse::bones_proxy(scale);
  } else if (name == "thermal") {
    raw = sparse::thermal_proxy(scale);
  } else {
    std::fprintf(stderr, "unknown matrix '%s' (flan|bones|thermal)\n",
                 name.c_str());
    std::exit(2);
  }
  const auto perm =
      ordering::compute_ordering(raw, ordering::Method::kNestedDissection);
  return sparse::permute_symmetric(raw, perm);
}

void print_report(const char* phase, const core::CritPathReport& rep,
                  int top_k) {
  std::printf("-- %s: makespan %.6f s, critical path %d tasks --\n", phase,
              rep.makespan_s, rep.path_tasks);
  const double cp = rep.critical_path_s > 0 ? rep.critical_path_s : 1.0;
  std::printf(
      "   path breakdown: potrf %.1f%%  trsm %.1f%%  update %.1f%%  "
      "solve %.1f%%  comm %.1f%%  wait %.1f%%\n",
      100.0 * rep.path.potrf / cp, 100.0 * rep.path.trsm / cp,
      100.0 * rep.path.update / cp, 100.0 * rep.path.solve / cp,
      100.0 * rep.path.comm / cp, 100.0 * rep.path.wait / cp);
  std::printf("   busy %.6f s over %d ranks (idle %.6f s, %.1f%% of "
              "rank-seconds)\n",
              rep.busy_s, rep.nranks, rep.idle_s,
              rep.nranks > 0
                  ? 100.0 * rep.idle_s / (rep.nranks * rep.makespan_s)
                  : 0.0);
  support::AsciiTable table(
      {"task", "rank", "snode", "dur (s)", "comm (s)", "wait (s)"});
  int shown = 0;
  for (const auto& seg : rep.top) {
    if (shown++ >= top_k) break;
    table.add_row({seg.name, std::to_string(seg.rank),
                   std::to_string(seg.snode),
                   support::AsciiTable::fmt(seg.duration(), 6),
                   support::AsciiTable::fmt(seg.comm_s, 6),
                   support::AsciiTable::fmt(seg.wait_s, 6)});
  }
  std::printf("%s", table.to_string().c_str());
}

std::string autotune_json(const core::AutoTuneChoice& c) {
  using symbolic::Mapping;
  std::string out = "{\"policy\":\"" + core::policy_name(c.policy) + "\"";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ",\"max_width\":%lld,\"mapping\":\"%s\","
                "\"offload_scale\":%.9g,\"gemm_threshold\":%lld,"
                "\"pilot_sim_s\":%.9g,\"default_sim_s\":%.9g,"
                "\"candidates\":[",
                static_cast<long long>(c.max_width),
                Mapping::kind_name(c.mapping), c.offload_scale,
                static_cast<long long>(c.gpu.gemm_threshold), c.pilot_sim_s,
                c.default_sim_s);
  out += buf;
  for (std::size_t i = 0; i < c.candidates.size(); ++i) {
    const auto& cand = c.candidates[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"policy\":\"%s\",\"max_width\":%lld,"
                  "\"mapping\":\"%s\",\"offload_scale\":%.9g,"
                  "\"sim_s\":%.9g}",
                  i > 0 ? "," : "", core::policy_name(cand.policy).c_str(),
                  static_cast<long long>(cand.max_width),
                  Mapping::kind_name(cand.mapping), cand.offload_scale,
                  cand.sim_s);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Options opts(argc, argv);
  const std::string matrix = opts.get_string("matrix", "flan");
  const double scale = opts.get_double("scale", 0.25);
  const int nodes = static_cast<int>(opts.get_int("nodes", 4));
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));
  const bool numeric = opts.get_bool("numeric", false);
  const int nrhs = static_cast<int>(opts.get_int("nrhs", 1));
  const int top_k = static_cast<int>(opts.get_int("topk", 8));
  const std::string trace_path = opts.get_string("trace", "");
  const std::string json_path = opts.get_string("json", "");
  const std::string policy_name = opts.get_string(
      "policy", opts.get_bool("auto", false) ? "auto" : "fifo");

  const sparse::CscMatrix a = make_proxy(matrix, scale);

  pgas::Runtime::Config cfg;
  cfg.nranks = nodes * ppn;
  cfg.ranks_per_node = ppn;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 4ull << 30;
  pgas::Runtime rt(cfg);

  core::SolverOptions sopts;
  sopts.ordering = ordering::Method::kNatural;  // proxy is pre-permuted
  sopts.policy = core::parse_policy(policy_name);
  sopts.numeric = numeric;
  sopts.symbolic.shard = opts.get_bool("shard", false);
  sopts.trace.metadata = true;  // structured events for the analyzer

  core::SymPackSolver solver(rt, sopts);
  core::Tracer tracer;
  solver.set_tracer(&tracer);

  solver.symbolic_factorize(a);
  solver.factorize();
  const auto factor_events = tracer.events();
  const pgas::CommStats factor_stats = rt.total_stats();

  std::printf("== sympack-critpath: %s_proxy (n=%lld), %d ranks (%d x %d), "
              "policy=%s, %s ==\n",
              matrix.c_str(), static_cast<long long>(a.n()), cfg.nranks,
              nodes, ppn, core::policy_name(solver.options().policy).c_str(),
              numeric ? "numeric" : "protocol-only");
  if (const auto* choice = solver.autotune_choice()) {
    std::printf("   auto: picked %s / max_width %lld / mapping %s (pilot "
                "%.6f s vs default %.6f s, %zu pilots)\n",
                core::policy_name(choice->policy).c_str(),
                static_cast<long long>(choice->max_width),
                symbolic::Mapping::kind_name(choice->mapping),
                choice->pilot_sim_s, choice->default_sim_s,
                choice->candidates.size());
    if (choice->offload_scale > 0.0) {
      std::printf("   auto: offload thresholds from analytic model x %.2g "
                  "(potrf %lld, trsm %lld, syrk %lld, gemm %lld elems)\n",
                  choice->offload_scale,
                  static_cast<long long>(choice->gpu.potrf_threshold),
                  static_cast<long long>(choice->gpu.trsm_threshold),
                  static_cast<long long>(choice->gpu.syrk_threshold),
                  static_cast<long long>(choice->gpu.gemm_threshold));
    } else {
      std::printf("   auto: offload thresholds kept at configured values "
                  "(no pilot beat them)\n");
    }
  }

  core::CritPathAnalyzer factor_an(factor_events);
  factor_an.set_comm_stats(factor_stats);
  const auto factor_rep = factor_an.analyze(top_k);
  print_report("factor", factor_rep, top_k);

  // Symbolic-phase counters (the counters.def symbolic family): seeded
  // per rank from the view after every stats reset, so the phase is
  // visible here whether sharding is on or off.
  {
    std::uint64_t max_build_us = 0, max_bytes = 0;
    for (int r = 0; r < cfg.nranks; ++r) {
      const auto& s = rt.rank(r).stats();
      max_build_us = std::max(max_build_us, s.symbolic_build_us);
      max_bytes = std::max(max_bytes, s.symbolic_bytes);
    }
    std::printf("-- symbolic: build (slowest rank) %.6f s, peak resident "
                "%.1f KiB/rank, views %s --\n   totals:",
                static_cast<double>(max_build_us) * 1e-6,
                static_cast<double>(max_bytes) / 1024.0,
                solver.symbolic_view().sharded() ? "sharded" : "replicated");
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) \
  std::printf(" %s=%llu", label,                           \
              static_cast<unsigned long long>(factor_stats.field));
#include "core/taskrt/counters.def"
#undef SYMPACK_SYMBOLIC_COUNTER
    std::printf("\n");
  }

  // Solve phase (the clocks reset between phases, so it is analyzed as
  // its own trace).
  core::CritPathReport solve_rep;
  bool have_solve = false;
  if (nrhs > 0) {
    rt.reset_stats();
    const std::vector<double> b(
        static_cast<std::size_t>(a.n()) * static_cast<std::size_t>(nrhs),
        numeric ? 1.0 : 0.0);
    (void)solver.solve(b, nrhs);
    const auto all_events = tracer.events();
    std::vector<core::Tracer::Event> solve_events(
        all_events.begin() +
            static_cast<std::ptrdiff_t>(factor_events.size()),
        all_events.end());
    core::CritPathAnalyzer solve_an(std::move(solve_events));
    solve_an.set_comm_stats(rt.total_stats());
    solve_rep = solve_an.analyze(top_k);
    print_report("solve", solve_rep, top_k);
    have_solve = true;
  }

  if (!trace_path.empty()) {
    tracer.write_chrome_json(trace_path);
    std::printf("[trace] wrote %zu events to %s\n", tracer.size(),
                trace_path.c_str());
  }
  if (!json_path.empty()) {
    std::string doc = "{\"matrix\":\"" + matrix + "_proxy\",\"nranks\":" +
                      std::to_string(cfg.nranks) + ",\"policy\":\"" +
                      core::policy_name(solver.options().policy) + "\"";
    if (const auto* choice = solver.autotune_choice()) {
      doc += ",\"autotune\":" + autotune_json(*choice);
    }
    doc += ",\"symbolic\":{\"sharded\":";
    doc += solver.symbolic_view().sharded() ? "true" : "false";
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) \
  doc += ",\"" label "\":" + std::to_string(factor_stats.field);
#include "core/taskrt/counters.def"
#undef SYMPACK_SYMBOLIC_COUNTER
    doc += "}";
    doc += ",\"factor\":" + factor_rep.to_json();
    if (have_solve) doc += ",\"solve\":" + solve_rep.to_json();
    doc += "}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(doc.c_str(), f);
    std::fclose(f);
    std::printf("[json] wrote analyzer report to %s\n", json_path.c_str());
  }
  return 0;
}
