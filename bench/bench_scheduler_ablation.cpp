// Ablation D: RTQ scheduling policies. The paper processes "whichever
// task is at the top of the queue" and defers evaluating scheduling
// policies to future work (§3.4, §6); this bench runs that evaluation:
// FIFO vs LIFO vs lowest-supernode-first priority vs critical-path
// (deepest-supernode-first) vs the measured `auto` mode — which runs
// cheap protocol-only pilots (core/autotune.hpp) and adopts the
// configuration with the shortest simulated makespan — at several node
// counts. Only simulated values are printed, so a rerun at the same
// settings reproduces BENCH_scheduler.json byte for byte.
//
// The bench is also the acceptance gate for `auto`: because the pilots
// are protocol-only and this bench runs protocol-only, the pilot
// makespans are exact, so `auto` must land within 5% of the best fixed
// policy (and never above the worst) on every matrix x node point; any
// violation exits nonzero.
//
// Options: --matrix flan|bones|thermal|all --scale 1.0 --nodes 1,4,16
//          --ppn 4 --json BENCH_scheduler.json
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/autotune.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace sympack;

double run_policy(const sparse::CscMatrix& a, int nodes, int ppn,
                  core::Policy policy) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nodes * ppn;
  cfg.ranks_per_node = ppn;
  pgas::Runtime rt(cfg);
  core::SolverOptions sopts;
  sopts.numeric = false;
  sopts.ordering = ordering::Method::kNatural;  // pre-permuted
  sopts.policy = policy;
  core::SymPackSolver solver(rt, sopts);
  solver.symbolic_factorize(a);
  solver.factorize();
  return solver.report().factor_sim_s;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Options opts(argc, argv);
  const std::string matrix_arg = opts.get_string("matrix", "flan");
  const double scale = opts.get_double("scale", 1.0);
  const auto nodes_list = opts.get_int_list("nodes", {1, 4, 16});
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));

  std::vector<std::string> matrices;
  if (matrix_arg == "all") {
    matrices = {"flan", "bones", "thermal"};
  } else {
    matrices = {matrix_arg};
  }

  static constexpr core::Policy kFixed[] = {
      core::Policy::kFifo, core::Policy::kLifo, core::Policy::kPriority,
      core::Policy::kCriticalPath};

  bench::JsonReport report;
  bool gate_failed = false;

  for (const std::string& name : matrices) {
    const auto info = bench::make_matrix(name, scale);
    std::printf("== Ablation: RTQ scheduling policies (%s) ==\n",
                info.name.c_str());
    support::AsciiTable table({"nodes", "fifo (s)", "lifo (s)",
                               "priority (s)", "critical-path (s)",
                               "auto (s)", "auto chose"});
    for (const auto nodes : nodes_list) {
      std::vector<std::string> row = {std::to_string(nodes)};
      double fixed_s[4] = {0, 0, 0, 0};
      for (int p = 0; p < 4; ++p) {
        fixed_s[p] = run_policy(info.matrix, static_cast<int>(nodes), ppn,
                                kFixed[p]);
        row.push_back(support::AsciiTable::fmt(fixed_s[p], 4));
      }
      double best = fixed_s[0], worst = fixed_s[0];
      for (int p = 1; p < 4; ++p) {
        best = std::min(best, fixed_s[p]);
        worst = std::max(worst, fixed_s[p]);
      }

      // The auto run: kAuto resolves in symbolic_factorize via pilots.
      double auto_s;
      core::Policy chosen = core::Policy::kFifo;
      sparse::idx_t chosen_width = 0;
      symbolic::Mapping::Kind chosen_mapping =
          symbolic::Mapping::Kind::k2dBlockCyclic;
      double chosen_offload = 0.0;
      // What the old policy+width-only search would have picked: the
      // best candidate with the default mapping and no offload retune.
      double old_auto_s = 0.0;
      {
        pgas::Runtime::Config cfg;
        cfg.nranks = static_cast<int>(nodes) * ppn;
        cfg.ranks_per_node = ppn;
        pgas::Runtime rt(cfg);
        core::SolverOptions sopts;
        sopts.numeric = false;
        sopts.ordering = ordering::Method::kNatural;
        sopts.policy = core::Policy::kAuto;
        core::SymPackSolver solver(rt, sopts);
        solver.symbolic_factorize(info.matrix);
        solver.factorize();
        auto_s = solver.report().factor_sim_s;
        if (const auto* choice = solver.autotune_choice()) {
          chosen = choice->policy;
          chosen_width = choice->max_width;
          chosen_mapping = choice->mapping;
          chosen_offload = choice->offload_scale;
          old_auto_s = 1e300;
          for (const auto& cand : choice->candidates) {
            if (cand.mapping == core::SolverOptions{}.mapping &&
                cand.offload_scale == 0.0) {
              old_auto_s = std::min(old_auto_s, cand.sim_s);
            }
          }
        }
      }
      row.push_back(support::AsciiTable::fmt(auto_s, 4));
      char chose[96];
      std::snprintf(chose, sizeof chose, "%s/%lld/%s%s",
                    core::policy_name(chosen).c_str(),
                    static_cast<long long>(chosen_width),
                    symbolic::Mapping::kind_name(chosen_mapping),
                    chosen_offload > 0.0 ? "/offload" : "");
      row.push_back(chose);
      table.add_row(row);

      // Acceptance gates: within 5% of the best fixed policy, never
      // above the worst — and never above what the old policy+width-only
      // auto search would have picked (the mapping/offload stages adopt
      // strictly-better pilots only, so equality is the worst case).
      if (auto_s > 1.05 * best || auto_s > worst + 1e-12) {
        std::fprintf(stderr,
                     "FAIL: auto %.6f s vs best %.6f s / worst %.6f s "
                     "(%s, %lld nodes)\n",
                     auto_s, best, worst, info.name.c_str(),
                     static_cast<long long>(nodes));
        gate_failed = true;
      }
      if (old_auto_s > 0.0 && auto_s > old_auto_s + 1e-12) {
        std::fprintf(stderr,
                     "FAIL: auto %.6f s lost to the old policy+width-only "
                     "auto %.6f s (%s, %lld nodes)\n",
                     auto_s, old_auto_s, info.name.c_str(),
                     static_cast<long long>(nodes));
        gate_failed = true;
      }

      report.add_row()
          .set("figure", "ablation_scheduler")
          .set("matrix", info.name)
          .set("nodes", nodes)
          .set("ppn", static_cast<std::int64_t>(ppn))
          .set("fifo_s", fixed_s[0])
          .set("lifo_s", fixed_s[1])
          .set("priority_s", fixed_s[2])
          .set("critical_path_s", fixed_s[3])
          .set("auto_s", auto_s)
          .set("auto_policy", core::policy_name(chosen))
          .set("auto_max_width", static_cast<std::int64_t>(chosen_width))
          .set("auto_mapping", symbolic::Mapping::kind_name(chosen_mapping))
          .set("auto_offload_scale", chosen_offload)
          .set("old_auto_s", old_auto_s)
          .set("auto_vs_best", best > 0 ? auto_s / best : 1.0)
          .set("auto_vs_default", fixed_s[0] > 0 ? auto_s / fixed_s[0] : 1.0);
    }
    std::printf("%s", table.to_string().c_str());
  }

  if (!bench::maybe_write_json(opts, report)) return 1;
  return gate_failed ? 1 : 0;
}
