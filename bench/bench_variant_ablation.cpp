// Ablation F: fan-out vs fan-in (Ashcraft's taxonomy, paper §2.3). The
// paper's symPACK "is inspired by the fan-out algorithm"; this bench
// quantifies that choice against the fan-in variant with aggregate-vector
// messages on the same block distribution, across node counts and all
// three proxy matrices.
//
// Options: --scale 1.0 --nodes 1,4,16,64 --ppn 4
#include <cstdio>

#include "common.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace sympack;
  const support::Options opts(argc, argv);
  const double scale = opts.get_double("scale", 1.0);
  const auto nodes_list = opts.get_int_list("nodes", {1, 4, 16, 64});
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));

  std::printf("== Ablation: fan-out vs fan-in factorization (paper §2.3) "
              "==\n");
  support::AsciiTable table({"matrix", "nodes", "fan-out (s)", "fan-in (s)",
                             "fan-out msgs", "fan-in msgs"});
  for (const char* mat : {"flan", "bones", "thermal"}) {
    const auto info = bench::make_matrix(mat, scale);
    for (const auto nodes : nodes_list) {
      std::vector<std::string> row = {mat, std::to_string(nodes)};
      std::vector<std::string> msgs;
      for (const auto variant :
           {core::Variant::kFanOut, core::Variant::kFanIn}) {
        pgas::Runtime::Config cfg;
        cfg.nranks = static_cast<int>(nodes) * ppn;
        cfg.ranks_per_node = ppn;
        pgas::Runtime rt(cfg);
        core::SolverOptions sopts;
        sopts.numeric = false;
        sopts.ordering = ordering::Method::kNatural;  // pre-permuted
        sopts.variant = variant;
        core::SymPackSolver solver(rt, sopts);
        solver.symbolic_factorize(info.matrix);
        solver.factorize();
        row.push_back(
            support::AsciiTable::fmt(solver.report().factor_sim_s, 4));
        msgs.push_back(
            support::AsciiTable::fmt_int(solver.report().comm.rpcs_sent));
      }
      row.insert(row.end(), msgs.begin(), msgs.end());
      table.add_row(row);
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("the paper chose fan-out; aggregate vectors trade message "
              "count against the latency of waiting for producers to "
              "finish all their contributions.\n");
  return 0;
}
