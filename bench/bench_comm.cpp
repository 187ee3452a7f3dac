// Comm-path ablation: eager/coalesced signal transport (DESIGN.md §4e)
// vs the rendezvous-only baseline protocol, across the three proxy
// matrices and both factorization variants at a communication-bound
// rank count.
//
// The baseline runs the historical protocol exactly (eager off,
// coalescing off); the fast configuration inlines payloads below the
// eager threshold and batches same-target signals per progress quantum.
// Both are protocol-only runs (the schedule and the machine-model
// charges are what's being measured); a numeric factorize+solve leg
// checks that the fast path engages with real buffers too.
//
// Options: --scale 1.0 --nodes 16 --ppn 4 --eager 4096 --json <path>
//
// Exit code 1 (the CI smoke contract) unless every fast row and the
// numeric row have both eager_sends > 0 and coalesced_signals > 0: a
// zero would mean a knob silently stopped reaching the transport.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace sympack;
  const support::Options opts(argc, argv);
  const double scale = opts.get_double("scale", 1.0);
  const int nodes = static_cast<int>(opts.get_int("nodes", 16));
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));
  const auto eager_bytes = opts.get_int("eager", 4096);

  std::printf("== Comm-path ablation: eager+coalesced vs "
              "rendezvous-only (%d ranks) ==\n", nodes * ppn);
  bench::JsonReport report;
  support::AsciiTable table({"matrix", "variant", "baseline (s)", "fast (s)",
                             "speedup", "rpcs base", "rpcs fast", "eager",
                             "coalesced"});

  bool fast_path_engaged = true;
  const auto engaged = [](const pgas::CommStats& s) {
    return s.eager_sends > 0 && s.coalesced_signals > 0;
  };
  for (const char* mat : {"flan", "bones", "thermal"}) {
    const auto info = bench::make_matrix(mat, scale);
    for (const auto variant : {core::Variant::kFanOut, core::Variant::kFanIn}) {
      double sim[2] = {0.0, 0.0};
      pgas::CommStats stats[2];
      for (int fast = 0; fast < 2; ++fast) {
        pgas::Runtime::Config cfg;
        cfg.nranks = nodes * ppn;
        cfg.ranks_per_node = ppn;
        pgas::Runtime rt(cfg);
        core::SolverOptions sopts;
        sopts.numeric = false;
        sopts.ordering = ordering::Method::kNatural;  // pre-permuted
        sopts.variant = variant;
        if (fast == 1) {
          sopts.comm.eager_bytes = eager_bytes;
          sopts.comm.coalesce = true;
        }
        core::SymPackSolver solver(rt, sopts);
        solver.symbolic_factorize(info.matrix);
        solver.factorize();
        sim[fast] = solver.report().factor_sim_s;
        stats[fast] = solver.report().comm;
      }
      const double speedup = sim[1] > 0 ? sim[0] / sim[1] : 0.0;
      if (!engaged(stats[1])) fast_path_engaged = false;
      table.add_row({mat, core::variant_name(variant),
                     support::AsciiTable::fmt(sim[0], 4),
                     support::AsciiTable::fmt(sim[1], 4),
                     support::AsciiTable::fmt(speedup, 2),
                     support::AsciiTable::fmt_int(stats[0].rpcs_sent),
                     support::AsciiTable::fmt_int(stats[1].rpcs_sent),
                     support::AsciiTable::fmt_int(stats[1].eager_sends),
                     support::AsciiTable::fmt_int(stats[1].coalesced_signals)});
      report.add_row()
          .set("matrix", mat)
          .set("variant", core::variant_name(variant))
          .set("ranks", nodes * ppn)
          .set("eager_bytes", eager_bytes)
          .set("baseline_sim_s", sim[0])
          .set("fast_sim_s", sim[1])
          .set("speedup", speedup)
          .set("baseline_rpcs_sent",
               static_cast<std::int64_t>(stats[0].rpcs_sent))
          .set("fast_rpcs_sent", static_cast<std::int64_t>(stats[1].rpcs_sent))
          .set("baseline_gets", static_cast<std::int64_t>(stats[0].gets))
          .set("fast_gets", static_cast<std::int64_t>(stats[1].gets))
          .set("eager_sends", static_cast<std::int64_t>(stats[1].eager_sends))
          .set("coalesced_signals",
               static_cast<std::int64_t>(stats[1].coalesced_signals));
    }
  }
  std::printf("%s", table.to_string().c_str());

  // Numeric leg: the fast path on a numeric factorize+solve (8 ranks —
  // the tier-1 test configuration), where eager payloads are real
  // buffers.
  {
    const auto info = bench::make_matrix("flan", scale);
    pgas::Runtime::Config cfg;
    cfg.nranks = 8;
    cfg.ranks_per_node = 4;
    pgas::Runtime rt(cfg);
    core::SolverOptions sopts;
    sopts.numeric = true;
    sopts.ordering = ordering::Method::kNatural;
    sopts.comm.eager_bytes = eager_bytes;
    sopts.comm.coalesce = true;
    core::SymPackSolver solver(rt, sopts);
    solver.symbolic_factorize(info.matrix);
    solver.factorize();
    const std::vector<double> b(
        static_cast<std::size_t>(info.matrix.n()), 1.0);
    (void)solver.solve(b);
    const pgas::CommStats numeric = solver.report().comm;
    if (!engaged(numeric)) fast_path_engaged = false;
    std::printf("numeric flan factor+solve at 8 ranks: %llu eager sends, "
                "%llu coalesced signals\n",
                static_cast<unsigned long long>(numeric.eager_sends),
                static_cast<unsigned long long>(numeric.coalesced_signals));
    report.add_row()
        .set("matrix", "flan")
        .set("variant", "numeric-factor-solve")
        .set("ranks", 8)
        .set("eager_bytes", eager_bytes)
        .set("eager_sends", static_cast<std::int64_t>(numeric.eager_sends))
        .set("coalesced_signals",
             static_cast<std::int64_t>(numeric.coalesced_signals));
  }

  std::printf("eager inlining removes the signal->rget round trip for small "
              "blocks; coalescing amortizes the per-message overhead across "
              "same-target signals.\n");
  if (!bench::maybe_write_json(opts, report)) return 1;
  if (!fast_path_engaged) {
    std::fprintf(stderr,
                 "FAIL: a fast or numeric row has eager_sends or "
                 "coalesced_signals at zero — the fast path did not engage\n");
    return 1;
  }
  return 0;
}
