// Strong scaling of the symbolic layer to 1024 ranks (DESIGN.md §4i).
//
// The replicated symbolic layer is the classic scalability wall: every
// rank holds the full Symbolic + Mapping + TaskGraph metadata, so the
// per-rank symbolic footprint is flat in P while the per-rank factor
// share falls — past a few hundred ranks the metadata dominates. A
// sharded SymbolicView keeps only the locally relevant supernodes plus
// ancestor closure per rank, and the sliced analysis replaces the serial
// prologue every rank used to repeat.
//
// For each proxy × rank count this driver records, for both modes:
//   * per-rank peak symbolic metadata bytes (max over ranks of the
//     view's resident footprint),
//   * per-rank peak factor-block bytes (from the block geometry and the
//     2D-cyclic mapping — identical in both modes, the factor itself is
//     never sharded),
//   * simulated symbolic-phase build seconds (replicated: the full
//     serial prologue; sharded: the slowest rank's slice + exchanges).
//
// Options: --ranks 64,128,256,512,1024 --scale 1.0 --gate-ranks 256
//          --json BENCH_scale.json
//
// Exit code 1 (the CI scale-bench gate) if at --gate-ranks the sharded
// per-rank peak symbolic footprint is not strictly below the replicated
// one on every proxy.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "symbolic/view.hpp"

int main(int argc, char** argv) {
  using namespace sympack;
  using sparse::idx_t;

  const support::Options opts(argc, argv);
  const double scale = opts.get_double("scale", 1.0);
  const auto ranks = opts.get_int_list("ranks", {64, 128, 256, 512, 1024});
  const int gate_ranks = static_cast<int>(opts.get_int("gate-ranks", 256));

  std::printf("== Symbolic strong scaling: replicated vs sharded views ==\n");
  bench::JsonReport report;
  support::AsciiTable table(
      {"matrix", "ranks", "rep sym peak (KiB)", "shard sym peak (KiB)",
       "ratio", "factor peak (KiB)", "rep build (s)", "shard build (s)"});

  bool gate_ok = true;
  bool gate_seen = false;
  // Per proxy: sharded per-rank peak at the smallest and largest P, to
  // report whether the footprint actually falls with P.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> fall;

  for (const char* mat : {"flan", "bones", "thermal"}) {
    const auto info = bench::make_matrix(mat, scale);
    for (const auto p64 : ranks) {
      const int p = static_cast<int>(p64);
      std::uint64_t sym_peak[2] = {0, 0};
      double build_s[2] = {0.0, 0.0};
      std::uint64_t factor_peak = 0;
      double analyze_wall[2] = {0.0, 0.0};

      for (int shard = 0; shard < 2; ++shard) {
        pgas::Runtime::Config cfg;
        cfg.nranks = p;
        cfg.ranks_per_node = 4;
        pgas::Runtime rt(cfg);
        core::SolverOptions sopts;
        sopts.numeric = false;           // symbolic phase only
        sopts.ordering = ordering::Method::kNatural;  // pre-permuted
        sopts.symbolic.shard = shard == 1;
        core::SymPackSolver solver(rt, sopts);
        solver.symbolic_factorize(info.matrix);

        const auto& view = solver.symbolic_view();
        for (int r = 0; r < p; ++r) {
          sym_peak[shard] = std::max(sym_peak[shard], view.resident_bytes(r));
          build_s[shard] = std::max(build_s[shard], view.build_seconds(r));
        }
        analyze_wall[shard] = solver.report().symbolic_wall_s;

        if (shard == 1) {
          // Per-rank factor share from the block geometry (mode-independent:
          // the numeric factor is never sharded, only its metadata is).
          const auto& sym = solver.symbolic();
          const auto& tg = solver.taskgraph();
          std::vector<std::uint64_t> factor_bytes(
              static_cast<std::size_t>(p), 0);
          for (idx_t k = 0; k < sym.num_snodes(); ++k) {
            const auto& sn = sym.snode(k);
            const auto w = static_cast<std::uint64_t>(sn.width());
            factor_bytes[static_cast<std::size_t>(tg.owner(k, 0))] +=
                8 * w * w;
            for (idx_t slot = 1;
                 slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
              factor_bytes[static_cast<std::size_t>(tg.owner(k, slot))] +=
                  8 * static_cast<std::uint64_t>(sn.blocks[slot - 1].nrows) *
                  w;
            }
          }
          factor_peak =
              *std::max_element(factor_bytes.begin(), factor_bytes.end());
        }
      }

      const double ratio =
          sym_peak[0] > 0
              ? static_cast<double>(sym_peak[1]) /
                    static_cast<double>(sym_peak[0])
              : 0.0;
      if (p == gate_ranks) {
        gate_seen = true;
        if (sym_peak[1] >= sym_peak[0]) {
          gate_ok = false;
          std::fprintf(stderr,
                       "GATE: %s at %d ranks: sharded peak %llu >= "
                       "replicated peak %llu\n",
                       mat, p, static_cast<unsigned long long>(sym_peak[1]),
                       static_cast<unsigned long long>(sym_peak[0]));
        }
      }
      auto& f = fall[mat];
      if (p64 == ranks.front()) f.first = sym_peak[1];
      if (p64 == ranks.back()) f.second = sym_peak[1];

      table.add_row({mat, std::to_string(p),
                     support::AsciiTable::fmt(sym_peak[0] / 1024.0, 1),
                     support::AsciiTable::fmt(sym_peak[1] / 1024.0, 1),
                     support::AsciiTable::fmt(ratio, 3),
                     support::AsciiTable::fmt(factor_peak / 1024.0, 1),
                     support::AsciiTable::fmt(build_s[0], 6),
                     support::AsciiTable::fmt(build_s[1], 6)});
      report.add_row()
          .set("matrix", mat)
          .set("ranks", p)
          .set("replicated_peak_symbolic_bytes",
               static_cast<std::int64_t>(sym_peak[0]))
          .set("sharded_peak_symbolic_bytes",
               static_cast<std::int64_t>(sym_peak[1]))
          .set("sharded_over_replicated", ratio)
          .set("peak_factor_bytes_per_rank",
               static_cast<std::int64_t>(factor_peak))
          .set("replicated_build_s", build_s[0])
          .set("sharded_build_s", build_s[1])
          .set("replicated_analyze_wall_s", analyze_wall[0])
          .set("sharded_analyze_wall_s", analyze_wall[1]);
    }
  }
  std::printf("%s", table.to_string().c_str());

  int falling = 0;
  for (const auto& [mat, peaks] : fall) {
    const bool falls = peaks.second < peaks.first;
    falling += falls ? 1 : 0;
    std::printf("%s: sharded per-rank peak %s from %llu B at P=%lld to "
                "%llu B at P=%lld\n",
                mat.c_str(), falls ? "falls" : "does NOT fall",
                static_cast<unsigned long long>(peaks.first),
                static_cast<long long>(ranks.front()),
                static_cast<unsigned long long>(peaks.second),
                static_cast<long long>(ranks.back()));
  }
  std::printf("replicated footprint is flat in P by construction; the "
              "sharded curve falls on %d/3 proxies across this sweep.\n",
              falling);

  if (!bench::maybe_write_json(opts, report)) return 1;
  if (gate_seen && !gate_ok) {
    std::fprintf(stderr,
                 "FAIL: sharded per-rank peak symbolic memory is not "
                 "strictly below replicated at %d ranks\n", gate_ranks);
    return 1;
  }
  return 0;
}
