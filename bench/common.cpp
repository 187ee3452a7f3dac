#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "baseline/rightlooking.hpp"
#include "ordering/ordering.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace sympack::bench {

using sparse::CscMatrix;
using support::json_escape;

JsonReport::Row& JsonReport::Row::set(const std::string& key,
                                      const std::string& value) {
  // Appended piecewise: GCC 12's -Wrestrict misfires on a
  // "\"" + std::string + "\"" chain.
  std::string quoted = "\"";
  quoted += json_escape(value);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
  return *this;
}

JsonReport::Row& JsonReport::Row::set(const std::string& key,
                                      const char* value) {
  return set(key, std::string(value));
}

JsonReport::Row& JsonReport::Row::set(const std::string& key, double value) {
  // JSON has no NaN/Infinity token. The old emitter substituted the
  // *string* "nan", silently flipping the field's type from number to
  // string and breaking numeric consumers; null keeps the field
  // number-or-absent typed, which is what every JSON toolchain expects
  // for a missing measurement.
  if (!std::isfinite(value)) {
    fields_.emplace_back(key, "null");
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonReport::Row& JsonReport::Row::set(const std::string& key,
                                      std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

std::string JsonReport::to_string() const {
  std::string out = "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += "  {";
    const auto& fields = rows_[r].fields_;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      out += '"';
      out += json_escape(fields[f].first);
      out += "\": ";
      out += fields[f].second;
      if (f + 1 < fields.size()) out += ", ";
    }
    out += r + 1 < rows_.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

bool JsonReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << to_string();
  return static_cast<bool>(out);
}

bool maybe_write_json(const support::Options& opts, const JsonReport& report) {
  const auto path = opts.get_string("json", "");
  if (path.empty()) return true;
  if (!report.write(path)) return false;
  std::printf("[json] wrote %zu rows to %s\n", report.size(), path.c_str());
  return true;
}

MatrixInfo make_matrix(const std::string& name, double scale) {
  MatrixInfo info;
  info.name = name + "_proxy";
  CscMatrix raw;
  if (name == "flan") {
    raw = sparse::flan_proxy(scale);
    info.paper_name = "Flan_1565";
    info.description = "3D 27-pt stencil (steel-flange stand-in)";
  } else if (name == "bones") {
    raw = sparse::bones_proxy(scale);
    info.paper_name = "boneS10";
    info.description = "3D elasticity, 3 dofs/node (trabecular-bone stand-in)";
  } else if (name == "thermal") {
    raw = sparse::thermal_proxy(scale);
    info.paper_name = "thermal2";
    info.description = "2D irregular heterogeneous (steady-state thermal)";
  } else {
    throw std::invalid_argument("unknown matrix: " + name);
  }
  // Scotch's role: one nested-dissection ordering, shared by both
  // solvers (AD/AE: "The same matrix ordering computed by Scotch is used
  // for both solvers").
  const auto perm = ordering::compute_ordering(
      raw, ordering::Method::kNestedDissection);
  info.matrix = sparse::permute_symmetric(raw, perm);
  return info;
}

SweepConfig sweep_config_from_options(const support::Options& opts) {
  SweepConfig cfg;
  cfg.nodes = opts.get_int_list("nodes", cfg.nodes);
  cfg.ppn_candidates = opts.get_int_list("ppn", cfg.ppn_candidates);
  cfg.numeric = opts.get_bool("numeric", cfg.numeric);
  return cfg;
}

namespace {

pgas::Runtime::Config cluster(int nodes, int ppn) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nodes * ppn;
  cfg.ranks_per_node = ppn;
  cfg.gpus_per_node = 4;  // Perlmutter GPU nodes (paper §5)
  cfg.device_memory_bytes = 4ull << 30;
  return cfg;
}

}  // namespace

std::vector<ScalingPoint> run_scaling(const MatrixInfo& info,
                                      const SweepConfig& config) {
  std::vector<ScalingPoint> points;
  for (const auto nodes : config.nodes) {
    ScalingPoint pt;
    pt.nodes = static_cast<int>(nodes);
    pt.sympack_factor_s = pt.sympack_solve_s = 1e30;
    pt.pastix_factor_s = pt.pastix_solve_s = 1e30;
    for (const auto ppn : config.ppn_candidates) {
      // --- symPACK (fan-out, 2D, memory kinds).
      {
        pgas::Runtime rt(cluster(static_cast<int>(nodes),
                                 static_cast<int>(ppn)));
        core::SolverOptions opts;
        opts.numeric = config.numeric;
        opts.ordering = ordering::Method::kNatural;  // pre-permuted
        core::SymPackSolver solver(rt, opts);
        solver.symbolic_factorize(info.matrix);
        solver.factorize();
        const pgas::CommStats after_factor = rt.total_stats();
        std::vector<double> b(info.matrix.n(),
                              config.numeric ? 1.0 : 0.0);
        (void)solver.solve(b);
        if (solver.report().factor_sim_s < pt.sympack_factor_s) {
          pt.sympack_factor_s = solver.report().factor_sim_s;
          pt.sympack_best_ppn = static_cast<int>(ppn);
        }
        if (solver.report().solve_sim_s < pt.sympack_solve_s) {
          pt.sympack_solve_s = solver.report().solve_sim_s;
          const pgas::CommStats after_solve = rt.total_stats();
          pt.sympack_solve_bytes = static_cast<std::int64_t>(
              (after_solve.bytes_from_host - after_factor.bytes_from_host) +
              (after_solve.bytes_from_device -
               after_factor.bytes_from_device) +
              (after_solve.bytes_to_device - after_factor.bytes_to_device));
          pt.sympack_solve_gflops =
              4.0 * static_cast<double>(solver.report().factor_nnz) /
              (solver.report().solve_sim_s * 1e9);
        }
      }
      // --- PaStiX-like baseline (right-looking, 1D, two-sided). The
      // paper ran PaStiX with one process per GPU; ppn beyond the GPU
      // count does not help a StarPU process, so cap at 4.
      {
        const int pas_ppn = static_cast<int>(std::min<std::int64_t>(ppn, 4));
        pgas::Runtime rt(cluster(static_cast<int>(nodes), pas_ppn));
        baseline::BaselineOptions opts;
        opts.numeric = config.numeric;
        opts.ordering = ordering::Method::kNatural;
        baseline::RightLookingSolver solver(rt, opts);
        solver.symbolic_factorize(info.matrix);
        solver.factorize();
        std::vector<double> b(info.matrix.n(),
                              config.numeric ? 1.0 : 0.0);
        (void)solver.solve(b);
        if (solver.report().factor_sim_s < pt.pastix_factor_s) {
          pt.pastix_factor_s = solver.report().factor_sim_s;
          pt.pastix_best_ppn = pas_ppn;
        }
        pt.pastix_solve_s =
            std::min(pt.pastix_solve_s, solver.report().solve_sim_s);
      }
    }
    points.push_back(pt);
  }
  return points;
}

void print_figure(const std::string& figure, const std::string& title,
                  const std::vector<ScalingPoint>& points, bool solve_phase) {
  std::printf("== %s: %s ==\n", figure.c_str(), title.c_str());
  std::printf("   (simulated parallel time on the modeled Perlmutter-like "
              "cluster; best over processes-per-node)\n");
  support::AsciiTable table(
      {"nodes", "symPACK (s)", "PaStiX-like (s)", "speedup", "best ppn"});
  for (const auto& pt : points) {
    const double sym = solve_phase ? pt.sympack_solve_s : pt.sympack_factor_s;
    const double pas = solve_phase ? pt.pastix_solve_s : pt.pastix_factor_s;
    table.add_row({std::to_string(pt.nodes), support::AsciiTable::fmt(sym, 4),
                   support::AsciiTable::fmt(pas, 4),
                   support::AsciiTable::fmt(pas / sym, 2),
                   std::to_string(pt.sympack_best_ppn)});
  }
  std::printf("%s", table.to_string().c_str());
}

double validate_small(const std::string& matrix_name, double scale) {
  const auto info = make_matrix(matrix_name, scale);
  pgas::Runtime rt(cluster(2, 4));
  core::SolverOptions opts;
  opts.ordering = ordering::Method::kNatural;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(info.matrix);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(info.matrix);
  const auto x = solver.solve(b);
  const double residual = sparse::relative_residual(info.matrix, x, b);
  std::printf("[validation] %s at scale %.3f: n=%lld, relative residual = "
              "%.2e (numeric mode, 8 ranks)\n",
              info.name.c_str(), scale,
              static_cast<long long>(info.matrix.n()), residual);
  return residual;
}

int run_figure_main(int argc, const char* const* argv,
                    const std::string& figure, const std::string& matrix_name,
                    bool solve_phase) {
  const support::Options opts(argc, argv);
  const double scale = opts.get_double("scale", 1.0);
  const auto config = sweep_config_from_options(opts);

  const auto info = make_matrix(matrix_name, scale);
  std::printf("%s: %s standing in for %s (%s)\n", figure.c_str(),
              info.name.c_str(), info.paper_name.c_str(),
              info.description.c_str());
  std::printf("n = %lld, nnz(A) = %lld\n",
              static_cast<long long>(info.matrix.n()),
              static_cast<long long>(info.matrix.nnz_stored()));

  const auto points = run_scaling(info, config);
  print_figure(figure,
               (solve_phase ? "Solve times for " : "Factorization times for ") +
                   info.paper_name + " (proxy)",
               points, solve_phase);

  JsonReport report;
  for (const auto& pt : points) {
    auto& row =
        report.add_row()
            .set("figure", figure)
            .set("matrix", info.name)
            .set("nodes", pt.nodes)
            .set("phase", solve_phase ? "solve" : "factor")
            .set("sympack_s",
                 solve_phase ? pt.sympack_solve_s : pt.sympack_factor_s)
            .set("pastix_s",
                 solve_phase ? pt.pastix_solve_s : pt.pastix_factor_s)
            .set("sympack_best_ppn", pt.sympack_best_ppn);
    if (solve_phase) {
      // Dataflow columns, so the fig solve benches and the batched
      // bench_solve_batch ablation are comparable in one format.
      row.set("solve_gflops", pt.sympack_solve_gflops)
          .set("solve_bytes_moved", pt.sympack_solve_bytes);
    }
  }
  if (!maybe_write_json(opts, report)) return 1;

  if (opts.get_bool("validate", true)) {
    const double residual = validate_small(matrix_name, 0.05);
    if (residual > 1e-10) {
      std::fprintf(stderr, "validation FAILED: residual %.2e\n", residual);
      return 1;
    }
  }
  return 0;
}

}  // namespace sympack::bench
