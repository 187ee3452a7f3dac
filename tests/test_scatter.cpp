// The numeric update path (DESIGN.md §4k): the per-task row offsets that
// scatter an update's dense product into its target block, and the
// per-rank scratch buffers the engines reuse across tasks.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/block_store.hpp"
#include "core/solver.hpp"
#include "core/taskrt/scratch.hpp"
#include "ordering/etree.hpp"
#include "ordering/ordering.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::core {
namespace {

using sparse::CscMatrix;
using sparse::idx_t;

pgas::Runtime::Config cluster(int nranks) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  return cfg;
}

CscMatrix proxy_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

// The symbolic structure and a geometry-only block store of a proxy.
struct Geometry {
  explicit Geometry(const CscMatrix& a)
      : rt(cluster(8)),
        ap(sparse::permute_symmetric(
            a, ordering::compute_ordering(a, SolverOptions{}.ordering))),
        sym(symbolic::analyze(ap, ordering::elimination_tree(ap),
                              SolverOptions{}.symbolic)),
        mapping(rt.nranks(), SolverOptions{}.mapping),
        tg(sym, mapping),
        store(tg, rt, /*numeric=*/false) {}

  pgas::Runtime rt;
  CscMatrix ap;
  symbolic::Symbolic sym;
  symbolic::Mapping mapping;
  symbolic::TaskGraph tg;
  BlockStore store;
};

class UpdateOffsets : public ::testing::TestWithParam<std::string> {};

// For every update U_{j,si,ti}, the one-walk offsets of the source rows in
// the target block and of the pivot rows as target columns equal the
// per-element lookup (binary search in a below block, distance from the
// supernode's first column in its diagonal block), and no row is ever
// missing.
TEST_P(UpdateOffsets, MatchPerElementLookup) {
  const Geometry g(proxy_matrix(GetParam()));
  const auto lookup = [&g](idx_t t, idx_t slot, idx_t row) -> idx_t {
    if (slot > 0) return g.store.row_offset_in_block(t, slot, row);
    const auto& tsn = g.sym.snode(t);
    return (row >= tsn.first && row <= tsn.last) ? row - tsn.first : -1;
  };
  std::size_t checked = 0;
  std::vector<idx_t> out;
  for (idx_t j = 0; j < g.sym.num_snodes(); ++j) {
    const auto& sn = g.sym.snode(j);
    const auto nb = static_cast<idx_t>(sn.blocks.size());
    for (idx_t si = 1; si <= nb; ++si) {
      for (idx_t ti = 1; ti <= si; ++ti) {
        const auto& sblk = sn.blocks[si - 1];
        const auto& tblk = sn.blocks[ti - 1];
        const idx_t t = tblk.target;
        const idx_t tslot =
            si == ti ? 0 : g.sym.find_block(t, sblk.target) + 1;
        ASSERT_GE(tslot, 0);
        for (const auto& [blk, slot] :
             {std::pair{&sblk, tslot}, std::pair{&tblk, idx_t{0}}}) {
          const idx_t* rows = sn.below.data() + blk->row_off;
          out.assign(static_cast<std::size_t>(blk->nrows), -2);
          g.store.row_offsets_in_block(t, slot, rows, blk->nrows, out.data());
          for (idx_t r = 0; r < blk->nrows; ++r) {
            const idx_t expected = lookup(t, slot, rows[r]);
            ASSERT_NE(expected, -1) << "U(" << j << "," << si << "," << ti
                                    << ") row " << rows[r];
            ASSERT_EQ(out[r], expected) << "U(" << j << "," << si << ","
                                        << ti << ") row " << rows[r];
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Proxies, UpdateOffsets,
                         ::testing::Values("flan", "bones", "thermal"));

TEST(UpdateOffsetsEdge, AbsentRowThrows) {
  const Geometry g(sparse::grid2d_laplacian(8, 8));
  idx_t k = 0;
  while (g.sym.snode(k).blocks.empty()) ++k;
  const auto& sn = g.sym.snode(k);
  idx_t out = 0;
  // A column of k itself is never one of its below rows, and a row past
  // the supernode is never in its diagonal block.
  const idx_t own = sn.last;
  EXPECT_THROW(g.store.row_offsets_in_block(k, 1, &own, 1, &out),
               std::logic_error);
  const idx_t past = sn.last + 1;
  EXPECT_THROW(g.store.row_offsets_in_block(k, 0, &past, 1, &out),
               std::logic_error);
}

// A moved-from buffer reports capacity 0, so get() allocates again instead
// of returning its null pointer.
TEST(Scratch, MovedFromIsEmptyAndRegrows) {
  taskrt::Scratch<double> a;
  double* p = a.get(16);
  ASSERT_NE(p, nullptr);
  taskrt::Scratch<double> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.capacity(), 16u);
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_NE(a.get(8), nullptr);
  EXPECT_EQ(a.capacity(), 8u);

  taskrt::Scratch<double> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_NE(b.get(4), nullptr);
  EXPECT_EQ(c.get(16), p);  // fits: no reallocation
}

// Every factor block of the solver's last factorization, concatenated.
std::vector<double> factor_blocks(const SymPackSolver& solver) {
  const BlockStore& store = solver.block_store();
  std::vector<double> out;
  for (idx_t bid = 0; bid < store.num_blocks(); ++bid) {
    const double* d = store.data(bid);
    out.insert(out.end(), d, d + store.nrows(bid) * store.ncols(bid));
  }
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

using RepeatParam = std::tuple<std::string, Variant>;

class ScratchReuse : public ::testing::TestWithParam<RepeatParam> {};

// Two refactorizations of the same matrix on the same solver, with a
// different matrix factorized in between, give bitwise-identical factor
// blocks and solutions: the reused scratch carries no state from one
// task or run to the next.
TEST_P(ScratchReuse, RefactorizeIsBitwiseRepeatable) {
  const auto& [name, variant] = GetParam();
  const auto a = proxy_matrix(name);
  pgas::Runtime rt(cluster(8));
  SolverOptions opts;
  opts.variant = variant;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  const auto b = sparse::rhs_for_ones(a);

  solver.refactorize(a);
  const auto first = factor_blocks(solver);
  const auto x_first = solver.solve(b);

  auto shifted = a;
  shifted.shift_diagonal(1.0);
  solver.refactorize(shifted);
  EXPECT_FALSE(bitwise_equal(factor_blocks(solver), first));

  solver.refactorize(a);
  EXPECT_TRUE(bitwise_equal(factor_blocks(solver), first));
  EXPECT_TRUE(bitwise_equal(solver.solve(b), x_first));
  EXPECT_LT(sparse::relative_residual(a, x_first, b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    ProxiesVariants, ScratchReuse,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Values(Variant::kFanOut, Variant::kFanIn)),
    [](const ::testing::TestParamInfo<RepeatParam>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Variant::kFanOut ? "_fanout"
                                                          : "_fanin");
    });

}  // namespace
}  // namespace sympack::core
