// Tests for the symbolic phase: supernode detection, amalgamation,
// width splitting, panel structures, Algorithm-2 block partitioning,
// the structural invariants the numeric phase relies on (validated by
// Symbolic::validate), the 2D block-cyclic mapping, and the task graph
// counts.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ordering/etree.hpp"
#include "ordering/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "symbolic/mapping.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::symbolic {
namespace {

using sparse::CscMatrix;

Symbolic analyze_matrix(const CscMatrix& a, const SymbolicOptions& opts = {}) {
  const auto parent = ordering::elimination_tree(a);
  return analyze(a, parent, opts);
}

CscMatrix ordered(const CscMatrix& a) {
  return sparse::permute_symmetric(
      a, ordering::compute_ordering(a, ordering::Method::kNestedDissection));
}

TEST(Supernodes, DenseMatrixIsOneSupernode) {
  const auto a = sparse::dense_spd(10, 1);
  SymbolicOptions opts;
  opts.amalgamate = false;
  opts.max_width = 0;
  const auto sym = analyze_matrix(a, opts);
  EXPECT_EQ(sym.num_snodes(), 1);
  EXPECT_EQ(sym.snode(0).width(), 10);
  EXPECT_TRUE(sym.snode(0).below.empty());
  EXPECT_TRUE(sym.snode(0).blocks.empty());
}

TEST(Supernodes, TridiagonalWithoutAmalgamation) {
  const auto a = sparse::tridiagonal(6);
  SymbolicOptions opts;
  opts.amalgamate = false;
  const auto sym = analyze_matrix(a, opts);
  // Tridiagonal: count(j) = 2 for all but last, so no two adjacent
  // columns satisfy count(j-1) == count(j)+1 until the very end.
  EXPECT_GT(sym.num_snodes(), 1);
  sym.validate(a);
}

TEST(Supernodes, AmalgamationReducesSupernodeCount) {
  const auto a = ordered(sparse::grid2d_laplacian(12, 12));
  SymbolicOptions no_amal;
  no_amal.amalgamate = false;
  SymbolicOptions amal;
  amal.amalgamate = true;
  const auto sym0 = analyze_matrix(a, no_amal);
  const auto sym1 = analyze_matrix(a, amal);
  EXPECT_LT(sym1.num_snodes(), sym0.num_snodes());
  sym0.validate(a);
  sym1.validate(a);
}

TEST(Supernodes, AmalgamationAddsBoundedPadding) {
  const auto a = ordered(sparse::grid2d_laplacian(16, 16));
  SymbolicOptions no_amal;
  no_amal.amalgamate = false;
  SymbolicOptions amal;
  amal.amalgamate = true;
  amal.relax_small = 4;
  amal.relax_ratio = 0.1;
  const auto nnz0 = analyze_matrix(a, no_amal).factor_nnz();
  const auto nnz1 = analyze_matrix(a, amal).factor_nnz();
  EXPECT_GE(nnz1, nnz0);          // padding only adds entries
  EXPECT_LT(nnz1, 3 * nnz0);      // ... but not unboundedly
}

TEST(Supernodes, MaxWidthSplitsPanels) {
  const auto a = sparse::dense_spd(40, 3);
  SymbolicOptions opts;
  opts.max_width = 16;
  const auto sym = analyze_matrix(a, opts);
  EXPECT_GE(sym.num_snodes(), 3);
  for (const auto& sn : sym.snodes()) EXPECT_LE(sn.width(), 16);
  sym.validate(a);
}

TEST(Supernodes, SnodeOfColumnConsistent) {
  const auto a = ordered(sparse::grid3d_laplacian(4, 4, 4));
  const auto sym = analyze_matrix(a);
  for (idx_t s = 0; s < sym.num_snodes(); ++s) {
    for (idx_t j = sym.snode(s).first; j <= sym.snode(s).last; ++j) {
      EXPECT_EQ(sym.snode_of(j), s);
    }
  }
}

struct MatrixCase {
  const char* name;
  CscMatrix (*make)();
};

class SymbolicSweep : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SymbolicSweep, ValidateInvariantsHold) {
  const auto a = GetParam().make();
  for (const bool amalgamate : {false, true}) {
    for (const idx_t width : {idx_t{0}, idx_t{8}, idx_t{64}}) {
      SymbolicOptions opts;
      opts.amalgamate = amalgamate;
      opts.max_width = width;
      const auto sym = analyze_matrix(a, opts);
      ASSERT_NO_THROW(sym.validate(a))
          << GetParam().name << " amal=" << amalgamate << " width=" << width;
    }
  }
}

TEST_P(SymbolicSweep, FactorNnzAtLeastDiagonalAndMatrix) {
  const auto a = GetParam().make();
  const auto sym = analyze_matrix(a);
  EXPECT_GE(sym.factor_nnz(), a.nnz_stored());
  EXPECT_GT(sym.flops(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, SymbolicSweep,
    ::testing::Values(
        MatrixCase{"grid2d", [] { return ordered(sparse::grid2d_laplacian(9, 11)); }},
        MatrixCase{"grid3d", [] { return ordered(sparse::grid3d_laplacian(4, 3, 4)); }},
        MatrixCase{"thermal", [] { return ordered(sparse::thermal_irregular(8, 8, 0.5, 3)); }},
        MatrixCase{"random", [] { return ordered(sparse::random_spd(80, 4.0, 7)); }},
        MatrixCase{"natural_grid", [] { return sparse::grid2d_laplacian(10, 10); }},
        MatrixCase{"arrow", [] { return sparse::arrow(20); }},
        MatrixCase{"tridiag", [] { return sparse::tridiagonal(30); }},
        MatrixCase{"elasticity", [] { return ordered(sparse::elasticity3d(3, 3, 2)); }}),
    [](const auto& info) { return info.param.name; });

TEST(Blocks, PartitionMatchesAlgorithm2OnArrow) {
  // Arrow matrix under natural ordering: every column's below-structure
  // is exactly the final row.
  const auto a = sparse::arrow(8);
  SymbolicOptions opts;
  opts.amalgamate = false;
  const auto sym = analyze_matrix(a, opts);
  const idx_t last_snode = sym.snode_of(7);
  for (idx_t s = 0; s + 1 < sym.num_snodes(); ++s) {
    ASSERT_EQ(sym.snode(s).blocks.size(), 1u);
    EXPECT_EQ(sym.snode(s).blocks[0].target, last_snode);
  }
}

TEST(Blocks, FindBlockLocatesTargets) {
  const auto a = ordered(sparse::grid2d_laplacian(10, 10));
  const auto sym = analyze_matrix(a);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    for (std::size_t b = 0; b < sn.blocks.size(); ++b) {
      EXPECT_EQ(sym.find_block(k, sn.blocks[b].target),
                static_cast<idx_t>(b));
    }
    EXPECT_EQ(sym.find_block(k, sym.num_snodes() + 5), -1);
  }
}

TEST(Mapping, GridIsNearSquare) {
  Mapping m4(4);
  EXPECT_EQ(m4.grid_rows(), 2);
  EXPECT_EQ(m4.grid_cols(), 2);
  Mapping m6(6);
  EXPECT_EQ(m6.grid_rows() * m6.grid_cols(), 6);
  Mapping m7(7);  // prime: 1 x 7
  EXPECT_EQ(m7.grid_rows() * m7.grid_cols(), 7);
  Mapping m1(1);
  EXPECT_EQ(m1(5, 9), 0);
}

TEST(Mapping, TwoDCoversAllRanksAndIsCyclic) {
  Mapping m(6);
  std::set<int> seen;
  for (idx_t i = 0; i < 12; ++i) {
    for (idx_t j = 0; j < 12; ++j) {
      const int r = m(i, j);
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 6);
      seen.insert(r);
      EXPECT_EQ(m(i + m.grid_rows(), j), r);  // cyclic in rows
      EXPECT_EQ(m(i, j + m.grid_cols()), r);  // cyclic in cols
    }
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Mapping, RowAndColCyclicVariants) {
  Mapping row(4, Mapping::Kind::kRowCyclic);
  Mapping col(4, Mapping::Kind::kColCyclic);
  EXPECT_EQ(row(5, 0), row(5, 3));  // row-cyclic ignores j
  EXPECT_EQ(col(0, 5), col(3, 5));  // col-cyclic ignores i
  EXPECT_EQ(row(5, 0), 1);
  EXPECT_EQ(col(0, 5), 1);
}

TEST(Mapping, Parse) {
  EXPECT_EQ(Mapping::parse("2d"), Mapping::Kind::k2dBlockCyclic);
  EXPECT_EQ(Mapping::parse("row"), Mapping::Kind::kRowCyclic);
  EXPECT_EQ(Mapping::parse("col"), Mapping::Kind::kColCyclic);
  EXPECT_THROW(Mapping::parse("diag"), std::invalid_argument);
}

TEST(TaskGraphT, CountsConsistentOnGrid) {
  const auto a = ordered(sparse::grid2d_laplacian(12, 12));
  const auto sym = analyze_matrix(a);
  Mapping map(4);
  TaskGraph tg(sym, map);

  // Total factor tasks = one D per snode + one F per block.
  idx_t expect_f = 0, expect_u = 0;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const idx_t nb = static_cast<idx_t>(sym.snode(k).blocks.size());
    expect_f += 1 + nb;
    expect_u += nb * (nb + 1) / 2;
  }
  EXPECT_EQ(tg.total_factor_tasks(), expect_f);
  EXPECT_EQ(tg.total_updates(), expect_u);

  // Per-rank totals sum to the global totals.
  idx_t sum_f = 0, sum_u = 0;
  for (int r = 0; r < 4; ++r) {
    sum_f += tg.owned_factor_tasks(r);
    sum_u += tg.owned_update_tasks(r);
  }
  EXPECT_EQ(sum_f, expect_f);
  EXPECT_EQ(sum_u, expect_u);

  // Update counts per block sum to the number of updates.
  idx_t sum_uc = 0;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    for (BlockSlot s = 0; s <= static_cast<idx_t>(sym.snode(k).blocks.size());
         ++s) {
      sum_uc += tg.update_count(k, s);
    }
  }
  EXPECT_EQ(sum_uc, expect_u);
}

TEST(TaskGraphT, FirstSupernodeHasNoIncomingUpdates) {
  const auto a = ordered(sparse::grid2d_laplacian(8, 8));
  const auto sym = analyze_matrix(a);
  TaskGraph tg(sym, Mapping(2));
  EXPECT_EQ(tg.update_count(0, 0), 0);
}

TEST(TaskGraphT, RecipientsExcludeOwnerAndConsumersIncludeThem) {
  const auto a = ordered(sparse::grid2d_laplacian(14, 14));
  const auto sym = analyze_matrix(a);
  Mapping map(6);
  TaskGraph tg(sym, map);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    for (BlockSlot slot = 0;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const int owner = tg.owner(k, slot);
      const auto recips = tg.recipients(k, slot);
      for (int r : recips) {
        EXPECT_NE(r, owner);
        EXPECT_GE(r, 0);
        EXPECT_LT(r, 6);
      }
      // recipients == consumers \ {owner}
      auto cons = tg.consumers(k, slot);
      std::set<int> cset(cons.begin(), cons.end());
      cset.erase(owner);
      EXPECT_EQ(std::set<int>(recips.begin(), recips.end()), cset);
    }
  }
}

TEST(TaskGraphT, DiagonalRecipientsAreFTaskOwners) {
  const auto a = ordered(sparse::grid2d_laplacian(10, 10));
  const auto sym = analyze_matrix(a);
  Mapping map(4);
  TaskGraph tg(sym, map);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    std::set<int> expect;
    for (const auto& blk : sn.blocks) {
      const int o = map(blk.target, k);
      if (o != map(k, k)) expect.insert(o);
    }
    const auto recips = tg.recipients(k, 0);
    EXPECT_EQ(std::set<int>(recips.begin(), recips.end()), expect);
  }
}

// Fan-in places U_{s,j,t} on the owner of L_{s,j}: the same tasks, but
// each block waits for one aggregate per distinct sending rank, and an
// off-diagonal factor block only travels down its own panel column.
TEST(TaskGraphT, FanInTablesFollowTheSourceOwner) {
  const auto a = ordered(sparse::grid2d_laplacian(14, 14));
  const auto sym = analyze_matrix(a);
  Mapping map(6);
  TaskGraph out(sym, map);
  TaskGraph in(sym, map, Variant::kFanIn);
  EXPECT_EQ(in.total_updates(), out.total_updates());
  idx_t sum_u = 0;
  for (int r = 0; r < 6; ++r) sum_u += in.owned_update_tasks(r);
  EXPECT_EQ(sum_u, in.total_updates());
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    std::set<int> column;  // owners of panel k's blocks
    for (BlockSlot slot = 0;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      column.insert(in.owner(k, slot));
    }
    for (BlockSlot slot = 0;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t updates = out.update_count(k, slot);
      EXPECT_LE(in.update_count(k, slot), updates);
      EXPECT_EQ(in.update_count(k, slot) > 0, updates > 0);
      if (slot > 0) {
        EXPECT_EQ(in.update_rank(sn.blocks[slot - 1].target, k,
                                 sn.blocks[0].target),
                  in.owner(k, slot));
        for (int r : in.recipients(k, slot)) EXPECT_EQ(column.count(r), 1u);
      }
    }
    EXPECT_EQ(in.recipients(k, 0), out.recipients(k, 0));
  }
}

TEST(TaskGraphT, SingleRankOwnsEverything) {
  const auto a = ordered(sparse::grid2d_laplacian(9, 9));
  const auto sym = analyze_matrix(a);
  TaskGraph tg(sym, Mapping(1));
  EXPECT_EQ(tg.owned_factor_tasks(0), tg.total_factor_tasks());
  EXPECT_EQ(tg.owned_update_tasks(0), tg.total_updates());
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    EXPECT_TRUE(tg.recipients(k, 0).empty());
  }
}

}  // namespace
}  // namespace sympack::symbolic

namespace sympack::symbolic {
namespace {

TEST(ProportionalMapping, RangesCoverAllRanksAndRespectTree) {
  const auto a = sparse::permute_symmetric(
      sparse::grid2d_laplacian(16, 16),
      ordering::compute_ordering(sparse::grid2d_laplacian(16, 16),
                                 ordering::Method::kNestedDissection));
  const auto parent = ordering::elimination_tree(a);
  const auto sym = analyze(a, parent);
  const int P = 8;
  const auto map = Mapping::proportional(P, sym);
  EXPECT_EQ(map.kind(), Mapping::Kind::kProportional);

  std::set<int> owners;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    for (idx_t i = k; i < sym.num_snodes(); ++i) {
      const int o = map(i, k);
      EXPECT_GE(o, 0);
      EXPECT_LT(o, P);
      owners.insert(o);
    }
  }
  EXPECT_EQ(owners.size(), static_cast<std::size_t>(P));  // all ranks used

  // Tree property: a child panel's owner set is contained in its
  // parent's range, so subtree work stays within its subcube. Verify via
  // the column owner of each supernode vs its parent's spread.
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    if (sn.below.empty()) continue;
    const idx_t p = sym.snode_of(sn.below.front());
    // All owners of panel k blocks must be owners reachable in panel p.
    std::set<int> kowners, powners;
    for (idx_t i = 0; i < sym.num_snodes(); ++i) {
      kowners.insert(map(i, k));
      powners.insert(map(i, p));
    }
    for (int o : kowners) EXPECT_TRUE(powners.count(o)) << "snode " << k;
  }
}

TEST(ProportionalMapping, SingleRankDegenerate) {
  const auto a = sparse::tridiagonal(12);
  const auto sym = analyze(a, ordering::elimination_tree(a));
  const auto map = Mapping::proportional(1, sym);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) EXPECT_EQ(map(k, k), 0);
}

TEST(ProportionalMapping, ParseName) {
  EXPECT_EQ(Mapping::parse("proportional"), Mapping::Kind::kProportional);
  EXPECT_EQ(Mapping::parse("subtree"), Mapping::Kind::kProportional);
}

TEST(ProportionalMapping, UnbuiltProportionalThrows) {
  Mapping m(4, Mapping::Kind::kProportional);
  EXPECT_THROW((void)m(0, 0), std::logic_error);
}

}  // namespace
}  // namespace sympack::symbolic
