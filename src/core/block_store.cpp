#include "core/block_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace sympack::core {

BlockStore::BlockStore(const symbolic::TaskGraph& tg, pgas::Runtime& rt,
                       bool numeric)
    : sym_(&tg.symbolic()), rt_(&rt), numeric_(numeric) {
  const symbolic::Symbolic& sym = *sym_;
  const idx_t ns = sym.num_snodes();
  base_.resize(ns + 1);
  base_[0] = 0;
  for (idx_t k = 0; k < ns; ++k) {
    base_[k + 1] = base_[k] + 1 + static_cast<idx_t>(sym.snode(k).blocks.size());
  }
  const idx_t nb = base_[ns];
  owner_.resize(nb);
  nrows_.resize(nb);
  ncols_.resize(nb);
  data_.assign(nb, nullptr);
  gptr_.resize(nb);

  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym.snode(k);
    const idx_t w = sn.width();
    for (BlockSlot slot = 0;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t bid = base_[k] + slot;
      owner_[bid] = tg.owner(k, slot);
      nrows_[bid] = slot == 0 ? w : sn.blocks[slot - 1].nrows;
      ncols_[bid] = w;
      if (numeric_) {
        gptr_[bid] = rt.rank(owner_[bid]).allocate_host(bytes(bid));
        data_[bid] = gptr_[bid].local<double>();
      } else {
        // No bytes, but the owner and kind every rget charges from.
        gptr_[bid] = pgas::GlobalPtr{nullptr, owner_[bid],
                                     pgas::MemKind::kHost};
      }
    }
  }
}

BlockStore::~BlockStore() {
  if (!numeric_) return;
  for (idx_t bid = 0; bid < num_blocks(); ++bid) {
    if (!gptr_[bid].is_null()) {
      rt_->rank(owner_[bid]).deallocate(gptr_[bid]);
    }
  }
}

idx_t BlockStore::row_offset_in_block(idx_t k, BlockSlot slot,
                                      idx_t row) const {
  const auto& sn = sym_->snode(k);
  const auto& blk = sn.blocks[slot - 1];
  const auto begin = sn.below.begin() + blk.row_off;
  const auto end = begin + blk.nrows;
  const auto it = std::lower_bound(begin, end, row);
  if (it == end || *it != row) return -1;
  return static_cast<idx_t>(it - begin);
}

void BlockStore::row_offsets_in_block(idx_t k, BlockSlot slot,
                                      const idx_t* rows, idx_t m,
                                      idx_t* out) const {
  const auto& sn = sym_->snode(k);
  const auto missing = [&](idx_t row) {
    throw std::logic_error("BlockStore: row " + std::to_string(row) +
                           " is not in block (" + std::to_string(k) + ", " +
                           std::to_string(slot) + ")");
  };
  if (slot == 0) {
    for (idx_t i = 0; i < m; ++i) {
      if (rows[i] < sn.first || rows[i] > sn.last) missing(rows[i]);
      out[i] = rows[i] - sn.first;
    }
    return;
  }
  const auto& blk = sn.blocks[slot - 1];
  const idx_t* block_rows = sn.below.data() + blk.row_off;
  idx_t p = 0;
  for (idx_t i = 0; i < m; ++i) {
    while (p < blk.nrows && block_rows[p] < rows[i]) ++p;
    if (p == blk.nrows || block_rows[p] != rows[i]) missing(rows[i]);
    out[i] = p;
  }
}

void BlockStore::scatter_update(idx_t j, idx_t si, idx_t ti, BlockSlot tslot,
                                const double* product, double* target,
                                taskrt::Scratch<idx_t>& offsets) const {
  const auto& sn = sym_->snode(j);
  const auto& sblk = sn.blocks[si - 1];
  const auto& tblk = sn.blocks[ti - 1];
  const idx_t t = tblk.target;
  const idx_t m = sblk.nrows;
  const idx_t ld = nrows_[base_[t] + tslot];
  const idx_t* src_rows = sn.below.data() + sblk.row_off;
  if (si == ti) {
    // SYRK: the product holds -L L^T on its lower triangle.
    idx_t* rows = offsets.get(static_cast<std::size_t>(m));
    row_offsets_in_block(t, 0, src_rows, m, rows);
    for (idx_t c = 0; c < m; ++c) {
      double* col = target + rows[c] * ld;
      const double* p = product + c * m;
      for (idx_t r = c; r < m; ++r) col[rows[r]] += p[r];
    }
    return;
  }
  // GEMM: rows land in block (t, tslot), columns are the pivot block's
  // rows as columns of supernode t.
  const idx_t np = tblk.nrows;
  idx_t* rows = offsets.get(static_cast<std::size_t>(m + np));
  idx_t* cols = rows + m;
  row_offsets_in_block(t, tslot, src_rows, m, rows);
  row_offsets_in_block(t, 0, sn.below.data() + tblk.row_off, np, cols);
  for (idx_t c = 0; c < np; ++c) {
    double* col = target + cols[c] * ld;
    const double* p = product + c * m;
    for (idx_t r = 0; r < m; ++r) col[rows[r]] -= p[r];
  }
}

void BlockStore::assemble(const sparse::CscMatrix& a) {
  assemble_subset(
      a, std::vector<char>(static_cast<std::size_t>(num_blocks()), 1));
}

void BlockStore::assemble_subset(const sparse::CscMatrix& a,
                                 const std::vector<char>& select) {
  if (!numeric_) return;
  for (idx_t bid = 0; bid < num_blocks(); ++bid) {
    if (select[bid] != 0) std::memset(data_[bid], 0, bytes(bid));
  }
  const idx_t ns = sym_->num_snodes();
  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym_->snode(k);
    for (idx_t j = sn.first; j <= sn.last; ++j) {
      const idx_t col = j - sn.first;
      for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
        const idx_t i = a.rowind()[p];
        const double v = a.values()[p];
        if (i <= sn.last) {
          // Diagonal block (lower triangle).
          const idx_t bid = base_[k];
          if (select[bid] == 0) continue;
          data_[bid][(i - sn.first) + col * nrows_[bid]] = v;
        } else {
          // Locate the below-block containing row i.
          const idx_t slot = sym_->find_block(k, sym_->snode_of(i)) + 1;
          const idx_t bid = base_[k] + slot;
          if (select[bid] == 0) continue;
          const idx_t off = row_offset_in_block(k, slot, i);
          data_[bid][off + col * nrows_[bid]] = v;
        }
      }
    }
  }
}

std::vector<double> BlockStore::to_dense_lower() const {
  const idx_t n = sym_->n();
  std::vector<double> out(static_cast<std::size_t>(n) * n, 0.0);
  if (!numeric_) return out;
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    const auto& sn = sym_->snode(k);
    const idx_t w = sn.width();
    // Diagonal block: lower triangle only.
    const idx_t dbid = base_[k];
    for (idx_t c = 0; c < w; ++c) {
      for (idx_t r = c; r < w; ++r) {
        out[(sn.first + r) + static_cast<std::size_t>(sn.first + c) * n] =
            data_[dbid][r + c * nrows_[dbid]];
      }
    }
    for (BlockSlot slot = 1;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t bid = base_[k] + slot;
      const auto& blk = sn.blocks[slot - 1];
      for (idx_t c = 0; c < w; ++c) {
        for (idx_t r = 0; r < blk.nrows; ++r) {
          const idx_t row = sn.below[blk.row_off + r];
          out[row + static_cast<std::size_t>(sn.first + c) * n] =
              data_[bid][r + c * nrows_[bid]];
        }
      }
    }
  }
  return out;
}

}  // namespace sympack::core
