// Distributed storage of the factor's supernodal panels, at block
// granularity: every block (diagonal or below-diagonal) is a dense
// column-major matrix allocated from its owner rank's shared segment, so
// remote ranks can rget() it one-sidedly (paper §3.4).
//
// Thread-safety (audited; see DESIGN.md "Threading memory model"): all
// geometry (owner_, base_, nrows_, ncols_, pointers) is immutable after
// construction. Block *data* is written only by the owner's thread; a
// consumer rgets it only after the owner's signal RPC, and the inbox
// mutex release/acquire on that RPC orders the write before the read.
// When the executor runs the bytes (DESIGN.md §4n), the write and the
// read are actions on the block, ordered by submission.
#pragma once

#include <vector>

#include "core/taskrt/scratch.hpp"
#include "pgas/runtime.hpp"
#include "sparse/csc.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::core {

using sparse::idx_t;
using symbolic::BlockSlot;

class BlockStore {
 public:
  /// Allocates every block on its owner. When `numeric` is false no
  /// buffers are allocated (protocol-only runs): data() is null and
  /// gptr() is {nullptr, owner, kHost}, so rget charges it like the real
  /// block; geometry queries still work.
  BlockStore(const symbolic::TaskGraph& tg, pgas::Runtime& rt, bool numeric);
  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  [[nodiscard]] idx_t num_blocks() const {
    return static_cast<idx_t>(owner_.size());
  }
  [[nodiscard]] idx_t block_id(idx_t k, BlockSlot slot) const {
    return base_[k] + slot;
  }
  [[nodiscard]] int owner(idx_t bid) const { return owner_[bid]; }
  [[nodiscard]] idx_t nrows(idx_t bid) const { return nrows_[bid]; }
  [[nodiscard]] idx_t ncols(idx_t bid) const { return ncols_[bid]; }
  [[nodiscard]] std::size_t bytes(idx_t bid) const {
    return sizeof(double) * static_cast<std::size_t>(nrows_[bid]) *
           static_cast<std::size_t>(ncols_[bid]);
  }
  /// Host data pointer (nullptr in protocol-only mode).
  [[nodiscard]] double* data(idx_t bid) { return data_[bid]; }
  [[nodiscard]] const double* data(idx_t bid) const { return data_[bid]; }
  [[nodiscard]] pgas::GlobalPtr gptr(idx_t bid) const { return gptr_[bid]; }

  [[nodiscard]] bool numeric() const { return numeric_; }

  /// (Re)initialize every block from the permuted matrix:
  /// assemble_subset with all blocks selected.
  void assemble(const sparse::CscMatrix& a_permuted);

  /// (Re)initialize the blocks with select[bid] != 0 from the permuted
  /// matrix: zero them, then scatter A's lower-triangle entries that land
  /// in them. Recovery uses this to rebuild the still-incomplete panels
  /// after a rank death without touching completed (checkpoint-restored)
  /// blocks. No-op in protocol-only mode.
  void assemble_subset(const sparse::CscMatrix& a_permuted,
                       const std::vector<char>& select);

  /// Gather the factor into a dense n x n lower-triangular matrix
  /// (column-major). Test/inspection helper for small problems.
  [[nodiscard]] std::vector<double> to_dense_lower() const;

  /// Row offset of global row `row` inside below-block `slot` (>= 1) of
  /// supernode k; -1 if absent.
  [[nodiscard]] idx_t row_offset_in_block(idx_t k, BlockSlot slot,
                                          idx_t row) const;

  /// Offsets inside block `slot` of supernode k of the m ascending global
  /// rows `rows`, in one merge walk of the two sorted row lists: out[i]
  /// is row_offset_in_block(k, slot, rows[i]). Throws std::logic_error
  /// when a row is absent, so rows that do not nest in the block fail
  /// loudly instead of scattering out of bounds.
  void row_offsets_in_block(idx_t k, BlockSlot slot, const idx_t* rows,
                            idx_t m, idx_t* out) const;

  /// Scatter update U_{j,si,ti}'s dense product into `target`, a buffer
  /// shaped like the block the update folds into (FactorEngine passes the
  /// block itself in fan-out and the running rank's aggregate for it in
  /// fan-in). `product` is column-major
  /// with leading dimension m = rows of block (j, si). si == ti (SYRK):
  /// the lower triangle of the m x m product is added into the diagonal
  /// block of t (tslot is 0). Otherwise (GEMM): the m x np product is
  /// subtracted from block (t, tslot). The product's row and column
  /// offsets in the target are looked up once per call into `offsets`.
  void scatter_update(idx_t j, idx_t si, idx_t ti, BlockSlot tslot,
                      const double* product, double* target,
                      taskrt::Scratch<idx_t>& offsets) const;

 private:
  const symbolic::Symbolic* sym_;
  pgas::Runtime* rt_;
  bool numeric_;
  std::vector<idx_t> base_;    // snode -> first block id
  std::vector<int> owner_;     // per block
  std::vector<idx_t> nrows_;   // per block
  std::vector<idx_t> ncols_;   // per block
  std::vector<double*> data_;  // per block (nullptr when !numeric)
  std::vector<pgas::GlobalPtr> gptr_;
};

}  // namespace sympack::core
