// Symbolic factorization (paper §3.1): partition the columns of the
// permuted matrix into supernodes, compute each supernode's factor row
// structure, and split the rows of each supernodal panel into dense
// blocks aligned with supernode boundaries (Algorithm 2 of the paper).
//
// Supernodes are detected from the elimination tree and column counts
// (maximal supernodes: column j-1 joins j iff parent(j-1) = j and
// count(j-1) = count(j) + 1), optionally amalgamated (merging a child
// chain into its parent when the padding this introduces is small), and
// optionally split to a maximum width so the 2D distribution has enough
// blocks to balance.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/types.hpp"

namespace sympack::symbolic {

using sparse::idx_t;

struct SymbolicOptions {
  bool amalgamate = true;
  /// Maximum fraction of explicit zeros a merge may add to the merged
  /// panel.
  double relax_ratio = 0.15;
  /// Supernodes at or below this width are merged into their parent
  /// regardless of relax_ratio (tiny panels cost more than padding).
  idx_t relax_small = 8;
  /// Split supernodes wider than this (0 = unlimited). Narrower panels
  /// mean more blocks and better 2D load balance.
  idx_t max_width = 128;
  /// Shard the symbolic metadata over the ranks instead of replicating
  /// it (SYMPACK_SYMBOLIC_SHARD): analyze() runs as per-rank slices, and
  /// the solver's SymbolicView keeps on each rank only the panels its
  /// tasks touch plus their ancestors, pulling anything else on demand
  /// (symbolic/view.hpp). Off by default. Either way the factor, the
  /// schedule, the CommStats protocol counters and the simulated times
  /// of factorization and solve are the same.
  bool shard = false;
};

/// Cost accounting for the symbolic phase, filled by analyze(). The
/// row-structure phase is organized as an SPMD slice computation: panels
/// are dealt cyclically (k mod nranks), each rank merges the structures
/// of its own slice, and a child panel's below-list crosses the wire
/// once whenever its parent lives on a different rank. With nranks <= 1
/// (or sharding off) only `wall_s` is filled.
struct AnalyzeStats {
  /// Wall-clock seconds of the whole analyze() call.
  double wall_s = 0.0;
  /// Per-rank share of the row-structure merge work, in abstract merge
  /// operations (rows scanned + rows sorted); proportional attribution
  /// of wall_s gives the per-rank compute time.
  std::vector<std::uint64_t> rank_work;
  /// Bytes of child below-lists received from other ranks (the symbolic
  /// exchange protocol) and the number of such transfers.
  std::vector<std::uint64_t> rank_exchange_bytes;
  std::vector<std::uint64_t> rank_exchange_msgs;
  [[nodiscard]] std::uint64_t total_work() const {
    std::uint64_t t = 0;
    for (std::uint64_t w : rank_work) t += w;
    return t;
  }
};

/// A dense block of a supernodal panel (paper Alg. 2): the rows of
/// supernode `src` whose row indices fall inside the column range of
/// supernode `target`.
struct Block {
  idx_t target = -1;   // supernode owning the rows' column range
  idx_t row_off = 0;   // offset into the supernode's `below` array
  idx_t nrows = 0;
};

struct Supernode {
  idx_t id = -1;
  idx_t first = 0;  // first column (inclusive)
  idx_t last = 0;   // last column (inclusive)
  /// Row indices of the panel strictly below the diagonal block, sorted.
  std::vector<idx_t> below;
  /// Partition of `below` into blocks by target supernode, ascending.
  std::vector<Block> blocks;

  [[nodiscard]] idx_t width() const { return last - first + 1; }
  [[nodiscard]] idx_t nrows_below() const {
    return static_cast<idx_t>(below.size());
  }
  /// Total panel rows: diagonal block + below rows.
  [[nodiscard]] idx_t panel_rows() const { return width() + nrows_below(); }
};

class Symbolic {
 public:
  [[nodiscard]] idx_t n() const { return n_; }
  [[nodiscard]] idx_t num_snodes() const {
    return static_cast<idx_t>(snodes_.size());
  }
  [[nodiscard]] const Supernode& snode(idx_t s) const { return snodes_[s]; }
  [[nodiscard]] const std::vector<Supernode>& snodes() const { return snodes_; }
  [[nodiscard]] idx_t snode_of(idx_t col) const { return snode_of_[col]; }

  /// Index into snode(k).blocks of the block targeting supernode t, or -1.
  [[nodiscard]] idx_t find_block(idx_t k, idx_t t) const;

  /// Stored factor entries (diagonal panels count the full triangle the
  /// solver actually stores).
  [[nodiscard]] idx_t factor_nnz() const { return factor_nnz_; }
  /// Factorization flops implied by the panel shapes.
  [[nodiscard]] double flops() const { return flops_; }

  /// Consistency checks (partition validity, sorted structures, update
  /// containment: every source block's rows appear in the target panel).
  /// Throws std::runtime_error on violation. Used by tests.
  void validate(const sparse::CscMatrix& a) const;

 private:
  friend Symbolic analyze(const sparse::CscMatrix&, const std::vector<idx_t>&,
                          const SymbolicOptions&, int, AnalyzeStats*);
  idx_t n_ = 0;
  std::vector<idx_t> snode_of_;
  std::vector<Supernode> snodes_;
  idx_t factor_nnz_ = 0;
  double flops_ = 0.0;
};

/// Run the full symbolic phase on the *permuted* matrix. `parent` is its
/// elimination tree. With nranks > 1 the row-structure phase runs as a
/// per-rank slice computation (2D-cyclic panel ownership, explicit child
/// below-list exchange between slices) and `stats`, if given, receives
/// the per-rank work/exchange attribution; the resulting structure is
/// identical to the replicated (nranks <= 1) path in either case.
Symbolic analyze(const sparse::CscMatrix& a, const std::vector<idx_t>& parent,
                 const SymbolicOptions& opts = {}, int nranks = 0,
                 AnalyzeStats* stats = nullptr);

}  // namespace sympack::symbolic
