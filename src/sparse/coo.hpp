// Triplet (COO) builder for assembling symmetric matrices before
// conversion to the canonical lower-triangle CSC form.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "sparse/types.hpp"

namespace sympack::sparse {

class CooBuilder {
 public:
  explicit CooBuilder(idx_t n) : n_(n) {}

  /// Add a value at (i, j). Entries in the upper triangle are mirrored to
  /// the lower triangle. Duplicate coordinates are summed at build time.
  void add(idx_t i, idx_t j, double value);

  [[nodiscard]] idx_t n() const { return n_; }

  /// Build the lower-CSC matrix: sorts, sums duplicates, and inserts
  /// explicit zero diagonal entries for columns that lack one (the solver
  /// requires a stored diagonal).
  [[nodiscard]] CscMatrix build() const;

 private:
  idx_t n_;
  std::vector<idx_t> rows_;
  std::vector<idx_t> cols_;
  std::vector<double> vals_;
};

}  // namespace sympack::sparse
