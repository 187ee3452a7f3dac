// Typed errors the factorization surfaces to its caller.
#pragma once

#include <stdexcept>
#include <string>

#include "sparse/types.hpp"

namespace sympack::core {

/// A diagonal pivot failed: the matrix is not (numerically) positive
/// definite. Derived from std::runtime_error, so callers that catch that
/// still see it. It is a property of the input, not a rank failure, so the
/// resilience loop never retries it.
class NotPositiveDefiniteError : public std::runtime_error {
 public:
  /// `column` is the failing column: the engines throw it in the factor's
  /// (permuted) ordering and SymPackSolver::factorize rethrows it in the
  /// caller's original ordering.
  explicit NotPositiveDefiniteError(sparse::idx_t column)
      : std::runtime_error(
            "sympack: matrix is not positive definite (pivot failure at "
            "column " +
            std::to_string(column) + ")"),
        column_(column) {}

  [[nodiscard]] sparse::idx_t column() const noexcept { return column_; }

 private:
  sparse::idx_t column_;
};

}  // namespace sympack::core
