// Undirected adjacency-graph view of a symmetric sparse matrix (diagonal
// dropped). All fill-reducing orderings operate on this structure.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "sparse/types.hpp"

namespace sympack::ordering {

using sparse::idx_t;

struct Graph {
  idx_t n = 0;
  std::vector<idx_t> adjptr;  // size n+1
  std::vector<idx_t> adjind;  // neighbours of i: adjind[adjptr[i]..adjptr[i+1])

  [[nodiscard]] idx_t degree(idx_t i) const { return adjptr[i + 1] - adjptr[i]; }
  [[nodiscard]] idx_t edges() const {
    return static_cast<idx_t>(adjind.size()) / 2;
  }
};

/// Build the full symmetric adjacency (both directions, no self loops)
/// from lower-triangle CSC storage.
Graph build_graph(const sparse::CscMatrix& a);

/// Induced subgraph on `vertices` (old vertex ids). Returns the subgraph
/// with local ids 0..k-1 in the order given; `vertices` acts as the
/// local-to-global map.
Graph induced_subgraph(const Graph& g, const std::vector<idx_t>& vertices);

/// The same through a caller-owned global-to-local map: `local` holds g.n
/// entries, all -1, and is left that way on return, so one map serves
/// every call (nested dissection makes one per part and per leaf).
Graph induced_subgraph(const Graph& g, const std::vector<idx_t>& vertices,
                       std::vector<idx_t>& local);

/// BFS levels from a root within the whole graph. Returns the level of
/// each vertex (-1 if unreachable) and fills `order` with visit order.
std::vector<idx_t> bfs_levels(const Graph& g, idx_t root,
                              std::vector<idx_t>* order = nullptr);

/// Pseudo-peripheral vertex found by repeated BFS (the standard
/// George-Liu heuristic used by both RCM and nested dissection).
idx_t pseudo_peripheral(const Graph& g, idx_t start);

/// Connected components; returns component id per vertex and the count.
std::pair<std::vector<idx_t>, idx_t> connected_components(const Graph& g);

}  // namespace sympack::ordering
