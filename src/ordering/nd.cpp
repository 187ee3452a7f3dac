#include "ordering/nd.hpp"

#include <algorithm>
#include <cstdlib>

#include "ordering/amd.hpp"

namespace sympack::ordering {
namespace {

// Order the subgraph on `vertices` (global ids) with AMD and append the
// result (as global ids) to `out`. `local` is the all -1 map every
// induced_subgraph call of one ordering shares.
void order_leaf(const Graph& g, const std::vector<idx_t>& vertices,
                std::vector<idx_t>& local, std::vector<idx_t>& out) {
  if (vertices.empty()) return;
  if (vertices.size() == 1) {
    out.push_back(vertices[0]);
    return;
  }
  const Graph sub = induced_subgraph(g, vertices, local);
  for (idx_t v : amd(sub)) out.push_back(vertices[v]);
}

// Recursive dissection of the subgraph induced on `vertices`.
void dissect(const Graph& g, const std::vector<idx_t>& vertices,
             const NdOptions& opts, int depth, std::vector<idx_t>& local,
             std::vector<idx_t>& out) {
  const idx_t nv = static_cast<idx_t>(vertices.size());
  if (nv <= opts.leaf_size || depth >= opts.max_depth) {
    order_leaf(g, vertices, local, out);
    return;
  }

  const Graph sub = induced_subgraph(g, vertices, local);

  // Handle disconnected subgraphs by dissecting each component.
  const auto [comp, ncomp] = connected_components(sub);
  if (ncomp > 1) {
    for (idx_t c = 0; c < ncomp; ++c) {
      std::vector<idx_t> part;
      for (idx_t k = 0; k < nv; ++k) {
        if (comp[k] == c) part.push_back(vertices[k]);
      }
      dissect(g, part, opts, depth, local, out);
    }
    return;
  }

  // BFS level structure from a pseudo-peripheral vertex.
  const idx_t root = pseudo_peripheral(sub, 0);
  const auto level = bfs_levels(sub, root);
  idx_t max_level = 0;
  for (idx_t v = 0; v < nv; ++v) max_level = std::max(max_level, level[v]);
  if (max_level == 0) {
    // Complete graph (single BFS level): no useful separator.
    order_leaf(g, vertices, local, out);
    return;
  }

  // Choose the cut level so the "below" side is closest to half.
  std::vector<idx_t> level_size(max_level + 1, 0);
  for (idx_t v = 0; v < nv; ++v) ++level_size[level[v]];
  idx_t cut = 1, below = level_size[0];
  idx_t best_cut = 1;
  idx_t best_imbalance = nv;
  for (cut = 1; cut <= max_level; ++cut) {
    const idx_t imbalance = std::abs(2 * below - nv);
    if (imbalance < best_imbalance) {
      best_imbalance = imbalance;
      best_cut = cut;
    }
    below += level_size[cut];
  }

  // Side A: level < best_cut, side B: level >= best_cut. The separator is
  // drawn from side A's boundary: vertices of level best_cut-1 adjacent to
  // side B.
  std::vector<idx_t> part_a, part_b, sep;
  for (idx_t v = 0; v < nv; ++v) {
    if (level[v] != best_cut - 1) continue;
    bool boundary = false;
    for (idx_t p = sub.adjptr[v]; p < sub.adjptr[v + 1]; ++p) {
      if (level[sub.adjind[p]] >= best_cut) {
        boundary = true;
        break;
      }
    }
    if (boundary) sep.push_back(v);
  }
  std::vector<bool> in_sep(nv, false);
  for (idx_t v : sep) in_sep[v] = true;
  for (idx_t v = 0; v < nv; ++v) {
    if (in_sep[v]) continue;
    (level[v] < best_cut ? part_a : part_b).push_back(v);
  }

  // Degenerate split (e.g. star graphs): fall back to AMD on the whole.
  if (part_a.empty() || part_b.empty()) {
    order_leaf(g, vertices, local, out);
    return;
  }

  auto to_global = [&](const std::vector<idx_t>& ids) {
    std::vector<idx_t> global;
    global.reserve(ids.size());
    for (idx_t v : ids) global.push_back(vertices[v]);
    return global;
  };

  dissect(g, to_global(part_a), opts, depth + 1, local, out);
  dissect(g, to_global(part_b), opts, depth + 1, local, out);
  // Separator last: its columns are eliminated after both halves,
  // confining fill between the halves to the separator block.
  order_leaf(g, to_global(sep), local, out);
}

}  // namespace

std::vector<idx_t> nested_dissection(const Graph& g, const NdOptions& opts) {
  std::vector<idx_t> out;
  out.reserve(g.n);
  std::vector<idx_t> all(g.n);
  for (idx_t v = 0; v < g.n; ++v) all[v] = v;
  std::vector<idx_t> local(g.n, -1);
  dissect(g, all, opts, 0, local, out);
  return out;
}

}  // namespace sympack::ordering
