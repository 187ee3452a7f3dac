#include "ordering/graph.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace sympack::ordering {

Graph build_graph(const sparse::CscMatrix& a) {
  Graph g;
  g.n = a.n();
  std::vector<idx_t> degree(g.n, 0);
  for (idx_t j = 0; j < g.n; ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      const idx_t i = a.rowind()[p];
      if (i == j) continue;
      ++degree[i];
      ++degree[j];
    }
  }
  g.adjptr.assign(g.n + 1, 0);
  for (idx_t i = 0; i < g.n; ++i) g.adjptr[i + 1] = g.adjptr[i] + degree[i];
  g.adjind.resize(g.adjptr[g.n]);
  std::vector<idx_t> cursor(g.adjptr.begin(), g.adjptr.end() - 1);
  for (idx_t j = 0; j < g.n; ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      const idx_t i = a.rowind()[p];
      if (i == j) continue;
      g.adjind[cursor[i]++] = j;
      g.adjind[cursor[j]++] = i;
    }
  }
  for (idx_t i = 0; i < g.n; ++i) {
    std::sort(g.adjind.begin() + g.adjptr[i], g.adjind.begin() + g.adjptr[i + 1]);
  }
  return g;
}

Graph induced_subgraph(const Graph& g, const std::vector<idx_t>& vertices) {
  std::vector<idx_t> local(g.n, -1);
  return induced_subgraph(g, vertices, local);
}

Graph induced_subgraph(const Graph& g, const std::vector<idx_t>& vertices,
                       std::vector<idx_t>& local) {
  Graph sub;
  sub.n = static_cast<idx_t>(vertices.size());
  for (idx_t k = 0; k < sub.n; ++k) local[vertices[k]] = k;

  sub.adjptr.assign(sub.n + 1, 0);
  for (idx_t k = 0; k < sub.n; ++k) {
    const idx_t v = vertices[k];
    idx_t deg = 0;
    for (idx_t p = g.adjptr[v]; p < g.adjptr[v + 1]; ++p) {
      if (local[g.adjind[p]] >= 0) ++deg;
    }
    sub.adjptr[k + 1] = sub.adjptr[k] + deg;
  }
  sub.adjind.resize(sub.adjptr[sub.n]);
  for (idx_t k = 0; k < sub.n; ++k) {
    const idx_t v = vertices[k];
    idx_t cur = sub.adjptr[k];
    for (idx_t p = g.adjptr[v]; p < g.adjptr[v + 1]; ++p) {
      const idx_t lu = local[g.adjind[p]];
      if (lu >= 0) sub.adjind[cur++] = lu;
    }
  }
  for (const idx_t v : vertices) local[v] = -1;
  return sub;
}

std::vector<idx_t> bfs_levels(const Graph& g, idx_t root,
                              std::vector<idx_t>* order) {
  if (root < 0 || root >= g.n) throw std::out_of_range("bfs_levels: root");
  std::vector<idx_t> level(g.n, -1);
  std::queue<idx_t> q;
  level[root] = 0;
  q.push(root);
  if (order) {
    order->clear();
    order->reserve(g.n);
  }
  while (!q.empty()) {
    const idx_t v = q.front();
    q.pop();
    if (order) order->push_back(v);
    for (idx_t p = g.adjptr[v]; p < g.adjptr[v + 1]; ++p) {
      const idx_t u = g.adjind[p];
      if (level[u] < 0) {
        level[u] = level[v] + 1;
        q.push(u);
      }
    }
  }
  return level;
}

idx_t pseudo_peripheral(const Graph& g, idx_t start) {
  idx_t root = start;
  idx_t last_ecc = -1;
  // Iterate: BFS, move to a minimum-degree vertex in the deepest level.
  for (int iter = 0; iter < 8; ++iter) {
    const auto level = bfs_levels(g, root);
    idx_t ecc = 0;
    for (idx_t v = 0; v < g.n; ++v) ecc = std::max(ecc, level[v]);
    if (ecc <= last_ecc) break;
    last_ecc = ecc;
    idx_t best = root;
    idx_t best_deg = g.n + 1;
    for (idx_t v = 0; v < g.n; ++v) {
      if (level[v] == ecc && g.degree(v) < best_deg) {
        best = v;
        best_deg = g.degree(v);
      }
    }
    root = best;
  }
  return root;
}

std::pair<std::vector<idx_t>, idx_t> connected_components(const Graph& g) {
  std::vector<idx_t> comp(g.n, -1);
  idx_t count = 0;
  std::vector<idx_t> stack;
  for (idx_t s = 0; s < g.n; ++s) {
    if (comp[s] >= 0) continue;
    comp[s] = count;
    stack.push_back(s);
    while (!stack.empty()) {
      const idx_t v = stack.back();
      stack.pop_back();
      for (idx_t p = g.adjptr[v]; p < g.adjptr[v + 1]; ++p) {
        const idx_t u = g.adjind[p];
        if (comp[u] < 0) {
          comp[u] = count;
          stack.push_back(u);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

}  // namespace sympack::ordering
