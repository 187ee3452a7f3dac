#include "core/solve_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sympack::core {

SolveServer::SolveServer(SymPackSolver& solver) : solver_(&solver) {}

bool SolveServer::submit(std::vector<double> b, int nrhs) {
  const auto n = static_cast<std::size_t>(solver_->symbolic().n());
  if (nrhs <= 0 || b.size() != n * static_cast<std::size_t>(nrhs)) {
    throw std::invalid_argument("SolveServer::submit: rhs size mismatch");
  }
  const int cap = solver_->options().solve.server_max_queue;
  if (cap > 0 && queued_columns_ + nrhs > cap) {
    ++stats_.rejected;
    return false;
  }
  queue_.push_back(std::move(b));
  queued_columns_ += nrhs;
  ++stats_.requests;
  stats_.columns += nrhs;
  return true;
}

std::vector<std::vector<double>> SolveServer::drain() {
  if (queue_.empty()) return {};
  // The columns are independent, so the queued blocks concatenate into
  // one n x total right-hand side whose panels may mix submissions.
  std::size_t len = 0;
  for (const auto& req : queue_) len += req.size();
  std::vector<double> b;
  b.reserve(len);
  for (const auto& req : queue_) b.insert(b.end(), req.begin(), req.end());
  const int total = queued_columns_;
  const std::vector<double> x = solver_->solve(b, total);

  const int w = rhs_panel_width(solver_->options().solve, total);
  stats_.panels += (total + w - 1) / w;
  stats_.serve_sim_s += solver_->report().solve_sim_s;

  // Each request's solution overwrites its right-hand side.
  std::size_t off = 0;
  for (auto& req : queue_) {
    std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(off), req.size(),
                req.begin());
    off += req.size();
  }
  queued_columns_ = 0;
  return std::exchange(queue_, {});
}

void SolveServer::refactorize(const sparse::CscMatrix& a) {
  solver_->refactorize(a);
  ++stats_.refactorizations;
}

}  // namespace sympack::core
