#include "core/solve.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace sympack::core {

namespace {

/// A shared copy of `bytes` from `src` on `rank`: the carrier of a
/// published segment or partial sum, freed when the last message (or
/// use-cache entry) referencing it dies.
std::shared_ptr<double> shared_copy(pgas::Rank& rank, const double* src,
                                    std::size_t bytes) {
  auto buf = pgas::shared_host_buffer(rank, bytes / sizeof(double));
  std::memcpy(buf.get(), src, bytes);
  return buf;
}

/// Where a consumer pulls a shared copy made on `rank` from.
pgas::GlobalPtr pull_ptr(const pgas::Rank& rank,
                         const std::shared_ptr<double>& buf) {
  return pgas::GlobalPtr{reinterpret_cast<std::byte*>(buf.get()), rank.id(),
                         pgas::MemKind::kHost};
}

}  // namespace

SolveEngine::SolveEngine(pgas::Runtime& rt, const symbolic::TaskGraph& tg,
                         const symbolic::SymbolicView& view, BlockStore& store,
                         Offload& offload, const SolverOptions& opts,
                         Tracer* tracer)
    : rt_(&rt), sym_(&tg.symbolic()), tg_(&tg), view_(&view), store_(&store),
      offload_(&offload), opts_(opts), stats_(tracer, opts.trace.metadata) {
  const symbolic::Symbolic& sym = *sym_;
  const idx_t ns = sym.num_snodes();
  target_blocks_.resize(ns);
  owned_diag_.assign(rt.nranks(), 0);
  owned_contrib_fwd_.assign(rt.nranks(), 0);
  owned_contrib_bwd_.assign(rt.nranks(), 0);
  const auto& map = tg.mapping();
  for (idx_t k = 0; k < ns; ++k) {
    ++owned_diag_[map(k, k)];
    const auto& sn = sym.snode(k);
    for (BlockSlot slot = 1;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t s = sn.blocks[slot - 1].target;
      target_blocks_[s].emplace_back(k, slot);
      // Each block produces exactly one contribution in each sweep.
      ++owned_contrib_fwd_[map(s, k)];
      ++owned_contrib_bwd_[map(s, k)];
    }
  }
  seg_.resize(ns);
  deps_.init(ns);  // once: ready times carry across the two sweeps
  per_rank_.resize(rt.nranks());
  net_.init(rt, opts_.fault, tracer, opts_.comm, opts_.resilience);
}

std::vector<double> SolveEngine::solve(const std::vector<double>& b,
                                       int nrhs) {
  const idx_t n = sym_->n();
  if (static_cast<idx_t>(b.size()) != n * nrhs) {
    throw std::invalid_argument("SolveEngine::solve: rhs size mismatch");
  }
  // Panel the RHS: each forward+backward sweep carries up to w columns
  // (rhs_panel 0, the default, = all columns in one fused sweep; 1 =
  // per-vector sweeps, identical schedule to the historical solver).
  const int w = rhs_panel_width(opts_.solve, nrhs);
  std::vector<double> x(static_cast<std::size_t>(n) * nrhs, 0.0);
  for (int c0 = 0; c0 < nrhs; c0 += w) {
    const int pw = std::min(w, nrhs - c0);
    begin(b.data() + static_cast<std::size_t>(c0) * n, pw);
    drive_phase(/*backward=*/false);
    drive_phase(/*backward=*/true);
    gather(x.data() + static_cast<std::size_t>(c0) * n);
  }
  return x;
}

void SolveEngine::begin(const double* panel, int nrhs) {
  const idx_t n = sym_->n();
  nrhs_ = nrhs;
  // Scatter the panel into per-supernode segments at the diagonal owners.
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    const auto& sn = sym_->snode(k);
    const idx_t w = sn.width();
    seg_[k].assign(static_cast<std::size_t>(w) * nrhs, 0.0);
    if (store_->numeric()) {
      for (int c = 0; c < nrhs; ++c) {
        for (idx_t r = 0; r < w; ++r) {
          seg_[k][r + static_cast<std::size_t>(c) * w] =
              panel[(sn.first + r) + static_cast<std::size_t>(c) * n];
        }
      }
    }
  }
  // Fresh panel, fresh dataflow epoch: the previous panel's ready times
  // do not seed this one (within one solve() the clocks are monotone,
  // so carrying them would add nothing).
  deps_.clear_ready();
}

void SolveEngine::gather(double* x) const {
  // Gather the solution (x overwrote the segments in the backward sweep).
  const idx_t n = sym_->n();
  if (store_->numeric()) {
    for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
      const auto& sn = sym_->snode(k);
      const idx_t w = sn.width();
      for (int c = 0; c < nrhs_; ++c) {
        for (idx_t r = 0; r < w; ++r) {
          x[(sn.first + r) + static_cast<std::size_t>(c) * n] =
              seg_[k][r + static_cast<std::size_t>(c) * w];
        }
      }
    }
  }
}

void SolveEngine::reset_phase(bool backward) {
  const auto& map = tg_->mapping();
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    deps_.set_count(
        k, backward ? static_cast<int>(sym_->snode(k).blocks.size())
                    : static_cast<int>(target_blocks_[k].size()));
  }
  for (auto& pr : per_rank_) {
    pr.tasks.clear();
    pr.done_diag = 0;
    pr.done_contrib = 0;
  }
  // Inboxes drop; under recovery the sequence numbers also restart per
  // sweep (the forward ledger must not satisfy backward re-requests),
  // and the ledger's copies of the last sweep's messages return their
  // payload buffers.
  net_.reset_phase();
  // Seed the sweep with supernodes that have no outstanding
  // contributions (leaves forward, roots backward).
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    if (deps_.count(k) == 0) {
      per_rank_[map(k, k)].tasks.push(
          Task{Task::Type::kDiag, k, 0, nullptr, deps_.ready(k)});
    }
  }
}

void SolveEngine::drive_phase(bool backward) {
  reset_phase(backward);
  rt_->drive(
      [this, backward](pgas::Rank& rank) { return step(rank, backward); },
      /*stall_limit=*/10000, opts_.interleave_seed);
}

pgas::Step SolveEngine::step(pgas::Rank& rank, bool backward) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  int worked = rank.progress();
  // A killed rank stops participating; the solve recovery path restores
  // its factor panels from the buddy checkpoints and re-runs the sweep.
  if (net_.recovery() && !rank.alive()) return pgas::Step::kIdle;
  const std::vector<Msg> msgs = net_.drain(me);
  for (const Msg& m : msgs) handle_msg(rank, m, backward);
  worked += static_cast<int>(msgs.size());
  if (!pr.tasks.empty()) {
    const Task task = pr.tasks.pop();
    rank.merge_clock(task.ready);
    if (task.type == Task::Type::kDiag) {
      execute_diag(rank, task.k, backward);
    } else {
      execute_contrib(rank, task, backward);
    }
    ++worked;
  }
  if (worked > 0) {
    net_.on_worked(me);
    return pgas::Step::kWorked;
  }
  // Nothing else to do: flush any coalesced signals still parked in the
  // outboxes so consumers are not starved (and termination can be
  // reached — a rank never reports done with signals still queued).
  if (rank.flush_signals() > 0) {
    net_.on_worked(me);
    return pgas::Step::kWorked;
  }

  const idx_t owned_contrib =
      backward ? owned_contrib_bwd_[me] : owned_contrib_fwd_[me];
  const bool done = pr.done_diag == owned_diag_[me] &&
                    pr.done_contrib == owned_contrib && pr.tasks.empty() &&
                    !net_.has_pending(me) && !rank.has_pending_rpcs();
  if (done) return pgas::Step::kDone;
  net_.on_idle(rank);
  return pgas::Step::kIdle;
}

void SolveEngine::execute_diag(pgas::Rank& rank, idx_t k, bool backward) {
  const double begin = rank.now();
  const auto& sn = sym_->snode(k);
  const int w = static_cast<int>(sn.width());
  const idx_t dbid = store_->block_id(k, 0);
  offload_->run_trsm_left(rank, backward, w, nrhs_, store_->data(dbid), w,
                          store_->numeric() ? seg_[k].data() : nullptr, w);
  deps_.set_ready(k, rank.now());
  ++per_rank_[rank.id()].done_diag;
  if (stats_.tracing()) {
    stats_.task_span(rank.id(),
                     backward ? taskrt::TaskTag::kSolveBwd
                              : taskrt::TaskTag::kSolveFwd,
                     k, 0, 0, begin, rank.now());
  }
  publish_solution(rank, k, backward);
}

void SolveEngine::publish_solution(pgas::Rank& rank, idx_t k, bool backward) {
  const int me = rank.id();
  const auto& map = tg_->mapping();
  const auto& sn = sym_->snode(k);
  const std::size_t bytes =
      sizeof(double) * static_cast<std::size_t>(sn.width()) * nrhs_;

  // Consumers: forward, the owners of panel-k blocks (they multiply by
  // y_k); backward, the owners of blocks *targeting* k (they need x_k).
  std::vector<int>& consumers = per_rank_[me].consumers;
  consumers.clear();
  if (!backward) {
    for (BlockSlot slot = 1;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      consumers.push_back(map(sn.blocks[slot - 1].target, k));
    }
  } else {
    for (const auto& [panel, slot] : target_blocks_[k]) {
      (void)slot;
      consumers.push_back(map(k, panel));
    }
  }
  std::sort(consumers.begin(), consumers.end());
  consumers.erase(std::unique(consumers.begin(), consumers.end()),
                  consumers.end());
  const bool has_remote =
      std::any_of(consumers.begin(), consumers.end(),
                  [me](int r) { return r != me; });

  // One shared copy serves every remote consumer, inline (eager) or
  // pulled one-sidedly (rendezvous, exactly like factor blocks); local
  // consumers read the segment in place.
  std::shared_ptr<double> buf;
  if (store_->numeric() && has_remote) {
    buf = shared_copy(rank, seg_[k].data(), bytes);
  }
  for (int r : consumers) {
    if (r == me) {
      enqueue_consumers(me, k, store_->numeric() ? seg_[k].data() : nullptr,
                        rank.now(), backward);
    } else {
      net_.send(rank, r,
                Msg{.type = Msg::Type::kX,
                    .k = k,
                    .data = pull_ptr(rank, buf),
                    .bytes = bytes,
                    .eager_bytes = inline_bytes(bytes),
                    .payload = buf});
    }
  }
}

int SolveEngine::enqueue_consumers(int r, idx_t k, const double* operand,
                                   double ready, bool backward) {
  // Forward: the rank's blocks of panel k multiply by y_k. Backward: its
  // blocks targeting k read x_k.
  const auto& map = tg_->mapping();
  auto& tasks = per_rank_[r].tasks;
  int queued = 0;
  if (!backward) {
    const auto& sn = sym_->snode(k);
    for (BlockSlot slot = 1; slot <= static_cast<idx_t>(sn.blocks.size());
         ++slot) {
      if (map(sn.blocks[slot - 1].target, k) == r) {
        tasks.push(Task{Task::Type::kContrib, k, slot, operand, ready});
        ++queued;
      }
    }
  } else {
    for (const auto& [panel, slot] : target_blocks_[k]) {
      if (map(k, panel) == r) {
        tasks.push(Task{Task::Type::kContrib, panel, slot, operand, ready});
        ++queued;
      }
    }
  }
  return queued;
}

std::uint32_t SolveEngine::inline_bytes(std::size_t bytes) const {
  return net_.eager(bytes) ? static_cast<std::uint32_t>(bytes) : 0;
}

void SolveEngine::handle_msg(pgas::Rank& rank, const Msg& msg,
                             bool backward) {
  // Either message type dereferences a panel's metadata on the receiver.
  // A sharded view keeps both resident (relevance rules 1, 3 and 4), so
  // this touch pulls only panels outside a healthy run's footprint.
  view_->touch(rank, msg.type == Msg::Type::kX ? msg.k : msg.panel);
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  if (msg.type == Msg::Type::kX) {
    // Take the published segment (inline, or pulled into a shared copy;
    // a protocol-only pull lands nowhere), then enqueue the local
    // contribution tasks that consume it.
    std::shared_ptr<const double> segment;
    double ready;
    if (msg.eager_bytes > 0) {
      segment = msg.payload;
      ready = rank.now();
    } else {
      std::shared_ptr<double> copy;
      if (store_->numeric()) {
        copy = pgas::shared_host_buffer(rank, msg.bytes / sizeof(double));
      }
      ready = net_.with_retry(rank, [&] {
        return rank.rget(msg.data, reinterpret_cast<std::byte*>(copy.get()),
                         msg.bytes, pgas::MemKind::kHost);
      });
      segment = std::move(copy);
    }
    stats_.fetch_mark(me, msg.k, 0, ready);
    // Task::operand outlives the message, so the segment stays in the
    // use cache until the last of these tasks has read it. The link
    // delivers each segment to a rank once per sweep, so the insert
    // never meets an entry.
    const int uses =
        enqueue_consumers(me, msg.k, segment.get(), ready, backward);
    if (segment) pr.segments.insert(msg.k, std::move(segment), uses);
    return;
  }

  // kContrib: a partial sum arrives for a segment this rank owns.
  if (msg.eager_bytes > 0) {
    // Eager: apply the inline partial sum directly (it is consumed
    // synchronously, so nothing here holds it past the message).
    stats_.fetch_mark(me, msg.panel, msg.slot, rank.now());
    apply_contribution(rank, msg.panel, msg.slot,
                       msg.payload ? msg.payload.get() : nullptr, rank.now(),
                       backward);
    return;
  }
  double* z =
      store_->numeric() ? pr.fetched.get(msg.bytes / sizeof(double)) : nullptr;
  const double ready = net_.with_retry(rank, [&] {
    return rank.rget(msg.data, reinterpret_cast<std::byte*>(z), msg.bytes,
                     pgas::MemKind::kHost);
  });
  stats_.fetch_mark(me, msg.panel, msg.slot, ready);
  apply_contribution(rank, msg.panel, msg.slot, z, ready, backward);
}

void SolveEngine::execute_contrib(pgas::Rank& rank, const Task& task,
                                  bool backward) {
  const double begin = rank.now();
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const idx_t panel = task.k;
  const BlockSlot slot = task.slot;
  const auto& sn = sym_->snode(panel);
  const auto& blk = sn.blocks[slot - 1];
  const idx_t s = blk.target;
  const int w = static_cast<int>(sn.width());
  const int m = static_cast<int>(blk.nrows);
  const idx_t bid = store_->block_id(panel, slot);
  const bool numeric = store_->numeric();

  // Forward: z = B y_panel (m x nrhs). Backward: z = B^T x_s|rows
  // (w x nrhs).
  const int out_rows = backward ? w : m;
  double* z =
      numeric ? pr.z.get(static_cast<std::size_t>(out_rows) * nrhs_) : nullptr;
  if (!backward) {
    offload_->run_gemm_any(rank, blas::Trans::kNo, m, nrhs_, w, 1.0,
                           store_->data(bid), m, task.operand, w, 0.0, z, m);
  } else {
    // Extract the rows of x_s this block touches.
    const auto& tgt = sym_->snode(s);
    double* xsub =
        numeric ? pr.xsub.get(static_cast<std::size_t>(m) * nrhs_) : nullptr;
    if (numeric) {
      for (int c = 0; c < nrhs_; ++c) {
        for (int r = 0; r < m; ++r) {
          const idx_t gr = sn.below[blk.row_off + r] - tgt.first;
          xsub[r + static_cast<std::size_t>(c) * m] =
              task.operand[gr + static_cast<std::size_t>(c) * tgt.width()];
        }
      }
    }
    offload_->run_gemm_any(rank, blas::Trans::kYes, w, nrhs_, m, 1.0,
                           store_->data(bid), m, xsub, m, 0.0, z, w);
  }
  // This task is done with its operand: a remote segment's last use
  // frees it (a local segment is not cached: no-op).
  pr.segments.release(backward ? s : panel,
                      [](std::shared_ptr<const double>& seg) { seg.reset(); });
  ++pr.done_contrib;

  // Fan the partial sum in to the segment owner.
  const idx_t dest = backward ? panel : s;
  if (stats_.tracing()) {
    // b = the supernode whose solution segment this contribution
    // consumed; tgt = the segment it folds into (its Y/X diag task).
    stats_.task_span(rank.id(),
                     backward ? taskrt::TaskTag::kContribBwd
                              : taskrt::TaskTag::kContribFwd,
                     panel, slot, backward ? s : panel, begin, rank.now(),
                     dest, 0);
  }
  const int dest_owner = tg_->mapping()(dest, dest);
  if (dest_owner == me) {
    apply_contribution(rank, panel, slot, z, rank.now(), backward);
    return;
  }
  const std::size_t bytes =
      sizeof(double) * static_cast<std::size_t>(out_rows) * nrhs_;
  // The partial sum leaves the per-rank scratch for a shared copy that
  // the message owns (inline if eager, pulled otherwise).
  std::shared_ptr<double> buf;
  if (numeric) buf = shared_copy(rank, z, bytes);
  net_.send(rank, dest_owner,
            Msg{.type = Msg::Type::kContrib,
                .panel = panel,
                .slot = slot,
                .data = pull_ptr(rank, buf),
                .bytes = bytes,
                .eager_bytes = inline_bytes(bytes),
                .payload = std::move(buf)});
}

void SolveEngine::apply_contribution(pgas::Rank& rank, idx_t panel,
                                     BlockSlot slot, const double* z,
                                     double ready, bool backward) {
  const auto& sn = sym_->snode(panel);
  const auto& blk = sn.blocks[slot - 1];
  const idx_t dest = backward ? panel : blk.target;
  if (store_->numeric() && z != nullptr) {
    auto& seg = seg_[dest];
    if (!backward) {
      const auto& tgt = sym_->snode(dest);
      const int m = static_cast<int>(blk.nrows);
      for (int c = 0; c < nrhs_; ++c) {
        for (int r = 0; r < m; ++r) {
          const idx_t gr = sn.below[blk.row_off + r] - tgt.first;
          seg[gr + static_cast<std::size_t>(c) * tgt.width()] -=
              z[r + static_cast<std::size_t>(c) * m];
        }
      }
    } else {
      const int w = static_cast<int>(sn.width());
      for (int c = 0; c < nrhs_; ++c) {
        for (int r = 0; r < w; ++r) {
          seg[r + static_cast<std::size_t>(c) * w] -=
              z[r + static_cast<std::size_t>(c) * w];
        }
      }
    }
  }
  if (deps_.satisfy(dest, ready)) {
    per_rank_[rank.id()].tasks.push(
        Task{Task::Type::kDiag, dest, 0, nullptr,
             std::max(deps_.ready(dest), rank.now())});
  }
}

}  // namespace sympack::core
