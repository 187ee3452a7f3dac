#include "baseline/rightlooking.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "ordering/etree.hpp"
#include "sparse/permute.hpp"
#include "support/timer.hpp"

namespace sympack::baseline {

using core::BlockStore;
using core::Offload;
using symbolic::BlockSlot;

namespace {

// Charge a two-sided message: the sender pays injection, the receiver
// (at processing time) pays matching + a CPU copy into its own buffers.
struct TwoSided {
  double arrival;
  std::size_t bytes;
};

}  // namespace

// ===================================================================
// Factorization engine
// ===================================================================

struct RightLookingSolver::Engine {
  RightLookingSolver* s;
  pgas::Runtime* rt;
  const symbolic::Symbolic* sym;
  BlockStore* store;
  Offload* offload;
  BaselineOptions opts;

  struct PanelMsg {
    idx_t j;              // factored source panel
    const double* data;   // packed below-panel (b x w, column-major)
    TwoSided wire;
  };
  struct UpdateTask {
    idx_t j, t;
    const double* panel;  // packed below-panel of j
    double ready;
  };
  struct PerRank {
    std::deque<idx_t> factor_tasks;       // panels ready to factor
    std::deque<UpdateTask> update_tasks;
    std::vector<PanelMsg> msgs;
    idx_t done_factor = 0;
    idx_t done_update = 0;
    std::vector<pgas::GlobalPtr> buffers;
  };

  std::vector<PerRank> per_rank;
  std::vector<int> dep;            // outstanding updates per panel
  std::vector<double> panel_ready; // sim time panel inputs are complete
  std::vector<idx_t> owned_factor, owned_update;

  int owner(idx_t panel) const { return static_cast<int>(panel % rt->nranks()); }

  Engine(RightLookingSolver* solver)
      : s(solver), rt(solver->rt_), sym(&solver->sym_),
        store(solver->store_.get()), offload(solver->offload_.get()),
        opts(solver->opts_) {
    const idx_t ns = sym->num_snodes();
    per_rank.resize(rt->nranks());
    dep.resize(ns);
    panel_ready.assign(ns, 0.0);
    owned_factor.assign(rt->nranks(), 0);
    owned_update.assign(rt->nranks(), 0);
    for (idx_t t = 0; t < ns; ++t) {
      dep[t] = static_cast<int>(s->sources_of_[t].size());
      ++owned_factor[owner(t)];
      owned_update[owner(t)] += dep[t];
      if (dep[t] == 0) per_rank[owner(t)].factor_tasks.push_back(t);
    }
  }

  void run() {
    rt->drive([this](pgas::Rank& rank) { return step(rank); });
  }

  pgas::Step step(pgas::Rank& rank) {
    PerRank& pr = per_rank[rank.id()];
    int worked = rank.progress();
    if (!pr.msgs.empty()) {
      std::vector<PanelMsg> msgs;
      msgs.swap(pr.msgs);
      for (const auto& m : msgs) receive_panel(rank, m);
      worked += static_cast<int>(msgs.size());
    }
    // Right-looking discipline: drain updates before factoring.
    if (!pr.update_tasks.empty()) {
      const UpdateTask task = pr.update_tasks.front();
      pr.update_tasks.pop_front();
      execute_update(rank, task);
      ++worked;
    } else if (!pr.factor_tasks.empty()) {
      const idx_t k = pr.factor_tasks.front();
      pr.factor_tasks.pop_front();
      execute_factor(rank, k);
      ++worked;
    }
    if (worked > 0) return pgas::Step::kWorked;
    const int me = rank.id();
    const bool done = pr.done_factor == owned_factor[me] &&
                      pr.done_update == owned_update[me] &&
                      pr.factor_tasks.empty() && pr.update_tasks.empty() &&
                      pr.msgs.empty() && !rank.has_pending_rpcs();
    return done ? pgas::Step::kDone : pgas::Step::kIdle;
  }

  void execute_factor(pgas::Rank& rank, idx_t k) {
    PerRank& pr = per_rank[rank.id()];
    rank.merge_clock(panel_ready[k]);
    rank.advance(opts.task_overhead_s);  // StarPU task management
    const auto& sn = sym->snode(k);
    const int w = static_cast<int>(sn.width());
    const idx_t dbid = store->block_id(k, 0);
    offload->run_potrf(rank, w, store->data(dbid), w, sn.first);
    for (BlockSlot slot = 1;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t bid = store->block_id(k, slot);
      rank.advance(opts.task_overhead_s);
      offload->run_trsm(rank, static_cast<int>(store->nrows(bid)), w,
                        store->data(dbid), w, store->data(bid),
                        static_cast<int>(store->nrows(bid)),
                        /*diag_resident=*/false);
    }
    ++pr.done_factor;
    if (sn.blocks.empty()) return;

    // Pack the below trapezoid into one contiguous (b x w) buffer and
    // push it eagerly to every rank owning a target panel.
    const idx_t b = sn.nrows_below();
    const std::size_t bytes =
        sizeof(double) * static_cast<std::size_t>(b) * w;
    const double* packed = nullptr;
    if (store->numeric()) {
      auto buf = rank.allocate_host(bytes);
      pr.buffers.push_back(buf);
      auto* dst = buf.local<double>();
      for (BlockSlot slot = 1;
           slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
        const idx_t bid = store->block_id(k, slot);
        const auto& blk = sn.blocks[slot - 1];
        for (int c = 0; c < w; ++c) {
          std::memcpy(dst + blk.row_off + static_cast<std::size_t>(c) * b,
                      store->data(bid) + static_cast<std::size_t>(c) *
                                             store->nrows(bid),
                      sizeof(double) * blk.nrows);
        }
      }
      packed = dst;
      // Packing cost: streaming copy of the panel.
      rank.advance(2.0 * static_cast<double>(bytes) /
                   rt->model().cpu_mem_bandwidth_Bps);
    }

    std::vector<int> dests;
    for (const auto& blk : sn.blocks) dests.push_back(owner(blk.target));
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    for (int r : dests) {
      if (r == rank.id()) {
        enqueue_updates(rank.id(), k, packed, rank.now());
        continue;
      }
      rank.advance(opts.message_overhead_s);  // two-sided send
      const double arrival = rank.transfer_completion(
          bytes, r, pgas::MemKind::kHost, pgas::MemKind::kHost);
      ++rank.stats().puts;
      rank.stats().bytes_from_host += bytes;
      rank.rpc(r, [this, k, packed, arrival, bytes](pgas::Rank& target) {
        per_rank[target.id()].msgs.push_back(
            PanelMsg{k, packed, TwoSided{arrival, bytes}});
      });
    }
  }

  void receive_panel(pgas::Rank& rank, const PanelMsg& msg) {
    // Two-sided receive: matching overhead + CPU copy into local buffers.
    rank.merge_clock(msg.wire.arrival);
    rank.advance(opts.message_overhead_s +
                 static_cast<double>(msg.wire.bytes) /
                     rt->model().cpu_mem_bandwidth_Bps);
    enqueue_updates(rank.id(), msg.j, msg.data, rank.now());
  }

  void enqueue_updates(int me, idx_t j, const double* panel, double ready) {
    const auto& sn = sym->snode(j);
    for (const auto& blk : sn.blocks) {
      if (owner(blk.target) == me) {
        per_rank[me].update_tasks.push_back(
            UpdateTask{j, blk.target, panel, ready});
      }
    }
  }

  void execute_update(pgas::Rank& rank, const UpdateTask& task) {
    PerRank& pr = per_rank[rank.id()];
    rank.merge_clock(task.ready);
    rank.advance(opts.task_overhead_s);
    const auto& sn = sym->snode(task.j);
    const auto& tgt = sym->snode(task.t);
    const int w = static_cast<int>(sn.width());
    const idx_t b = sn.nrows_below();
    const idx_t pslot = sym->find_block(task.j, task.t) + 1;
    const auto& pblk = sn.blocks[pslot - 1];
    const int np = static_cast<int>(pblk.nrows);
    const int m = static_cast<int>(b - pblk.row_off);  // rows >= first(t)

    if (store->numeric()) {
      const double* src = task.panel + pblk.row_off;  // ld = b
      const double* piv = task.panel + pblk.row_off;  // same start
      std::vector<double> scratch(static_cast<std::size_t>(m) * np);
      offload->run_gemm(rank, m, np, w, src, static_cast<int>(b), piv,
                        static_cast<int>(b), scratch.data(), m,
                        /*a_resident=*/false, /*b_resident=*/false);
      // Scatter: rows 0..np-1 land in the diagonal block of t (lower
      // triangle only); the rest land in t's below blocks.
      const idx_t dbid = store->block_id(task.t, 0);
      double* diag = store->data(dbid);
      const idx_t ldd = store->nrows(dbid);
      for (int c = 0; c < np; ++c) {
        const idx_t gc = sn.below[pblk.row_off + c] - tgt.first;
        for (int r = c; r < np; ++r) {
          const idx_t gr = sn.below[pblk.row_off + r] - tgt.first;
          diag[gr + gc * ldd] -= scratch[r + static_cast<std::size_t>(c) * m];
        }
        for (int r = np; r < m; ++r) {
          const idx_t grow = sn.below[pblk.row_off + r];
          const idx_t tslot = sym->find_block(task.t, sym->snode_of(grow)) + 1;
          const idx_t tbid = store->block_id(task.t, tslot);
          const idx_t off = store->row_offset_in_block(task.t, tslot, grow);
          store->data(tbid)[off + gc * store->nrows(tbid)] -=
              scratch[r + static_cast<std::size_t>(c) * m];
        }
      }
    } else {
      offload->run_gemm(rank, m, np, w, nullptr, static_cast<int>(b), nullptr,
                        static_cast<int>(b), nullptr, m, false, false);
    }
    offload->charge_scatter(rank,
                            sizeof(double) * static_cast<std::size_t>(m) * np);
    ++pr.done_update;
    panel_ready[task.t] = std::max(panel_ready[task.t], rank.now());
    if (--dep[task.t] == 0) {
      per_rank[rank.id()].factor_tasks.push_back(task.t);
    }
  }

  void cleanup() {
    for (int r = 0; r < rt->nranks(); ++r) {
      for (auto& g : per_rank[r].buffers) rt->rank(r).deallocate(g);
      per_rank[r].buffers.clear();
    }
  }
};

// ===================================================================
// Triangular solve (1D right-looking push, per-pair small messages)
// ===================================================================

struct RightLookingSolver::SolveState {
  RightLookingSolver* s;
  pgas::Runtime* rt;
  const symbolic::Symbolic* sym;
  core::BlockStore* store;
  BaselineOptions opts;

  struct Msg {
    bool backward;
    idx_t panel;    // forward: target panel receiving z; backward: the
                    // panel whose x is broadcast
    idx_t src;      // forward: contributing panel j
    const double* data;
    TwoSided wire;
  };
  struct PerRank {
    std::deque<idx_t> tasks;  // panels ready for their triangular solve
    std::vector<Msg> msgs;
    idx_t done = 0;
    std::vector<pgas::GlobalPtr> buffers;
    // Forward sweep fan-in aggregation (PaStiX-style): one buffer and one
    // message per (this rank, target panel) pair instead of one per
    // contributing panel. The number of messages therefore *grows* with
    // the process count as fewer contributions coalesce locally.
    std::unordered_map<idx_t, int> fwd_expected;
    std::unordered_map<idx_t, int> fwd_done;
    std::unordered_map<idx_t, std::vector<double>> fwd_acc;
  };

  std::vector<PerRank> per_rank;
  std::vector<std::vector<double>> seg;
  std::vector<int> remaining;
  std::vector<double> seg_ready;
  std::vector<idx_t> owned_diag;
  bool backward = false;

  int owner(idx_t panel) const { return static_cast<int>(panel % rt->nranks()); }

  SolveState(RightLookingSolver* solver)
      : s(solver), rt(solver->rt_), sym(&solver->sym_),
        store(solver->store_.get()), opts(solver->opts_) {
    per_rank.resize(rt->nranks());
    const idx_t ns = sym->num_snodes();
    seg.resize(ns);
    remaining.assign(ns, 0);
    seg_ready.assign(ns, 0.0);
    owned_diag.assign(rt->nranks(), 0);
    for (idx_t k = 0; k < ns; ++k) ++owned_diag[owner(k)];
  }

  void reset_phase(bool bwd) {
    backward = bwd;
    for (auto& pr : per_rank) {
      pr.tasks.clear();
      pr.msgs.clear();
      pr.done = 0;
      pr.fwd_expected.clear();
      pr.fwd_done.clear();
      pr.fwd_acc.clear();
    }
    for (idx_t k = 0; k < sym->num_snodes(); ++k) {
      if (!bwd) {
        // Fan-in aggregation: the target waits for one aggregated
        // contribution per *rank* that owns at least one of its sources.
        for (idx_t j : s->sources_of_[k]) {
          ++per_rank[owner(j)].fwd_expected[k];
        }
        int distinct = 0;
        for (const auto& pr : per_rank) {
          distinct += pr.fwd_expected.count(k) ? 1 : 0;
        }
        remaining[k] = distinct;
      } else {
        remaining[k] = static_cast<int>(sym->snode(k).blocks.size());
      }
    }
    for (idx_t k = 0; k < sym->num_snodes(); ++k) {
      if (remaining[k] == 0) per_rank[owner(k)].tasks.push_back(k);
    }
  }

  void run_phase(bool bwd) {
    reset_phase(bwd);
    rt->drive([this](pgas::Rank& rank) { return step(rank); });
  }

  pgas::Step step(pgas::Rank& rank) {
    PerRank& pr = per_rank[rank.id()];
    int worked = rank.progress();
    if (!pr.msgs.empty()) {
      std::vector<Msg> msgs;
      msgs.swap(pr.msgs);
      for (const auto& m : msgs) handle_msg(rank, m);
      worked += static_cast<int>(msgs.size());
    }
    if (!pr.tasks.empty()) {
      const idx_t k = pr.tasks.front();
      pr.tasks.pop_front();
      execute_diag(rank, k);
      ++worked;
    }
    if (worked > 0) return pgas::Step::kWorked;
    const int me = rank.id();
    const bool done = pr.done == owned_diag[me] && pr.tasks.empty() &&
                      pr.msgs.empty() && !rank.has_pending_rpcs();
    return done ? pgas::Step::kDone : pgas::Step::kIdle;
  }

  void send(pgas::Rank& rank, int dest, Msg msg, std::size_t bytes) {
    rank.advance(opts.message_overhead_s);
    msg.wire = TwoSided{rank.transfer_completion(bytes, dest,
                                                 pgas::MemKind::kHost,
                                                 pgas::MemKind::kHost),
                        bytes};
    ++rank.stats().puts;
    rank.stats().bytes_from_host += bytes;
    rank.rpc(dest, [this, msg](pgas::Rank& target) {
      per_rank[target.id()].msgs.push_back(msg);
    });
  }

  void handle_msg(pgas::Rank& rank, const Msg& msg) {
    rank.merge_clock(msg.wire.arrival);
    rank.advance(opts.message_overhead_s +
                 static_cast<double>(msg.wire.bytes) /
                     rt->model().cpu_mem_bandwidth_Bps);
    if (!msg.backward) {
      // An aggregated fan-in contribution for segment msg.panel.
      apply_forward(rank, msg.panel, msg.data);
    } else {
      // x of msg.panel arrived: fold contributions into every local
      // source panel that targets it.
      for (idx_t j : s->sources_of_[msg.panel]) {
        if (owner(j) == rank.id()) {
          apply_backward(rank, j, msg.panel, msg.data);
        }
      }
    }
  }

  void apply_forward(pgas::Rank& rank, idx_t t, const double* acc) {
    const int me = rank.id();
    if (store->numeric() && acc != nullptr) {
      const idx_t w = sym->snode(t).width();
      for (idx_t r = 0; r < w; ++r) seg[t][r] -= acc[r];
    }
    seg_ready[t] = std::max(seg_ready[t], rank.now());
    if (--remaining[t] == 0) per_rank[me].tasks.push_back(t);
  }

  void apply_backward(pgas::Rank& rank, idx_t j, idx_t t, const double* xt) {
    const int me = rank.id();
    const auto& sn = sym->snode(j);
    const auto& tgt = sym->snode(t);
    const idx_t pslot = sym->find_block(j, t) + 1;
    const auto& blk = sn.blocks[pslot - 1];
    const int m = static_cast<int>(blk.nrows);
    const int w = static_cast<int>(sn.width());
    if (store->numeric() && xt != nullptr) {
      const idx_t bid = store->block_id(j, pslot);
      // seg[j] -= B^T x_sub
      const double* bdat = store->data(bid);
      for (int c = 0; c < w; ++c) {
        double acc = 0.0;
        for (int r = 0; r < m; ++r) {
          acc += bdat[r + static_cast<std::size_t>(c) * m] *
                 xt[sn.below[blk.row_off + r] - tgt.first];
        }
        seg[j][c] -= acc;
      }
    }
    rank.advance(gpu::cpu_kernel_time(rt->model(), gpu::Op::kGemm,
                                      2.0 * static_cast<double>(m) * w));
    seg_ready[j] = std::max(seg_ready[j], rank.now());
    if (--remaining[j] == 0) per_rank[me].tasks.push_back(j);
  }

  void execute_diag(pgas::Rank& rank, idx_t k) {
    PerRank& pr = per_rank[rank.id()];
    rank.merge_clock(seg_ready[k]);
    rank.advance(opts.task_overhead_s);
    const auto& sn = sym->snode(k);
    const int w = static_cast<int>(sn.width());
    const idx_t dbid = store->block_id(k, 0);
    if (store->numeric()) {
      blas::trsm(blas::Side::kLeft, blas::UpLo::kLower,
                 backward ? blas::Trans::kYes : blas::Trans::kNo,
                 blas::Diag::kNonUnit, w, 1, 1.0, store->data(dbid), w,
                 seg[k].data(), w);
    }
    rank.advance(gpu::cpu_kernel_time(rt->model(), gpu::Op::kTrsm,
                                      static_cast<double>(w) * w));
    ++pr.done;
    seg_ready[k] = rank.now();

    if (!backward) {
      // Fold this panel's contribution into the per-target fan-in
      // buffers; flush a buffer (one message) once every local source of
      // that target has contributed.
      for (const auto& blk : sn.blocks) {
        const idx_t t = blk.target;
        const auto& tgt = sym->snode(t);
        const idx_t bslot = sym->find_block(k, t) + 1;
        const idx_t bid = store->block_id(k, bslot);
        const int m = static_cast<int>(blk.nrows);
        if (store->numeric()) {
          std::vector<double> z(m);
          blas::gemv(blas::Trans::kNo, m, w, 1.0, store->data(bid), m,
                     seg[k].data(), 1, 0.0, z.data(), 1);
          auto& acc = pr.fwd_acc[t];
          if (acc.empty()) acc.assign(tgt.width(), 0.0);
          for (int r = 0; r < m; ++r) {
            acc[sn.below[blk.row_off + r] - tgt.first] += z[r];
          }
        }
        rank.advance(gpu::cpu_kernel_time(rt->model(), gpu::Op::kGemm,
                                          2.0 * m * w));
        if (++pr.fwd_done[t] == pr.fwd_expected.at(t)) {
          const int dest = owner(t);
          const double* acc_data = nullptr;
          const std::size_t bytes =
              sizeof(double) * static_cast<std::size_t>(tgt.width());
          if (store->numeric()) {
            auto buf = rank.allocate_host(bytes);
            pr.buffers.push_back(buf);
            std::memcpy(buf.addr, pr.fwd_acc[t].data(), bytes);
            acc_data = buf.local<double>();
          }
          if (dest == rank.id()) {
            apply_forward(rank, t, acc_data);
          } else {
            send(rank, dest, Msg{false, t, 0, acc_data, {}}, bytes);
          }
        }
      }
    } else {
      // Broadcast x_k to the owners of panels that target k.
      std::vector<int> dests;
      for (idx_t j : s->sources_of_[k]) dests.push_back(owner(j));
      std::sort(dests.begin(), dests.end());
      dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
      const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(w);
      const double* xk = nullptr;
      if (store->numeric()) {
        auto buf = rank.allocate_host(bytes);
        pr.buffers.push_back(buf);
        std::memcpy(buf.addr, seg[k].data(), bytes);
        xk = buf.local<double>();
      }
      for (int dest : dests) {
        if (dest == rank.id()) {
          for (idx_t j : s->sources_of_[k]) {
            if (owner(j) == rank.id()) apply_backward(rank, j, k, xk);
          }
        } else {
          send(rank, dest, Msg{true, k, 0, xk, {}}, bytes);
        }
      }
    }
  }

  void cleanup() {
    for (int r = 0; r < rt->nranks(); ++r) {
      for (auto& g : per_rank[r].buffers) rt->rank(r).deallocate(g);
      per_rank[r].buffers.clear();
    }
  }
};

// ===================================================================
// RightLookingSolver
// ===================================================================

RightLookingSolver::RightLookingSolver(pgas::Runtime& rt,
                                       BaselineOptions opts)
    : rt_(&rt), opts_(opts) {}

RightLookingSolver::~RightLookingSolver() = default;

void RightLookingSolver::symbolic_factorize(const sparse::CscMatrix& a) {
  using support::WallClock;
  double t0 = WallClock::now();
  perm_ = ordering::compute_ordering(a, opts_.ordering);
  a_perm_ = sparse::permute_symmetric(a, perm_);
  report_.ordering_wall_s = WallClock::now() - t0;

  t0 = WallClock::now();
  const auto parent = ordering::elimination_tree(a_perm_);
  sym_ = symbolic::analyze(a_perm_, parent, opts_.symbolic);
  // 1D column-cyclic: all blocks of a panel share an owner.
  tg_ = std::make_unique<symbolic::TaskGraph>(
      sym_, symbolic::Mapping(rt_->nranks(),
                              symbolic::Mapping::Kind::kColCyclic));
  store_ = std::make_unique<BlockStore>(*tg_, *rt_, opts_.numeric);

  core::GpuOptions gpu;
  gpu.enabled = opts_.use_gpu;
  // PaStiX-like: only large update GEMMs offload; everything else CPU.
  gpu.gemm_threshold = opts_.gemm_threshold;
  gpu.potrf_threshold = std::numeric_limits<std::int64_t>::max();
  gpu.trsm_threshold = std::numeric_limits<std::int64_t>::max();
  gpu.syrk_threshold = std::numeric_limits<std::int64_t>::max();
  gpu.device_resident_threshold = std::numeric_limits<std::int64_t>::max();
  offload_ = std::make_unique<Offload>(gpu, *rt_, opts_.numeric);

  sources_of_.assign(sym_.num_snodes(), {});
  for (idx_t j = 0; j < sym_.num_snodes(); ++j) {
    for (const auto& blk : sym_.snode(j).blocks) {
      sources_of_[blk.target].push_back(j);
    }
  }
  report_.symbolic_wall_s = WallClock::now() - t0;

  report_.n = a.n();
  report_.matrix_nnz = a.nnz_stored();
  report_.factor_nnz = sym_.factor_nnz();
  report_.factor_flops = sym_.flops();
  report_.num_supernodes = sym_.num_snodes();
  report_.num_blocks = store_->num_blocks();
  factorized_ = false;
}

void RightLookingSolver::factorize() {
  if (!tg_) {
    throw std::logic_error("factorize() requires symbolic_factorize()");
  }
  const double t0 = support::WallClock::now();
  store_->assemble(a_perm_);
  rt_->reset_clocks();
  rt_->reset_stats();
  offload_->reset_counters();

  Engine engine(this);
  engine.run();
  engine.cleanup();

  report_.factor_wall_s = support::WallClock::now() - t0;
  report_.factor_sim_s = rt_->max_clock();
  report_.rank0_ops = offload_->counts(0);
  report_.total_ops = offload_->total_counts();
  report_.comm = rt_->total_stats();
  factorized_ = true;
}

std::vector<double> RightLookingSolver::solve(const std::vector<double>& b) {
  if (!factorized_) throw std::logic_error("solve() requires factorize()");
  const auto n = static_cast<std::size_t>(sym_.n());
  if (b.size() != n) throw std::invalid_argument("solve: rhs size mismatch");

  std::vector<double> b_perm(n);
  for (std::size_t k = 0; k < n; ++k) b_perm[k] = b[perm_[k]];

  const double t0 = support::WallClock::now();
  rt_->reset_clocks();
  SolveState st(this);
  // Scatter RHS into panel segments.
  for (idx_t k = 0; k < sym_.num_snodes(); ++k) {
    const auto& sn = sym_.snode(k);
    st.seg[k].assign(sn.width(), 0.0);
    if (store_->numeric()) {
      for (idx_t r = 0; r < sn.width(); ++r) {
        st.seg[k][r] = b_perm[sn.first + r];
      }
    }
  }
  st.run_phase(false);
  st.run_phase(true);
  report_.solve_wall_s = support::WallClock::now() - t0;
  report_.solve_sim_s = rt_->max_clock();

  std::vector<double> x(n, 0.0);
  if (store_->numeric()) {
    std::vector<double> x_perm(n);
    for (idx_t k = 0; k < sym_.num_snodes(); ++k) {
      const auto& sn = sym_.snode(k);
      for (idx_t r = 0; r < sn.width(); ++r) {
        x_perm[sn.first + r] = st.seg[k][r];
      }
    }
    for (std::size_t k = 0; k < n; ++k) x[perm_[k]] = x_perm[k];
  }
  st.cleanup();
  return x;
}

std::vector<double> RightLookingSolver::dense_factor() const {
  if (!factorized_) {
    throw std::logic_error("dense_factor() requires factorize()");
  }
  return store_->to_dense_lower();
}

}  // namespace sympack::baseline
