// Distributed triangular solve: L y = b (forward) then L^T x = y
// (backward), using the factored blocks in place (paper's solve phase,
// Figures 8/10/12).
//
// Both sweeps are task-based over the same block distribution as the
// factorization and use the same signal-RPC + one-sided-get protocol:
//   forward:  the owner of diagonal block k solves the panel RHS segment
//             once all descendant contributions have been folded in,
//             broadcasts y_k to the owners of panel-k blocks; each block
//             owner computes z = B_{s,k} y_k and fans the partial sum in
//             to the owner of supernode s.
//   backward: the owner of supernode s broadcasts x_s to the owners of
//             blocks *targeting* s; each computes w = B_{s,k}^T x_s|rows
//             and fans it in to the owner of panel k.
//
// Tasks run FIFO (the policy ablation targets the factorization); the
// queue, per-segment dependency counters, and the message transport with
// its recovery protocol are the shared core/taskrt/ layer. The endpoint
// is reset between the sweeps: sequence numbers restart so the forward
// ledger cannot satisfy backward-sweep re-requests.
//
// The public surface is the constructor plus solve(): an engine runs
// the sweep pairs of one SymPackSolver::solve() call (a fresh engine
// per call and per recovery attempt), and SolveServer::drain() is one
// such call, so nothing outside solve() steps the sweeps.
//
// Bytes (DESIGN.md §4n): every kernel, copy and apply is an action on
// the buffers it touches (pgas::Rank::act), submitted and charged on
// the driving thread; seg_[k] is named by its data pointer. solve()
// waits for the actions before it gathers a panel's solution, and the
// destructor waits before seg_ goes.
//
// Thread-safety (audited; see DESIGN.md "Threading memory model" and
// §4d): no locks because every mutable member is single-writer.
// per_rank_[r] and the endpoint's slot r are touched only by the thread
// driving rank r (RPC bodies run inside the target's progress()).
// seg_[k] and deps_[k] are touched only by the thread driving the
// segment owner mapping(k, k): remote contributions arrive as messages
// and are folded in by the owner itself in apply_contribution. Published
// segments and contribution buffers are written before the signal RPC is
// enqueued and read after it is dequeued, so the inbox mutex orders the
// data transfer.
//
// Buffer ownership (DESIGN.md §4f): every solve buffer is freed at its
// last use, never parked for the whole sweep. A published segment or
// partial sum is a shared host buffer (pgas::shared_host_buffer) held by
// the messages that carry it (eager) or point at it (rendezvous); the
// last copy to die frees it with Rank::deallocate — on the consumer's
// thread once it has handled the message, or at the sweep's ledger reset
// under fault injection. A pulled segment copy, like an eager segment,
// sits in the consumer's use cache with one use per local contribution
// task; the last task frees it. No release is a message, so nothing is
// charged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_store.hpp"
#include "core/offload.hpp"
#include "core/options.hpp"
#include "core/taskrt/dep_tracker.hpp"
#include "core/taskrt/endpoint.hpp"
#include "core/taskrt/ready_queue.hpp"
#include "core/taskrt/scratch.hpp"
#include "core/taskrt/use_cache.hpp"
#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

class SolveEngine {
 public:
  /// `tracer` (optional) records every solve task's simulated execution
  /// span ("Y k" / "C k:slot" forward, "X k" / "Z k:slot" backward) with
  /// the same conventions as the factorization engines, so one Chrome
  /// trace shows factor and solve side by side and the critical-path
  /// profiler can analyze either phase. The solve-phase goldens hash
  /// CommStats only and never attach a tracer, so this is purely
  /// additive.
  SolveEngine(pgas::Runtime& rt, const symbolic::TaskGraph& tg,
              const symbolic::SymbolicView& view, BlockStore& store,
              Offload& offload, const SolverOptions& opts,
              Tracer* tracer = nullptr);
  ~SolveEngine();
  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  /// Solve L L^T x = b for `nrhs` right-hand sides stored column-major
  /// in `b` (permuted ordering). The solve runs as ceil(nrhs / w) panel
  /// sweep pairs, w = rhs_panel_width(opts.solve, nrhs) (rhs_panel 0, the
  /// default, = one fused sweep pair carrying all nrhs columns, 1 = the
  /// paper's per-vector sweeps):
  /// each sweep's diagonal solves are nb x w TRSMs and its block
  /// contributions GEMM panel updates, and every protocol message
  /// carries the whole w-column segment. Returns x (also permuted
  /// ordering). In protocol-only mode the returned vector is
  /// zero-filled but the full task/communication schedule still runs.
  std::vector<double> solve(const std::vector<double>& b, int nrhs);
  /// Host seconds solve() waited, after each panel's sweeps, for the
  /// panel's last action.
  [[nodiscard]] double join_wall_s() const { return join_wall_s_; }

 private:
  struct Msg {
    enum class Type : std::uint8_t { kX, kContrib } type;
    idx_t k = 0;         // kX: supernode whose solution segment is published
    idx_t panel = 0;     // kContrib: source panel
    BlockSlot slot = 0;  // kContrib: block slot in the panel
    /// Rendezvous: where the consumer pulls `payload` from.
    pgas::GlobalPtr data{};
    std::size_t bytes = 0;
    /// Eager protocol (DESIGN.md §4e): nonzero means the segment /
    /// partial sum rides inside the message and `data` is unused. Set
    /// even in protocol-only runs.
    std::uint32_t eager_bytes = 0;
    /// The producer's shared copy of the segment / partial sum, inline
    /// (eager) or behind `data` (rendezvous); null in protocol-only
    /// runs. Every copy of the message shares it — ledger copies too, so
    /// retransmits replay it — and the last one frees it.
    std::shared_ptr<const double> payload;

    friend std::size_t inline_payload_bytes(const Msg& m) {
      return m.eager_bytes;
    }
  };
  struct Task {
    enum class Type : std::uint8_t { kDiag, kContrib } type;
    idx_t k;         // kDiag: supernode; kContrib: panel
    BlockSlot slot;  // kContrib only
    const double* operand;  // solution segment the contribution consumes
    double ready;
  };
  struct PerRank {
    taskrt::ReadyQueue<Task> tasks;  // always FIFO in the solve phase
    idx_t done_diag = 0;
    idx_t done_contrib = 0;
    /// Remote solution segments (eager payloads and pulled copies) that
    /// local contribution tasks read through Task::operand, keyed by
    /// supernode with one use per task; the last task frees the
    /// buffer, so the cache is empty when a sweep ends.
    taskrt::UseCache<std::shared_ptr<const double>> segments;
    // The consumer ranks of a published segment, reused by every
    // publish of the rank (DESIGN.md §4k).
    std::vector<int> consumers;
  };

  /// Scatter `panel` (n x nrhs column-major, permuted ordering) into
  /// the per-supernode segments and open a fresh dataflow epoch.
  void begin(const double* panel, int nrhs);
  /// Arm the forward or backward sweep and drive it to completion.
  void drive_phase(bool backward);
  /// Collect the panel's solution into `x` (n x nrhs).
  void gather(double* x) const;
  pgas::Step step(pgas::Rank& rank, bool backward);
  void handle_msg(pgas::Rank& rank, const Msg& msg, bool backward);
  /// Zero-width "g k:slot" mark on consumer `rank`: a remote segment or
  /// partial sum arrived at `t`. Recorded only with TraceOptions::metadata.
  void fetch_mark(int rank, idx_t k, BlockSlot slot, double t) const;
  void execute_diag(pgas::Rank& rank, idx_t k, bool backward);
  void execute_contrib(pgas::Rank& rank, const Task& task, bool backward);
  void publish_solution(pgas::Rank& rank, idx_t k, bool backward);
  /// Queue rank `r`'s contribution tasks that consume supernode k's
  /// segment (`operand`); returns how many were queued.
  int enqueue_consumers(int r, idx_t k, const double* operand, double ready,
                        bool backward);
  /// A message's eager size for a `bytes` payload (0 = rendezvous).
  [[nodiscard]] std::uint32_t inline_bytes(std::size_t bytes) const;
  /// Subtract partial sum `z` of block (panel, slot) from the segment it
  /// folds into. `pull_bytes` > 0: z is the sender's buffer behind a
  /// rendezvous rget, and the apply action moves those bytes first.
  void apply_contribution(pgas::Rank& rank, idx_t panel, BlockSlot slot,
                          const double* z, double ready, bool backward,
                          std::size_t pull_bytes);
  /// One contribution to segment `dest` has landed at `ready`.
  void contribution_landed(pgas::Rank& rank, idx_t dest, double ready);
  void reset_phase(bool backward);

  pgas::Runtime* rt_;
  const symbolic::Symbolic* sym_;
  const symbolic::TaskGraph* tg_;
  const symbolic::SymbolicView* view_;
  BlockStore* store_;
  Offload* offload_;
  SolverOptions opts_;
  Tracer* tracer_;
  int nrhs_ = 1;  // columns carried by the sweep in flight
  double join_wall_s_ = 0.0;

  // (panel, slot) pairs targeting each supernode (transpose structure).
  std::vector<std::vector<std::pair<idx_t, BlockSlot>>> target_blocks_;
  // Per-supernode RHS/solution segment, owned by the diagonal owner.
  std::vector<std::vector<double>> seg_;
  // Per-supernode outstanding contributions + segment-complete sim time
  // (ready times deliberately persist across the two sweeps: the
  // backward sweep starts from the forward sweep's completion times).
  taskrt::DepTracker deps_;
  std::vector<PerRank> per_rank_;
  /// Message transport + recovery protocol. Dedup is load-bearing: kX
  /// enqueues contribution tasks and kContrib decrements a dependency
  /// counter, neither of which is idempotent. Reset between sweeps.
  taskrt::Endpoint<Msg> net_;
  // Per-rank totals for termination (the same in both sweeps: each
  // block produces exactly one contribution per sweep).
  std::vector<idx_t> owned_diag_;
  std::vector<idx_t> owned_contrib_;
};

}  // namespace sympack::core
