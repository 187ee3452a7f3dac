// The numeric factorization engine (paper §3.2-§3.4, Figures 3-4), for
// both members of Ashcraft's taxonomy the solver runs (paper §2.3).
//
// Every rank runs the same loop (one call = one "step", written once as
// taskrt::Endpoint::step and shared with the solve engine and the
// baseline):
//   1. progress(): execute incoming signal RPCs, which append to the
//      local notification list (Fig. 4 steps 1/3/4);
//   2. poll: for each notification, issue a one-sided rget of the factor
//      block (into host memory, or directly into device memory for "GPU
//      blocks") and decrement the dependency counters of the local tasks
//      waiting on it (steps 5/6);
//   3. pick one task from the ready-task queue (RTQ) per the scheduling
//      policy and execute it.
// Task completion publishes the produced factor block: dependent local
// tasks are satisfied immediately and remote consumer ranks receive a
// signal RPC. A rank is done when all of its statically assigned tasks
// (its LTQ) have executed.
//
// The variant (SolverOptions::variant, baked into the task graph) only
// decides which rank runs U_{s,j,t} (symbolic::TaskGraph::update_rank);
// everything above is shared. The engine branches on it in two places:
//   - where an update lands: fan-out (push) scatters it into the target
//     block in place; fan-in (pull) scatters it into the running rank's
//     aggregate for the target, a counted host buffer that becomes the
//     one message sent to the target's owner once the rank has folded in
//     every update it owes the block (§2.3's second message type); the
//     last copy of that message frees it;
//   - where a fetched block lives: fan-in keeps it on the host.
//
// The engine owns only the *algorithm*: which tasks exist, what unlocks
// them, and what executing one does. The task-runtime substrate —
// policy-driven ready queue, dependency counters, signal transport with
// the full recovery protocol, use-counted fetch cache, tracer hook —
// lives in core/taskrt/ and is shared with the solve engine.
//
// Bytes (DESIGN.md §4n): every kernel, scatter, copy, aggregate fill or
// apply, and free is an action on the buffers it touches
// (pgas::Rank::act); the engine decides and charges everything at
// the call, on the driving thread, and never reads a value. In numeric
// runs the solver attaches a taskrt::Executor, so the actions run on its
// workers in submission order per buffer.
//
// Thread-safety (audited; see DESIGN.md "Threading memory model" and
// §4d): the engine holds no locks because every mutable member is
// single-writer. per_rank_[r] (RTQ, caches, aggregates, counters) and the
// endpoint's slot r are touched only by the thread driving rank r —
// signal RPCs mutate the *target's* slot, but RPC bodies execute inside
// the target's progress(), i.e. on the target's own thread. deps_[bid]
// is touched only by the thread driving owner(bid): deliver() and
// complete_target_update() run on the consuming rank, the consumer of a
// block's D/F dependencies is its owner in fan-out, and fan-in applies
// aggregates at the owner. update_deps_[u] is touched only by the thread
// driving the rank that runs update u: deliver() satisfies it there, and
// that rank executes it. Reads of published factor-block data, and of a
// sent aggregate, after a signal are ordered by the inbox-mutex
// release/acquire pair in Rank::rpc/progress. An aggregate's last
// reference may drop on either rank's thread; its deleter locks the
// runtime's allocation registry.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_store.hpp"
#include "core/checkpoint.hpp"
#include "core/errors.hpp"
#include "core/offload.hpp"
#include "core/options.hpp"
#include "core/taskrt/dep_tracker.hpp"
#include "core/taskrt/endpoint.hpp"
#include "core/taskrt/flat_map.hpp"
#include "core/taskrt/ready_queue.hpp"
#include "core/taskrt/scratch.hpp"
#include "core/taskrt/use_cache.hpp"
#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

class FactorEngine {
 public:
  /// `rec` (may be null) is the resilience hand-off: when set, every
  /// published block is marked complete + checkpointed to its buddy, and
  /// — on a recovery attempt, when rec->complete already has entries —
  /// the completed sub-DAG is cut out: those blocks' tasks never re-run,
  /// their data (restored by the solver) is re-published to the
  /// still-pending consumers from run()'s prologue, and the per-rank
  /// termination goals (and, in fan-in, the aggregates' pending update
  /// counts) shrink accordingly.
  FactorEngine(pgas::Runtime& rt, const symbolic::TaskGraph& tg,
               const symbolic::SymbolicView& view, BlockStore& store,
               Offload& offload, const SolverOptions& opts,
               Tracer* tracer = nullptr, RecoveryContext* rec = nullptr);
  ~FactorEngine();
  FactorEngine(const FactorEngine&) = delete;
  FactorEngine& operator=(const FactorEngine&) = delete;

  /// Run the factorization to completion, then wait for its actions. A
  /// failed diagonal pivot throws NotPositiveDefiniteError (with the
  /// column in the factor's own ordering) from its POTRF action: here
  /// when actions run inline, at the executor's join otherwise.
  /// Throws pgas::RankDeathError when a killed rank is confirmed dead
  /// (the solver's recovery loop catches that one).
  void run();
  /// Host seconds run() waited, after the drive, for the last action.
  [[nodiscard]] double join_wall_s() const { return join_wall_s_; }

 private:
  // --- task representation -------------------------------------------
  enum class TaskType : std::uint8_t { kDiag, kFactor, kUpdate };
  struct Task {
    TaskType type;
    idx_t k = -1;        // supernode (D/F) or source panel j (U)
    BlockSlot slot = 0;  // block slot (F); unused for D
    idx_t si = 0, ti = 0;  // U: source/pivot block slots (>=1) in panel k
    double ready = 0.0;    // earliest simulated start
  };

  /// Reference to factor-block data available at this rank (either a
  /// pointer into local block storage or into a fetched remote copy).
  struct FactorRef {
    const double* data = nullptr;  // null in protocol-only mode
    double ready = 0.0;
    bool on_device = false;
  };

  /// A fetched remote block: one owned pointer to its copy, null in
  /// protocol-only runs. Its deleter frees a host copy as an action on it
  /// (Rank::free_after: after the rget that fills it and the tasks that
  /// read it) and returns a device copy to the segment
  /// (Rank::deallocate); an eager block is the signal's payload, shared
  /// with the producer's other recipients.
  struct RemoteFactor {
    std::shared_ptr<const double> buf;
    double ready = 0.0;
    bool on_device = false;
  };

  /// Fan-in: one rank's running sum of the updates it owes one block.
  /// The buffer is a pgas::shared_host_buffer, so the peak counts it,
  /// and it is the message: the flush hands it to the signal.
  struct Aggregate {
    std::shared_ptr<double> buf;  // shape of the block; null in dry runs
    int pending = 0;              // updates this rank still owes the block
  };

  /// Factor block (k, slot) is ready — or, when `from` >= 0 (fan-in),
  /// rank `from` sends its aggregate for block (k, slot). Applying an
  /// aggregate is not idempotent, so duplicates must be filtered by the
  /// link's dedup, not by the handler.
  struct Signal {
    idx_t k;
    BlockSlot slot;
    /// Eager protocol (DESIGN.md §4e): nonzero means the block's (or the
    /// aggregate's) bytes ride inside this signal and the consumer skips
    /// the pull. Set even in protocol-only runs (wire accounting without
    /// data); `payload` is null there. A copy of the signal in the
    /// ReliableLink ledger shares the payload buffer, so retransmits
    /// replay the data inline.
    std::uint32_t eager_bytes = 0;
    /// The eager bytes, or a rendezvous aggregate's buffer, which the
    /// owner pulls from rank `from` (pgas::pull_ptr). The last copy of
    /// the signal frees it.
    std::shared_ptr<const double> payload{};
    int from = -1;

    /// taskrt::Endpoint's eager contract (found via ADL).
    friend std::size_t inline_payload_bytes(const Signal& s) {
      return s.eager_bytes;
    }
  };

  struct PerRank {
    taskrt::ReadyQueue<Task> rtq;
    taskrt::UseCache<RemoteFactor> cache;     // key: block id
    taskrt::FlatMap<Aggregate> aggs;          // fan-in; key: block id
    idx_t done_factor = 0;
    idx_t done_update = 0;
  };

  /// Index of U_{k, si, ti} (1 <= ti <= si <= blocks of panel k) in
  /// update_deps_ and update_rank_: panel k's updates follow those of
  /// panels 0..k-1, row by row.
  [[nodiscard]] std::size_t update_id(idx_t k, idx_t si, idx_t ti) const {
    return static_cast<std::size_t>(uoff_[k] + si * (si - 1) / 2 + ti - 1);
  }
  /// The reference rank `me` holds to factor block `bid`: the block itself
  /// at its owner, the fetched copy in the use cache elsewhere.
  FactorRef held(PerRank& pr, int me, idx_t bid) const;

  pgas::Step step(pgas::Rank& rank);
  void handle_signal(pgas::Rank& rank, const Signal& sig);
  void receive_aggregate(pgas::Rank& rank, const Signal& sig);
  /// Count the U/F tasks at `rank` that consume factor block (k, slot).
  /// On a recovery attempt, tasks whose target block is already complete
  /// are excluded (they will not re-run).
  int local_uses(int rank, idx_t k, BlockSlot slot) const;
  /// Block id update task U_{k, si, ti} folds into.
  idx_t update_target_bid(idx_t k, idx_t si, idx_t ti) const;
  /// Does U_{k, si, ti} (re-)run this attempt? Always true without a
  /// recovery context; false when its target block is already complete.
  bool update_needed(idx_t k, idx_t si, idx_t ti) const;
  /// Recovery prologue: re-publish every already-complete block (data
  /// restored by the solver) to the consumers that still need it.
  void publish_restored();
  /// Factor block (k, slot) is held at `rank` from `ready` on: satisfy
  /// the local tasks that use it.
  void deliver(pgas::Rank& rank, idx_t k, BlockSlot slot, double ready);
  /// One operand of U_{j, si, ti}, available from `ready`, has arrived.
  void satisfy_update(pgas::Rank& rank, idx_t j, idx_t si, idx_t ti,
                      double ready);
  void publish(pgas::Rank& rank, idx_t k, BlockSlot slot);
  /// Hand factor block (k, slot), held by its owner `rank`, to the local
  /// tasks that use it and signal the remote consumers (on a recovery
  /// attempt, only those with tasks left to run).
  void share(pgas::Rank& rank, idx_t k, BlockSlot slot);
  void execute(pgas::Rank& rank, const Task& task);
  /// Zero-width "g k:slot" mark on consumer `rank`: remote factor block
  /// (k, slot) arrived at `t`. Recorded only with TraceOptions::metadata.
  void fetch_mark(int rank, idx_t k, BlockSlot slot, double t) const;
  void execute_diag(pgas::Rank& rank, const Task& task);
  void execute_factor(pgas::Rank& rank, const Task& task);
  void execute_update(pgas::Rank& rank, const Task& task);
  /// Fan-in: send (or, at the owner, apply) this rank's finished
  /// aggregate for block (t, slot), then drop this rank's reference.
  void flush_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot);
  /// Add aggregate `buf` into block (t, slot); `pulled` when it is the
  /// sender's buffer behind a rendezvous rget.
  void apply_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                       const double* buf, double ready, bool pulled);
  /// One update contribution to block (t, slot) has landed at `ready`.
  void complete_target_update(pgas::Rank& rank, idx_t t, BlockSlot slot,
                              double ready);
  /// Push a task with its policy priority (kPriority: -supernode;
  /// kCriticalPath: elimination-tree depth; queue order otherwise).
  void enqueue(PerRank& pr, const Task& task);

  pgas::Runtime* rt_;
  const symbolic::Symbolic* sym_;
  const symbolic::TaskGraph* tg_;
  const symbolic::SymbolicView* view_;
  BlockStore* store_;
  Offload* offload_;
  SolverOptions opts_;
  /// Pull mode (fan-in): updates land in aggregates (see the header).
  bool fan_in_;
  Tracer* tracer_;
  /// Resilience hand-off (null without buddy checkpointing). The solver
  /// owns it; it outlives every factorization attempt's engine.
  RecoveryContext* rec_ = nullptr;
  /// Per-rank termination goals. Equal to the TaskGraph totals normally;
  /// reduced by the completed sub-DAG on a recovery attempt.
  std::vector<idx_t> goal_factor_;
  std::vector<idx_t> goal_update_;

  /// Scheduling priority of a ready task (kCriticalPath policy): the
  /// elimination-tree depth of the supernode the task feeds.
  [[nodiscard]] idx_t task_depth(const Task& task) const;

  // Single-writer: slot r is read and written only by the thread driving
  // rank r (see the taskrt::Endpoint contract for the signal path).
  std::vector<PerRank> per_rank_;
  /// Signal transport + recovery protocol (shared task-runtime layer).
  taskrt::Endpoint<Signal> net_;
  // Per-block dependency state; each entry is touched only by the thread
  // driving the block's owner rank (deliver/complete_target_update run on
  // the consumer, and the consumer of a block's dependencies is its
  // owner), so no atomics are needed in threaded mode.
  taskrt::DepTracker deps_;
  // Supernode depth in the supernodal elimination tree (root = 0).
  // Immutable after construction.
  std::vector<idx_t> snode_depth_;
  /// update_id() of each panel's first update. Immutable.
  std::vector<idx_t> uoff_;
  /// The rank that runs each update (TaskGraph::update_rank), by
  /// update_id(). Immutable.
  std::vector<int> update_rank_;
  /// Per-update dependency state, by update_id(): the operand blocks
  /// still to arrive (one for the SYRK task, two for a GEMM task; kRan
  /// once it has run) and the latest arrival. The operands themselves
  /// are looked up again when it runs (held()). Entry u is touched only
  /// by the thread driving update_rank_[u], which receives the operands
  /// and runs the task, so the threaded driver needs no atomics.
  taskrt::DepTracker update_deps_;
  static constexpr int kRan = -1;
  double join_wall_s_ = 0.0;

  /// White-box access for regression tests (duplicate-signal leak,
  /// aggregates freed at flush).
  friend struct FactorEngineTestPeer;
};

}  // namespace sympack::core
