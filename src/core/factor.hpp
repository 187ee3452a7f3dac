// The numeric factorization engine (paper §3.2-§3.4, Figures 3-4), for
// both members of Ashcraft's taxonomy the solver runs (paper §2.3).
//
// Every rank runs the same loop (one call = one "step"):
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
//     aggregate for the target, sent to the target's owner as one
//     message once the rank has folded in every update it owes the block
//     (§2.3's second message type), then freed;
//   - where a fetched block lives: fan-in keeps it on the host.
//
// The engine owns only the *algorithm*: which tasks exist, what unlocks
// them, and what executing one does. The task-runtime substrate —
// policy-driven ready queue, dependency counters, signal transport with
// the full recovery protocol, use-counted fetch cache, tracer hook —
// lives in core/taskrt/ and is shared with the solve engine.
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
// aggregates at the owner. Reads of published factor-block data after a
// signal are ordered by the inbox-mutex release/acquire pair in
// Rank::rpc/progress.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/block_store.hpp"
#include "core/checkpoint.hpp"
#include "core/errors.hpp"
#include "core/offload.hpp"
#include "core/options.hpp"
#include "core/taskrt/dep_tracker.hpp"
#include "core/taskrt/endpoint.hpp"
#include "core/taskrt/ready_queue.hpp"
#include "core/taskrt/scratch.hpp"
#include "core/taskrt/stats.hpp"
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

  /// Run the factorization to completion. Throws NotPositiveDefiniteError
  /// (with the column in the factor's own ordering) if a diagonal pivot
  /// fails, and pgas::RankDeathError when a killed rank is confirmed dead
  /// (the solver's recovery loop catches that one).
  void run();

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
    idx_t cache_bid = -1;  // block id of the cache entry, -1 if local
  };

  struct RemoteFactor {
    // Host copy (when not device resident), uninitialised until the rget
    // fills it.
    std::unique_ptr<double[]> host;
    pgas::GlobalPtr device;  // device copy (when resident)
    /// Eager-inlined payload (shared with the producer's other
    /// recipients); keeps the shared buffer alive for this consumer's
    /// uses when the signal carried the data inline.
    std::shared_ptr<const double> eager;
    FactorRef ref;
  };

  struct UpdateState {
    int remaining = 0;
    FactorRef src;  // L_{s,j}
    FactorRef piv;  // L_{t,j} (same as src for SYRK tasks)
  };

  /// Fan-in: one rank's running sum of the updates it owes one block.
  struct Aggregate {
    std::vector<double> buf;  // shape of the block; empty in dry runs
    int pending = 0;          // updates this rank still owes the block
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
    std::shared_ptr<const double> payload{};
    int from = -1;
    const double* data = nullptr;  // rendezvous aggregate: staging buffer
    double sent = 0.0;             // aggregate: simulated send time

    /// taskrt::Endpoint's eager contract (found via ADL).
    friend std::size_t inline_payload_bytes(const Signal& s) {
      return s.eager_bytes;
    }
  };

  struct PerRank {
    taskrt::ReadyQueue<Task> rtq;
    std::unordered_map<std::uint64_t, UpdateState> pending_updates;
    taskrt::UseCache<RemoteFactor> cache;           // key: block id
    std::unordered_map<idx_t, FactorRef> diag_ref;  // key: supernode
    std::unordered_map<idx_t, Aggregate> aggs;      // fan-in; key: block id
    std::vector<pgas::GlobalPtr> out_buffers;       // sent aggregates
    idx_t done_factor = 0;
    idx_t done_update = 0;
    // Numeric scratch, grown on demand and reused by every task of the
    // rank (DESIGN.md §4k): an update's dense product and its offsets in
    // the target block.
    taskrt::Scratch<double> product;
    taskrt::Scratch<idx_t> offsets;
  };

  static std::uint64_t ukey(idx_t j, idx_t si, idx_t ti) {
    return (static_cast<std::uint64_t>(j) << 42) |
           (static_cast<std::uint64_t>(si) << 21) |
           static_cast<std::uint64_t>(ti);
  }

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
  /// Make factor block (k, slot) available at `rank` via `ref`.
  void deliver(pgas::Rank& rank, idx_t k, BlockSlot slot,
               const FactorRef& ref);
  void satisfy_update(pgas::Rank& rank, idx_t j, idx_t si, idx_t ti,
                      const FactorRef& ref, bool as_source);
  void publish(pgas::Rank& rank, idx_t k, BlockSlot slot);
  /// Hand factor block (k, slot), held by its owner `rank`, to the local
  /// tasks that use it and signal the remote consumers (on a recovery
  /// attempt, only those with tasks left to run).
  void share(pgas::Rank& rank, idx_t k, BlockSlot slot);
  void execute(pgas::Rank& rank, const Task& task);
  void execute_diag(pgas::Rank& rank, const Task& task);
  void execute_factor(pgas::Rank& rank, const Task& task);
  void execute_update(pgas::Rank& rank, const Task& task);
  /// Fan-in: send (or, at the owner, apply) this rank's finished
  /// aggregate for block (t, slot), then free it.
  void flush_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot);
  void apply_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                       const double* buf, double ready);
  /// One update contribution to block (t, slot) has landed at `ready`.
  void complete_target_update(pgas::Rank& rank, idx_t t, BlockSlot slot,
                              double ready);
  void release_ref(pgas::Rank& rank, const FactorRef& ref);
  /// Free the sent aggregates' staging buffers.
  void free_out_buffers();
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
  taskrt::EngineStats stats_;
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

  /// White-box access for regression tests (duplicate-signal leak,
  /// aggregates freed at flush).
  friend struct FactorEngineTestPeer;
};

}  // namespace sympack::core
