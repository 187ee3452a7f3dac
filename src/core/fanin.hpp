// Fan-in numeric factorization (Ashcraft's taxonomy, paper §2.3).
//
// Where the fan-out engine executes U_{s,j,t} on the owner of the
// *target* block B_{s,t} (requiring factor blocks to be broadcast), the
// fan-in engine executes it on the owner of the *source* block L_{s,j}.
// Contributions to a remote target block are accumulated locally into an
// "aggregate vector" (one buffer per (producer rank, target block) pair)
// and sent once, when the producer has folded in every update it owes
// that block — the second message type of §2.3. Factor blocks now travel
// only *down their own panel column* (each L_{s,j} is the pivot operand
// of the U tasks owned by the other block owners of panel j).
//
// The numerics are identical to the fan-out engine; the communication
// pattern is what changes. bench_variant_ablation quantifies the
// trade-off that made the paper choose fan-out. The task-runtime
// substrate (ready queue, dependency counters, signal transport with
// recovery, fetch cache) is the shared core/taskrt/ layer; this engine
// always runs its RTQ FIFO (the scheduling-policy ablation targets the
// fan-out engine).
//
// Thread-safety (audited; see DESIGN.md "Threading memory model" and
// §4d): like the fan-out engine, lock-free by single-writer ownership —
// per_rank_[r] (RTQ, caches, aggregate buffers) and the endpoint's slot
// r only by rank r's thread, and deps_[bid] only by the thread driving
// owner(bid): aggregates are *accumulated* at the producer but *applied*
// by the target owner in apply_aggregate (after the kAggregate signal),
// so the counters never see a remote writer.
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

class FanInEngine {
 public:
  /// `tracer` (optional) records every task's simulated execution span,
  /// same span-name conventions as the fan-out engine; the variant
  /// ablation and the critical-path profiler read both the same way.
  /// `rec` (may be null): the resilience hand-off, same contract as the
  /// fan-out engine — completed blocks are marked + buddy-checkpointed,
  /// and a recovery attempt cuts the completed sub-DAG out (restored
  /// pivots re-published, aggregate pending counts rebuilt over the
  /// still-needed updates only).
  FanInEngine(pgas::Runtime& rt, const symbolic::SymbolicView& sym,
              const symbolic::TaskGraphView& tg, BlockStore& store,
              Offload& offload, const SolverOptions& opts,
              Tracer* tracer = nullptr, RecoveryContext* rec = nullptr);
  ~FanInEngine();
  FanInEngine(const FanInEngine&) = delete;
  FanInEngine& operator=(const FanInEngine&) = delete;

  /// Run the factorization to completion; throws like FactorEngine::run.
  void run();

 private:
  enum class TaskType : std::uint8_t { kDiag, kFactor, kUpdate };
  struct Task {
    TaskType type;
    idx_t k = -1;          // supernode (D/F) or source panel j (U)
    BlockSlot slot = 0;    // block slot (F)
    idx_t si = 0, ti = 0;  // U: source/pivot slots in panel k
    double ready = 0.0;
  };
  struct PivotRef {
    const double* data = nullptr;
    double ready = 0.0;
    idx_t cache_bid = -1;
  };
  struct RemotePivot {
    std::unique_ptr<double[]> host;  // uninitialised until the rget fills it
    /// Eager-inlined payload shared with the producer's other
    /// recipients (null on the rendezvous path).
    std::shared_ptr<const double> eager;
    PivotRef ref;
  };
  struct UpdateState {
    int remaining = 0;
    PivotRef src;  // L_{s,j}: always local (same owner as the U task)
    PivotRef piv;  // L_{t,j}: possibly fetched from the panel column
  };
  /// Aggregate vector for one target block at one producer rank.
  struct Aggregate {
    std::vector<double> buf;  // shape of the target block; empty in dry runs
    int pending = 0;          // updates this rank still owes the block
  };
  struct Signal {
    enum class Type : std::uint8_t { kPivot, kAggregate } type;
    idx_t k = -1;        // pivot: panel; aggregate: sender rank
    BlockSlot slot = 0;  // pivot: block slot in panel k
    idx_t bid = -1;      // aggregate: target block id
    const double* data = nullptr;  // aggregate payload (shared segment)
    double sent = 0.0;             // aggregate simulated send time
    /// Eager protocol (DESIGN.md §4e): nonzero means the block/aggregate
    /// bytes ride inside the signal (no pull rget for kPivot, no
    /// shared-segment read for kAggregate). Set even in protocol-only
    /// runs; `payload` is null there. Ledger copies share the buffer, so
    /// retransmits replay the data inline.
    std::uint32_t eager_bytes = 0;
    std::shared_ptr<const double> payload;

    friend std::size_t inline_payload_bytes(const Signal& s) {
      return s.eager_bytes;
    }
  };
  struct PerRank {
    taskrt::ReadyQueue<Task> rtq;  // always FIFO in the fan-in variant
    std::unordered_map<std::uint64_t, UpdateState> pending_updates;
    taskrt::UseCache<RemotePivot> cache;           // key: pivot block id
    std::unordered_map<idx_t, PivotRef> diag_ref;  // key: supernode
    std::unordered_map<idx_t, Aggregate> aggs;     // key: target block id
    std::vector<pgas::GlobalPtr> out_buffers;      // sent aggregates
    idx_t done_factor = 0;
    idx_t done_update = 0;
    // Numeric scratch, same roles as in the fan-out engine (DESIGN.md
    // §4k).
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
  void deliver_pivot(pgas::Rank& rank, idx_t k, BlockSlot slot,
                     const PivotRef& ref);
  void satisfy_update(pgas::Rank& rank, idx_t j, idx_t si, idx_t ti,
                      const PivotRef& ref, bool as_source);
  void publish_factor(pgas::Rank& rank, idx_t k, BlockSlot slot);
  /// Send factor block (k, slot) to each recipient: one eager signal
  /// carrying the data when it fits, else a rendezvous signal each.
  void send_pivot(pgas::Rank& rank, idx_t k, BlockSlot slot,
                  const std::vector<int>& recipients);
  void execute(pgas::Rank& rank, const Task& task);
  void execute_update(pgas::Rank& rank, const Task& task);
  void flush_aggregate(pgas::Rank& rank, idx_t bid);
  void apply_aggregate(pgas::Rank& rank, idx_t bid, const double* buf,
                       double ready);
  void release_pivot(pgas::Rank& rank, const PivotRef& ref);
  /// Target supernode/slot of block id (reverse lookup).
  std::pair<idx_t, BlockSlot> locate(idx_t bid) const;
  /// Block id update task U_{k, si, ti} folds into.
  idx_t update_target_bid(idx_t k, idx_t si, idx_t ti) const;
  /// Does U_{k, si, ti} (re-)run this attempt? (False only on a recovery
  /// attempt, when its target block is already complete.)
  bool update_needed(idx_t k, idx_t si, idx_t ti) const;
  /// Recovery prologue: re-publish every already-complete pivot block to
  /// the consumers that still need it.
  void publish_restored();

  pgas::Runtime* rt_;
  const symbolic::SymbolicView* sym_;
  const symbolic::TaskGraphView* tg_;
  BlockStore* store_;
  Offload* offload_;
  SolverOptions opts_;
  taskrt::EngineStats stats_;

  std::vector<PerRank> per_rank_;
  /// Signal transport + recovery protocol. The sequence protocol matters
  /// doubly here: kAggregate application is NOT idempotent (it decrements
  /// a dependency counter and adds the payload), so duplicate delivery
  /// must be filtered by the link's dedup, not by the handler.
  taskrt::Endpoint<Signal> net_;
  taskrt::DepTracker deps_;       // per target block: aggregates (+ diag)
  std::vector<idx_t> bid_snode_;  // block id -> supernode (for locate)
  std::vector<idx_t> owned_u_;    // per rank: fan-in update-task count
  /// Resilience hand-off (null without buddy checkpointing).
  RecoveryContext* rec_ = nullptr;
  /// Per-rank factor-task goals (TaskGraph totals minus the completed
  /// sub-DAG on a recovery attempt; owned_u_ is filtered directly).
  std::vector<idx_t> goal_factor_;
};

}  // namespace sympack::core
