// Per-rank views over the symbolic layer (DESIGN.md §4i).
//
// Historically every rank materialized the entire Symbolic structure,
// Mapping, and TaskGraph — O(global) metadata replicated P times, and a
// serial symbolic prologue in front of every factorization. The view
// layer puts a per-rank lens between the engines and that global state:
//
//   SymbolicView / TaskGraphView    abstract per-rank interfaces that
//                                   mirror the Symbolic/TaskGraph method
//                                   surface (engines are written against
//                                   the views and never against the
//                                   concrete classes),
//   Replicated*View                 the historical behavior: every rank
//                                   sees everything at zero access cost.
//                                   Default; schedules and golden hashes
//                                   are bit-identical,
//   Sharded*View                    each rank retains only its locally
//                                   relevant supernodes (it owns a block
//                                   of the panel, executes updates
//                                   consuming it, or scatters into it)
//                                   plus their assembly-tree ancestor
//                                   closure; anything else is pulled on
//                                   demand through the pgas runtime —
//                                   one metadata RPC, charged to the
//                                   puller's simulated clock and counted
//                                   in the symbolic_* CommStats family.
//
// The physical Symbolic/TaskGraph objects stay shared (this is a
// single-process simulation of an SPMD cluster); the sharded view adds
// the per-rank residency sets, the byte accounting that the strong-
// scaling bench and the CI scale gate read, and the pull protocol. The
// numbers it reports are exactly what a distributed implementation would
// retain per rank under the 2D-cyclic slicing discipline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "symbolic/symbolic.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::pgas {
class Rank;
struct MachineModel;
}  // namespace sympack::pgas

namespace sympack::symbolic {

/// Per-rank lens over the symbolic structure. The structure surface
/// (n/snode/snode_of/find_block/...) mirrors Symbolic exactly so engine
/// code reads identically against either; the virtual surface is the
/// sharding contract.
class SymbolicView {
 public:
  explicit SymbolicView(const Symbolic& sym) : sym_(&sym) {}
  virtual ~SymbolicView();
  SymbolicView(const SymbolicView&) = delete;
  SymbolicView& operator=(const SymbolicView&) = delete;

  [[nodiscard]] idx_t n() const { return sym_->n(); }
  [[nodiscard]] idx_t num_snodes() const { return sym_->num_snodes(); }
  [[nodiscard]] const Supernode& snode(idx_t s) const { return sym_->snode(s); }
  [[nodiscard]] const std::vector<Supernode>& snodes() const {
    return sym_->snodes();
  }
  [[nodiscard]] idx_t snode_of(idx_t col) const { return sym_->snode_of(col); }
  [[nodiscard]] idx_t find_block(idx_t k, idx_t t) const {
    return sym_->find_block(k, t);
  }
  [[nodiscard]] idx_t factor_nnz() const { return sym_->factor_nnz(); }
  [[nodiscard]] double flops() const { return sym_->flops(); }
  /// The underlying global structure (selected inversion and the tests
  /// deep-copy it; the engines never need it).
  [[nodiscard]] const Symbolic& symbolic() const { return *sym_; }

  [[nodiscard]] virtual bool sharded() const = 0;
  /// Record that `rank` dereferences panel k's metadata. On a sharded
  /// view, a first touch outside the rank's resident set is a remote
  /// metadata pull: the rank's clock advances by the RPC round trip and
  /// the symbolic_pull_rpcs / symbolic_bytes counters grow; the panel is
  /// then cached (resident) for the rest of the run. On the replicated
  /// view this is a no-op.
  virtual void touch(pgas::Rank& rank, idx_t k) const = 0;
  /// Is panel k's metadata resident on `rank` (always true replicated)?
  [[nodiscard]] virtual bool resident(int rank, idx_t k) const = 0;
  /// Symbolic metadata bytes rank currently retains (structure + task
  /// tables + directory). The replicated view reports the full global
  /// footprint for every rank — this is the flat-O(global) curve the
  /// sharded view turns into falling-with-P.
  [[nodiscard]] virtual std::uint64_t resident_bytes(int rank) const = 0;
  /// On-demand metadata pulls charged to `rank` so far.
  [[nodiscard]] virtual std::uint64_t pull_rpcs(int rank) const = 0;
  /// Simulated symbolic-phase build time for `rank`: the replicated view
  /// charges every rank the full serial prologue; the sharded view
  /// charges each rank its slice of the row-structure merge work plus
  /// the child below-list exchanges it received.
  [[nodiscard]] virtual double build_seconds(int rank) const = 0;

 protected:
  const Symbolic* sym_;
};

/// Historical behavior: the full structure on every rank, zero access
/// cost, no pull protocol. Bit-identical schedules.
class ReplicatedSymbolicView final : public SymbolicView {
 public:
  ReplicatedSymbolicView(const Symbolic& sym, const TaskGraph& tg,
                         double build_wall_s);
  [[nodiscard]] bool sharded() const override { return false; }
  void touch(pgas::Rank&, idx_t) const override {}
  [[nodiscard]] bool resident(int, idx_t) const override { return true; }
  [[nodiscard]] std::uint64_t resident_bytes(int) const override {
    return replicated_bytes_;
  }
  [[nodiscard]] std::uint64_t pull_rpcs(int) const override { return 0; }
  [[nodiscard]] double build_seconds(int) const override {
    return build_wall_s_;
  }

 private:
  std::uint64_t replicated_bytes_ = 0;
  double build_wall_s_ = 0.0;
};

/// 2D-cyclic sharding: per-rank residency sets over the shared physical
/// structure, ancestor closure, on-demand pulls. See DESIGN.md §4i for
/// the relevance rule and the exchange protocol.
class ShardedSymbolicView final : public SymbolicView {
 public:
  ShardedSymbolicView(const Symbolic& sym, const TaskGraph& tg,
                      const pgas::MachineModel& model, int nranks,
                      const AnalyzeStats& stats);
  ~ShardedSymbolicView() override;
  [[nodiscard]] bool sharded() const override { return true; }
  void touch(pgas::Rank& rank, idx_t k) const override;
  [[nodiscard]] bool resident(int rank, idx_t k) const override;
  [[nodiscard]] std::uint64_t resident_bytes(int rank) const override;
  [[nodiscard]] std::uint64_t pull_rpcs(int rank) const override;
  [[nodiscard]] double build_seconds(int rank) const override;

  /// Metadata bytes of panel k (structure + task tables) — what one pull
  /// transfers and what residency retains.
  [[nodiscard]] std::uint64_t panel_bytes(idx_t k) const;
  [[nodiscard]] int nranks() const;

 private:
  struct State;
  std::unique_ptr<State> st_;
};

/// Per-rank lens over the task graph. Pass-through surface mirrors
/// TaskGraph; touch() is the sharding contract (delegated to the
/// SymbolicView's residency universe — panel structure and task tables
/// travel as one unit).
class TaskGraphView {
 public:
  TaskGraphView(const TaskGraph& tg, const SymbolicView& sview)
      : tg_(&tg), sview_(&sview) {}
  virtual ~TaskGraphView();
  TaskGraphView(const TaskGraphView&) = delete;
  TaskGraphView& operator=(const TaskGraphView&) = delete;

  [[nodiscard]] const TaskGraph& graph() const { return *tg_; }
  [[nodiscard]] const Symbolic& symbolic() const { return tg_->symbolic(); }
  [[nodiscard]] const Mapping& mapping() const { return tg_->mapping(); }
  [[nodiscard]] Variant variant() const { return tg_->variant(); }
  [[nodiscard]] int update_rank(idx_t s, idx_t j, idx_t t) const {
    return tg_->update_rank(s, j, t);
  }
  [[nodiscard]] idx_t update_count(idx_t k, BlockSlot slot) const {
    return tg_->update_count(k, slot);
  }
  [[nodiscard]] int owner(idx_t k, BlockSlot slot) const {
    return tg_->owner(k, slot);
  }
  [[nodiscard]] idx_t owned_factor_tasks(int rank) const {
    return tg_->owned_factor_tasks(rank);
  }
  [[nodiscard]] idx_t owned_update_tasks(int rank) const {
    return tg_->owned_update_tasks(rank);
  }
  [[nodiscard]] idx_t total_updates() const { return tg_->total_updates(); }
  [[nodiscard]] idx_t total_factor_tasks() const {
    return tg_->total_factor_tasks();
  }
  [[nodiscard]] const std::vector<int>& recipients(idx_t k,
                                                   BlockSlot slot) const {
    return tg_->recipients(k, slot);
  }
  [[nodiscard]] const std::vector<int>& consumers(idx_t k,
                                                  BlockSlot slot) const {
    return tg_->consumers(k, slot);
  }
  [[nodiscard]] const SymbolicView& view() const { return *sview_; }

  [[nodiscard]] virtual bool sharded() const = 0;
  /// See SymbolicView::touch.
  virtual void touch(pgas::Rank& rank, idx_t k) const = 0;

 protected:
  const TaskGraph* tg_;
  const SymbolicView* sview_;
};

class ReplicatedTaskGraphView final : public TaskGraphView {
 public:
  ReplicatedTaskGraphView(const TaskGraph& tg,
                          const ReplicatedSymbolicView& sview)
      : TaskGraphView(tg, sview) {}
  [[nodiscard]] bool sharded() const override { return false; }
  void touch(pgas::Rank&, idx_t) const override {}
};

class ShardedTaskGraphView final : public TaskGraphView {
 public:
  ShardedTaskGraphView(const TaskGraph& tg, const ShardedSymbolicView& sview)
      : TaskGraphView(tg, sview) {}
  [[nodiscard]] bool sharded() const override { return true; }
  void touch(pgas::Rank& rank, idx_t k) const override {
    sview_->touch(rank, k);
  }
};

}  // namespace sympack::symbolic
