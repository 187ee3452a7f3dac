// Per-rank residency of the symbolic layer (DESIGN.md §4i).
//
// Every rank of the paper's cluster would hold the symbolic metadata it
// dereferences: the Supernode records and the task-graph tables of the
// panels it touches. Replicated, that is the whole structure on every
// rank — O(global) metadata P times over. Sharded, a rank keeps only the
// panels relevant to its own tasks plus their assembly-tree ancestors,
// and pulls anything else on demand.
//
// This is a single-process simulation of an SPMD cluster, so the
// physical Symbolic and TaskGraph stay shared: the engines, BlockStore
// and the baseline read them directly. SymbolicView models only what
// each rank would retain: the residency sets, the per-rank byte
// accounting that bench_scale and bench_e2e read, and the pull protocol
// at the two sites that dereference another rank's panel (a factor
// signal and a solve message).
//
// Replicated (the default) keeps no residency bits: every panel is
// resident everywhere, touch() is a no-op, and every rank is charged the
// full footprint and the full serial analysis time. Sharded builds the
// residency bits in one ascending pass over the panels (see the
// constructor). Schedules, CommStats protocol counters and simulated
// times are identical in both modes: the relevance rules cover every
// panel a healthy run touches.
#pragma once

#include <cstdint>
#include <vector>

#include "symbolic/symbolic.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::pgas {
class Rank;
struct MachineModel;
}  // namespace sympack::pgas

namespace sympack::symbolic {

class SymbolicView {
 public:
  /// Replicated: every panel on every rank, no pulls; each rank is
  /// charged `build_wall_s`, the serial analysis every rank repeats.
  explicit SymbolicView(const TaskGraph& tg, double build_wall_s = 0.0);

  /// Sharded over `nranks` ranks. A rank keeps panel k when it
  ///   1. owns a block of k,
  ///   2. runs an update consuming one of k's blocks (a consumer),
  ///   3. owns a block of k's panel that targets panel t (it scatters
  ///      into t and receives t's solution segment): it keeps t,
  ///   4. owns the diagonal block of a panel t that one of k's blocks
  ///      targets (it receives k's forward-solve contribution to t),
  /// and every ancestor of a kept panel. Rule 4 adds nothing in fan-out,
  /// where that rank already runs U_{t,k,t}. Each rank's build time is
  /// its share of the sliced analysis plus the child exchanges it
  /// received (`stats`).
  SymbolicView(const TaskGraph& tg, const pgas::MachineModel& model,
               int nranks, const AnalyzeStats& stats);

  SymbolicView(const SymbolicView&) = delete;
  SymbolicView& operator=(const SymbolicView&) = delete;

  [[nodiscard]] bool sharded() const { return words_ != 0; }

  /// Record that `rank` dereferences panel k's metadata. On a sharded
  /// view a panel outside the rank's resident set costs one metadata
  /// RPC: the rank's clock advances by its round trip, the
  /// symbolic_pull_rpcs / symbolic_bytes counters grow, and the panel is
  /// resident (cached) from then on. A no-op when replicated.
  ///
  /// Residency is a cache, so touch() is const. In the threaded driver
  /// each rank touches from its own thread: the per-rank counters have
  /// one writer each, and a residency word shared by 64 ranks is set
  /// with an atomic fetch_or.
  void touch(pgas::Rank& rank, idx_t k) const;

  /// Is panel k's metadata resident on `rank`? Always true replicated.
  [[nodiscard]] bool resident(int rank, idx_t k) const;

  /// Symbolic metadata bytes `rank` retains: its resident panels'
  /// structure and task tables plus a per-rank directory. Replicated,
  /// every rank reports the full global footprint.
  [[nodiscard]] std::uint64_t resident_bytes(int rank) const;

  /// On-demand metadata pulls charged to `rank` so far.
  [[nodiscard]] std::uint64_t pull_rpcs(int rank) const;

  /// Simulated symbolic-phase time charged to `rank`.
  [[nodiscard]] double build_seconds(int rank) const;

 private:
  const pgas::MachineModel* model_ = nullptr;
  /// Residency words per panel, ceil(nranks / 64); 0 when replicated.
  std::size_t words_ = 0;
  /// Panel-major residency bits: rank r holds panel k iff bit r % 64 of
  /// bits_[k * words_ + r / 64] is set.
  mutable std::vector<std::uint64_t> bits_;
  /// Metadata bytes of each panel: what residency retains and what one
  /// pull transfers (sharded only).
  std::vector<std::uint64_t> panel_bytes_;
  /// Per-rank footprint and pull counts (sharded); [0] is every rank's
  /// footprint when replicated.
  mutable std::vector<std::uint64_t> resident_bytes_;
  mutable std::vector<std::uint64_t> pulls_;
  /// Per-rank build time (sharded); [0] is every rank's when replicated.
  std::vector<double> build_s_;
};

}  // namespace sympack::symbolic
