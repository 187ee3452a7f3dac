// Static task-graph analysis (paper §3.2/§3.3).
//
// The numeric factorization runs three task types:
//   D_k       factor the diagonal block of supernode k            (POTRF)
//   F_{s,k}   factor off-diagonal block B_{s,k}                   (TRSM)
//   U_{s,j,t} update B_{s,t} with L_{s,j} * L_{t,j}^T         (SYRK/GEMM)
// U_{s,j,t} exists for every panel j and every ordered pair of its blocks
// (t <= s). Which rank executes it is the one decision that separates
// the two members of Ashcraft's taxonomy (paper §2.3) the solver runs,
// and update_rank() is its only home: fan-out runs it on the owner of the
// *target* block B_{s,t}, so factor blocks are broadcast to the updates;
// fan-in runs it on the owner of the *source* block L_{s,j}, so each rank
// sums its updates to a block into one aggregate and sends that instead.
//
// This class precomputes, for a given block->process mapping and variant:
//   - the update contributions every block waits for (the initial
//     dependency counters of the D and F tasks),
//   - per-rank task totals (termination detection),
//   - the recipient sets P_F and P_D of every factor block (who must be
//     signalled when it completes). The sets are materialized once at
//     build and served as const references — recipients() sits on the
//     per-signal hot path of the factorization engine.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "symbolic/mapping.hpp"
#include "symbolic/symbolic.hpp"

namespace sympack::symbolic {

/// Identifies a block within its panel: slot 0 is the diagonal block,
/// slot b+1 is Supernode::blocks[b].
using BlockSlot = idx_t;

/// Which member of Ashcraft's algorithm taxonomy (paper §2.3) runs the
/// numeric phase. The paper's symPACK is fan-out; fan-in is kept for the
/// algorithm-family ablation.
enum class Variant { kFanOut, kFanIn };

class TaskGraph {
 public:
  /// The mapping is shared, not copied: every consumer of the graph
  /// (engines, recovery, autotune pilots) reads the same immutable
  /// Mapping instance through mapping()/mapping_ptr().
  TaskGraph(const Symbolic& sym, std::shared_ptr<const Mapping> map,
            Variant variant = Variant::kFanOut);
  TaskGraph(const Symbolic& sym, const Mapping& map,
            Variant variant = Variant::kFanOut);

  [[nodiscard]] const Symbolic& symbolic() const { return *sym_; }
  [[nodiscard]] const Mapping& mapping() const { return *map_; }
  [[nodiscard]] std::shared_ptr<const Mapping> mapping_ptr() const {
    return map_;
  }

  [[nodiscard]] Variant variant() const { return variant_; }

  /// The rank that runs U_{s,j,t}: the owner of B_{s,t} (fan-out) or of
  /// L_{s,j} (fan-in).
  [[nodiscard]] int update_rank(idx_t s, idx_t j, idx_t t) const {
    return variant_ == Variant::kFanOut ? (*map_)(s, t) : (*map_)(s, j);
  }

  /// Update contributions block `slot` of supernode k waits for: one per
  /// update task targeting it (fan-out), one aggregate per distinct rank
  /// running such a task (fan-in).
  [[nodiscard]] idx_t update_count(idx_t k, BlockSlot slot) const {
    return ucount_[k][slot];
  }

  /// Owner rank of block slot of supernode k.
  [[nodiscard]] int owner(idx_t k, BlockSlot slot) const;

  /// Per-rank totals for termination detection (update tasks are counted
  /// at update_rank()).
  [[nodiscard]] idx_t owned_factor_tasks(int rank) const {
    return owned_f_[rank];
  }
  [[nodiscard]] idx_t owned_update_tasks(int rank) const {
    return owned_u_[rank];
  }

  [[nodiscard]] idx_t total_updates() const { return total_u_; }
  [[nodiscard]] idx_t total_factor_tasks() const { return total_f_; }

  /// Ranks that must be notified when factor block (k, slot) completes
  /// (paper's P_F for off-diagonal blocks, P_D for slot 0), excluding the
  /// owner itself. Sorted, deduplicated. Precomputed at build; the
  /// reference stays valid for the graph's lifetime.
  [[nodiscard]] const std::vector<int>& recipients(idx_t k,
                                                   BlockSlot slot) const {
    return recipients_[k][slot];
  }

  /// Ranks (including the owner if it has such tasks) that execute
  /// updates consuming factor block (k, slot); recipients() is this set
  /// minus the owner for off-diagonal blocks, plus F-task owners for the
  /// diagonal. Exposed for tests.
  [[nodiscard]] const std::vector<int>& consumers(idx_t k,
                                                  BlockSlot slot) const {
    return consumers_[k][slot];
  }

  /// Bytes of per-panel task-graph tables (update-count row plus the
  /// recipient/consumer lists of every slot) — the table share of what a
  /// sharded view retains for a resident panel.
  [[nodiscard]] std::size_t panel_table_bytes(idx_t k) const;

 private:
  void build_consumer_tables();

  const Symbolic* sym_;
  std::shared_ptr<const Mapping> map_;
  Variant variant_;
  std::vector<std::vector<idx_t>> ucount_;  // [snode][slot]
  std::vector<std::vector<std::vector<int>>> consumers_;   // [snode][slot]
  std::vector<std::vector<std::vector<int>>> recipients_;  // [snode][slot]
  std::vector<idx_t> owned_f_;
  std::vector<idx_t> owned_u_;
  idx_t total_u_ = 0;
  idx_t total_f_ = 0;
};

}  // namespace sympack::symbolic
