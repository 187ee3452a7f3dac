// Buddy checkpoint replication of completed factor panels (DESIGN.md
// §4h): the storage side of rank-death resilience.
//
// Every time an owner finishes a supernode factor panel (publish), it
// pushes one copy of the block to its *buddy* — rank (owner+1) mod P —
// over the same one-sided copy path the protocol already charges.  When
// a rank dies, the survivors hold a full replica of everything the
// victim had completed; recovery resurrects the victim, pulls those
// blocks back from the buddies, re-assembles the still-incomplete blocks
// from the original matrix, and re-drives the phase with the completed
// sub-DAG cut out (FactorEngine's warm start in core/factor.cpp, for
// both variants).
//
// Cost honesty: the replica buffers live in the buddy's shared segment
// (Rank::allocate_host) and every save/restore is charged like any other
// RMA — checkpointing shows up in the simulated makespan and in the
// ckpt_saves/ckpt_restores counters, which is exactly what the recovery
// overhead gate measures.  In protocol-only runs (BlockStore::numeric()
// false) no buffers exist: each replica is {nullptr, buddy, kHost}, and
// saves/restores go through the same copy/rget calls, which skip only the
// memcpy (injected transfer failures and retries included).
//
// Threading: save() runs on the owner's driving thread, restore() on the
// recovering thread after the drive loop has unwound — never
// concurrently, so the per-block state needs no locks (single-writer,
// like BlockStore data).
#pragma once

#include <vector>

#include "core/block_store.hpp"
#include "pgas/runtime.hpp"

namespace sympack::core {

class Tracer;

/// Replicates completed factor panels to each owner's buddy rank and
/// restores them after a death. One instance per solver, shared by every
/// factorization attempt (the replica set survives engine teardown).
class CheckpointStore {
 public:
  CheckpointStore(pgas::Runtime& rt, BlockStore& store,
                  Tracer* tracer = nullptr);
  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// The rank holding block `bid`'s replica.
  [[nodiscard]] int buddy(idx_t bid) const {
    return (store_->owner(bid) + 1) % rt_->nranks();
  }

  /// Owner-side: replicate completed panel `bid` to the buddy. Charged
  /// as a one-sided copy on `rank` (the owner); may throw TransferError
  /// under fault injection — call through Endpoint::with_retry.
  void save(pgas::Rank& rank, idx_t bid);

  /// Recovery-side: pull `bid`'s replica back into the (wiped) store
  /// block. `rank` is the rank driving recovery and takes the charge.
  void restore(pgas::Rank& rank, idx_t bid);

 private:
  pgas::Runtime* rt_;
  BlockStore* store_;
  Tracer* tracer_;
  std::vector<pgas::GlobalPtr> copies_;   // per-bid replica (null addr when
                                          // protocol-only)
};

/// Hand-off from the solver's recovery loop into a fresh engine: which
/// blocks were already complete when the rank died (their factor tasks
/// are cut out of the re-driven DAG and their data is re-published from
/// the restored store), and where the replicas live.
struct RecoveryContext {
  CheckpointStore* ckpt = nullptr;
  /// Per-block-id: 1 once the owning engine published the block. Marked
  /// during every attempt (so the *next* attempt knows what survived);
  /// consulted by the warm-start filters.
  std::vector<char> complete;
  /// Completed recovery attempts this phase (diagnostics).
  int attempt = 0;
};

}  // namespace sympack::core
