#include "core/checkpoint.hpp"

#include <cstddef>

#include "core/taskrt/stats.hpp"
#include "core/trace.hpp"

namespace sympack::core {

CheckpointStore::CheckpointStore(pgas::Runtime& rt, BlockStore& store,
                                 int replicas, Tracer* tracer)
    : rt_(&rt),
      store_(&store),
      replicas_(replicas),
      tracer_(tracer),
      saved_(static_cast<std::size_t>(store.num_blocks()), 0),
      copies_(static_cast<std::size_t>(store.num_blocks())) {
  if (store.numeric()) return;
  // Protocol-only: no replica buffers, but copy/rget charge each replica
  // transfer to and from its buddy like the real one.
  for (idx_t bid = 0; bid < store.num_blocks(); ++bid) {
    copies_[bid] = pgas::GlobalPtr{nullptr, buddy(bid), pgas::MemKind::kHost};
  }
}

CheckpointStore::~CheckpointStore() {
  for (idx_t bid = 0; bid < store_->num_blocks(); ++bid) {
    if (!copies_[bid].is_null()) {
      rt_->rank(buddy(bid)).deallocate(copies_[bid]);
    }
  }
}

void CheckpointStore::save(pgas::Rank& rank, idx_t bid) {
  if (replicas_ <= 0) return;
  const std::size_t nbytes = store_->bytes(bid);
  if (store_->numeric() && copies_[bid].is_null()) {
    // Replica lives in the buddy's shared segment, like any other
    // protocol buffer.
    copies_[bid] = rt_->rank(buddy(bid)).allocate_host(nbytes);
  }
  rank.copy(store_->gptr(bid), copies_[bid], nbytes);
  saved_[bid] = 1;
  ++rank.stats().ckpt_saves;
  if (tracer_ != nullptr) {
    tracer_->record(rank.id(), taskrt::kTrace_ckpt_saves, rank.now(),
                    rank.now());
  }
}

void CheckpointStore::restore(pgas::Rank& rank, idx_t bid) {
  rank.rget(copies_[bid], reinterpret_cast<std::byte*>(store_->data(bid)),
            store_->bytes(bid), pgas::MemKind::kHost);
  ++rank.stats().ckpt_restores;
  if (tracer_ != nullptr) {
    tracer_->record(rank.id(), taskrt::kTrace_ckpt_restores, rank.now(),
                    rank.now());
  }
}

void CheckpointStore::reset() {
  saved_.assign(saved_.size(), 0);
  // Replica buffers are kept: refactorize reuses them (same geometry).
}

}  // namespace sympack::core
