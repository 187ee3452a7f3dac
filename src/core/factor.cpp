#include "core/factor.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace sympack::core {

FactorEngine::FactorEngine(pgas::Runtime& rt, const symbolic::TaskGraph& tg,
                           const symbolic::SymbolicView& view,
                           BlockStore& store, Offload& offload,
                           const SolverOptions& opts, Tracer* tracer,
                           RecoveryContext* rec)
    : rt_(&rt), sym_(&tg.symbolic()), tg_(&tg), view_(&view), store_(&store),
      offload_(&offload),
      opts_(opts), fan_in_(tg.variant() == Variant::kFanIn),
      stats_(tracer, opts.trace.metadata), rec_(rec) {
  const symbolic::Symbolic& sym = *sym_;
  per_rank_.resize(rt.nranks());
  for (PerRank& pr : per_rank_) pr.rtq.set_policy(opts_.policy);
  net_.init(rt, opts_.fault, tracer, opts_.comm, opts_.resilience);
  // Supernodal elimination-tree depths for the critical-path policy.
  // The parent of a supernode holds its first below-row; parents have
  // larger indices, so a descending sweep resolves all depths.
  const idx_t ns = sym.num_snodes();
  snode_depth_.assign(ns, 0);
  for (idx_t k = ns - 1; k >= 0; --k) {
    const auto& below = sym.snode(k).below;
    if (!below.empty()) {
      snode_depth_[k] = snode_depth_[sym.snode_of(below.front())] + 1;
    }
  }
  goal_factor_.resize(rt.nranks());
  goal_update_.resize(rt.nranks());
  for (int r = 0; r < rt.nranks(); ++r) {
    goal_factor_[r] = tg.owned_factor_tasks(r);
    goal_update_[r] = tg.owned_update_tasks(r);
  }

  const idx_t nb = store.num_blocks();
  deps_.init(nb);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const idx_t nslots = 1 + static_cast<idx_t>(sym.snode(k).blocks.size());
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      const idx_t bid = store.block_id(k, slot);
      if (rec_ != nullptr && rec_->complete[bid] != 0) {
        // Warm start: the block's factor task already ran in a previous
        // attempt (data restored from the buddy checkpoint) — no deps,
        // no task, one less goal for the owner.
        deps_.set_count(bid, 0);
        --goal_factor_[store.owner(bid)];
        continue;
      }
      // F tasks additionally wait for the panel's diagonal factor.
      deps_.set_count(bid, static_cast<int>(tg.update_count(k, slot)) +
                               (slot == 0 ? 0 : 1));
      // Seed the RTQ: diagonal blocks with no incoming updates.
      if (slot == 0 && deps_.count(bid) == 0) {
        enqueue(per_rank_[store.owner(bid)],
                Task{TaskType::kDiag, k, 0, 0, 0, 0.0});
      }
    }
  }
  if (rec_ == nullptr && !fan_in_) return;
  // Sweep the update tasks. Those folding into a complete block never
  // re-run, so their ranks' termination goals shrink; in fan-in, each one
  // that runs is owed to its rank's aggregate for the target block.
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    const idx_t nbk = static_cast<idx_t>(sn.blocks.size());
    for (idx_t si = 1; si <= nbk; ++si) {
      for (idx_t ti = 1; ti <= si; ++ti) {
        const int r = tg.update_rank(sn.blocks[si - 1].target, k,
                                     sn.blocks[ti - 1].target);
        if (!update_needed(k, si, ti)) {
          --goal_update_[r];
        } else if (fan_in_) {
          ++per_rank_[r].aggs[update_target_bid(k, si, ti)].pending;
        }
      }
    }
  }
}

FactorEngine::~FactorEngine() {
  // An abnormal unwind (rank death mid-phase) can leave fetched blocks
  // parked in the use caches and sent aggregates unconsumed; free their
  // device and host allocations so the next attempt starts with the full
  // segments.
  for (int r = 0; r < static_cast<int>(per_rank_.size()); ++r) {
    pgas::Rank& rank = rt_->rank(r);
    per_rank_[r].cache.for_each([&rank](sparse::idx_t, RemoteFactor& rf) {
      if (!rf.device.is_null()) rank.deallocate(rf.device);
    });
    per_rank_[r].cache.clear();
  }
  free_out_buffers();
}

void FactorEngine::free_out_buffers() {
  for (int r = 0; r < static_cast<int>(per_rank_.size()); ++r) {
    for (auto& g : per_rank_[r].out_buffers) rt_->rank(r).deallocate(g);
    per_rank_[r].out_buffers.clear();
  }
}

idx_t FactorEngine::update_target_bid(idx_t k, idx_t si, idx_t ti) const {
  const auto& sn = sym_->snode(k);
  const idx_t t = sn.blocks[ti - 1].target;
  if (si == ti) return store_->block_id(t, 0);
  const idx_t s = sn.blocks[si - 1].target;
  return store_->block_id(t, sym_->find_block(t, s) + 1);
}

bool FactorEngine::update_needed(idx_t k, idx_t si, idx_t ti) const {
  return rec_ == nullptr || rec_->complete[update_target_bid(k, si, ti)] == 0;
}

void FactorEngine::run() {
  if (rec_ != nullptr) publish_restored();
  rt_->drive([this](pgas::Rank& rank) { return step(rank); },
             /*stall_limit=*/10000, opts_.interleave_seed);
  // Sent aggregates are consumed by their receivers before their ranks
  // report done.
  free_out_buffers();
}

void FactorEngine::publish_restored() {
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    const idx_t nslots = 1 + static_cast<idx_t>(sym_->snode(k).blocks.size());
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      const idx_t bid = store_->block_id(k, slot);
      if (rec_->complete[bid] != 0) {
        share(rt_->rank(store_->owner(bid)), k, slot);
      }
    }
  }
}

pgas::Step FactorEngine::step(pgas::Rank& rank) {
  PerRank& pr = per_rank_[rank.id()];
  int worked = rank.progress();
  // A killed rank stops participating: it holds no runnable state (die()
  // dropped its inbox) and must not touch the protocol again until the
  // recovery loop resurrects it.
  if (net_.recovery() && !rank.alive()) return pgas::Step::kIdle;

  const std::vector<Signal> sigs = net_.drain(rank.id());
  for (const Signal& sig : sigs) handle_signal(rank, sig);
  worked += static_cast<int>(sigs.size());

  if (!pr.rtq.empty()) {
    execute(rank, pr.rtq.pop());
    ++worked;
  }

  if (worked > 0) {
    net_.on_worked(rank.id());
    return pgas::Step::kWorked;
  }

  // Out of local work: push any coalescing outbox onto the wire now
  // rather than waiting out the age window (latency bound; also
  // guarantees nothing is parked when this rank declares itself done).
  if (rank.flush_signals() > 0) {
    net_.on_worked(rank.id());
    return pgas::Step::kWorked;
  }

  const int me = rank.id();
  const bool done = pr.done_factor == goal_factor_[me] &&
                    pr.done_update == goal_update_[me] &&
                    pr.rtq.empty() && !net_.has_pending(me) &&
                    !rank.has_pending_rpcs();
  if (done) return pgas::Step::kDone;
  net_.on_idle(rank);
  return pgas::Step::kIdle;
}

int FactorEngine::local_uses(int rank, idx_t k, BlockSlot slot) const {
  const auto& sn = sym_->snode(k);
  const auto& map = tg_->mapping();
  const idx_t nb = static_cast<idx_t>(sn.blocks.size());
  int uses = 0;
  if (slot == 0) {
    for (idx_t fs = 1; fs <= nb; ++fs) {
      if (map(sn.blocks[fs - 1].target, k) != rank) continue;
      if (rec_ != nullptr && rec_->complete[store_->block_id(k, fs)] != 0) {
        continue;  // that F task already ran in a previous attempt
      }
      ++uses;
    }
    return uses;
  }
  const idx_t si = slot;
  const idx_t s = sn.blocks[si - 1].target;
  for (idx_t ti = 1; ti <= si; ++ti) {
    if (tg_->update_rank(s, k, sn.blocks[ti - 1].target) == rank &&
        update_needed(k, si, ti)) {
      ++uses;
    }
  }
  for (idx_t si2 = si + 1; si2 <= nb; ++si2) {
    if (tg_->update_rank(sn.blocks[si2 - 1].target, k, s) == rank &&
        update_needed(k, si2, si)) {
      ++uses;
    }
  }
  return uses;
}

void FactorEngine::handle_signal(pgas::Rank& rank, const Signal& sig) {
  if (sig.from >= 0) {
    receive_aggregate(rank, sig);
    return;
  }
  // A signal dereferences the source panel's metadata on the consumer;
  // under a sharded view a non-resident panel costs one metadata pull
  // here (then caches).
  view_->touch(rank, sig.k);
  const int me = rank.id();
  const int uses = local_uses(me, sig.k, sig.slot);
  if (uses == 0) return;  // defensive; senders target consumers only

  const idx_t bid = store_->block_id(sig.k, sig.slot);
  const std::size_t bytes = store_->bytes(bid);
  const auto elems =
      static_cast<std::int64_t>(store_->nrows(bid)) * store_->ncols(bid);

  if (sig.eager_bytes > 0) {
    // Eager delivery: the block arrived inline with the signal (the
    // Rank layer already charged the wire bytes and arrival time), so
    // there is no pull rget and no device residency — eager targets the
    // latency-bound small blocks below the rendezvous threshold.
    RemoteFactor rf;
    rf.eager = sig.payload;
    rf.ref = FactorRef{sig.payload ? sig.payload.get() : nullptr, rank.now(),
                       false, bid};
    auto [entry, inserted] =
        per_rank_[me].cache.insert(bid, std::move(rf), uses);
    if (!inserted) return;  // duplicate signal: keep the original
    stats_.fetch_mark(me, sig.k, sig.slot, entry->ref.ready);
    deliver(rank, sig.k, sig.slot, entry->ref);
    return;
  }

  RemoteFactor rf;
  // Pull mode keeps fetched blocks on the host (DESIGN.md §4l).
  bool on_device = !fan_in_ && offload_->device_resident(elems);
  // Protocol-only runs allocate no landing buffer: rget gets a null dst.
  if (store_->numeric()) {
    if (on_device) {
      // "GPU block": fetch straight into device memory, skipping the
      // host staging hop (paper §4.2). Falls back to a host buffer when
      // the device segment is full.
      rf.device = rank.allocate_device(bytes, /*nothrow=*/true);
      if (rf.device.is_null()) {
        on_device = false;
        // Device share exhausted (or denied by the injector): take the
        // host staging path instead. Counted either way; traced only
        // under fault injection so fault-free traces stay byte-identical.
        ++rank.stats().oom_fallbacks;
        if (net_.recovery()) {
          stats_.mark(me, taskrt::kTrace_oom_fallbacks, rank.now());
        }
      }
    }
    if (!on_device) {
      rf.host = std::make_unique_for_overwrite<double[]>(
          static_cast<std::size_t>(elems));
    }
  }
  double* dst = on_device ? rf.device.local<double>() : rf.host.get();
  const double ready = net_.with_retry(rank, [&] {
    return rank.rget(store_->gptr(bid), reinterpret_cast<std::byte*>(dst),
                     bytes,
                     on_device ? pgas::MemKind::kDevice : pgas::MemKind::kHost);
  });
  rf.ref = FactorRef{dst, ready, on_device, bid};

  // Duplicate signals are deduplicated at the sender (recipients() is
  // sorted/unique), but a protocol bug must not silently shrink the
  // shared device segment: UseCache::insert keeps the original entry, so
  // free the copy we just fetched instead of leaking the device
  // allocation and re-delivering.
  const pgas::GlobalPtr fetched_device = rf.device;
  auto [entry, inserted] = per_rank_[me].cache.insert(bid, std::move(rf), uses);
  if (!inserted) {
    if (!fetched_device.is_null()) rank.deallocate(fetched_device);
    return;
  }
  stats_.fetch_mark(me, sig.k, sig.slot, ready);
  deliver(rank, sig.k, sig.slot, entry->ref);
}

void FactorEngine::receive_aggregate(pgas::Rank& rank, const Signal& sig) {
  if (sig.eager_bytes > 0) {
    // Eager: the aggregate arrived inline (wire bytes and arrival time
    // already charged at the Rank layer); fold it in directly.
    apply_aggregate(rank, sig.k, sig.slot,
                    sig.payload ? sig.payload.get() : nullptr, rank.now());
    return;
  }
  // Pull the aggregate from the sender's staging buffer.
  const std::size_t bytes = store_->bytes(store_->block_id(sig.k, sig.slot));
  const double ready = rank.transfer_completion(
      bytes, sig.from, pgas::MemKind::kHost, pgas::MemKind::kHost);
  rank.advance(rt_->model().rma_issue_s);
  ++rank.stats().gets;
  rank.stats().bytes_from_host += bytes;
  rank.merge_clock(std::max(sig.sent, rank.now()));
  apply_aggregate(rank, sig.k, sig.slot, sig.data, ready);
}

void FactorEngine::deliver(pgas::Rank& rank, idx_t k, BlockSlot slot,
                           const FactorRef& ref) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const auto& sn = sym_->snode(k);
  const auto& map = tg_->mapping();
  const idx_t nb = static_cast<idx_t>(sn.blocks.size());

  if (slot == 0) {
    // Diagonal factor L_{k,k}: enables the panel's F tasks owned here.
    pr.diag_ref[k] = ref;
    for (idx_t fs = 1; fs <= nb; ++fs) {
      if (map(sn.blocks[fs - 1].target, k) != me) continue;
      const idx_t bid = store_->block_id(k, fs);
      if (rec_ != nullptr && rec_->complete[bid] != 0) continue;
      if (deps_.satisfy(bid, ref.ready)) {
        enqueue(pr, Task{TaskType::kFactor, k, fs, 0, 0, deps_.ready(bid)});
      }
    }
    return;
  }

  const idx_t si = slot;
  const idx_t s = sn.blocks[si - 1].target;
  // As the source operand of U_{s,k,t}, t <= s (includes the SYRK task
  // at ti == si, which has a single operand).
  for (idx_t ti = 1; ti <= si; ++ti) {
    if (tg_->update_rank(s, k, sn.blocks[ti - 1].target) == me &&
        update_needed(k, si, ti)) {
      satisfy_update(rank, k, si, ti, ref, /*as_source=*/true);
    }
  }
  // As the pivot operand of U_{s',k,s}, s' > s (strictly, so the SYRK
  // task is not double-counted).
  for (idx_t si2 = si + 1; si2 <= nb; ++si2) {
    if (tg_->update_rank(sn.blocks[si2 - 1].target, k, s) == me &&
        update_needed(k, si2, si)) {
      satisfy_update(rank, k, si2, si, ref, /*as_source=*/false);
    }
  }
}

void FactorEngine::satisfy_update(pgas::Rank& rank, idx_t j, idx_t si,
                                  idx_t ti, const FactorRef& ref,
                                  bool as_source) {
  PerRank& pr = per_rank_[rank.id()];
  const std::uint64_t key = ukey(j, si, ti);
  auto [it, inserted] = pr.pending_updates.try_emplace(key);
  UpdateState& st = it->second;
  if (inserted) st.remaining = (si == ti) ? 1 : 2;
  if (as_source) {
    st.src = ref;
    if (si == ti) st.piv = ref;  // SYRK: one block plays both roles
  } else {
    st.piv = ref;
  }
  if (--st.remaining == 0) {
    const double ready = std::max(st.src.ready, st.piv.ready);
    enqueue(pr, Task{TaskType::kUpdate, j, 0, si, ti, ready});
  }
}

void FactorEngine::publish(pgas::Rank& rank, idx_t k, BlockSlot slot) {
  ++per_rank_[rank.id()].done_factor;
  if (rec_ != nullptr) {
    // Resilience: the finished panel is now part of the completed
    // sub-DAG (a later attempt will not re-run it) and its bytes are
    // replicated to the buddy before any consumer depends on them.
    const idx_t bid = store_->block_id(k, slot);
    rec_->complete[bid] = 1;
    if (rec_->ckpt != nullptr) {
      net_.with_retry(rank, [&] {
        rec_->ckpt->save(rank, bid);
        return rank.now();
      });
    }
  }
  share(rank, k, slot);
}

void FactorEngine::share(pgas::Rank& rank, idx_t k, BlockSlot slot) {
  const idx_t bid = store_->block_id(k, slot);
  // Local consumers are satisfied directly (no message, data in place).
  if (local_uses(rank.id(), k, slot) > 0) {
    deliver(rank, k, slot,
            FactorRef{store_->data(bid), rank.now(), false, -1});
  }
  // Remote consumers get a signal RPC (Fig. 4 step 1); they will pull
  // the block with a one-sided get when they next poll — unless the
  // block is small enough for the eager protocol, in which case the
  // data rides inside the signal and the pull round trip is skipped.
  const std::vector<int>* recipients = &tg_->recipients(k, slot);
  std::vector<int> pending;
  if (rec_ != nullptr) {
    for (int r : *recipients) {
      if (local_uses(r, k, slot) > 0) pending.push_back(r);
    }
    recipients = &pending;
  }
  if (recipients->empty()) return;
  const std::size_t bytes = store_->bytes(bid);
  Signal sig{k, slot};
  if (net_.eager(bytes)) {
    sig.eager_bytes = static_cast<std::uint32_t>(bytes);
    if (store_->numeric()) {
      // One shared buffer serves every recipient (the signal copies
      // share it); it is freed when the last consumer's uses drain.
      auto buf = pgas::shared_host_buffer(rank, bytes / sizeof(double));
      std::memcpy(buf.get(), store_->data(bid), bytes);
      sig.payload = std::move(buf);
    }
  }
  for (int r : *recipients) net_.send(rank, r, sig);
}

void FactorEngine::execute(pgas::Rank& rank, const Task& task) {
  rank.merge_clock(task.ready);
  const double begin = rank.now();
  switch (task.type) {
    case TaskType::kDiag: execute_diag(rank, task); break;
    case TaskType::kFactor: execute_factor(rank, task); break;
    case TaskType::kUpdate: execute_update(rank, task); break;
  }
  if (stats_.tracing()) {
    switch (task.type) {
      case TaskType::kDiag:
        stats_.task_span(rank.id(), taskrt::TaskTag::kDiag, task.k, 0, 0,
                         begin, rank.now());
        break;
      case TaskType::kFactor:
        stats_.task_span(rank.id(), taskrt::TaskTag::kFactor, task.k,
                         task.slot, 0, begin, rank.now());
        break;
      case TaskType::kUpdate: {
        // Dependency-edge hint for the analyzer (metadata builds only):
        // the block this update folded into — (t, 0) for the SYRK task,
        // (t, slot of row-block s) for GEMM — names the D/F task it
        // helps unlock.
        idx_t tgt = -1, tgt_slot = -1;
        if (stats_.metadata()) {
          const auto& sn = sym_->snode(task.k);
          const idx_t s = sn.blocks[task.si - 1].target;
          const idx_t t = sn.blocks[task.ti - 1].target;
          tgt = t;
          tgt_slot = (task.si == task.ti) ? 0 : sym_->find_block(t, s) + 1;
        }
        stats_.task_span(rank.id(), taskrt::TaskTag::kUpdate, task.k, task.si,
                         task.ti, begin, rank.now(), tgt, tgt_slot);
        break;
      }
    }
  }
}

void FactorEngine::execute_diag(pgas::Rank& rank, const Task& task) {
  const auto& sn = sym_->snode(task.k);
  const int w = static_cast<int>(sn.width());
  const idx_t bid = store_->block_id(task.k, 0);
  const int info = offload_->run_potrf(rank, w, store_->data(bid), w);
  if (info != 0) throw NotPositiveDefiniteError(sn.first + info - 1);
  publish(rank, task.k, 0);
}

void FactorEngine::execute_factor(pgas::Rank& rank, const Task& task) {
  PerRank& pr = per_rank_[rank.id()];
  const auto& sn = sym_->snode(task.k);
  const int w = static_cast<int>(sn.width());
  const idx_t bid = store_->block_id(task.k, task.slot);
  const int m = static_cast<int>(store_->nrows(bid));

  const auto diag_it = pr.diag_ref.find(task.k);
  if (diag_it == pr.diag_ref.end()) {
    throw std::logic_error("FactorEngine: F task ran before its diagonal");
  }
  const FactorRef diag = diag_it->second;  // copy: publish may rehash
  offload_->run_trsm(rank, m, w, diag.data, w, store_->data(bid), m,
                     diag.on_device);
  publish(rank, task.k, task.slot);
  // Each F task accounts for one use of the (possibly remote, possibly
  // device-resident) diagonal factor; the cache entry is freed with the
  // last one.
  release_ref(rank, diag);
}

void FactorEngine::execute_update(pgas::Rank& rank, const Task& task) {
  PerRank& pr = per_rank_[rank.id()];
  const idx_t j = task.k;
  const auto& sn = sym_->snode(j);
  const int w = static_cast<int>(sn.width());

  const auto it = pr.pending_updates.find(ukey(j, task.si, task.ti));
  if (it == pr.pending_updates.end()) {
    throw std::logic_error("FactorEngine: update task without state");
  }
  const UpdateState st = it->second;
  pr.pending_updates.erase(it);

  const auto& sblk = sn.blocks[task.si - 1];
  const auto& tblk = sn.blocks[task.ti - 1];
  const idx_t s = sblk.target;
  const idx_t t = tblk.target;
  const int m = static_cast<int>(sblk.nrows);
  const int np = static_cast<int>(tblk.nrows);
  const BlockSlot tslot = (s == t) ? 0 : sym_->find_block(t, s) + 1;
  const idx_t tbid = store_->block_id(t, tslot);
  const bool numeric = store_->numeric();

  // Push mode folds the product into the target block in place; pull
  // mode into this rank's aggregate for it.
  Aggregate* agg = nullptr;
  double* target = numeric ? store_->data(tbid) : nullptr;
  if (fan_in_) {
    agg = &pr.aggs.at(tbid);
    if (numeric && agg->buf.empty()) {
      agg->buf.assign(store_->bytes(tbid) / sizeof(double), 0.0);
    }
    target = agg->buf.data();
  }

  // SYRK (s == t) updates the diagonal block of t with an m x m product;
  // GEMM updates block B_{s,t} with an m x np one.
  const int cols = (s == t) ? m : np;
  double* product =
      numeric ? pr.product.get(static_cast<std::size_t>(m) * cols) : nullptr;
  if (s == t) {
    offload_->run_syrk(rank, m, w, st.src.data, m, product, m,
                       st.src.on_device);
  } else {
    offload_->run_gemm(rank, m, np, w, st.src.data, m, st.piv.data, np,
                       product, m, st.src.on_device, st.piv.on_device);
  }
  if (numeric) {
    store_->scatter_update(j, task.si, task.ti, tslot, product, target,
                           pr.offsets);
  }
  offload_->charge_scatter(
      rank, sizeof(double) * static_cast<std::size_t>(m) * cols);

  if (!fan_in_) {
    complete_target_update(rank, t, tslot, rank.now());
  } else if (--agg->pending == 0) {
    flush_aggregate(rank, t, tslot);
  }
  ++pr.done_update;
  release_ref(rank, st.src);
  if (task.si != task.ti) release_ref(rank, st.piv);
}

void FactorEngine::flush_aggregate(pgas::Rank& rank, idx_t t,
                                   BlockSlot slot) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const idx_t bid = store_->block_id(t, slot);
  const auto it = pr.aggs.find(bid);
  const double* buf = it->second.buf.empty() ? nullptr : it->second.buf.data();
  const int owner = store_->owner(bid);
  if (owner == me) {
    apply_aggregate(rank, t, slot, buf, rank.now());
  } else {
    // Send the aggregate (one message carrying the whole block
    // contribution, §2.3's second message type). Small aggregates go
    // eager — inlined into the signal, no staging buffer and no pull on
    // the receiver; larger ones are staged in a host buffer the receiver
    // pulls from.
    const std::size_t bytes = store_->bytes(bid);
    Signal sig{t, slot};
    sig.from = me;
    if (net_.eager(bytes)) {
      sig.eager_bytes = static_cast<std::uint32_t>(bytes);
      if (store_->numeric()) {
        auto payload = pgas::shared_host_buffer(rank, bytes / sizeof(double));
        std::memcpy(payload.get(), buf, bytes);
        sig.payload = std::move(payload);
      }
    } else if (store_->numeric()) {
      auto g = rank.allocate_host(bytes);
      std::memcpy(g.addr, buf, bytes);
      pr.out_buffers.push_back(g);
      sig.data = g.local<double>();
    }
    sig.sent = rank.now();
    net_.send(rank, owner, sig);
  }
  pr.aggs.erase(it);
}

void FactorEngine::apply_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                                   const double* buf, double ready) {
  const idx_t bid = store_->block_id(t, slot);
  if (store_->numeric() && buf != nullptr) {
    // The aggregate holds the (negative) update sum to be added.
    double* target = store_->data(bid);
    const std::size_t elems = store_->bytes(bid) / sizeof(double);
    for (std::size_t i = 0; i < elems; ++i) target[i] += buf[i];
  }
  offload_->charge_scatter(rank, store_->bytes(bid));
  complete_target_update(rank, t, slot, std::max(ready, rank.now()));
}

void FactorEngine::complete_target_update(pgas::Rank& rank, idx_t t,
                                          BlockSlot slot, double ready) {
  const idx_t bid = store_->block_id(t, slot);
  if (deps_.satisfy(bid, ready)) {
    enqueue(per_rank_[rank.id()],
            Task{slot == 0 ? TaskType::kDiag : TaskType::kFactor, t, slot,
                 0, 0, deps_.ready(bid)});
  }
}

void FactorEngine::release_ref(pgas::Rank& rank, const FactorRef& ref) {
  if (ref.cache_bid < 0) return;
  per_rank_[rank.id()].cache.release(ref.cache_bid, [&rank](RemoteFactor& rf) {
    if (!rf.device.is_null()) rank.deallocate(rf.device);
  });
}

idx_t FactorEngine::task_depth(const Task& task) const {
  if (task.type != TaskType::kUpdate) return snode_depth_[task.k];
  const auto& sn = sym_->snode(task.k);
  return snode_depth_[sn.blocks[task.ti - 1].target];
}

void FactorEngine::enqueue(PerRank& pr, const Task& task) {
  // kPriority: lowest supernode first (drains the bottom of the
  // elimination tree, which feeds the critical path). kCriticalPath:
  // deepest target supernode first (the task whose result feeds the
  // longest remaining elimination-tree chain). The queue itself only
  // orders by this number (core/taskrt/ready_queue.hpp).
  std::int64_t prio = 0;
  if (opts_.policy == Policy::kPriority) {
    prio = -static_cast<std::int64_t>(task.k);
  } else if (opts_.policy == Policy::kCriticalPath) {
    prio = static_cast<std::int64_t>(task_depth(task));
  }
  pr.rtq.push(task, prio);
}

}  // namespace sympack::core
