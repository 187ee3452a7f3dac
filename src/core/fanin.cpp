#include "core/fanin.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "pgas/pool.hpp"

namespace sympack::core {

FanInEngine::FanInEngine(pgas::Runtime& rt, const symbolic::SymbolicView& sym,
                         const symbolic::TaskGraphView& tg, BlockStore& store,
                         Offload& offload, const SolverOptions& opts,
                         Tracer* tracer, RecoveryContext* rec)
    : rt_(&rt), sym_(&sym), tg_(&tg), store_(&store), offload_(&offload),
      opts_(opts), stats_(tracer, opts.trace.metadata), rec_(rec) {
  per_rank_.resize(rt.nranks());
  net_.init(rt, opts_.fault, tracer, opts_.comm, opts_.resilience);
  owned_u_.assign(rt.nranks(), 0);
  const idx_t nb = store.num_blocks();
  deps_.init(nb);
  bid_snode_.resize(nb);
  goal_factor_.resize(rt.nranks());
  for (int r = 0; r < rt.nranks(); ++r) {
    goal_factor_[r] = tg.owned_factor_tasks(r);
  }

  const auto& map = tg.mapping();
  std::vector<std::unordered_set<int>> producers(nb);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const idx_t nslots = 1 + static_cast<idx_t>(sym.snode(k).blocks.size());
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      bid_snode_[store.block_id(k, slot)] = k;
    }
  }
  // Sweep the update tasks: producer = owner of the source block. On a
  // recovery attempt, updates folding into an already-complete block are
  // skipped entirely — their producers owe nothing, so the aggregate
  // pending counts, the producer sets (dependency counters), and the
  // per-rank update goals all shrink consistently.
  for (idx_t j = 0; j < sym.num_snodes(); ++j) {
    const auto& sn = sym.snode(j);
    const idx_t nbk = static_cast<idx_t>(sn.blocks.size());
    for (idx_t ti = 0; ti < nbk; ++ti) {
      const idx_t t = sn.blocks[ti].target;
      for (idx_t si = ti; si < nbk; ++si) {
        const idx_t s = sn.blocks[si].target;
        const int producer = map(s, j);
        BlockSlot slot = 0;
        if (s != t) slot = sym.find_block(t, s) + 1;
        const idx_t bid = store.block_id(t, slot);
        if (rec_ != nullptr && rec_->complete[bid] != 0) continue;
        producers[bid].insert(producer);
        ++per_rank_[producer].aggs[bid].pending;
        ++owned_u_[producer];
      }
    }
  }
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const idx_t nslots = 1 + static_cast<idx_t>(sym.snode(k).blocks.size());
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      const idx_t bid = store.block_id(k, slot);
      if (rec_ != nullptr && rec_->complete[bid] != 0) {
        deps_.set_count(bid, 0);
        --goal_factor_[store.owner(bid)];
        continue;
      }
      deps_.set_count(bid, static_cast<int>(producers[bid].size()) +
                               (slot == 0 ? 0 : 1));
      if (slot == 0 && deps_.count(bid) == 0) {
        per_rank_[store.owner(bid)].rtq.push(
            Task{TaskType::kDiag, k, 0, 0, 0, 0.0});
      }
    }
  }
}

FanInEngine::~FanInEngine() {
  // An abnormal unwind (rank death mid-phase) can leave sent aggregate
  // staging buffers unreturned; run() frees them on normal completion.
  for (int r = 0; r < rt_->nranks(); ++r) {
    for (auto& g : per_rank_[r].out_buffers) rt_->rank(r).pool_deallocate(g);
    per_rank_[r].out_buffers.clear();
  }
}

idx_t FanInEngine::update_target_bid(idx_t k, idx_t si, idx_t ti) const {
  const auto& sn = sym_->snode(k);
  const idx_t t = sn.blocks[ti - 1].target;
  if (si == ti) return store_->block_id(t, 0);
  const idx_t s = sn.blocks[si - 1].target;
  return store_->block_id(t, sym_->find_block(t, s) + 1);
}

bool FanInEngine::update_needed(idx_t k, idx_t si, idx_t ti) const {
  return rec_ == nullptr || rec_->complete[update_target_bid(k, si, ti)] == 0;
}

void FanInEngine::publish_restored() {
  const auto& map = tg_->mapping();
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    const auto& sn = sym_->snode(k);
    const idx_t nbk = static_cast<idx_t>(sn.blocks.size());
    for (BlockSlot slot = 0; slot <= nbk; ++slot) {
      const idx_t bid = store_->block_id(k, slot);
      if (rec_->complete[bid] == 0) continue;
      pgas::Rank& owner = rt_->rank(store_->owner(bid));
      const int me = owner.id();
      const PivotRef local_ref{store_->data(bid), owner.now(), -1};
      std::vector<int> recipients;
      if (slot == 0) {
        // Restored diagonal: enables the panel's still-pending F tasks.
        bool local = false;
        for (idx_t fs = 1; fs <= nbk; ++fs) {
          const idx_t fbid = store_->block_id(k, fs);
          if (rec_->complete[fbid] != 0) continue;
          const int o = map(sn.blocks[fs - 1].target, k);
          if (o == me) {
            local = true;
          } else {
            recipients.push_back(o);
          }
        }
        if (local) deliver_pivot(owner, k, 0, local_ref);
      } else {
        // Restored off-diagonal: source operand of the owner's own
        // still-needed updates, pivot operand of the others'.
        for (idx_t ti = 1; ti <= slot; ++ti) {
          if (update_needed(k, slot, ti)) {
            satisfy_update(owner, k, slot, ti, local_ref, /*as_source=*/true);
          }
        }
        bool local_pivot = false;
        for (idx_t si2 = slot + 1; si2 <= nbk; ++si2) {
          if (!update_needed(k, si2, slot)) continue;
          const int o = map(sn.blocks[si2 - 1].target, k);
          if (o == me) {
            local_pivot = true;
          } else {
            recipients.push_back(o);
          }
        }
        if (local_pivot) deliver_pivot(owner, k, slot, local_ref);
      }
      std::sort(recipients.begin(), recipients.end());
      recipients.erase(std::unique(recipients.begin(), recipients.end()),
                       recipients.end());
      send_pivot(owner, k, slot, recipients);
    }
  }
}

void FanInEngine::run() {
  if (rec_ != nullptr) publish_restored();
  rt_->drive([this](pgas::Rank& rank) { return step(rank); },
             /*stall_limit=*/10000, opts_.interleave_seed);
  // Sent aggregate buffers are consumed by their receivers before their
  // ranks report done; return them (pool-allocated) now.
  for (int r = 0; r < rt_->nranks(); ++r) {
    for (auto& g : per_rank_[r].out_buffers) rt_->rank(r).pool_deallocate(g);
    per_rank_[r].out_buffers.clear();
  }
}

pgas::Step FanInEngine::step(pgas::Rank& rank) {
  PerRank& pr = per_rank_[rank.id()];
  int worked = rank.progress();
  // A killed rank stops participating until the recovery loop
  // resurrects it (same contract as the fan-out engine).
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
  // Out of local work: flush any coalescing outbox before the done
  // check (nothing may stay parked on a rank that declares done).
  if (rank.flush_signals() > 0) {
    net_.on_worked(rank.id());
    return pgas::Step::kWorked;
  }
  const int me = rank.id();
  const bool done = pr.done_factor == goal_factor_[me] &&
                    pr.done_update == owned_u_[me] && pr.rtq.empty() &&
                    !net_.has_pending(me) && !rank.has_pending_rpcs();
  if (done) return pgas::Step::kDone;
  net_.on_idle(rank);
  return pgas::Step::kIdle;
}

std::pair<idx_t, BlockSlot> FanInEngine::locate(idx_t bid) const {
  const idx_t k = bid_snode_[bid];
  return {k, bid - store_->block_id(k, 0)};
}

void FanInEngine::handle_signal(pgas::Rank& rank, const Signal& sig) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  if (sig.type == Signal::Type::kAggregate) {
    if (sig.eager_bytes > 0) {
      // Eager: the aggregate vector arrived inline (wire bytes and
      // arrival already charged at the Rank layer); fold it in
      // directly. Link-level dedup has already filtered duplicates —
      // apply_aggregate stays non-idempotent-safe.
      apply_aggregate(rank, sig.bid,
                      sig.payload ? sig.payload.get() : nullptr, rank.now());
      return;
    }
    // Pull the aggregate vector and fold it into the target block.
    const std::size_t bytes = store_->bytes(sig.bid);
    // The sender is the only rank with a pending aggregate for this
    // block that is not us; its identity travels with k (reused field).
    const int sender = static_cast<int>(sig.k);
    const double t = rank.transfer_completion(
        bytes, sender, pgas::MemKind::kHost, pgas::MemKind::kHost);
    rank.advance(rt_->model().rma_issue_s);
    ++rank.stats().gets;
    rank.stats().bytes_from_host += bytes;
    rank.merge_clock(std::max(sig.sent, rank.now()));
    apply_aggregate(rank, sig.bid, sig.data, t);
    return;
  }

  // kPivot: a factor block of panel sig.k arrived for local U (or F) use.
  // Consuming it dereferences the panel's metadata; a sharded view
  // charges a pull here when the panel is not resident (aggregates land
  // on the target block's owner, which is always resident).
  tg_->touch(rank, sig.k);
  int uses = 0;
  const auto& sn = sym_->snode(sig.k);
  const auto& map = tg_->mapping();
  const idx_t nbk = static_cast<idx_t>(sn.blocks.size());
  if (sig.slot == 0) {
    for (idx_t fs = 1; fs <= nbk; ++fs) {
      if (map(sn.blocks[fs - 1].target, sig.k) != me) continue;
      if (rec_ != nullptr &&
          rec_->complete[store_->block_id(sig.k, fs)] != 0) {
        continue;  // that F task already ran in a previous attempt
      }
      ++uses;
    }
  } else {
    for (idx_t si2 = sig.slot + 1; si2 <= nbk; ++si2) {
      if (map(sn.blocks[si2 - 1].target, sig.k) == me &&
          update_needed(sig.k, si2, sig.slot)) {
        ++uses;
      }
    }
  }
  if (uses == 0) return;

  const idx_t bid = store_->block_id(sig.k, sig.slot);
  const std::size_t bytes = store_->bytes(bid);

  if (sig.eager_bytes > 0) {
    // Eager: the pivot block arrived inline with the signal.
    RemotePivot rp;
    rp.eager = sig.payload;
    rp.ref = PivotRef{sig.payload ? sig.payload.get() : nullptr, rank.now(),
                      bid};
    auto [entry, inserted] = pr.cache.insert(bid, std::move(rp), uses);
    if (!inserted) return;
    stats_.fetch_mark(me, sig.k, sig.slot, entry->ref.ready);
    deliver_pivot(rank, sig.k, sig.slot, entry->ref);
    return;
  }

  RemotePivot rp;
  double ready;
  if (store_->numeric()) {
    rp.host = std::make_unique_for_overwrite<double[]>(bytes / sizeof(double));
    ready = net_.with_retry(rank, [&] {
      return rank.rget(store_->gptr(bid),
                       reinterpret_cast<std::byte*>(rp.host.get()), bytes,
                       pgas::MemKind::kHost);
    });
    rp.ref = PivotRef{rp.host.get(), ready, bid};
  } else {
    ready = rank.transfer_completion(bytes, store_->owner(bid),
                                     pgas::MemKind::kHost,
                                     pgas::MemKind::kHost);
    rank.advance(rt_->model().rma_issue_s);
    ++rank.stats().gets;
    rank.stats().bytes_from_host += bytes;
    rp.ref = PivotRef{nullptr, ready, bid};
  }
  // Pivot signals are deduplicated at the sender; if a duplicate ever
  // arrives the block is already cached, so drop the refetch instead of
  // re-delivering (which would corrupt the dependency counters).
  auto [entry, inserted] = pr.cache.insert(bid, std::move(rp), uses);
  if (!inserted) return;
  stats_.fetch_mark(me, sig.k, sig.slot, ready);
  deliver_pivot(rank, sig.k, sig.slot, entry->ref);
}

void FanInEngine::deliver_pivot(pgas::Rank& rank, idx_t k, BlockSlot slot,
                                const PivotRef& ref) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const auto& sn = sym_->snode(k);
  const auto& map = tg_->mapping();
  const idx_t nbk = static_cast<idx_t>(sn.blocks.size());

  if (slot == 0) {
    // Diagonal factor: enables local F tasks of panel k (counted in the
    // target block's dependency tracker, exactly as in fan-out).
    pr.diag_ref[k] = ref;
    for (idx_t fs = 1; fs <= nbk; ++fs) {
      if (map(sn.blocks[fs - 1].target, k) != me) continue;
      const idx_t bid = store_->block_id(k, fs);
      if (rec_ != nullptr && rec_->complete[bid] != 0) continue;
      if (deps_.satisfy(bid, ref.ready)) {
        pr.rtq.push(Task{TaskType::kFactor, k, fs, 0, 0, deps_.ready(bid)});
      }
    }
    return;
  }

  // Off-diagonal factor block (s, k): pivot operand of U(k, si2, slot)
  // for all si2 > slot owned here.
  for (idx_t si2 = slot + 1; si2 <= nbk; ++si2) {
    if (map(sn.blocks[si2 - 1].target, k) == me &&
        update_needed(k, si2, slot)) {
      satisfy_update(rank, k, si2, slot, ref, /*as_source=*/false);
    }
  }
}

void FanInEngine::satisfy_update(pgas::Rank& rank, idx_t j, idx_t si,
                                 idx_t ti, const PivotRef& ref,
                                 bool as_source) {
  PerRank& pr = per_rank_[rank.id()];
  const std::uint64_t key = ukey(j, si, ti);
  auto [it, inserted] = pr.pending_updates.try_emplace(key);
  UpdateState& st = it->second;
  if (inserted) st.remaining = (si == ti) ? 1 : 2;
  if (as_source) {
    st.src = ref;
    if (si == ti) st.piv = ref;
  } else {
    st.piv = ref;
  }
  if (--st.remaining == 0) {
    pr.rtq.push(Task{TaskType::kUpdate, j, 0, si, ti,
                     std::max(st.src.ready, st.piv.ready)});
  }
}

void FanInEngine::publish_factor(pgas::Rank& rank, idx_t k, BlockSlot slot) {
  const int me = rank.id();
  ++per_rank_[me].done_factor;
  const auto& sn = sym_->snode(k);
  const auto& map = tg_->mapping();
  const idx_t nbk = static_cast<idx_t>(sn.blocks.size());
  const idx_t bid = store_->block_id(k, slot);

  if (rec_ != nullptr) {
    // Resilience: mark complete and replicate to the buddy (same
    // contract as the fan-out engine).
    rec_->complete[bid] = 1;
    if (rec_->ckpt != nullptr) {
      net_.with_retry(rank, [&] {
        rec_->ckpt->save(rank, bid);
        return rank.now();
      });
    }
  }

  if (slot == 0) {
    // Diagonal: local F blocks directly, remote F owners via signal.
    std::vector<int> recipients;
    bool local = false;
    for (idx_t fs = 1; fs <= nbk; ++fs) {
      if (rec_ != nullptr &&
          rec_->complete[store_->block_id(k, fs)] != 0) {
        continue;  // that F task will not re-run this attempt
      }
      const int o = map(sn.blocks[fs - 1].target, k);
      if (o == me) {
        local = true;
      } else {
        recipients.push_back(o);
      }
    }
    if (local) {
      deliver_pivot(rank, k, 0,
                    PivotRef{store_->data(bid), rank.now(), -1});
    }
    std::sort(recipients.begin(), recipients.end());
    recipients.erase(std::unique(recipients.begin(), recipients.end()),
                     recipients.end());
    send_pivot(rank, k, 0, recipients);
    return;
  }

  // Off-diagonal block (s, k), completed by this rank's F task.
  // 1. It is the *source* operand of every U(k, slot, ti<=slot) — all of
  //    which run here (fan-in!).
  const PivotRef local_ref{store_->data(bid), rank.now(), -1};
  for (idx_t ti = 1; ti <= slot; ++ti) {
    if (update_needed(k, slot, ti)) {
      satisfy_update(rank, k, slot, ti, local_ref, /*as_source=*/true);
    }
  }
  // 2. It is the *pivot* operand of U(k, si2, slot) for si2 > slot, which
  //    run on the owners of the other blocks of panel k.
  std::vector<int> recipients;
  bool local_pivot = false;
  for (idx_t si2 = slot + 1; si2 <= nbk; ++si2) {
    if (!update_needed(k, si2, slot)) continue;
    const int o = map(sn.blocks[si2 - 1].target, k);
    if (o == me) {
      local_pivot = true;
    } else {
      recipients.push_back(o);
    }
  }
  if (local_pivot) deliver_pivot(rank, k, slot, local_ref);
  std::sort(recipients.begin(), recipients.end());
  recipients.erase(std::unique(recipients.begin(), recipients.end()),
                   recipients.end());
  send_pivot(rank, k, slot, recipients);
}

void FanInEngine::send_pivot(pgas::Rank& rank, idx_t k, BlockSlot slot,
                             const std::vector<int>& recipients) {
  if (recipients.empty()) return;
  Signal sig{Signal::Type::kPivot, k, slot, -1, nullptr, 0.0};
  const idx_t bid = store_->block_id(k, slot);
  const std::size_t bytes = store_->bytes(bid);
  if (net_.eager(bytes)) {
    sig.eager_bytes = static_cast<std::uint32_t>(bytes);
    if (store_->numeric()) {
      // One pooled buffer serves every recipient; it returns to the
      // pool when the last signal copy (inbox/ledger) is destroyed.
      auto buf = pgas::shared_host_buffer(rank, bytes / sizeof(double));
      std::memcpy(buf.get(), store_->data(bid), bytes);
      sig.payload = std::move(buf);
    }
  }
  for (int r : recipients) net_.send(rank, r, sig);
}

void FanInEngine::execute(pgas::Rank& rank, const Task& task) {
  rank.merge_clock(task.ready);
  const double begin = rank.now();
  switch (task.type) {
    case TaskType::kDiag: {
      const auto& sn = sym_->snode(task.k);
      const int w = static_cast<int>(sn.width());
      const idx_t bid = store_->block_id(task.k, 0);
      const int info = offload_->run_potrf(rank, w, store_->data(bid), w);
      if (info != 0) throw NotPositiveDefiniteError(sn.first + info - 1);
      publish_factor(rank, task.k, 0);
      break;
    }
    case TaskType::kFactor: {
      PerRank& pr = per_rank_[rank.id()];
      const auto& sn = sym_->snode(task.k);
      const int w = static_cast<int>(sn.width());
      const idx_t bid = store_->block_id(task.k, task.slot);
      const auto diag_it = pr.diag_ref.find(task.k);
      if (diag_it == pr.diag_ref.end()) {
        throw std::logic_error("FanInEngine: F before diagonal");
      }
      const PivotRef diag = diag_it->second;
      offload_->run_trsm(rank, static_cast<int>(store_->nrows(bid)), w,
                         diag.data, w, store_->data(bid),
                         static_cast<int>(store_->nrows(bid)), false);
      publish_factor(rank, task.k, task.slot);
      release_pivot(rank, diag);
      break;
    }
    case TaskType::kUpdate:
      execute_update(rank, task);
      break;
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

void FanInEngine::execute_update(pgas::Rank& rank, const Task& task) {
  PerRank& pr = per_rank_[rank.id()];
  const idx_t j = task.k;
  const auto& sn = sym_->snode(j);
  const int w = static_cast<int>(sn.width());
  const auto it = pr.pending_updates.find(ukey(j, task.si, task.ti));
  if (it == pr.pending_updates.end()) {
    throw std::logic_error("FanInEngine: update without state");
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

  Aggregate& agg = pr.aggs.at(tbid);
  if (numeric && agg.buf.empty()) {
    agg.buf.assign(store_->bytes(tbid) / sizeof(double), 0.0);
  }

  if (s == t) {
    if (numeric) {
      double* product = pr.product.get(static_cast<std::size_t>(m) * m);
      offload_->run_syrk(rank, m, w, st.src.data, m, product, m, false);
      store_->scatter_update(j, task.si, task.ti, 0, product, agg.buf.data(),
                             pr.offsets);
    } else {
      offload_->run_syrk(rank, m, w, nullptr, m, nullptr, m, false);
    }
    offload_->charge_scatter(rank,
                             sizeof(double) * static_cast<std::size_t>(m) * m);
  } else {
    if (numeric) {
      double* product = pr.product.get(static_cast<std::size_t>(m) * np);
      offload_->run_gemm(rank, m, np, w, st.src.data, m, st.piv.data, np,
                         product, m, false, false);
      store_->scatter_update(j, task.si, task.ti, tslot, product,
                             agg.buf.data(), pr.offsets);
    } else {
      offload_->run_gemm(rank, m, np, w, nullptr, m, nullptr, np, nullptr, m,
                         false, false);
    }
    offload_->charge_scatter(
        rank, sizeof(double) * static_cast<std::size_t>(m) * np);
  }

  ++pr.done_update;
  if (task.si != task.ti) release_pivot(rank, st.piv);
  if (--agg.pending == 0) flush_aggregate(rank, tbid);
}

void FanInEngine::flush_aggregate(pgas::Rank& rank, idx_t bid) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  Aggregate& agg = pr.aggs.at(bid);
  const int owner = store_->owner(bid);
  if (owner == me) {
    apply_aggregate(rank, bid, agg.buf.empty() ? nullptr : agg.buf.data(),
                    rank.now());
    return;
  }
  // Send the aggregate vector (one message carrying the whole block
  // contribution, §2.3's second message type). Small aggregates go
  // eager — inlined into the signal, no shared-segment staging buffer
  // and no pull on the receiver; larger ones keep the rendezvous path
  // with a pool-backed staging buffer.
  const std::size_t bytes = store_->bytes(bid);
  Signal sig{Signal::Type::kAggregate, me, 0, bid, nullptr, 0.0};
  if (net_.eager(bytes)) {
    sig.eager_bytes = static_cast<std::uint32_t>(bytes);
    if (store_->numeric()) {
      auto buf = pgas::shared_host_buffer(rank, bytes / sizeof(double));
      std::memcpy(buf.get(), agg.buf.data(), bytes);
      sig.payload = std::move(buf);
    }
    sig.sent = rank.now();
    net_.send(rank, owner, sig);
    return;
  }
  if (store_->numeric()) {
    auto g = rank.pool_allocate_host(bytes);
    std::memcpy(g.addr, agg.buf.data(), bytes);
    pr.out_buffers.push_back(g);
    sig.data = g.local<double>();
  }
  sig.sent = rank.now();
  net_.send(rank, owner, sig);
}

void FanInEngine::apply_aggregate(pgas::Rank& rank, idx_t bid,
                                  const double* buf, double ready) {
  if (store_->numeric() && buf != nullptr) {
    // The aggregate buffer holds the (negative) update sum to be added.
    double* target = store_->data(bid);
    const std::size_t elems = store_->bytes(bid) / sizeof(double);
    for (std::size_t i = 0; i < elems; ++i) target[i] += buf[i];
  }
  offload_->charge_scatter(rank, store_->bytes(bid));
  if (deps_.satisfy(bid, std::max(ready, rank.now()))) {
    const auto [k, slot] = locate(bid);
    per_rank_[rank.id()].rtq.push(
        Task{slot == 0 ? TaskType::kDiag : TaskType::kFactor, k, slot, 0, 0,
             deps_.ready(bid)});
  }
}

void FanInEngine::release_pivot(pgas::Rank& rank, const PivotRef& ref) {
  if (ref.cache_bid < 0) return;
  per_rank_[rank.id()].cache.release(ref.cache_bid, [](RemotePivot&) {});
}

}  // namespace sympack::core
