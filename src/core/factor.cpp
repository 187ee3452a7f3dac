#include "core/factor.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "support/timer.hpp"

namespace sympack::core {

namespace {

/// Doubles a pulled aggregate moves through scratch at a time (32 KiB).
constexpr std::size_t kPullPiece = 4096;

/// Add the aggregate sum `buf` into `target`, `elems` doubles. A pulled
/// aggregate lives in the sender's buffer, so its bytes are first moved
/// into the running thread's scratch, one cache-sized piece at a time,
/// and each piece is added from there; either way every element gets the
/// same single add.
void add_aggregate(double* target, const double* buf, std::size_t elems,
                   bool pulled) {
  if (!pulled) {
    for (std::size_t i = 0; i < elems; ++i) target[i] += buf[i];
    return;
  }
  double* piece = taskrt::thread_scratch().fetched.get(kPullPiece);
  for (std::size_t off = 0; off < elems; off += kPullPiece) {
    const std::size_t n = std::min(kPullPiece, elems - off);
    std::memcpy(piece, buf + off, n * sizeof(double));
    for (std::size_t i = 0; i < n; ++i) target[off + i] += piece[i];
  }
}

}  // namespace

FactorEngine::FactorEngine(pgas::Runtime& rt, const symbolic::TaskGraph& tg,
                           const symbolic::SymbolicView& view,
                           BlockStore& store, Offload& offload,
                           const SolverOptions& opts, Tracer* tracer,
                           RecoveryContext* rec)
    : rt_(&rt), sym_(&tg.symbolic()), tg_(&tg), view_(&view), store_(&store),
      offload_(&offload),
      opts_(opts), fan_in_(tg.variant() == Variant::kFanIn),
      tracer_(tracer), rec_(rec) {
  const symbolic::Symbolic& sym = *sym_;
  // Built in place: PerRank is move-only (its fetch cache owns host
  // copies), and resize() would need it copyable.
  per_rank_ = std::vector<PerRank>(rt.nranks());
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

  // Number the update tasks panel by panel and record the rank that runs
  // each. Those folding into a complete block never re-run, so their
  // ranks' termination goals shrink; in fan-in, each one that runs is
  // owed to its rank's aggregate for the target block.
  uoff_.resize(ns);
  idx_t nupdates = 0;
  for (idx_t k = 0; k < ns; ++k) {
    const auto nbk = static_cast<idx_t>(sym.snode(k).blocks.size());
    uoff_[k] = nupdates;
    nupdates += nbk * (nbk + 1) / 2;
  }
  update_deps_.init(static_cast<std::size_t>(nupdates));
  update_rank_.resize(static_cast<std::size_t>(nupdates));
  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym.snode(k);
    const idx_t nbk = static_cast<idx_t>(sn.blocks.size());
    for (idx_t si = 1; si <= nbk; ++si) {
      for (idx_t ti = 1; ti <= si; ++ti) {
        const int r = tg.update_rank(sn.blocks[si - 1].target, k,
                                     sn.blocks[ti - 1].target);
        update_rank_[update_id(k, si, ti)] = r;
        // The SYRK task (si == ti) reads one block, a GEMM task two.
        update_deps_.set_count(update_id(k, si, ti), si == ti ? 1 : 2);
        if (!update_needed(k, si, ti)) {
          --goal_update_[r];
        } else if (fan_in_) {
          ++per_rank_[r].aggs.try_emplace(update_target_bid(k, si, ti))
                .first->pending;
        }
      }
    }
  }
}

FactorEngine::~FactorEngine() {
  // Let every action this engine submitted run before its state goes.
  // Fetched blocks an abnormal unwind (rank death mid-phase) left in the
  // use caches, unsent aggregates, and sent ones still held by the
  // signal ledgers free themselves with the members that hold them, so
  // the next attempt starts with the full segments.
  rt_->wait_actions();
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
  const double drive_end = support::WallClock::now();
  rt_->wait_actions();
  join_wall_s_ = support::WallClock::now() - drive_end;
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
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  return net_.step(
      rank, [&](const Signal& sig) { handle_signal(rank, sig); },
      [&pr] { return pr.rtq.try_pop(); },
      [&](const Task& task) { execute(rank, task); },
      [&] {
        return pr.done_factor == goal_factor_[me] &&
               pr.done_update == goal_update_[me];
      });
}

int FactorEngine::local_uses(int rank, idx_t k, BlockSlot slot) const {
  const idx_t nb = static_cast<idx_t>(sym_->snode(k).blocks.size());
  int uses = 0;
  if (slot == 0) {
    for (idx_t fs = 1; fs <= nb; ++fs) {
      const idx_t bid = store_->block_id(k, fs);
      if (store_->owner(bid) != rank) continue;
      if (rec_ != nullptr && rec_->complete[bid] != 0) {
        continue;  // that F task already ran in a previous attempt
      }
      ++uses;
    }
    return uses;
  }
  const idx_t si = slot;
  for (idx_t ti = 1; ti <= si; ++ti) {
    if (update_rank_[update_id(k, si, ti)] == rank &&
        update_needed(k, si, ti)) {
      ++uses;
    }
  }
  for (idx_t si2 = si + 1; si2 <= nb; ++si2) {
    if (update_rank_[update_id(k, si2, si)] == rank &&
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
    auto [entry, inserted] = per_rank_[me].cache.insert(
        bid, RemoteFactor{sig.payload, rank.now(), false}, uses);
    if (!inserted) return;  // duplicate signal: keep the original
    fetch_mark(me, sig.k, sig.slot, entry->ready);
    deliver(rank, sig.k, sig.slot, entry->ready);
    return;
  }

  // Pull mode keeps fetched blocks on the host (DESIGN.md §4l).
  bool on_device = !fan_in_ && offload_->device_resident(elems);
  // Protocol-only runs allocate no landing buffer: rget gets a null dst.
  std::shared_ptr<double> copy;
  if (store_->numeric()) {
    if (on_device) {
      // "GPU block": fetch straight into device memory, skipping the
      // host staging hop (paper §4.2). Falls back to a host buffer when
      // the device segment is full.
      const pgas::GlobalPtr device =
          rank.allocate_device(bytes, /*nothrow=*/true);
      if (device.is_null()) {
        on_device = false;
        // Device share exhausted (or denied by the injector): take the
        // host staging path instead. Counted either way; traced only
        // under fault injection so fault-free traces stay byte-identical.
        ++rank.stats().oom_fallbacks;
        if (net_.recovery() && tracer_ != nullptr) {
          tracer_->record({.rank = me, .begin_s = rank.now(),
                           .end_s = rank.now(), .mark = kTrace_oom_fallbacks});
        }
      } else {
        copy = std::shared_ptr<double>(
            device.local<double>(),
            [&rank, device](double*) { rank.deallocate(device); });
      }
    }
    if (!on_device) {
      // Uninitialised until the rget fills it.
      copy = std::shared_ptr<double>(
          new double[static_cast<std::size_t>(elems)],
          [&rank](double* p) { rank.free_after(p); });
    }
  }
  const double ready = net_.with_retry(rank, [&] {
    return rank.rget(store_->gptr(bid), reinterpret_cast<std::byte*>(copy.get()),
                     bytes,
                     on_device ? pgas::MemKind::kDevice : pgas::MemKind::kHost);
  });

  // Duplicate signals are deduplicated at the sender (recipients() is
  // sorted/unique), but a protocol bug must not silently shrink the
  // shared device segment: UseCache::insert keeps the original entry,
  // and the copy just fetched frees itself instead of re-delivering.
  auto [entry, inserted] = per_rank_[me].cache.insert(
      bid, RemoteFactor{std::move(copy), ready, on_device}, uses);
  if (!inserted) return;
  fetch_mark(me, sig.k, sig.slot, ready);
  deliver(rank, sig.k, sig.slot, ready);
}

void FactorEngine::receive_aggregate(pgas::Rank& rank, const Signal& sig) {
  if (sig.eager_bytes > 0) {
    // Eager: the aggregate arrived inline (wire bytes and arrival time
    // already charged at the Rank layer); fold it in directly.
    apply_aggregate(rank, sig.k, sig.slot, sig.payload.get(), rank.now(),
                    /*pulled=*/false);
    return;
  }
  // Rendezvous: pull the aggregate from the sender's buffer, which the
  // signal keeps alive. The rget is charged here and moves no bytes
  // itself: the apply action pulls the payload piece by piece into the
  // block (add_aggregate).
  const std::size_t bytes = store_->bytes(store_->block_id(sig.k, sig.slot));
  const double ready = net_.with_retry(rank, [&] {
    return rank.rget(pgas::pull_ptr(sig.from, sig.payload), nullptr, bytes,
                     pgas::MemKind::kHost);
  });
  apply_aggregate(rank, sig.k, sig.slot, sig.payload.get(), ready,
                  /*pulled=*/true);
}

void FactorEngine::deliver(pgas::Rank& rank, idx_t k, BlockSlot slot,
                           double ready) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const idx_t nb = static_cast<idx_t>(sym_->snode(k).blocks.size());

  if (slot == 0) {
    // Diagonal factor L_{k,k}: enables the panel's F tasks owned here.
    for (idx_t fs = 1; fs <= nb; ++fs) {
      const idx_t bid = store_->block_id(k, fs);
      if (store_->owner(bid) != me) continue;
      if (rec_ != nullptr && rec_->complete[bid] != 0) continue;
      if (deps_.satisfy(bid, ready)) {
        enqueue(pr, Task{TaskType::kFactor, k, fs, 0, 0, deps_.ready(bid)});
      }
    }
    return;
  }

  const idx_t si = slot;
  // As the source operand of U_{s,k,t}, t <= s (includes the SYRK task
  // at ti == si, which has a single operand).
  for (idx_t ti = 1; ti <= si; ++ti) {
    if (update_rank_[update_id(k, si, ti)] == me &&
        update_needed(k, si, ti)) {
      satisfy_update(rank, k, si, ti, ready);
    }
  }
  // As the pivot operand of U_{s',k,s}, s' > s (strictly, so the SYRK
  // task is not double-counted).
  for (idx_t si2 = si + 1; si2 <= nb; ++si2) {
    if (update_rank_[update_id(k, si2, si)] == me &&
        update_needed(k, si2, si)) {
      satisfy_update(rank, k, si2, si, ready);
    }
  }
}

void FactorEngine::satisfy_update(pgas::Rank& rank, idx_t j, idx_t si,
                                  idx_t ti, double ready) {
  const std::size_t u = update_id(j, si, ti);
  if (update_deps_.satisfy(u, ready)) {
    enqueue(per_rank_[rank.id()],
            Task{TaskType::kUpdate, j, 0, si, ti, update_deps_.ready(u)});
  }
}

FactorEngine::FactorRef FactorEngine::held(PerRank& pr, int me,
                                           idx_t bid) const {
  if (store_->owner(bid) == me) return FactorRef{store_->data(bid)};
  const RemoteFactor* rf = pr.cache.find(bid);
  if (rf == nullptr) {
    throw std::logic_error("FactorEngine: operand block not held");
  }
  return FactorRef{rf->buf.get(), rf->ready, rf->on_device};
}

void FactorEngine::publish(pgas::Rank& rank, idx_t k, BlockSlot slot) {
  ++per_rank_[rank.id()].done_factor;
  if (rec_ != nullptr) {
    // Resilience: the finished panel is now part of the completed
    // sub-DAG (a later attempt will not re-run it) and its bytes are
    // replicated to the buddy before any consumer depends on them.
    const idx_t bid = store_->block_id(k, slot);
    rec_->complete[bid] = 1;
    net_.with_retry(rank, [&] {
      rec_->ckpt->save(rank, bid);
      return rank.now();
    });
  }
  share(rank, k, slot);
}

void FactorEngine::share(pgas::Rank& rank, idx_t k, BlockSlot slot) {
  const idx_t bid = store_->block_id(k, slot);
  // Local consumers are satisfied directly (no message, data in place).
  if (local_uses(rank.id(), k, slot) > 0) deliver(rank, k, slot, rank.now());
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
      double* dst = buf.get();
      const double* src = store_->data(bid);
      rank.act([dst, src, bytes] { std::memcpy(dst, src, bytes); },
               {pgas::reads(src), pgas::writes(dst)}, bytes);
      sig.payload = std::move(buf);
    }
  }
  for (int r : *recipients) net_.send(rank, r, sig);
}

void FactorEngine::execute(pgas::Rank& rank, const Task& task) {
  const double begin = rank.now();
  switch (task.type) {
    case TaskType::kDiag: execute_diag(rank, task); break;
    case TaskType::kFactor: execute_factor(rank, task); break;
    case TaskType::kUpdate: execute_update(rank, task); break;
  }
  if (tracer_ == nullptr) return;
  Tracer::Event e{.rank = rank.id(), .snode = task.k, .a = 0, .b = 0,
                  .begin_s = begin, .end_s = rank.now()};
  switch (task.type) {
    case TaskType::kDiag:
      e.kind = TaskTag::kDiag;
      break;
    case TaskType::kFactor:
      e.kind = TaskTag::kFactor;
      e.a = task.slot;
      break;
    case TaskType::kUpdate: {
      // Dependency-edge hint for the analyzer: the block this update
      // folded into — (t, 0) for the SYRK task, (t, slot of row-block s)
      // for GEMM — names the D/F task it helps unlock.
      const auto& sn = sym_->snode(task.k);
      const idx_t s = sn.blocks[task.si - 1].target;
      const idx_t t = sn.blocks[task.ti - 1].target;
      e.kind = TaskTag::kUpdate;
      e.a = task.si;
      e.b = task.ti;
      e.tgt = t;
      e.tgt_slot = (task.si == task.ti) ? 0 : sym_->find_block(t, s) + 1;
      break;
    }
  }
  tracer_->record(e);
}

void FactorEngine::fetch_mark(int rank, idx_t k, BlockSlot slot,
                              double t) const {
  if (tracer_ == nullptr || !opts_.trace.metadata) return;
  tracer_->record({.rank = rank, .kind = TaskTag::kFetch, .snode = k,
                   .a = slot, .begin_s = t, .end_s = t});
}

void FactorEngine::execute_diag(pgas::Rank& rank, const Task& task) {
  const auto& sn = sym_->snode(task.k);
  const int w = static_cast<int>(sn.width());
  const idx_t bid = store_->block_id(task.k, 0);
  offload_->run_potrf(rank, w, store_->data(bid), w, sn.first);
  publish(rank, task.k, 0);
}

void FactorEngine::execute_factor(pgas::Rank& rank, const Task& task) {
  const int me = rank.id();
  const auto& sn = sym_->snode(task.k);
  const int w = static_cast<int>(sn.width());
  const idx_t bid = store_->block_id(task.k, task.slot);
  const int m = static_cast<int>(store_->nrows(bid));

  const idx_t diag_bid = store_->block_id(task.k, 0);
  const FactorRef diag = held(per_rank_[me], me, diag_bid);
  offload_->run_trsm(rank, m, w, diag.data, w, store_->data(bid), m,
                     diag.on_device);
  publish(rank, task.k, task.slot);
  // Each F task accounts for one use of the (possibly remote, possibly
  // device-resident) diagonal factor; the cache entry is freed with the
  // last one (a block the rank owns is not cached: no-op).
  per_rank_[me].cache.release(diag_bid);
}

void FactorEngine::execute_update(pgas::Rank& rank, const Task& task) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const idx_t j = task.k;
  const auto& sn = sym_->snode(j);
  const int w = static_cast<int>(sn.width());

  const std::size_t u = update_id(j, task.si, task.ti);
  if (update_deps_.count(u) != 0) {
    throw std::logic_error("FactorEngine: update task without state");
  }
  update_deps_.set_count(u, kRan);
  const idx_t src_bid = store_->block_id(j, task.si);
  const idx_t piv_bid = store_->block_id(j, task.ti);
  const FactorRef src_ref = held(pr, me, src_bid);
  const FactorRef piv_ref =
      task.si == task.ti ? src_ref : held(pr, me, piv_bid);

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
    agg = pr.aggs.find(tbid);
    if (agg == nullptr) {
      throw std::logic_error("FactorEngine: update without an aggregate");
    }
    if (numeric && !agg->buf) {
      const std::size_t elems = store_->bytes(tbid) / sizeof(double);
      agg->buf = pgas::shared_host_buffer(rank, elems);
      double* zero = agg->buf.get();
      rank.act([zero, elems] { std::fill_n(zero, elems, 0.0); },
               {pgas::writes(zero)}, elems * sizeof(double));
    }
    target = agg->buf.get();
  }

  // SYRK (s == t) updates the diagonal block of t with an m x m product;
  // GEMM updates block B_{s,t} with an m x np one. The kernel and its
  // scatter are one action, so the product never leaves the scratch of
  // the thread that runs it.
  const int cols = (s == t) ? m : np;
  const Offload::Call call =
      (s == t) ? Offload::Call::syrk(m, w, src_ref.on_device)
               : Offload::Call::gemm(m, np, w, src_ref.on_device,
                                     piv_ref.on_device);
  const double* src = src_ref.data;
  const double* piv = piv_ref.data;
  offload_->run(
      rank, call,
      [store = store_, j, si = task.si, ti = task.ti, tslot, m, np, w, src,
       piv, target] {
        taskrt::ThreadScratch& scratch = taskrt::thread_scratch();
        double* product = scratch.product.get(
            static_cast<std::size_t>(m) * (si == ti ? m : np));
        if (si == ti) {
          blas::syrk(blas::UpLo::kLower, blas::Trans::kNo, m, w, -1.0, src,
                     m, 0.0, product, m);
        } else {
          blas::gemm(blas::Trans::kNo, blas::Trans::kYes, m, np, w, 1.0, src,
                     m, piv, np, 0.0, product, m);
        }
        store->scatter_update(j, si, ti, tslot, product, target,
                              scratch.offsets);
      },
      {pgas::reads(src), pgas::reads(piv), pgas::writes(target)});
  offload_->charge_scatter(
      rank, sizeof(double) * static_cast<std::size_t>(m) * cols);

  if (!fan_in_) {
    complete_target_update(rank, t, tslot, rank.now());
  } else if (--agg->pending == 0) {
    flush_aggregate(rank, t, tslot);
  }
  ++pr.done_update;
  pr.cache.release(src_bid);
  if (task.si != task.ti) pr.cache.release(piv_bid);
}

void FactorEngine::flush_aggregate(pgas::Rank& rank, idx_t t,
                                   BlockSlot slot) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const idx_t bid = store_->block_id(t, slot);
  Aggregate* agg = pr.aggs.find(bid);
  const int owner = store_->owner(bid);
  if (owner == me) {
    apply_aggregate(rank, t, slot, agg->buf.get(), rank.now(),
                    /*pulled=*/false);
  } else {
    // Send the aggregate (one message carrying the whole block
    // contribution, §2.3's second message type). The buffer itself is
    // the payload: small aggregates ride inline (eager), larger ones are
    // pulled from it by the owner (rendezvous).
    const std::size_t bytes = store_->bytes(bid);
    Signal sig{t, slot};
    sig.from = me;
    if (net_.eager(bytes)) sig.eager_bytes = static_cast<std::uint32_t>(bytes);
    sig.payload = std::move(agg->buf);
    net_.send(rank, owner, sig);
  }
  pr.aggs.erase(agg);
}

void FactorEngine::apply_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                                   const double* buf, double ready,
                                   bool pulled) {
  const idx_t bid = store_->block_id(t, slot);
  if (store_->numeric() && buf != nullptr) {
    // The aggregate holds the (negative) update sum to be added.
    double* target = store_->data(bid);
    const std::size_t elems = store_->bytes(bid) / sizeof(double);
    rank.act([target, buf, elems,
              pulled] { add_aggregate(target, buf, elems, pulled); },
             {pgas::reads(buf), pgas::writes(target)},
             elems * sizeof(double));
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
