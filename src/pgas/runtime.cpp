#include "pgas/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/logging.hpp"
#include "support/random.hpp"

namespace sympack::pgas {

namespace {
// Consecutive all-idle sweeps before the sequential driver checks for a
// dead rank (well under every caller's stall_limit, well over the
// Endpoint re-request cadence so transient chaos never trips it).
constexpr int kDeadRankBackstopSweeps = 512;
}  // namespace

// ---------------------------------------------------------------- Rank

int Rank::nranks() const { return runtime_->nranks(); }

int Rank::node() const { return id_ / runtime_->config().ranks_per_node; }

int Rank::device() const {
  const auto& cfg = runtime_->config();
  const int local = id_ % cfg.ranks_per_node;
  return node() * cfg.gpus_per_node + (local % cfg.gpus_per_node);
}

GlobalPtr Rank::allocate_host(std::size_t bytes) {
  auto* addr = new std::byte[bytes];
  runtime_->register_allocation(addr, {bytes, MemKind::kHost, -1, id_});
  return GlobalPtr{addr, id_, MemKind::kHost};
}

std::size_t Rank::device_share_bytes() const {
  const int sharers = runtime_->ranks_per_device_[device()];
  return runtime_->config().device_memory_bytes /
         static_cast<std::size_t>(sharers > 0 ? sharers : 1);
}

GlobalPtr Rank::allocate_device(std::size_t bytes, bool nothrow) {
  const int dev = device();
  // Device-memory pressure injection: deny nothrow allocations with the
  // configured probability so every §4.2 host-fallback path is exercised.
  // Throwing (fallback = kThrow) call sites are left alone — they model
  // the user's explicit "abort on OOM" choice, not a transient condition.
  if (nothrow) {
    if (FaultInjector* inj = runtime_->injector();
        inj != nullptr && inj->deny_device(id_)) {
      return GlobalPtr{nullptr, id_, MemKind::kDevice};
    }
  }
  // Paper §4.2: all processes mapped to a device allocate an *equal
  // portion* of its memory — cap each rank at its share so one rank
  // cannot consume the whole segment and starve co-located ranks.
  const std::size_t share = device_share_bytes();
  {
    std::lock_guard<std::mutex> lock(runtime_->device_mutex_);
    if (runtime_->rank_device_used_[id_] + bytes > share) {
      if (nothrow) return GlobalPtr{nullptr, id_, MemKind::kDevice};
      throw DeviceOom(
          "rank " + std::to_string(id_) + " exhausted its share of device " +
          std::to_string(dev) + " (" + std::to_string(bytes) +
          " B requested, " +
          std::to_string(share - runtime_->rank_device_used_[id_]) +
          " B free of the " + std::to_string(share) +
          " B equal per-rank share; " +
          std::to_string(runtime_->ranks_per_device_[dev]) +
          " ranks share the device)");
    }
    runtime_->rank_device_used_[id_] += bytes;
    runtime_->device_used_[dev] += bytes;
  }
  auto* addr = new std::byte[bytes];
  runtime_->register_allocation(addr, {bytes, MemKind::kDevice, dev, id_});
  return GlobalPtr{addr, id_, MemKind::kDevice};
}

void Rank::deallocate(GlobalPtr ptr) {
  if (ptr.is_null()) return;
  const auto alloc = runtime_->unregister_allocation(ptr.addr);
  if (alloc.kind == MemKind::kDevice) {
    std::lock_guard<std::mutex> lock(runtime_->device_mutex_);
    runtime_->device_used_[alloc.device] -= alloc.bytes;
    runtime_->rank_device_used_[alloc.rank] -= alloc.bytes;
  }
  free_after(ptr.addr);
}

void Rank::rpc(int target, std::function<void(Rank&)> fn,
               std::size_t payload_bytes) {
  Rank& t = runtime_->rank(target);
  // Per-message overhead + per-byte active-message term; zero payload
  // (every plain signal) reproduces the historical flat cost exactly.
  const double arrival = clock_ + runtime_->model().rpc_time(payload_bytes);
  advance(runtime_->model().rpc_overhead_s * 0.5);  // injection cost
  ++stats_.rpcs_sent;
  FaultInjector* inj = runtime_->injector();
  if (inj == nullptr) {
    // Fault-free fast path: identical to the historical behavior (a
    // rank can only be dead under an attached injector, so the alive
    // check inside the lock never fires here).
    std::lock_guard<std::mutex> lock(t.inbox_mutex_);
    if (!t.alive_) return;
    t.inbox_.push_back({arrival, 0.0, payload_bytes, std::move(fn)});
    return;
  }
  const FaultInjector::RpcPlan plan = inj->plan_rpc(id_);
  if (plan.drop) return;  // the signal vanishes on the wire
  InboxEntry entry{arrival, 0.0, payload_bytes, std::move(fn)};
  if (plan.delay) {
    // A delayed entry carries its true (late) arrival and a hold: the
    // receiver's progress() must not execute it before that time.
    entry.arrival += plan.delay_s;
    entry.held_until = entry.arrival;
  }
  std::lock_guard<std::mutex> lock(t.inbox_mutex_);
  // Signals to a dead process vanish: its NIC no longer acks anything.
  // The sender was still charged the injection cost above — it cannot
  // know the peer is gone until the death scan confirms it.
  if (!t.alive_) return;
  if (plan.duplicate) t.inbox_.push_back(entry);  // copy, then the original
  if (plan.reorder && !t.inbox_.empty()) {
    const std::size_t pos =
        plan.reorder_slot % (t.inbox_.size() + 1);
    t.inbox_.insert(t.inbox_.begin() + static_cast<std::ptrdiff_t>(pos),
                    std::move(entry));
  } else {
    t.inbox_.push_back(std::move(entry));
  }
}

void Rank::rpc_coalesced(int target, std::function<void(Rank&)> fn,
                         std::size_t payload_bytes) {
  if (outboxes_.empty()) {
    outboxes_.resize(static_cast<std::size_t>(nranks()));
  }
  Outbox& ob = outboxes_[static_cast<std::size_t>(target)];
  if (ob.fns.empty()) {
    ob.first_epoch = progress_epoch_;
    ++open_outboxes_;
  } else {
    ++stats_.coalesced_signals;  // riding an already-open batch
  }
  ob.fns.push_back(std::move(fn));
  ob.payload_bytes += payload_bytes;
}

void Rank::flush_outbox(int target) {
  Outbox& ob = outboxes_[static_cast<std::size_t>(target)];
  if (ob.fns.empty()) return;
  std::vector<std::function<void(Rank&)>> batch;
  batch.swap(ob.fns);
  const std::size_t bytes = ob.payload_bytes;
  ob.payload_bytes = 0;
  --open_outboxes_;
  if (batch.size() == 1) {
    // Nothing coalesced with it; send it bare (identical cost, and the
    // receiver sees the original callable).
    rpc(target, std::move(batch.front()), bytes);
    return;
  }
  // One RPC, one injector plan, one rpc_overhead_s for the whole batch;
  // the per-byte term covers the summed inlined payloads. Sub-callbacks
  // run in enqueue order on the receiver.
  rpc(
      target,
      [fns = std::move(batch)](Rank& t) {
        for (const auto& f : fns) f(t);
      },
      bytes);
}

int Rank::flush_signals() {
  if (open_outboxes_ == 0) return 0;
  int flushed = 0;
  for (int t = 0; t < static_cast<int>(outboxes_.size()); ++t) {
    if (!outboxes_[static_cast<std::size_t>(t)].fns.empty()) {
      flush_outbox(t);
      ++flushed;
    }
  }
  return flushed;
}

bool Rank::has_unflushed_signals() const { return open_outboxes_ > 0; }

bool Rank::has_unflushed_signals_to(int target) const {
  return !outboxes_.empty() &&
         !outboxes_[static_cast<std::size_t>(target)].fns.empty();
}

void Rank::die() {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  alive_ = false;
  // A dead process takes its in-flight state with it: pending inbox
  // entries and parked coalescing batches are gone, not deferred.
  inbox_.clear();
  for (auto& ob : outboxes_) {
    ob.fns.clear();
    ob.payload_bytes = 0;
  }
  open_outboxes_ = 0;
}

void Rank::resurrect(double clock_floor) {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    alive_ = true;
  }
  merge_clock(clock_floor);
}

int Rank::progress() {
  // Age out coalescing outboxes first: a batch parked for
  // coalesce_defer progress calls stops waiting for more riders.
  ++progress_epoch_;
  // Heartbeat check: the progress epoch is this rank's heartbeat, and
  // the kill schedule fires on it. A dead rank makes no progress at all
  // (its step() degenerates to kIdle via the engines' alive guard).
  if (FaultInjector* inj = runtime_->injector(); inj != nullptr) {
    if (alive_ && inj->should_kill(id_, progress_epoch_)) die();
    if (!alive_) return 0;
  }
  int flushed = 0;
  if (open_outboxes_ > 0) {
    const int defer_cfg = runtime_->config().coalesce_defer;
    const auto defer =
        static_cast<std::uint64_t>(defer_cfg > 0 ? defer_cfg : 0);
    for (int t = 0; t < static_cast<int>(outboxes_.size()); ++t) {
      Outbox& ob = outboxes_[static_cast<std::size_t>(t)];
      if (!ob.fns.empty() && progress_epoch_ - ob.first_epoch >= defer) {
        flush_outbox(t);
        ++flushed;
      }
    }
  }
  std::vector<InboxEntry> drained;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    drained.swap(inbox_);
  }
  if (drained.empty()) return flushed;
  int executed = 0;
  std::vector<InboxEntry> held;
  auto run_batch = [&](std::vector<InboxEntry>& batch) {
    for (auto& entry : batch) {
      // Honor the injected arrival: an entry held for the future must
      // not execute early. held_until is 0 for every normally-delivered
      // RPC (clock_ >= 0 always), so zero-fault schedules take the
      // historical path byte-for-byte.
      if (entry.held_until > clock_) {
        ++stats_.rpcs_deferred;
        held.push_back(std::move(entry));
        continue;
      }
      // The callback cannot run before the RPC arrived.
      merge_clock(entry.arrival);
      advance(runtime_->model().rpc_overhead_s * 0.5);  // execution cost
      // Eager-inlined payload bytes are charged here, on the receiver:
      // the wire carried them whether or not the consumer keeps them
      // (so injected duplicates and ledger retransmits recount — honest
      // wire volume). 0 for every plain signal.
      stats_.bytes_from_host += entry.payload_bytes;
      entry.fn(*this);
      ++stats_.rpcs_executed;
      ++executed;
    }
    batch.clear();
  };
  run_batch(drained);
  if (executed == 0 && !held.empty()) {
    // Everything drained was delay-held. A rank whose only remaining
    // inputs are delayed must not deadlock waiting for a clock nothing
    // will advance: warp to the earliest injected arrival and re-scan.
    double earliest = held.front().held_until;
    for (const auto& e : held) earliest = std::min(earliest, e.held_until);
    merge_clock(earliest);
    std::vector<InboxEntry> retry;
    retry.swap(held);
    run_batch(retry);
  }
  if (!held.empty()) {
    // Still-held entries return to the inbox front, preserving their
    // order relative to anything enqueued while we ran.
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    inbox_.insert(inbox_.begin(), std::make_move_iterator(held.begin()),
                  std::make_move_iterator(held.end()));
  }
  return executed + flushed;
}

bool Rank::has_pending_rpcs() const {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  return !inbox_.empty();
}

std::size_t Rank::pending_rpc_count() const {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  return inbox_.size();
}

double Rank::transfer_completion(std::size_t bytes, int peer,
                                 MemKind src_kind, MemKind dst_kind) {
  const bool same = runtime_->same_node(peer, id_);
  const double t =
      runtime_->model().transfer_time(bytes, same, src_kind, dst_kind);
  if (same) return now() + t;
  // Cross-node transfers serialize on this rank's NIC channel.
  const auto& cfg = runtime_->config();
  const int nic = node() * cfg.nics_per_node +
                  (id_ % cfg.ranks_per_node) % cfg.nics_per_node;
  std::lock_guard<std::mutex> lock(runtime_->nic_mutex_);
  double& busy = runtime_->nic_busy_[nic];
  busy = std::max(busy, now()) + t;
  return busy;
}

double Rank::rget(const GlobalPtr& src, std::byte* dst, std::size_t bytes,
                  MemKind dst_kind) {
  if (FaultInjector* inj = runtime_->injector();
      inj != nullptr && inj->fail_transfer(id_)) {
    throw TransferError("rget: transient transfer failure injected at rank " +
                        std::to_string(id_) + " (" + std::to_string(bytes) +
                        " B from rank " + std::to_string(src.rank) + ")");
  }
  if (dst != nullptr) {
    const std::byte* from = src.addr;
    act([dst, from, bytes] { std::memcpy(dst, from, bytes); },
        {reads(from), writes(dst)}, bytes);
  }
  const double t = transfer_completion(bytes, src.rank, src.kind, dst_kind);
  advance(runtime_->model().rma_issue_s);
  ++stats_.gets;
  if (src.kind == MemKind::kDevice) {
    stats_.bytes_from_device += bytes;
  } else {
    stats_.bytes_from_host += bytes;
  }
  if (dst_kind == MemKind::kDevice) stats_.bytes_to_device += bytes;
  return t;
}

double Rank::copy(const GlobalPtr& src, const GlobalPtr& dst,
                  std::size_t bytes) {
  if (FaultInjector* inj = runtime_->injector();
      inj != nullptr && inj->fail_transfer(id_)) {
    throw TransferError("copy: transient transfer failure injected at rank " +
                        std::to_string(id_) + " (" + std::to_string(bytes) +
                        " B)");
  }
  if (!src.is_null() && !dst.is_null()) {
    const std::byte* from = src.addr;
    std::byte* to = dst.addr;
    act([to, from, bytes] { std::memcpy(to, from, bytes); },
        {reads(from), writes(to)}, bytes);
  }
  const int peer = (src.rank == id_) ? dst.rank : src.rank;
  const double t = transfer_completion(bytes, peer, src.kind, dst.kind);
  advance(runtime_->model().rma_issue_s);
  ++stats_.puts;
  if (src.kind == MemKind::kDevice) {
    stats_.bytes_from_device += bytes;
  } else {
    stats_.bytes_from_host += bytes;
  }
  if (dst.kind == MemKind::kDevice) stats_.bytes_to_device += bytes;
  return t;
}

// ------------------------------------------------------------- Runtime

namespace {

/// Throw std::invalid_argument naming the first field of `cfg` out of
/// range and its value. The fault fields are checked only when enabled:
/// a disabled config attaches no injector, so nothing reads them.
void check_config(const Runtime::Config& cfg) {
  auto check = [](bool ok, const char* field, auto value,
                  const std::string& range) {
    if (ok) return;
    std::ostringstream msg;
    msg << "Runtime::Config: " << field << " = " << value
        << " is out of range (" << range << ")";
    throw std::invalid_argument(msg.str());
  };
  check(cfg.nranks >= 1, "nranks", cfg.nranks, ">= 1");
  check(cfg.ranks_per_node >= 1, "ranks_per_node", cfg.ranks_per_node,
        ">= 1");
  check(cfg.gpus_per_node >= 1, "gpus_per_node", cfg.gpus_per_node, ">= 1");
  check(cfg.nics_per_node >= 1, "nics_per_node", cfg.nics_per_node, ">= 1");
  const FaultConfig& f = cfg.faults;
  if (!f.enabled) return;
  const auto rate = [&](double value, const char* field) {
    check(value >= 0.0 && value <= 1.0, field, value, "[0, 1]");  // NaN fails
  };
  rate(f.drop_rate, "faults.drop_rate");
  rate(f.duplicate_rate, "faults.duplicate_rate");
  rate(f.delay_rate, "faults.delay_rate");
  rate(f.reorder_rate, "faults.reorder_rate");
  rate(f.transfer_fail_rate, "faults.transfer_fail_rate");
  rate(f.device_deny_rate, "faults.device_deny_rate");
  check(std::isfinite(f.delay_s) && f.delay_s >= 0.0, "faults.delay_s",
        f.delay_s, "finite, >= 0");
  check(f.kill_rank >= -2 && f.kill_rank < cfg.nranks, "faults.kill_rank",
        f.kill_rank,
        "-2 = random, -1 = none, or a rank in [0, " +
            std::to_string(cfg.nranks) + ")");
}

}  // namespace

Runtime::Runtime(Config config, EnvOverlay env) : config_(config) {
  // SYMPACK_FAULT_* environment knobs overlay the programmatic fault
  // config; the injector is only attached when enabled, so a disabled
  // config leaves every code path bitwise identical to the fault-free
  // runtime.
  if (env == EnvOverlay::kApply) {
    config_.faults = env_fault_config(config_.faults);
  }
  check_config(config_);
  if (config_.faults.enabled) {
    injector_ = std::make_unique<FaultInjector>(config_.faults,
                                                config_.nranks);
  }
  ranks_.reserve(config_.nranks);
  for (int r = 0; r < config_.nranks; ++r) {
    auto rank = std::make_unique<Rank>();
    rank->id_ = r;
    rank->runtime_ = this;
    ranks_.push_back(std::move(rank));
  }
  device_used_.assign(static_cast<std::size_t>(nodes()) * config_.gpus_per_node,
                      0);
  rank_device_used_.assign(config_.nranks, 0);
  ranks_per_device_.assign(device_used_.size(), 0);
  for (int r = 0; r < config_.nranks; ++r) {
    ++ranks_per_device_[ranks_[r]->device()];
  }
  nic_busy_.assign(static_cast<std::size_t>(nodes()) * config_.nics_per_node,
                   0.0);
}

Runtime::~Runtime() {
  // A parked RPC may own a payload whose deleter deallocates through
  // this runtime: drop them all while the registry is still whole.
  purge_inboxes();
  // Free anything the user leaked so ASAN-style runs stay clean; warn so
  // tests can keep allocation discipline honest.
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  if (!allocations_.empty()) {
    SYMPACK_LOG_DEBUG("Runtime: freeing %zu leaked allocations",
                      allocations_.size());
    for (auto& [addr, alloc] : allocations_) delete[] addr;
  }
}

int Runtime::nodes() const {
  return (config_.nranks + config_.ranks_per_node - 1) /
         config_.ranks_per_node;
}

bool Runtime::same_node(int a, int b) const {
  return a / config_.ranks_per_node == b / config_.ranks_per_node;
}

std::string Runtime::dump_rank_states(const std::vector<char>& done) const {
  std::ostringstream os;
  for (int r = 0; r < nranks(); ++r) {
    const Rank& rk = *ranks_[r];
    os << "\n  rank " << r << ": "
       << (!rk.alive() ? "DEAD"
           : r < static_cast<int>(done.size()) && done[r] ? "done"
                                                          : "not done")
       << ", inbox=" << rk.pending_rpc_count() << ", clock=" << rk.now()
       << "s, rpcs_sent=" << rk.stats().rpcs_sent
       << ", rpcs_executed=" << rk.stats().rpcs_executed
       << ", gets=" << rk.stats().gets;
    // Recovery activity, shown whenever any happened (fault runs): which
    // rank was retrying/re-requesting is the first thing to look at in a
    // chaos-job watchdog dump.
    const CommStats& s = rk.stats();
    const std::uint64_t recovery_total = 0
#define SYMPACK_RECOVERY_COUNTER(field, label, trace_name) +s.field
#include "core/taskrt/counters.def"
#undef SYMPACK_RECOVERY_COUNTER
        ;
    if (recovery_total > 0) {
#define SYMPACK_RECOVERY_COUNTER(field, label, trace_name) \
  os << ", " << label << "=" << s.field;
#include "core/taskrt/counters.def"
#undef SYMPACK_RECOVERY_COUNTER
    }
    // Eager/coalesced transport activity, shown whenever any happened.
    const std::uint64_t comm_total = 0
#define SYMPACK_COMM_COUNTER(field, label, trace_name) +s.field
#include "core/taskrt/counters.def"
#undef SYMPACK_COMM_COUNTER
        ;
    if (comm_total > 0) {
#define SYMPACK_COMM_COUNTER(field, label, trace_name) \
  os << ", " << label << "=" << s.field;
#include "core/taskrt/counters.def"
#undef SYMPACK_COMM_COUNTER
    }
    // Symbolic-phase activity (sharded metadata), shown whenever any
    // happened.
    const std::uint64_t symbolic_total = 0
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) +s.field
#include "core/taskrt/counters.def"
#undef SYMPACK_SYMBOLIC_COUNTER
        ;
    if (symbolic_total > 0) {
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) \
  os << ", " << label << "=" << s.field;
#include "core/taskrt/counters.def"
#undef SYMPACK_SYMBOLIC_COUNTER
    }
    // Protocol-layer state (Endpoint ledgers/stashes/re-request rounds):
    // whatever the live engines registered, so a hung recovery is
    // diagnosable from the dump alone.
    std::lock_guard<std::mutex> lock(dumper_mutex_);
    for (const auto& [token, dumper] : state_dumpers_) {
      (void)token;
      os << dumper(r);
    }
  }
  return os.str();
}

int Runtime::add_state_dumper(StateDumper dumper) {
  std::lock_guard<std::mutex> lock(dumper_mutex_);
  const int token = next_dumper_token_++;
  state_dumpers_.emplace(token, std::move(dumper));
  return token;
}

void Runtime::remove_state_dumper(int token) {
  std::lock_guard<std::mutex> lock(dumper_mutex_);
  state_dumpers_.erase(token);
}

void Runtime::throw_if_rank_dead() const {
  for (int r = 0; r < nranks(); ++r) {
    if (!ranks_[r]->alive()) {
      throw RankDeathError(r, /*detector=*/-1, max_clock());
    }
  }
}

void Runtime::purge_inboxes() {
  for (auto& r : ranks_) {
    {
      std::lock_guard<std::mutex> lock(r->inbox_mutex_);
      r->inbox_.clear();
    }
    // Coalescing outboxes hold the same kind of stale lambdas (they
    // capture the finished phase's engine); drop them too. Rank-local
    // state, but drive() has joined/finished all stepping here.
    for (auto& ob : r->outboxes_) {
      ob.fns.clear();
      ob.payload_bytes = 0;
    }
    r->open_outboxes_ = 0;
  }
}

void Runtime::drive(const std::function<Step(Rank&)>& step, int stall_limit,
                    std::uint64_t interleave_seed) {
  try {
    if (config_.threaded) {
      drive_threaded(step);
    } else {
      drive_sequential(step, stall_limit, interleave_seed);
    }
  } catch (...) {
    // A phase that throws leaves RPCs in flight whose lambdas capture
    // the dying engine and whose payloads are its buffers: drop them,
    // so none runs in a later phase or outlives the runtime.
    purge_inboxes();
    throw;
  }
  // Injected duplicates may outlive a finished phase; without an
  // injector every engine's kDone requires an empty inbox.
  if (injector_ != nullptr) purge_inboxes();
}

void Runtime::drive_sequential(const std::function<Step(Rank&)>& step,
                               int stall_limit, std::uint64_t seed) {
  const int n = nranks();
  std::vector<char> done(n, 0);
  int remaining = n;
  int stalled_sweeps = 0;
  // Interleaving fuzzer: with a nonzero seed, the per-sweep stepping
  // order is a fresh Fisher-Yates permutation drawn from a deterministic
  // xoshiro256** stream, so adversarial schedules are explored and any
  // failure is replayable from the seed alone.
  support::Xoshiro256 rng(seed);
  std::vector<int> order(n);
  for (int r = 0; r < n; ++r) order[r] = r;
  while (remaining > 0) {
    if (seed != 0) {
      for (int i = n - 1; i > 0; --i) {
        const int j = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(i) + 1));
        std::swap(order[i], order[j]);
      }
    }
    bool any_work = false;
    for (int r : order) {
      if (done[r]) {
        // Under fault injection, finished ranks keep draining their
        // inboxes: a consumer's pull re-request may still arrive and the
        // retransmission happens inside the RPC body, so no step() is
        // needed — but the RPC must execute. Without an injector a done
        // rank's inbox is provably empty (kDone requires it), so this
        // path is skipped entirely and schedules stay byte-identical.
        if (injector_ != nullptr && rank(r).progress() > 0) any_work = true;
        continue;
      }
      const Step s = step(rank(r));
      if (s == Step::kDone) {
        done[r] = 1;
        --remaining;
        any_work = true;
      } else if (s == Step::kWorked) {
        any_work = true;
      }
    }
    if (any_work) {
      stalled_sweeps = 0;
    } else {
      ++stalled_sweeps;
      // Death backstop: survivors of a rank kill normally confirm the
      // death themselves (the Endpoint idle scan throws RankDeathError
      // long before this), but when that layer is off — resilience
      // disabled, or a phase without an Endpoint — the stall must still
      // resolve to a diagnosable death instead of a generic deadlock.
      if (injector_ != nullptr && stalled_sweeps > kDeadRankBackstopSweeps) {
        throw_if_rank_dead();
      }
      if (stalled_sweeps > stall_limit) {
        const std::string msg =
            "Runtime::drive: no rank made progress for " +
            std::to_string(stall_limit) +
            " sweeps (deadlock?); interleave_seed=" + std::to_string(seed) +
            dump_rank_states(done);
        SYMPACK_LOG_ERROR("%s", msg.c_str());
        throw std::runtime_error(msg);
      }
    }
  }
}

void Runtime::drive_threaded(const std::function<Step(Rank&)>& step) {
  const int n = nranks();
  // Shared progress telemetry for the watchdog: `epoch` bumps on every
  // productive step, `done_count` on every finished rank. The watchdog
  // fires only when the epoch has been flat for the whole window while
  // ranks are still running — i.e. every live rank is idle (a lost
  // dependency), which would otherwise be an un-diagnosable CI timeout.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> done_count{0};
  std::atomic<bool> abort{false};
  std::vector<char> done(n, 0);  // written by rank r's thread only
  std::exception_ptr step_error;
  std::mutex error_mutex;

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      Rank& self = rank(r);
      while (!abort.load(std::memory_order_relaxed)) {
        Step s;
        try {
          s = step(self);
        } catch (...) {
          // Capture the first failure and wind the phase down instead of
          // letting the exception terminate the process.
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!step_error) step_error = std::current_exception();
          }
          abort.store(true, std::memory_order_relaxed);
          return;
        }
        if (s == Step::kDone) {
          done[r] = 1;
          done_count.fetch_add(1, std::memory_order_relaxed);
          epoch.fetch_add(1, std::memory_order_relaxed);
          // Under fault injection a finished rank must keep serving its
          // inbox: laggards may still pull re-requests from it, and the
          // retransmission runs inside the RPC body. Poll until every
          // rank is done (mirrors the done-rank branch in the sequential
          // drive). Without an injector kDone guarantees an empty inbox,
          // so returning immediately keeps the fault-free fast path.
          if (injector_ != nullptr) {
            while (!abort.load(std::memory_order_relaxed) &&
                   done_count.load(std::memory_order_relaxed) < n) {
              if (self.progress() > 0) {
                epoch.fetch_add(1, std::memory_order_relaxed);
              } else {
                std::this_thread::yield();
              }
            }
          }
          return;
        }
        if (s == Step::kWorked) {
          epoch.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  bool watchdog_fired = false;
  std::thread watchdog;
  if (config_.threaded_watchdog_ms > 0) {
    watchdog = std::thread([&] {
      using clock = std::chrono::steady_clock;
      const auto window =
          std::chrono::milliseconds(config_.threaded_watchdog_ms);
      std::uint64_t last_epoch = epoch.load(std::memory_order_relaxed);
      auto last_change = clock::now();
      while (!abort.load(std::memory_order_relaxed) &&
             done_count.load(std::memory_order_relaxed) < n) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::uint64_t cur = epoch.load(std::memory_order_relaxed);
        if (cur != last_epoch) {
          last_epoch = cur;
          last_change = clock::now();
        } else if (clock::now() - last_change > window) {
          watchdog_fired = true;
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  for (auto& t : threads) t.join();
  abort.store(true, std::memory_order_relaxed);  // release the watchdog
  if (watchdog.joinable()) watchdog.join();

  if (step_error) std::rethrow_exception(step_error);
  if (watchdog_fired) {
    // A dead rank starves the survivors into the watchdog; surface it
    // as the recoverable death it is, not a generic stall.
    if (injector_ != nullptr) throw_if_rank_dead();
    const std::string msg =
        "Runtime::drive(threaded): all ranks idle for " +
        std::to_string(config_.threaded_watchdog_ms) +
        " ms with " + std::to_string(n - done_count.load()) +
        " of " + std::to_string(n) +
        " ranks unfinished (lost dependency?)" + dump_rank_states(done);
    SYMPACK_LOG_ERROR("%s", msg.c_str());
    throw std::runtime_error(msg);
  }
}

double Runtime::max_clock() const {
  double best = 0.0;
  for (const auto& r : ranks_) best = std::max(best, r->now());
  return best;
}

void Runtime::reset_clocks() {
  for (auto& r : ranks_) r->clock_ = 0.0;
  std::lock_guard<std::mutex> lock(nic_mutex_);
  std::fill(nic_busy_.begin(), nic_busy_.end(), 0.0);
}

CommStats Runtime::total_stats() const {
  CommStats total;
  for (const auto& r : ranks_) {
    const CommStats& s = r->stats();
    total.rpcs_sent += s.rpcs_sent;
    total.rpcs_executed += s.rpcs_executed;
    total.gets += s.gets;
    total.puts += s.puts;
    total.bytes_from_host += s.bytes_from_host;
    total.bytes_from_device += s.bytes_from_device;
    total.bytes_to_device += s.bytes_to_device;
    total.hd_copies += s.hd_copies;
#define SYMPACK_RECOVERY_COUNTER(field, label, trace_name) \
  total.field += s.field;
#define SYMPACK_COMM_COUNTER(field, label, trace_name) \
  total.field += s.field;
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) \
  total.field += s.field;
#include "core/taskrt/counters.def"
#undef SYMPACK_RECOVERY_COUNTER
#undef SYMPACK_COMM_COUNTER
#undef SYMPACK_SYMBOLIC_COUNTER
  }
  return total;
}

void Runtime::reset_stats() {
  for (auto& r : ranks_) r->stats_ = CommStats{};
}

std::size_t Runtime::device_bytes_in_use(int device) const {
  std::lock_guard<std::mutex> lock(device_mutex_);
  return device_used_.at(device);
}

void Runtime::register_allocation(std::byte* addr, Allocation a) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  allocations_.emplace(addr, a);
  bytes_in_use_ += a.bytes;
  peak_bytes_ = std::max(peak_bytes_, bytes_in_use_);
}

Runtime::Allocation Runtime::unregister_allocation(std::byte* addr) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const auto it = allocations_.find(addr);
  if (it == allocations_.end()) {
    throw std::invalid_argument("deallocate: unknown pointer");
  }
  const Allocation a = it->second;
  allocations_.erase(it);
  bytes_in_use_ -= a.bytes;
  return a;
}

std::size_t Runtime::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  return bytes_in_use_;
}

std::size_t Runtime::peak_bytes() const {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  return peak_bytes_;
}

void Runtime::reset_peak_memory() {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  peak_bytes_ = bytes_in_use_;
}

// ------------------------------------------------------ shared buffers

std::shared_ptr<double> shared_host_buffer(Rank& rank, std::size_t count) {
  const GlobalPtr g = rank.allocate_host(count * sizeof(double));
  Rank* owner = &rank;
  return std::shared_ptr<double>(
      g.local<double>(), [owner, g](double*) { owner->deallocate(g); });
}

GlobalPtr pull_ptr(int owner, const std::shared_ptr<const double>& buf) {
  auto* addr = const_cast<double*>(buf.get());  // rget only reads it
  return GlobalPtr{reinterpret_cast<std::byte*>(addr), owner, MemKind::kHost};
}

}  // namespace sympack::pgas
