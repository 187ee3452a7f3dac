// Deterministic fault injection for the PGAS runtime.
//
// A FaultInjector, when attached to a Runtime (Runtime::Config::faults
// with enabled = true), perturbs the communication substrate the way a
// lossy GASNet-EX conduit could: RPC signals can be dropped, duplicated,
// delayed (their arrival pushed past the receiver's clock, exercising
// the InboxEntry deferral path in Rank::progress), or reordered within
// the target's inbox; one-sided rget/copy can fail transiently (thrown
// as pgas::TransferError, which callers must retry); and nothrow
// allocate_device calls can be denied to exercise every host-fallback
// path (paper §4.2).
//
// Every decision is drawn from a per-rank xoshiro256** stream seeded
// from (config.seed, rank), so a run is bitwise-replayable from the
// seed alone — the chaos analogue of the interleaving fuzzer. Each
// plan_rpc call draws a fixed number of randoms regardless of which
// faults trigger, so decision streams never shear across rate changes.
//
// Thread-safety (DESIGN.md §4b): injector state is per-rank and
// single-writer. plan_rpc(sender) is called on the sender's thread,
// fail_transfer(rank)/deny_device(rank) on that rank's thread, and the
// per-rank counters are only read after drive() joins its workers.
#pragma once

#include <cstdint>
#include <vector>

#include "support/random.hpp"

namespace sympack::pgas {

/// Injection knobs. All rates are per-event probabilities in [0, 1] and
/// default to 0, so an enabled injector with default rates is a no-op
/// (used by tests to prove the recovery machinery is pay-for-what-you-use).
/// Every field can be overridden from the environment (SYMPACK_FAULT_*);
/// see env_fault_config().
struct FaultConfig {
  /// Master switch: when false the Runtime attaches no injector at all
  /// and every fault-handling code path is bypassed by construction.
  bool enabled = false;
  /// Seed for the per-rank decision streams. Same seed => same faults.
  std::uint64_t seed = 1;
  /// P(an RPC signal vanishes on the wire).
  double drop_rate = 0.0;
  /// P(an RPC signal is delivered twice).
  double duplicate_rate = 0.0;
  /// P(an RPC signal's arrival is pushed delay_s into the future).
  double delay_rate = 0.0;
  /// Injected delay (simulated seconds); ~20us is a NIC-retry regime.
  double delay_s = 20e-6;
  /// P(an RPC signal is inserted at a random inbox position instead of
  /// the back — out-of-order delivery without a clock excuse).
  double reorder_rate = 0.0;
  /// P(an rget/copy throws TransferError instead of moving bytes).
  double transfer_fail_rate = 0.0;
  /// P(a nothrow allocate_device is denied despite free share) — device
  /// memory pressure forcing the §4.2 host fallbacks.
  double device_deny_rate = 0.0;

  // --- Process-death injection (rank kill). Unlike the transient
  // classes above, a kill is a scheduled one-shot: rank `kill_rank` dies
  // at its `kill_event`-th progress() call (its heartbeat epoch), stops
  // progressing, and drops every in-flight inbox/outbox entry. -1 = no
  // kill (the default); -2 = random mode, where the victim rank and
  // event are drawn deterministically from `kill_seed` at injector
  // construction (the chaos-CI rotation). At most one rank dies per
  // injector lifetime (single-failure model).
  int kill_rank = -1;
  /// Heartbeat epoch (per-rank progress() count) at which the kill
  /// fires. 0 with kill_rank >= 0 kills on the very first progress call.
  std::uint64_t kill_event = 0;
  /// Seed for random mode (kill_rank = -2): victim in [0, nranks),
  /// event in [1, kill_max_event].
  std::uint64_t kill_seed = 0;
  /// Upper bound of the random-mode kill event window.
  std::uint64_t kill_max_event = 2000;
};

/// Overlay SYMPACK_FAULT_* environment variables onto `base`:
///   SYMPACK_FAULT_ENABLED, SYMPACK_FAULT_SEED, SYMPACK_FAULT_DROP,
///   SYMPACK_FAULT_DUP, SYMPACK_FAULT_DELAY, SYMPACK_FAULT_DELAY_S,
///   SYMPACK_FAULT_REORDER, SYMPACK_FAULT_TRANSFER, SYMPACK_FAULT_DEVICE,
///   SYMPACK_FAULT_KILL.
/// SYMPACK_FAULT_KILL accepts exactly "<rank>@<event>" (deterministic
/// kill) or "random@<seed>" (seeded random victim/event), each number an
/// unsigned decimal parsed in full, and implies enabled = true; any other
/// value throws std::invalid_argument naming the variable and its value.
/// Unset variables leave the corresponding field untouched. Applied by
/// the Runtime constructor, which then checks the enabled config's
/// ranges (rates in [0, 1], delay_s finite and >= 0, kill_rank -2, -1 or
/// a rank), so any binary can be chaos-tested without a rebuild.
FaultConfig env_fault_config(FaultConfig base);

class FaultInjector {
 public:
  /// What to do with one outgoing RPC. drop excludes the others.
  struct RpcPlan {
    bool drop = false;
    bool duplicate = false;
    bool delay = false;
    bool reorder = false;
    double delay_s = 0.0;
    std::uint64_t reorder_slot = 0;  // raw draw; mod inbox size at use
  };

  /// Injected-fault tallies (what the injector *did*, as opposed to the
  /// CommStats recovery counters, which record what the solver *survived*).
  struct Counters {
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t delays = 0;
    std::uint64_t reorders = 0;
    std::uint64_t transfer_failures = 0;
    std::uint64_t device_denials = 0;
    std::uint64_t kills = 0;
  };

  FaultInjector(const FaultConfig& cfg, int nranks);

  /// Decide the fate of one RPC sent by `sender`. Draws a fixed number
  /// of randoms per call (stream position is independent of outcomes).
  RpcPlan plan_rpc(int sender);
  /// True if this rget/copy issued by `rank` should fail transiently.
  bool fail_transfer(int rank);
  /// True if this nothrow allocate_device at `rank` should be denied.
  bool deny_device(int rank);

  /// True exactly once: when `rank` is the scheduled victim and its
  /// heartbeat epoch has reached the kill event. Draws no randoms (the
  /// random-mode victim is resolved at construction), so configuring a
  /// kill perturbs none of the transient-fault decision streams.
  bool should_kill(int rank, std::uint64_t epoch);
  /// The resolved kill schedule (-1 rank = no kill configured).
  [[nodiscard]] int kill_rank() const { return kill_rank_; }
  [[nodiscard]] std::uint64_t kill_event() const { return kill_event_; }
  /// True after the kill has fired (the single-failure latch: a
  /// recovered run proceeds with no further deaths).
  [[nodiscard]] bool any_killed() const { return killed_; }

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] const Counters& counters(int rank) const {
    return counters_[rank];
  }
  /// Aggregate over ranks. Only call when no rank is being driven.
  [[nodiscard]] Counters total() const;

 private:
  FaultConfig cfg_;
  // Single-writer per slot: only rank r's driving thread touches
  // streams_[r] / counters_[r].
  std::vector<support::Xoshiro256> streams_;
  std::vector<Counters> counters_;
  // Kill schedule, resolved (random mode included) at construction.
  // killed_ is written only by the victim's driving thread; other ranks
  // compare against kill_rank_ first and never touch it.
  int kill_rank_ = -1;
  std::uint64_t kill_event_ = 0;
  bool killed_ = false;
};

}  // namespace sympack::pgas
