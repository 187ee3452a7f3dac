// The signal/pull protocol endpoint and rank loop shared by every engine.
//
// One Endpoint instance per engine holds the per-rank message plumbing
// of the paper's one-sided protocol (Fig. 4): the notification inbox a
// signal RPC appends to, the rank loop (step()) that polls it and runs
// the ready tasks, and — under fault injection — the whole self-healing
// machinery:
//
//   * ReliableLink sequencing: send() records outgoing messages in a
//     per-peer ledger and delivers them through admit(), which dedups,
//     stashes out-of-order arrivals, and releases in-order runs. Dedup
//     here is load-bearing: several engine handlers (the factorization
//     engine's fan-in aggregates, solve kX/kContrib) are not idempotent.
//   * Idle-triggered pull re-requests: on_idle() counts consecutive idle
//     steps and, past a doubling threshold (capped rounds), broadcasts
//     next_expected to every peer so producers replay their ledger
//     suffix (request_retransmits/resend_from).
//   * with_retry(): bounded exponential backoff around one-sided
//     transfers (rget/copy) against transient TransferError, jittered by
//     a per-rank RNG seeded from the fault seed so replays are bitwise
//     identical.
//   * Recovery counters/trace events: every protocol action bumps the
//     matching CommStats counter and (when a tracer is attached) emits
//     the zero-width event named in counters.def.
//
// With fault injection off, send() degenerates to the plain signal RPC
// and every recovery member is dead — byte-identical schedules to a
// build without the recovery machinery (asserted by the golden-schedule
// suite).
//
// Threading (DESIGN.md §4d): slot r is touched only by the thread
// driving rank r. send()/post() mutate the *target's* slot, but the RPC
// body runs inside the target's own progress(), so the single-writer
// rule holds; the inbox-mutex release/acquire pair in Rank::rpc/progress
// orders the payload reads.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/taskrt/reliable.hpp"
#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "support/random.hpp"

namespace sympack::core::taskrt {

template <typename Msg>
class Endpoint {
 public:
  /// Attach to a runtime. `tracer` (may be null) receives the zero-width
  /// recovery events; recovery state is initialized only when the
  /// runtime has a fault injector, so fault-free runs carry none of it.
  /// `comm` enables the eager/coalesced transport (both default off —
  /// the wire protocol is then bit-identical to the historical one).
  ///
  /// The eager contract with the engine's Msg type: a hidden-friend
  /// `inline_payload_bytes(const Msg&)` reports how many payload bytes
  /// the message carries inline (0 = pure signal). An inlined payload is
  /// charged per-byte on the wire, and — because it is part of the
  /// message itself — rides the ReliableLink ledger: a retransmit
  /// replays the payload inline, so eager messages never need the pull
  /// re-request round trip (the recovery protocol treats them as
  /// already-delivered data).
  /// `resilience` arms the rank-death scan: with buddy_replicas > 0 an
  /// idle rank periodically polls its peers' liveness and converts a
  /// confirmed death into pgas::RankDeathError for the solver's recovery
  /// loop (default: off, the scan never runs).
  void init(pgas::Runtime& rt, const FaultToleranceOptions& fault,
            Tracer* tracer = nullptr, CommOptions comm = {},
            ResilienceOptions resilience = {}) {
    unregister_dumper();
    rt_ = &rt;
    fault_ = fault;
    comm_ = comm;
    resilience_ = resilience;
    tracer_ = tracer;
    recovery_ = rt.fault_injection_enabled();
    slots_.clear();
    slots_.resize(rt.nranks());
    if (recovery_) {
      // Surface per-peer protocol state (ledger/stash/re-request round)
      // in the watchdog stall dump, so a hung run shows *where* the
      // sequenced stream stopped, not just that it stopped.
      dumper_token_ =
          rt.add_state_dumper([this](int r) { return debug_dump(r); });
      const std::uint64_t fseed = rt.config().faults.seed;
      for (int r = 0; r < rt.nranks(); ++r) {
        Slot& s = slots_[r];
        s.link.init(rt.nranks());
        // Decorrelated from the injector's own streams (different mixing
        // constant), still replayable from the fault seed alone.
        s.retry_rng = support::Xoshiro256(
            fseed ^
            (0xd1b54a32d192ed03ull * (static_cast<std::uint64_t>(r) + 1)));
        s.rerequest_threshold = fault_.rerequest_idle_limit;
      }
    }
  }

  Endpoint() = default;
  ~Endpoint() { unregister_dumper(); }
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] bool recovery() const { return recovery_; }

  /// Should a payload of `bytes` go eager (inlined into the signal)
  /// instead of rendezvous (signal + pull rget)? The engines consult
  /// this when they build the message.
  [[nodiscard]] bool eager(std::size_t bytes) const {
    return comm_.eager_bytes > 0 &&
           bytes < static_cast<std::size_t>(comm_.eager_bytes);
  }

  /// Send `m` to rank `to`: a plain signal RPC with faults off;
  /// ledgered + sequenced through the ReliableLink under injection.
  /// Counts one eager_sends when the message carries an inlined payload
  /// (retransmits of the same message do not recount — they are
  /// retransmits, and the wire bytes are recharged at the Rank layer).
  void send(pgas::Rank& rank, int to, const Msg& m) {
    if (inline_payload_bytes(m) > 0) {
      ++rank.stats().eager_sends;
      if (tracer_ != nullptr) {
        tracer_->record({.rank = rank.id(), .begin_s = rank.now(),
                         .end_s = rank.now(), .mark = kTrace_eager_sends});
      }
    }
    if (!recovery_) {
      const Msg copy = m;
      dispatch(
          rank, to,
          [this, copy](pgas::Rank& target) {
            slots_[target.id()].inbox.push_back(copy);
          },
          inline_payload_bytes(m));
      return;
    }
    const std::uint64_t seq = slots_[rank.id()].link.record(to, m);
    post(rank, to, seq, m);
  }

  /// One step of the rank loop every engine runs (paper §3.4, Fig. 4;
  /// DESIGN.md §4d). The engine supplies four pieces: `handle(msg)` for
  /// one delivered message, `pop()` for at most one ready task (a
  /// std::optional of a task with a `ready` time), `run(task)` to execute
  /// it, and `finished()` for its own termination goal (its tasks all
  /// ran; the queue is empty whenever the loop asks). In order:
  ///   1. rank.progress() runs the RPCs that arrived;
  ///   2. under recovery, a dead rank stops there;
  ///   3. every delivered message goes to `handle`, in delivery order;
  ///   4. at most one popped task runs, the clock merged to its ready
  ///      time first;
  ///   5. when nothing ran, flush_signals() pushes any coalescing outbox
  ///      onto the wire (a rank never declares itself done with signals
  ///      parked);
  ///   6. the rank is done once `finished()` holds with no message or RPC
  ///      pending, and idle otherwise. Worked and idle steps feed the
  ///      recovery protocol's idle streak (on_worked / on_idle).
  template <typename Handle, typename Pop, typename Run, typename Finished>
  pgas::Step step(pgas::Rank& rank, Handle&& handle, Pop&& pop, Run&& run,
                  Finished&& finished) {
    int worked = rank.progress();
    // A killed rank stops participating: die() dropped its inbox, and it
    // must not touch the protocol again until the recovery loop
    // resurrects it.
    if (recovery_ && !rank.alive()) return pgas::Step::kIdle;
    const int me = rank.id();
    const std::vector<Msg> msgs = drain(me);
    for (const Msg& m : msgs) handle(m);
    worked += static_cast<int>(msgs.size());
    if (auto task = pop()) {
      rank.merge_clock(task->ready);
      run(*task);
      ++worked;
    }
    if (worked == 0) worked = rank.flush_signals();
    if (worked > 0) {
      on_worked(me);
      return pgas::Step::kWorked;
    }
    if (finished() && !has_pending(me) && !rank.has_pending_rpcs()) {
      return pgas::Step::kDone;
    }
    on_idle(rank);
    return pgas::Step::kIdle;
  }

  /// Run `fn` (an rget/copy) under the endpoint's RMA backoff policy,
  /// jittered by this rank's recovery RNG. Returns fn()'s completion
  /// time; with faults off fn() cannot throw and this is a plain call.
  template <typename Fn>
  double with_retry(pgas::Rank& rank, Fn&& fn) {
    return with_rma_retry(rank, fault_.rma_backoff,
                          slots_[rank.id()].retry_rng, tracer_,
                          std::forward<Fn>(fn));
  }

  /// Restart the protocol between phases (solve sweeps): inboxes are
  /// dropped, and sequence numbers restart so one sweep's ledger cannot
  /// satisfy the next sweep's re-requests.
  void reset_phase() {
    for (Slot& s : slots_) {
      s.inbox.clear();
      if (recovery_) {
        s.link.reset();
        s.idle_streak = 0;
        s.rerequest_threshold = fault_.rerequest_idle_limit;
        s.rerequest_rounds = 0;
      }
    }
  }

  /// One line of per-peer protocol state for rank `rank_id`, appended to
  /// the watchdog stall dump: re-request round, then for every peer with
  /// nonzero state the ledger size, current/high-water stash depth, and
  /// next expected sequence number.
  [[nodiscard]] std::string debug_dump(int rank_id) const {
    if (!recovery_ || slots_.empty()) return {};
    const Slot& s = slots_[rank_id];
    std::string out = "ep rounds=" + std::to_string(s.rerequest_rounds);
    for (int p = 0; p < rt_->nranks(); ++p) {
      if (p == rank_id) continue;
      const std::size_t ledger = s.link.sent(p).size();
      const std::size_t stash = s.link.stash_depth(p);
      const std::size_t hw = s.link.stash_high_water(p);
      const std::uint64_t next = s.link.next_expected(p);
      if (ledger == 0 && stash == 0 && hw == 0 && next == 0) continue;
      out += " peer" + std::to_string(p) + "[ledger=" +
             std::to_string(ledger) + " stash=" + std::to_string(stash) +
             " hw=" + std::to_string(hw) + " next=" + std::to_string(next) +
             "]";
    }
    return out;
  }

 private:
  struct Slot {
    std::vector<Msg> inbox;
    // Recovery state, initialized/touched only under fault injection.
    ReliableLink<Msg> link;            // seq ledger/stash per peer
    support::Xoshiro256 retry_rng{0};  // jitter stream for RMA backoff
    int idle_streak = 0;               // consecutive idle steps
    int death_scan_streak = 0;         // idle steps since last peer scan
    int rerequest_threshold = 0;       // idle steps before re-request
    int rerequest_rounds = 0;          // rounds since the last new message
  };

  /// Take this rank's pending messages (in delivery order), leaving the
  /// inbox empty.
  std::vector<Msg> drain(int rank_id) {
    std::vector<Msg> msgs;
    msgs.swap(slots_[rank_id].inbox);
    return msgs;
  }

  /// Undrained messages (part of the termination check).
  [[nodiscard]] bool has_pending(int rank_id) const {
    return !slots_[rank_id].inbox.empty();
  }

  /// After a step that made progress: resets the idle streak and the
  /// re-request backoff threshold.
  void on_worked(int rank_id) {
    if (!recovery_) return;
    Slot& s = slots_[rank_id];
    s.idle_streak = 0;
    s.death_scan_streak = 0;
    s.rerequest_threshold = fault_.rerequest_idle_limit;
  }

  /// After a step that made no progress (and is not done). Past the idle
  /// threshold this suspects a lost signal and broadcasts a pull
  /// re-request to every peer, then backs off geometrically so a merely
  /// slow producer is not stormed. The round cap lets the driver's stall
  /// guard fire on unrecoverable bugs (re-request RPCs would otherwise
  /// count as work forever). No-op with faults off.
  /// When resilience is on, a sustained idle streak also runs the
  /// failure detector: scan every peer's liveness and convert a
  /// confirmed death into pgas::RankDeathError (caught by the solver's
  /// recovery loop) instead of re-requesting from a corpse forever.
  void on_idle(pgas::Rank& rank) {
    if (!recovery_) return;
    Slot& s = slots_[rank.id()];
    if (resilience_.buddy_replicas > 0 &&
        ++s.death_scan_streak >= resilience_.detect_idle) {
      s.death_scan_streak = 0;
      scan_for_deaths(rank);
    }
    if (++s.idle_streak < s.rerequest_threshold ||
        s.rerequest_rounds >= fault_.max_rerequest_rounds) {
      return;
    }
    s.idle_streak = 0;
    if (s.rerequest_threshold < (1 << 20)) s.rerequest_threshold *= 2;
    ++s.rerequest_rounds;
    request_retransmits(rank);
  }

  void unregister_dumper() {
    if (rt_ != nullptr && dumper_token_ >= 0) {
      rt_->remove_state_dumper(dumper_token_);
      dumper_token_ = -1;
    }
  }

  /// Failure detector: confirm whether any peer has died. Throwing from
  /// here unwinds the drive loop; the solver's recovery path purges,
  /// restores from the buddy checkpoints, and re-executes.
  void scan_for_deaths(pgas::Rank& rank) {
    const int me = rank.id();
    for (int p = 0; p < rt_->nranks(); ++p) {
      if (p == me || rt_->rank(p).alive()) continue;
      ++rank.stats().peer_deaths_detected;
      if (tracer_ != nullptr) {
        tracer_->record({.rank = me, .begin_s = rank.now(), .end_s = rank.now(),
                         .mark = kTrace_peer_deaths_detected});
      }
      throw pgas::RankDeathError(p, me, rank.now());
    }
  }

  /// Route one signal RPC through the configured transport: plain rpc()
  /// when coalescing is off (the historical wire behavior), otherwise
  /// the per-destination outbox, marking a coalesced-signal trace event
  /// when the signal joins an already-open batch.
  template <typename Fn>
  void dispatch(pgas::Rank& rank, int to, Fn&& fn,
                std::size_t payload_bytes) {
    if (!comm_.coalesce) {
      rank.rpc(to, std::forward<Fn>(fn), payload_bytes);
      return;
    }
    if (tracer_ != nullptr && rank.has_unflushed_signals_to(to)) {
      tracer_->record({.rank = rank.id(), .begin_s = rank.now(),
                       .end_s = rank.now(), .mark = kTrace_coalesced_signals});
    }
    rank.rpc_coalesced(to, std::forward<Fn>(fn), payload_bytes);
  }

  /// Deliver one sequenced message; the RPC body runs link.admit at the
  /// target (dedup/stash/release-run). Passing the inlined payload size
  /// here means a ledger retransmit re-carries (and recharges) the
  /// payload — an eager message is whole on every delivery attempt.
  /// A message the target had not seen (admit counts every copy it
  /// discards as a duplicate) restores its re-request budget: the round
  /// cap counts rounds since the last new message, so idle rounds spent
  /// waiting on slow peers cannot use up the budget a later loss needs.
  void post(pgas::Rank& rank, int to, std::uint64_t seq, const Msg& m) {
    const int from = rank.id();
    dispatch(
        rank, to,
        [this, from, seq, m](pgas::Rank& target) {
          Slot& ts = slots_[target.id()];
          const auto dups = target.stats().duplicates_dropped;
          ts.link.admit(from, seq, m, ts.inbox, target.stats());
          if (target.stats().duplicates_dropped == dups) {
            ts.rerequest_rounds = 0;
          }
        },
        inline_payload_bytes(m));
  }

  /// Consumer side of loss recovery: broadcast a pull re-request
  /// carrying next_expected to every peer.
  void request_retransmits(pgas::Rank& rank) {
    const int me = rank.id();
    Slot& s = slots_[me];
    ++rank.stats().dropped_detected;
    if (tracer_ != nullptr) {
      tracer_->record({.rank = me, .begin_s = rank.now(), .end_s = rank.now(),
                       .mark = kTrace_dropped_detected});
    }
    for (int p = 0; p < rt_->nranks(); ++p) {
      if (p == me) continue;
      const std::uint64_t want = s.link.next_expected(p);
      rank.rpc(p, [this, me, want](pgas::Rank& producer) {
        resend_from(producer, me, want);
      });
    }
  }

  /// Producer side: replay the ledger suffix [from_seq, end) for
  /// `consumer`. Runs inside the producer's progress().
  void resend_from(pgas::Rank& producer, int consumer,
                   std::uint64_t from_seq) {
    const auto& log = slots_[producer.id()].link.sent(consumer);
    for (std::uint64_t s = from_seq; s < log.size(); ++s) {
      ++producer.stats().retransmits;
      if (tracer_ != nullptr) {
        tracer_->record({.rank = producer.id(), .begin_s = producer.now(),
                         .end_s = producer.now(), .mark = kTrace_retransmits});
      }
      post(producer, consumer, s, log[s]);
    }
  }

  pgas::Runtime* rt_ = nullptr;
  FaultToleranceOptions fault_{};
  CommOptions comm_{};
  ResilienceOptions resilience_{};
  Tracer* tracer_ = nullptr;
  bool recovery_ = false;
  int dumper_token_ = -1;  // watchdog state-dumper registration
  std::vector<Slot> slots_;
};

}  // namespace sympack::core::taskrt
