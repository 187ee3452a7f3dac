// Reliable delivery over a lossy signal substrate.
//
// The fault injector (pgas/fault.hpp) can drop, duplicate or reorder the
// RPC signals the engines exchange. ReliableLink restores exactly-once,
// in-order delivery on top of that with the classic sequence-number
// scheme (paper §4.1's signals become a sequenced stream per
// producer→consumer pair):
//
//   * producer side: record() stamps each outgoing message with a
//     monotonically increasing sequence number and keeps it in a ledger,
//     so any suffix can be replayed when a consumer pulls a re-request.
//   * consumer side: admit() accepts exactly the next expected sequence
//     number, stashes out-of-order arrivals until the gap fills, and
//     discards duplicates. Gap detection is what turns a silent drop
//     into a recoverable event: the consumer notices next_expected has
//     stalled and broadcasts a pull re-request (Endpoint::on_idle).
//
// The link is per-rank state inside taskrt::Endpoint, and it is only
// touched from that rank's driving thread (same single-writer discipline
// as the rest of the engines — DESIGN.md §4d).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "support/backoff.hpp"
#include "support/random.hpp"

namespace sympack::core::taskrt {

template <typename Msg>
class ReliableLink {
 public:
  /// Size the per-peer state. Call once before any record()/admit().
  void init(int nranks) {
    out_.assign(static_cast<std::size_t>(nranks), Outgoing{});
    in_.assign(static_cast<std::size_t>(nranks), Incoming{});
  }

  /// Producer: log `m` as the next message for `target` and return its
  /// sequence number (0-based, per target).
  std::uint64_t record(int target, Msg m) {
    auto& log = out_[target].log;
    log.push_back(std::move(m));
    return static_cast<std::uint64_t>(log.size() - 1);
  }

  /// Producer: everything ever recorded for `target`, indexed by seq.
  [[nodiscard]] const std::vector<Msg>& sent(int target) const {
    return out_[target].log;
  }

  /// Consumer: offer (producer, seq, m). Messages that become
  /// deliverable (the match plus any consecutive stashed successors) are
  /// appended to `run` in sequence order. Returns true if `run` grew.
  /// Duplicates and out-of-order arrivals bump the recovery counters in
  /// `stats`.
  bool admit(int producer, std::uint64_t seq, Msg m, std::vector<Msg>& run,
             pgas::CommStats& stats) {
    Incoming& in = in_[producer];
    if (seq < in.next) {
      ++stats.duplicates_dropped;
      return false;
    }
    if (seq > in.next) {
      ++stats.out_of_order;
      if (!in.stash.emplace(seq, std::move(m)).second) {
        ++stats.duplicates_dropped;  // duplicate of an already-stashed seq
      }
      in.stash_high_water = std::max(in.stash_high_water, in.stash.size());
      return false;
    }
    run.push_back(std::move(m));
    ++in.next;
    for (auto it = in.stash.begin();
         it != in.stash.end() && it->first == in.next;
         it = in.stash.erase(it)) {
      run.push_back(std::move(it->second));
      ++in.next;
    }
    return true;
  }

  /// Consumer: the sequence number we still need from `producer` — the
  /// argument of a pull re-request.
  [[nodiscard]] std::uint64_t next_expected(int producer) const {
    return in_[producer].next;
  }

  /// Consumer: messages currently stashed ahead of the gap from
  /// `producer` (diagnostics: the watchdog dump and the stash tests).
  [[nodiscard]] std::size_t stash_depth(int producer) const {
    return in_[producer].stash.size();
  }
  /// Consumer: the deepest the stash from `producer` has ever been
  /// (high-water; survives the stash draining back to empty).
  [[nodiscard]] std::size_t stash_high_water(int producer) const {
    return in_[producer].stash_high_water;
  }

  /// Forget everything (solve phases reuse one link across phases).
  void reset() {
    for (auto& o : out_) o = Outgoing{};
    for (auto& i : in_) i = Incoming{};
  }

 private:
  struct Outgoing {
    std::vector<Msg> log;
  };
  struct Incoming {
    std::uint64_t next = 0;
    std::map<std::uint64_t, Msg> stash;  // seq -> message, gap buffer
    std::size_t stash_high_water = 0;
  };
  std::vector<Outgoing> out_;
  std::vector<Incoming> in_;
};

/// Thrown by with_rma_retry when the backoff schedule is exhausted:
/// unlike the transient pgas::TransferError it wraps, it carries the
/// retrying rank, how many attempts were burned, and how long the rank
/// waited — everything a watchdog-dump reader needs to distinguish "a
/// link is hard-down" from "one unlucky packet". Derives TransferError
/// so existing catch sites keep working.
class RmaRetryError : public pgas::TransferError {
 public:
  RmaRetryError(int rank_, int attempts_, double waited_s_,
                const std::string& cause)
      : pgas::TransferError(
            "rma retry exhausted at rank " + std::to_string(rank_) +
            " after " + std::to_string(attempts_) + " attempts (" +
            std::to_string(waited_s_) + "s of backoff); last error: " +
            cause),
        rank(rank_),
        attempts(attempts_),
        waited_s(waited_s_) {}
  int rank;
  int attempts;     // retry attempts burned before giving up
  double waited_s;  // total simulated backoff waited
};

/// Run `fn` (an rget/copy) with bounded exponential backoff against
/// transient pgas::TransferError. Each retry charges the retry delay to
/// the rank's clock (the simulated cost of waiting out the NIC hiccup)
/// and bumps stats().retries; exhaustion bumps stats().rma_exhausted and
/// throws RmaRetryError with the rank/attempt/backoff context. The
/// deterministic jitter comes from the caller's per-rank RNG, so replays
/// are bitwise identical. Returns fn()'s completion time.
template <typename Fn>
double with_rma_retry(pgas::Rank& rank, const support::BackoffPolicy& policy,
                      support::Xoshiro256& rng, Tracer* tracer, Fn&& fn) {
  support::Backoff backoff(policy);
  double waited_s = 0.0;
  for (;;) {
    try {
      return fn();
    } catch (const pgas::TransferError& e) {
      if (backoff.exhausted()) {
        ++rank.stats().rma_exhausted;
        throw RmaRetryError(rank.id(), backoff.attempts(), waited_s,
                            e.what());
      }
      ++rank.stats().retries;
      const double delay = backoff.next_delay(rng);
      waited_s += delay;
      if (tracer != nullptr) {
        tracer->record({.rank = rank.id(), .begin_s = rank.now(),
                        .end_s = rank.now(), .mark = kTrace_retries});
      }
      rank.advance(delay);
    }
  }
}

}  // namespace sympack::core::taskrt
