#include "pgas/fault.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/env.hpp"

namespace sympack::pgas {
namespace {

/// All of `text` as an unsigned decimal: no sign, no space, no trailing
/// characters, no overflow.
bool parse_unsigned(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

FaultConfig env_fault_config(FaultConfig base) {
  base.enabled = support::env_bool("SYMPACK_FAULT_ENABLED", base.enabled);
  base.seed = static_cast<std::uint64_t>(support::env_int(
      "SYMPACK_FAULT_SEED", static_cast<std::int64_t>(base.seed)));
  base.drop_rate = support::env_double("SYMPACK_FAULT_DROP", base.drop_rate);
  base.duplicate_rate =
      support::env_double("SYMPACK_FAULT_DUP", base.duplicate_rate);
  base.delay_rate = support::env_double("SYMPACK_FAULT_DELAY", base.delay_rate);
  base.delay_s = support::env_double("SYMPACK_FAULT_DELAY_S", base.delay_s);
  base.reorder_rate =
      support::env_double("SYMPACK_FAULT_REORDER", base.reorder_rate);
  base.transfer_fail_rate =
      support::env_double("SYMPACK_FAULT_TRANSFER", base.transfer_fail_rate);
  base.device_deny_rate =
      support::env_double("SYMPACK_FAULT_DEVICE", base.device_deny_rate);
  // SYMPACK_FAULT_KILL = "<rank>@<event>" | "random@<seed>". A kill
  // schedule implies enabled: a victim needs an attached injector.
  const char* kill = std::getenv("SYMPACK_FAULT_KILL");
  if (kill == nullptr) return base;
  const std::string_view spec = kill;
  const std::size_t at = spec.find('@');
  const std::string_view who = spec.substr(0, at);
  const std::string_view when =
      at == std::string_view::npos ? std::string_view() : spec.substr(at + 1);
  const bool random = who == "random";
  constexpr auto kMaxRank =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  std::uint64_t rank = 0;
  std::uint64_t number = 0;
  if (!parse_unsigned(when, number) ||
      (!random && (!parse_unsigned(who, rank) || rank > kMaxRank))) {
    throw std::invalid_argument(
        std::string("SYMPACK_FAULT_KILL=\"") + kill +
        "\" is not \"<rank>@<event>\" or \"random@<seed>\"");
  }
  if (random) {
    base.kill_rank = -2;
    base.kill_seed = number;
  } else {
    base.kill_rank = static_cast<int>(rank);
    base.kill_event = number;
  }
  base.enabled = true;
  return base;
}

FaultInjector::FaultInjector(const FaultConfig& cfg, int nranks) : cfg_(cfg) {
  streams_.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    // Decorrelate the per-rank streams: Xoshiro256's constructor runs
    // SplitMix64 over the seed, so distinct mixed seeds give independent
    // streams for every (seed, rank) pair.
    streams_.emplace_back(cfg.seed ^
                          (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(r) + 1)));
  }
  counters_.assign(static_cast<std::size_t>(nranks), Counters{});
  // Resolve the kill schedule now, from its own stream: the transient
  // decision streams above stay bit-identical whether or not a kill is
  // configured, so a kill overlays cleanly on any existing chaos seed.
  if (cfg.kill_rank == -2) {
    support::Xoshiro256 krng(cfg.kill_seed);
    kill_rank_ = static_cast<int>(
        krng.next_below(static_cast<std::uint64_t>(nranks)));
    const std::uint64_t window =
        cfg.kill_max_event > 0 ? cfg.kill_max_event : 1;
    kill_event_ = 1 + krng.next_below(window);
  } else {
    kill_rank_ = cfg.kill_rank;
    kill_event_ = cfg.kill_event;
  }
}

bool FaultInjector::should_kill(int rank, std::uint64_t epoch) {
  if (rank != kill_rank_ || kill_rank_ < 0 || killed_ ||
      epoch < kill_event_) {
    return false;
  }
  killed_ = true;
  ++counters_[rank].kills;
  return true;
}

FaultInjector::RpcPlan FaultInjector::plan_rpc(int sender) {
  auto& rng = streams_[sender];
  // Fixed draw count per call: the stream position depends only on how
  // many RPCs the rank sent, never on which faults happened to trigger.
  const double u_drop = rng.next_double();
  const double u_dup = rng.next_double();
  const double u_delay = rng.next_double();
  const double u_reorder = rng.next_double();
  const std::uint64_t slot = rng.next();

  RpcPlan plan;
  plan.reorder_slot = slot;
  if (u_drop < cfg_.drop_rate) {
    plan.drop = true;
    ++counters_[sender].drops;
    return plan;
  }
  if (u_dup < cfg_.duplicate_rate) {
    plan.duplicate = true;
    ++counters_[sender].duplicates;
  }
  if (u_delay < cfg_.delay_rate) {
    plan.delay = true;
    plan.delay_s = cfg_.delay_s;
    ++counters_[sender].delays;
  }
  if (u_reorder < cfg_.reorder_rate) {
    plan.reorder = true;
    ++counters_[sender].reorders;
  }
  return plan;
}

bool FaultInjector::fail_transfer(int rank) {
  const bool fail = streams_[rank].next_double() < cfg_.transfer_fail_rate;
  if (fail) ++counters_[rank].transfer_failures;
  return fail;
}

bool FaultInjector::deny_device(int rank) {
  const bool deny = streams_[rank].next_double() < cfg_.device_deny_rate;
  if (deny) ++counters_[rank].device_denials;
  return deny;
}

FaultInjector::Counters FaultInjector::total() const {
  Counters t;
  for (const auto& c : counters_) {
    t.drops += c.drops;
    t.duplicates += c.duplicates;
    t.delays += c.delays;
    t.reorders += c.reorders;
    t.transfer_failures += c.transfer_failures;
    t.device_denials += c.device_denials;
    t.kills += c.kills;
  }
  return t;
}

}  // namespace sympack::pgas
