// Tests for the PGAS runtime: machine model cost shapes, allocation and
// device-segment accounting, RPC delivery, one-sided RMA semantics,
// simulated clocks, and the cooperative/threaded drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "pgas/fault.hpp"
#include "pgas/global_ptr.hpp"
#include "pgas/machine_model.hpp"
#include "pgas/runtime.hpp"

namespace sympack::pgas {
namespace {

Runtime::Config small_config(int nranks, int per_node = 2) {
  Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = per_node;
  cfg.gpus_per_node = 2;
  cfg.device_memory_bytes = 1 << 20;
  return cfg;
}

TEST(MachineModel, TransferMonotoneInSize) {
  MachineModel m;
  double prev = 0.0;
  for (std::size_t bytes : {64u, 1024u, 65536u, 1u << 20}) {
    const double t = m.transfer_time(bytes, false, MemKind::kHost, MemKind::kHost);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MachineModel, SameNodeCheaperThanRemote) {
  MachineModel m;
  const double local =
      m.transfer_time(1 << 16, true, MemKind::kHost, MemKind::kHost);
  const double remote =
      m.transfer_time(1 << 16, false, MemKind::kHost, MemKind::kHost);
  EXPECT_LT(local, remote);
}

TEST(MachineModel, NativeMemkindsBeatsReferenceForDeviceTargets) {
  MachineModel native;
  native.memkinds = MemKindsImpl::kNative;
  MachineModel reference = native;
  reference.memkinds = MemKindsImpl::kReference;
  for (std::size_t bytes : {8192u, 65536u, 1u << 20, 4u << 20}) {
    const double tn =
        native.transfer_time(bytes, false, MemKind::kHost, MemKind::kDevice);
    const double tr = reference.transfer_time(bytes, false, MemKind::kHost,
                                              MemKind::kDevice);
    EXPECT_GT(tr / tn, 1.5) << bytes;
  }
}

TEST(MachineModel, Fig5RatiosAtCalibrationPoints) {
  // The paper reports native/reference bandwidth ratios of 5.9x at 8 KiB
  // and 2.3x for payloads over 1 MiB (§5.1).
  MachineModel native;
  MachineModel reference = native;
  reference.memkinds = MemKindsImpl::kReference;
  const double r8k =
      reference.transfer_time(8 << 10, false, MemKind::kHost, MemKind::kDevice) /
      native.transfer_time(8 << 10, false, MemKind::kHost, MemKind::kDevice);
  EXPECT_NEAR(r8k, 5.9, 0.9);
  const double r4m =
      reference.transfer_time(4 << 20, false, MemKind::kHost, MemKind::kDevice) /
      native.transfer_time(4 << 20, false, MemKind::kHost, MemKind::kDevice);
  EXPECT_NEAR(r4m, 2.3, 0.4);
}

TEST(MachineModel, NativeWithin20PercentOfMpi) {
  MachineModel m;
  for (std::size_t bytes : {256u, 8192u, 1u << 20, 4u << 20}) {
    const double upcxx =
        m.transfer_time(bytes, false, MemKind::kHost, MemKind::kDevice);
    const double mpi =
        m.mpi_transfer_time(bytes, false, MemKind::kHost, MemKind::kDevice);
    EXPECT_LT(upcxx / mpi, 1.2) << bytes;
    EXPECT_GT(upcxx / mpi, 0.8) << bytes;
  }
}

TEST(Runtime, TopologyMapping) {
  Runtime rt(small_config(6, 2));
  EXPECT_EQ(rt.nranks(), 6);
  EXPECT_EQ(rt.nodes(), 3);
  EXPECT_EQ(rt.rank(0).node(), 0);
  EXPECT_EQ(rt.rank(3).node(), 1);
  EXPECT_TRUE(rt.same_node(2, 3));
  EXPECT_FALSE(rt.same_node(1, 2));
}

TEST(Runtime, DeviceBindingCyclic) {
  // 4 ranks/node, 2 GPUs/node: ranks 0,2 -> dev0; 1,3 -> dev1 of node 0.
  Runtime::Config cfg = small_config(8, 4);
  cfg.gpus_per_node = 2;
  Runtime rt(cfg);
  EXPECT_EQ(rt.rank(0).device(), 0);
  EXPECT_EQ(rt.rank(1).device(), 1);
  EXPECT_EQ(rt.rank(2).device(), 0);
  EXPECT_EQ(rt.rank(3).device(), 1);
  EXPECT_EQ(rt.rank(4).device(), 2);  // node 1's first device
}

TEST(Runtime, HostAllocationRoundTrip) {
  Runtime rt(small_config(2));
  auto ptr = rt.rank(0).allocate_host(128);
  ASSERT_FALSE(ptr.is_null());
  EXPECT_EQ(ptr.rank, 0);
  EXPECT_EQ(ptr.kind, MemKind::kHost);
  std::memset(ptr.addr, 0xAB, 128);
  rt.rank(0).deallocate(ptr);
}

TEST(Runtime, DeviceAllocationAccounting) {
  Runtime rt(small_config(2));
  auto& r0 = rt.rank(0);
  auto a = r0.allocate_device(1000);
  ASSERT_FALSE(a.is_null());
  EXPECT_EQ(a.kind, MemKind::kDevice);
  EXPECT_EQ(rt.device_bytes_in_use(r0.device()), 1000u);
  auto b = r0.allocate_device(500);
  EXPECT_EQ(rt.device_bytes_in_use(r0.device()), 1500u);
  r0.deallocate(a);
  EXPECT_EQ(rt.device_bytes_in_use(r0.device()), 500u);
  r0.deallocate(b);
  EXPECT_EQ(rt.device_bytes_in_use(r0.device()), 0u);
}

TEST(Runtime, DeviceOomNothrowReturnsNull) {
  Runtime rt(small_config(2));
  auto& r0 = rt.rank(0);
  auto big = r0.allocate_device((1 << 20) - 16);
  ASSERT_FALSE(big.is_null());
  auto fail = r0.allocate_device(1 << 16, /*nothrow=*/true);
  EXPECT_TRUE(fail.is_null());
  r0.deallocate(big);
}

TEST(Runtime, DeviceOomThrowingFallbackOption) {
  // The paper's second fallback option: throw on device allocation
  // failure so the user can rerun with more device memory (§4.2).
  Runtime rt(small_config(2));
  auto& r0 = rt.rank(0);
  auto big = r0.allocate_device((1 << 20) - 16);
  EXPECT_THROW(r0.allocate_device(1 << 16, /*nothrow=*/false), DeviceOom);
  r0.deallocate(big);
}

TEST(Runtime, RanksShareDeviceSegment) {
  // Ranks 0 and 2 share device 0 under 4 ranks/node, 2 gpus/node, and
  // each owns an *equal* half of the 1 MiB segment (paper §4.2).
  Runtime::Config cfg = small_config(4, 4);
  cfg.gpus_per_node = 2;
  Runtime rt(cfg);
  EXPECT_EQ(rt.rank(0).device_share_bytes(), (1u << 20) / 2);
  EXPECT_EQ(rt.rank(2).device_share_bytes(), (1u << 20) / 2);
  // A rank cannot exceed its share even when the device as a whole has
  // room — so one rank can never starve its co-located peer.
  auto over = rt.rank(0).allocate_device(600 << 10, /*nothrow=*/true);
  EXPECT_TRUE(over.is_null());
  auto a = rt.rank(0).allocate_device(500 << 10);
  ASSERT_FALSE(a.is_null());
  auto b = rt.rank(2).allocate_device(500 << 10, /*nothrow=*/true);
  ASSERT_FALSE(b.is_null());  // peer's share is untouched by rank 0's use
  rt.rank(0).deallocate(a);
  rt.rank(2).deallocate(b);
  EXPECT_EQ(rt.device_bytes_in_use(0), 0u);
}

TEST(Runtime, DeviceShareOomMessageNamesTheShare) {
  Runtime::Config cfg = small_config(4, 4);
  cfg.gpus_per_node = 2;
  Runtime rt(cfg);
  try {
    rt.rank(0).allocate_device(600 << 10, /*nothrow=*/false);
    FAIL() << "expected DeviceOom";
  } catch (const DeviceOom& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("equal per-rank share"), std::string::npos) << what;
    EXPECT_NE(what.find("2 ranks share the device"), std::string::npos)
        << what;
  }
}

TEST(Runtime, DeallocateUnknownPointerThrows) {
  Runtime rt(small_config(2));
  std::byte dummy;
  GlobalPtr bogus{&dummy, 0, MemKind::kHost};
  EXPECT_THROW(rt.rank(0).deallocate(bogus), std::invalid_argument);
}

TEST(Rpc, DeliveredOnProgress) {
  Runtime rt(small_config(2));
  int hits = 0;
  rt.rank(0).rpc(1, [&](Rank& self) {
    EXPECT_EQ(self.id(), 1);
    ++hits;
  });
  EXPECT_EQ(hits, 0);  // not yet executed
  EXPECT_TRUE(rt.rank(1).has_pending_rpcs());
  const int executed = rt.rank(1).progress();
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(rt.rank(1).has_pending_rpcs());
}

TEST(Rpc, ArrivalAdvancesTargetClock) {
  Runtime rt(small_config(2));
  rt.rank(0).advance(1.0);  // sender is far ahead in simulated time
  rt.rank(0).rpc(1, [](Rank&) {});
  rt.rank(1).progress();
  EXPECT_GE(rt.rank(1).now(), 1.0);  // cannot process before arrival
}

TEST(Rpc, StatsCounted) {
  Runtime rt(small_config(2));
  rt.rank(0).rpc(1, [](Rank&) {});
  rt.rank(0).rpc(1, [](Rank&) {});
  rt.rank(1).progress();
  EXPECT_EQ(rt.rank(0).stats().rpcs_sent, 2u);
  EXPECT_EQ(rt.rank(1).stats().rpcs_executed, 2u);
}

TEST(Rma, RgetCopiesBytesAndReturnsCompletionTime) {
  Runtime rt(small_config(4, 2));
  auto src = rt.rank(2).allocate_host(64);  // remote node from rank 0
  for (int i = 0; i < 64; ++i) src.addr[i] = static_cast<std::byte>(i);
  std::vector<std::byte> dst(64);
  auto& r0 = rt.rank(0);
  const double t0 = r0.now();
  const double done = r0.rget(src, dst.data(), 64, MemKind::kHost);
  EXPECT_EQ(std::memcmp(dst.data(), src.addr, 64), 0);
  EXPECT_GT(done, t0);
  // Non-blocking: the local clock advanced only by the issue overhead.
  EXPECT_LT(r0.now() - t0, 1e-6);
  EXPECT_EQ(r0.stats().gets, 1u);
  EXPECT_EQ(r0.stats().bytes_from_host, 64u);
  rt.rank(2).deallocate(src);
}

TEST(Rma, DeviceTargetsCostMoreUnderReferenceImpl) {
  Runtime::Config cfg = small_config(4, 2);
  cfg.model.memkinds = MemKindsImpl::kReference;
  Runtime ref_rt(cfg);
  cfg.model.memkinds = MemKindsImpl::kNative;
  Runtime nat_rt(cfg);

  auto run = [](Runtime& rt) {
    auto src = rt.rank(2).allocate_host(1 << 20);
    auto dst = rt.rank(0).allocate_device(1 << 20);
    const double done =
        rt.rank(0).rget(src, dst.addr, 1 << 20, MemKind::kDevice);
    rt.rank(2).deallocate(src);
    rt.rank(0).deallocate(dst);
    return done;
  };
  EXPECT_GT(run(ref_rt), run(nat_rt));
}

TEST(Rma, CopyBetweenRemoteKindsWorks) {
  // The §4.2 optimization: push host data straight into a *remote*
  // device buffer with a single copy().
  Runtime rt(small_config(4, 2));
  auto src = rt.rank(0).allocate_host(256);
  auto dst = rt.rank(3).allocate_device(256);
  std::memset(src.addr, 0x5A, 256);
  const double done = rt.rank(0).copy(src, dst, 256);
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(dst.addr[255], std::byte{0x5A});
  EXPECT_EQ(rt.rank(0).stats().bytes_to_device, 256u);
  rt.rank(0).deallocate(src);
  rt.rank(3).deallocate(dst);
}

TEST(Rma, HdCopyChargesPcieAndBlocks) {
  Runtime rt(small_config(2));
  auto& r0 = rt.rank(0);
  std::vector<std::byte> host(1 << 20);
  auto dev = r0.allocate_device(1 << 20);
  const double t0 = r0.now();
  r0.hd_copy(host.data(), dev.addr, 1 << 20);
  const double dt = r0.now() - t0;
  EXPECT_GT(dt, rt.model().pcie_latency_s);
  r0.deallocate(dev);
}

TEST(Clock, MergeAndAdvance) {
  Runtime rt(small_config(2));
  auto& r0 = rt.rank(0);
  r0.advance(0.5);
  r0.merge_clock(0.3);  // no-op, already later
  EXPECT_DOUBLE_EQ(r0.now(), 0.5);
  r0.merge_clock(0.9);
  EXPECT_DOUBLE_EQ(r0.now(), 0.9);
  rt.reset_clocks();
  EXPECT_DOUBLE_EQ(r0.now(), 0.0);
}

TEST(Clock, MaxClockAcrossRanks) {
  Runtime rt(small_config(3, 3));
  rt.rank(1).advance(2.5);
  EXPECT_DOUBLE_EQ(rt.max_clock(), 2.5);
}

TEST(Drive, SequentialRunsUntilAllDone) {
  Runtime rt(small_config(4, 2));
  std::vector<int> steps(4, 0);
  rt.drive([&](Rank& self) {
    if (++steps[self.id()] >= self.id() + 1) return Step::kDone;
    return Step::kWorked;
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(steps[r], r + 1);
}

TEST(Drive, PingPongAcrossRanks) {
  // Rank 0 sends a token to 1, which sends it back; both finish after a
  // round trip. Exercises RPC + progress inside a driven loop.
  Runtime rt(small_config(2));
  std::vector<int> tokens(2, 0);
  std::vector<bool> sent(2, false);
  rt.drive([&](Rank& self) {
    const int me = self.id();
    if (self.progress() > 0) { /* token arrived */ }
    if (me == 0 && !sent[0]) {
      sent[0] = true;
      self.rpc(1, [&](Rank&) { tokens[1]++; });
      return Step::kWorked;
    }
    if (me == 1 && tokens[1] > 0 && !sent[1]) {
      sent[1] = true;
      self.rpc(0, [&](Rank&) { tokens[0]++; });
      return Step::kWorked;
    }
    if (me == 0 && tokens[0] > 0) return Step::kDone;
    if (me == 1 && sent[1]) return Step::kDone;
    return Step::kIdle;
  });
  EXPECT_EQ(tokens[0], 1);
  EXPECT_EQ(tokens[1], 1);
}

TEST(Drive, DeadlockGuardThrows) {
  Runtime rt(small_config(2));
  EXPECT_THROW(
      rt.drive([](Rank&) { return Step::kIdle; }, /*stall_limit=*/50),
      std::runtime_error);
}

TEST(Drive, DeadlockMessageCarriesSeedAndRankDump) {
  // A stall under the interleaving fuzzer must log the seed (so the
  // schedule can be replayed) and the per-rank state dump.
  Runtime rt(small_config(2));
  try {
    rt.drive([](Rank&) { return Step::kIdle; }, /*stall_limit=*/20,
             /*interleave_seed=*/777);
    FAIL() << "expected stall";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("interleave_seed=777"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0:"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1:"), std::string::npos) << what;
    EXPECT_NE(what.find("inbox="), std::string::npos) << what;
  }
}

namespace {

// Record the exact order ranks are stepped in until each has been
// stepped `per_rank` times.
std::vector<int> stepping_order(Runtime& rt, std::uint64_t seed,
                                int per_rank) {
  std::vector<int> order;
  std::vector<int> counts(rt.nranks(), 0);
  rt.drive(
      [&](Rank& self) {
        order.push_back(self.id());
        if (++counts[self.id()] >= per_rank) return Step::kDone;
        return Step::kWorked;
      },
      /*stall_limit=*/100, seed);
  return order;
}

}  // namespace

TEST(Drive, InterleaveSeedReplaysIdenticalSchedule) {
  Runtime rt_a(small_config(6, 2));
  Runtime rt_b(small_config(6, 2));
  const auto order_a = stepping_order(rt_a, 12345, 8);
  const auto order_b = stepping_order(rt_b, 12345, 8);
  EXPECT_EQ(order_a, order_b);  // same seed -> bitwise-identical schedule

  Runtime rt_c(small_config(6, 2));
  const auto order_c = stepping_order(rt_c, 54321, 8);
  EXPECT_NE(order_a, order_c);  // different seed -> different interleaving
}

TEST(Drive, SeedZeroIsPlainRoundRobin) {
  Runtime rt(small_config(4, 2));
  const auto order = stepping_order(rt, 0, 3);
  const std::vector<int> expect{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3};
  EXPECT_EQ(order, expect);
}

TEST(Drive, FuzzedInterleavingStillCompletesPingPong) {
  // The RPC protocol must be schedule-independent: fuzz a handful of
  // adversarial stepping orders over the ping-pong exchange.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0xdeadbeefull}) {
    Runtime rt(small_config(4, 2));
    std::vector<int> tokens(4, 0);
    std::vector<bool> sent(4, false);
    rt.drive(
        [&](Rank& self) {
          const int me = self.id();
          self.progress();
          if (!sent[me]) {
            sent[me] = true;
            self.rpc((me + 1) % 4, [&, me](Rank&) { tokens[me]++; });
            return Step::kWorked;
          }
          if (tokens[me] > 0 && !self.has_pending_rpcs()) {
            return Step::kDone;
          }
          return Step::kIdle;
        },
        /*stall_limit=*/10000, seed);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(tokens[r], 1) << "seed " << seed;
  }
}

TEST(Drive, ThreadedWatchdogThrowsOnAllIdle) {
  Runtime::Config cfg = small_config(2);
  cfg.threaded = true;
  cfg.threaded_watchdog_ms = 50;
  Runtime rt(cfg);
  try {
    rt.drive([](Rank&) { return Step::kIdle; });
    FAIL() << "expected watchdog";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("all ranks idle"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0:"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1:"), std::string::npos) << what;
  }
}

TEST(Drive, ThreadedWorkerExceptionPropagates) {
  // An exception escaping step() on a worker thread must surface on the
  // calling thread instead of std::terminate-ing the process.
  Runtime::Config cfg = small_config(4, 2);
  cfg.threaded = true;
  Runtime rt(cfg);
  try {
    rt.drive([](Rank& self) -> Step {
      if (self.id() == 2) throw std::logic_error("boom on rank 2");
      return Step::kIdle;
    });
    FAIL() << "expected propagated exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "boom on rank 2");
  }
}

TEST(Drive, ThreadedModeCompletes) {
  Runtime::Config cfg = small_config(4, 2);
  cfg.threaded = true;
  Runtime rt(cfg);
  std::atomic<int> total{0};
  rt.drive([&](Rank&) {
    if (total.fetch_add(1) > 100) return Step::kDone;
    return Step::kWorked;
  });
  EXPECT_GT(total.load(), 100);
}

TEST(Drive, ThreadedRpcStress) {
  // Many cross-rank RPCs under real threads: checks inbox thread safety.
  Runtime::Config cfg = small_config(4, 2);
  cfg.threaded = true;
  Runtime rt(cfg);
  std::atomic<int> received{0};
  constexpr int kPerRank = 200;
  rt.drive([&](Rank& self) {
    static thread_local int sent_local;  // reset per thread run
    self.progress();
    if (sent_local < kPerRank) {
      const int target = (self.id() + 1) % self.nranks();
      self.rpc(target, [&](Rank&) { received.fetch_add(1); });
      ++sent_local;
      return Step::kWorked;
    }
    // Finish once everything that could arrive has been drained.
    if (received.load() >= 4 * kPerRank && !self.has_pending_rpcs()) {
      return Step::kDone;
    }
    return Step::kIdle;
  });
  EXPECT_EQ(received.load(), 4 * kPerRank);
}

TEST(Stats, TotalsAggregateAndReset) {
  Runtime rt(small_config(2));
  rt.rank(0).rpc(1, [](Rank&) {});
  rt.rank(1).progress();
  auto total = rt.total_stats();
  EXPECT_EQ(total.rpcs_sent, 1u);
  EXPECT_EQ(total.rpcs_executed, 1u);
  rt.reset_stats();
  total = rt.total_stats();
  EXPECT_EQ(total.rpcs_sent, 0u);
}

}  // namespace
}  // namespace sympack::pgas

namespace sympack::pgas {
namespace {

// ------------------------------------------------------------------
// Fault injection (pgas/fault.hpp): determinism of the decision streams,
// the per-class runtime effects, and the satellite invariant that an
// *enabled* injector with all rates at zero is byte-identical to no
// injector at all.

FaultConfig all_zero_rates(std::uint64_t seed) {
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = seed;
  return fc;
}

TEST(Fault, InjectorReplaysBitwiseFromSeed) {
  FaultConfig fc = all_zero_rates(42);
  fc.drop_rate = 0.3;
  fc.duplicate_rate = 0.2;
  fc.delay_rate = 0.2;
  fc.reorder_rate = 0.2;
  FaultInjector a(fc, 4), b(fc, 4);
  for (int i = 0; i < 200; ++i) {
    for (int r = 0; r < 4; ++r) {
      const auto pa = a.plan_rpc(r);
      const auto pb = b.plan_rpc(r);
      EXPECT_EQ(pa.drop, pb.drop);
      EXPECT_EQ(pa.duplicate, pb.duplicate);
      EXPECT_EQ(pa.delay, pb.delay);
      EXPECT_EQ(pa.reorder, pb.reorder);
      EXPECT_EQ(pa.reorder_slot, pb.reorder_slot);
      EXPECT_EQ(a.fail_transfer(r), b.fail_transfer(r));
      EXPECT_EQ(a.deny_device(r), b.deny_device(r));
    }
  }
  const auto ta = a.total(), tb = b.total();
  EXPECT_EQ(ta.drops, tb.drops);
  EXPECT_EQ(ta.duplicates, tb.duplicates);
  EXPECT_EQ(ta.transfer_failures, tb.transfer_failures);

  // A different seed must give a different decision stream.
  FaultConfig other = fc;
  other.seed = 43;
  FaultInjector c(fc, 4), d(other, 4);
  int diffs = 0;
  for (int i = 0; i < 200; ++i) {
    if (c.plan_rpc(0).drop != d.plan_rpc(0).drop) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(Fault, FixedDrawCountKeepsStreamsAligned) {
  // The drop decisions must be identical whether or not the other fault
  // classes are active: plan_rpc always draws the same number of randoms,
  // so enabling duplication cannot shear the drop stream.
  FaultConfig drop_only = all_zero_rates(7);
  drop_only.drop_rate = 0.5;
  FaultConfig drop_and_more = drop_only;
  drop_and_more.duplicate_rate = 0.9;
  drop_and_more.delay_rate = 0.9;
  drop_and_more.reorder_rate = 0.9;
  FaultInjector a(drop_only, 2), b(drop_and_more, 2);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.plan_rpc(0).drop, b.plan_rpc(0).drop) << i;
  }
}

namespace {

struct ScriptedRun {
  std::vector<int> order;
  std::vector<double> clocks;
  CommStats stats;
};

// A fixed cross-rank RPC workload under the round-robin driver: every
// rank pings its neighbor 8 times, then drains. Captures everything a
// schedule could perturb.
ScriptedRun scripted_rpc_run(Runtime& rt) {
  ScriptedRun out;
  const int n = rt.nranks();
  std::vector<int> sent(n, 0), got(n, 0);
  rt.drive([&](Rank& self) {
    const int me = self.id();
    out.order.push_back(me);
    int worked = self.progress();
    if (sent[me] < 8) {
      ++sent[me];
      self.rpc((me + 1) % n, [&got](Rank& t) { ++got[t.id()]; });
      ++worked;
    }
    if (worked > 0) return Step::kWorked;
    if (got[me] == 8 && !self.has_pending_rpcs()) return Step::kDone;
    return Step::kIdle;
  });
  for (int r = 0; r < n; ++r) out.clocks.push_back(rt.rank(r).now());
  out.stats = rt.total_stats();
  return out;
}

}  // namespace

TEST(Fault, ZeroRatesEnabledIsByteIdenticalToDisabled) {
  // Satellite invariant: attaching an injector whose rates are all zero
  // must not perturb anything observable — same stepping order, same
  // simulated clocks, same statistics, bit for bit.
  Runtime plain(small_config(4, 2));
  Runtime::Config cfg = small_config(4, 2);
  cfg.faults = all_zero_rates(123);
  Runtime injected(cfg);
  ASSERT_TRUE(injected.fault_injection_enabled());

  const ScriptedRun a = scripted_rpc_run(plain);
  const ScriptedRun b = scripted_rpc_run(injected);
  EXPECT_EQ(a.order, b.order);
  ASSERT_EQ(a.clocks.size(), b.clocks.size());
  for (std::size_t r = 0; r < a.clocks.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.clocks[r], b.clocks[r]) << "rank " << r;
  }
  EXPECT_EQ(a.stats.rpcs_sent, b.stats.rpcs_sent);
  EXPECT_EQ(a.stats.rpcs_executed, b.stats.rpcs_executed);
  EXPECT_EQ(a.stats.rpcs_deferred, b.stats.rpcs_deferred);
  EXPECT_EQ(b.stats.rpcs_deferred, 0u);
  EXPECT_EQ(b.stats.duplicates_dropped, 0u);
  EXPECT_EQ(b.stats.retries, 0u);
}

TEST(Fault, DropSwallowsRpc) {
  Runtime::Config cfg = small_config(2);
  cfg.faults = all_zero_rates(5);
  cfg.faults.drop_rate = 1.0;
  Runtime rt(cfg);
  int hits = 0;
  rt.rank(0).rpc(1, [&](Rank&) { ++hits; });
  EXPECT_FALSE(rt.rank(1).has_pending_rpcs());
  EXPECT_EQ(rt.rank(1).progress(), 0);
  EXPECT_EQ(hits, 0);
  // The sender is still charged (it does not know the message died).
  EXPECT_EQ(rt.rank(0).stats().rpcs_sent, 1u);
  EXPECT_EQ(rt.injector()->counters(0).drops, 1u);
}

TEST(Fault, DuplicateDeliversTwice) {
  Runtime::Config cfg = small_config(2);
  cfg.faults = all_zero_rates(5);
  cfg.faults.duplicate_rate = 1.0;
  Runtime rt(cfg);
  int hits = 0;
  rt.rank(0).rpc(1, [&](Rank&) { ++hits; });
  EXPECT_EQ(rt.rank(1).progress(), 2);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(rt.injector()->counters(0).duplicates, 1u);
}

TEST(Fault, DelayDefersUntilClockCatchesUp) {
  Runtime::Config cfg = small_config(2);
  cfg.faults = all_zero_rates(5);
  cfg.faults.delay_rate = 1.0;
  cfg.faults.delay_s = 1e-3;
  Runtime rt(cfg);
  int hits = 0;
  rt.rank(0).rpc(1, [&](Rank&) { ++hits; });
  // The receiver's clock is far behind the injected arrival; progress()
  // defers the entry once, then (as it is the only input) warps to the
  // injected arrival instead of deadlocking.
  EXPECT_EQ(rt.rank(1).progress(), 1);
  EXPECT_EQ(hits, 1);
  EXPECT_GE(rt.rank(1).now(), 1e-3);
  EXPECT_GE(rt.rank(1).stats().rpcs_deferred, 1u);
  EXPECT_EQ(rt.injector()->counters(0).delays, 1u);
}

TEST(Fault, DelayedEntryWaitsWhenOtherWorkExists) {
  Runtime::Config cfg = small_config(2);
  cfg.faults = all_zero_rates(9);
  cfg.faults.delay_rate = 0.5;  // seed 9: decided per message below
  cfg.faults.delay_s = 1e-3;
  Runtime rt(cfg);
  // Send messages until at least one is delayed and one is not.
  int delayed = 0, prompt = 0;
  for (int i = 0; i < 32; ++i) {
    rt.rank(0).rpc(1, [](Rank&) {});
  }
  delayed = static_cast<int>(rt.injector()->counters(0).delays);
  prompt = 32 - delayed;
  ASSERT_GT(delayed, 0);
  ASSERT_GT(prompt, 0);
  // Repeated progress() executes everything: prompt entries first
  // (charging the clock), held ones as the clock catches up or via the
  // idle warp (each warp only reaches the earliest still-held arrival).
  int total = 0;
  for (int i = 0; i < 64 && total < 32; ++i) total += rt.rank(1).progress();
  EXPECT_EQ(total, 32);
  EXPECT_GE(rt.rank(1).stats().rpcs_deferred, 1u);
}

TEST(Fault, ReorderStillDeliversAll) {
  Runtime::Config cfg = small_config(2);
  cfg.faults = all_zero_rates(11);
  cfg.faults.reorder_rate = 1.0;
  Runtime rt(cfg);
  std::vector<int> seen;
  for (int i = 0; i < 16; ++i) {
    rt.rank(0).rpc(1, [&seen, i](Rank&) { seen.push_back(i); });
  }
  int total = 0;
  for (int i = 0; i < 8 && total < 16; ++i) total += rt.rank(1).progress();
  EXPECT_EQ(total, 16);
  std::vector<int> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expect(16);
  for (int i = 0; i < 16; ++i) expect[i] = i;
  EXPECT_EQ(sorted, expect);      // nothing lost or duplicated
  EXPECT_NE(seen, expect);        // but the order was scrambled
  EXPECT_GT(rt.injector()->counters(0).reorders, 0u);
}

TEST(Fault, TransferErrorFromRgetAndCopy) {
  Runtime::Config cfg = small_config(4, 2);
  cfg.faults = all_zero_rates(3);
  cfg.faults.transfer_fail_rate = 1.0;
  Runtime rt(cfg);
  auto src = rt.rank(2).allocate_host(64);
  std::vector<std::byte> dst(64);
  EXPECT_THROW(rt.rank(0).rget(src, dst.data(), 64, MemKind::kHost),
               TransferError);
  auto remote = rt.rank(3).allocate_host(64);
  EXPECT_THROW(rt.rank(0).copy(src, remote, 64), TransferError);
  EXPECT_GE(rt.injector()->counters(0).transfer_failures, 2u);
  // No bytes were charged for the failed attempts.
  EXPECT_EQ(rt.rank(0).stats().gets, 0u);
  EXPECT_EQ(rt.rank(0).stats().bytes_from_host, 0u);
  rt.rank(2).deallocate(src);
  rt.rank(3).deallocate(remote);
}

TEST(Fault, DeviceDenialOnlyAffectsNothrowPath) {
  Runtime::Config cfg = small_config(2);
  cfg.faults = all_zero_rates(3);
  cfg.faults.device_deny_rate = 1.0;
  Runtime rt(cfg);
  auto denied = rt.rank(0).allocate_device(1024, /*nothrow=*/true);
  EXPECT_TRUE(denied.is_null());
  EXPECT_EQ(rt.injector()->counters(0).device_denials, 1u);
  // The throwing path models the user's explicit abort-on-OOM choice, so
  // pressure injection leaves it alone.
  auto ok = rt.rank(0).allocate_device(1024, /*nothrow=*/false);
  ASSERT_FALSE(ok.is_null());
  rt.rank(0).deallocate(ok);
}

TEST(Fault, EnvKnobsAttachInjectorWithoutRebuild) {
  ASSERT_EQ(setenv("SYMPACK_FAULT_ENABLED", "1", 1), 0);
  ASSERT_EQ(setenv("SYMPACK_FAULT_DROP", "0.25", 1), 0);
  ASSERT_EQ(setenv("SYMPACK_FAULT_SEED", "99", 1), 0);
  Runtime rt(small_config(2));
  unsetenv("SYMPACK_FAULT_ENABLED");
  unsetenv("SYMPACK_FAULT_DROP");
  unsetenv("SYMPACK_FAULT_SEED");
  ASSERT_TRUE(rt.fault_injection_enabled());
  EXPECT_DOUBLE_EQ(rt.injector()->config().drop_rate, 0.25);
  EXPECT_EQ(rt.injector()->config().seed, 99u);
  // And a fresh runtime without the env vars attaches nothing.
  Runtime clean(small_config(2));
  EXPECT_FALSE(clean.fault_injection_enabled());
}

TEST(Fault, DriveSurvivesDropsWithRerequestingStep) {
  // Runtime-level mini recovery protocol: a consumer that notices it is
  // missing messages re-requests them; the drive completes despite a 30%
  // drop rate. (The solver engines implement the full ledger version of
  // this; here the step function itself retries.)
  Runtime::Config cfg = small_config(2);
  cfg.faults = all_zero_rates(21);
  cfg.faults.drop_rate = 0.3;
  Runtime rt(cfg);
  int got = 0;
  int idle = 0;
  rt.drive([&](Rank& self) {
    if (self.id() == 1) return got >= 1 ? Step::kDone : Step::kIdle;
    self.progress();
    if (got >= 1) return Step::kDone;
    if (++idle % 4 == 1) {
      self.rpc(1, [](Rank&) {});  // may be dropped...
      rt.rank(1).rpc(0, [&](Rank&) { ++got; });  // ...so keep resending
      return Step::kWorked;
    }
    return Step::kIdle;
  }, /*stall_limit=*/100000);
  EXPECT_GE(got, 1);
}

TEST(Memory, PeakTrackingFollowsAllocations) {
  Runtime rt(small_config(2));
  rt.reset_peak_memory();
  const std::size_t base = rt.bytes_in_use();
  auto a = rt.rank(0).allocate_host(1000);
  auto b = rt.rank(1).allocate_host(2000);
  EXPECT_EQ(rt.bytes_in_use(), base + 3000);
  EXPECT_GE(rt.peak_bytes(), base + 3000);
  rt.rank(0).deallocate(a);
  EXPECT_EQ(rt.bytes_in_use(), base + 2000);
  EXPECT_GE(rt.peak_bytes(), base + 3000);  // peak is sticky
  rt.rank(1).deallocate(b);
  rt.reset_peak_memory();
  EXPECT_EQ(rt.peak_bytes(), rt.bytes_in_use());
}

}  // namespace
}  // namespace sympack::pgas
