// The PGAS runtime: an in-process stand-in for UPC++/GASNet-EX.
//
// Ranks are SPMD participants that live in one OS process. Each rank has:
//   - a simulated clock (seconds), advanced by compute/communication
//     charges from the MachineModel — this is what the strong-scaling
//     figures measure;
//   - an RPC inbox drained by progress(), the analogue of
//     upcxx::progress() executing remotely-injected callbacks (Fig. 4
//     step 3);
//   - one-sided rget()/copy() that move bytes immediately (shared
//     address space) and return the simulated completion time of the
//     equivalent RMA transfer, including the memory-kinds path
//     (native GDR vs host-staged) for device buffers.
//
// Execution is driven by Runtime::drive(step): the step function is the
// body of the solver's "while (!done) { poll(); run a ready task; }"
// loop. The default driver steps ranks round-robin on one thread
// (deterministic); drive() can also run one OS thread per rank to
// exercise real concurrency (used by stress tests and the TSan CI job).
// The sequential driver additionally supports seeded interleaving
// fuzzing: a nonzero seed permutes the rank stepping order every sweep
// (deterministically, from a xoshiro256** stream), so adversarial
// schedules are explored reproducibly — a failure logs the seed and the
// exact schedule can be replayed from it.
//
// Threading memory model (audited; see DESIGN.md "Threading memory
// model"): the runtime itself guards every piece of genuinely shared
// state with a mutex (per-rank RPC inboxes, NIC channels, device-segment
// accounting, the allocation registry). Everything else — a rank's
// clock, its CommStats — is single-writer: only the thread driving that
// rank touches it, and cross-rank visibility is established by the
// inbox-mutex release/acquire pair on RPC delivery.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "pgas/fault.hpp"
#include "pgas/global_ptr.hpp"
#include "pgas/machine_model.hpp"

namespace sympack::pgas {

class Runtime;

/// Thrown by allocate_device when the device segment is exhausted and the
/// caller asked for throwing behaviour (the solver's "fallback option",
/// paper §4.2).
class DeviceOom : public std::runtime_error {
 public:
  explicit DeviceOom(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by rget/copy when the fault injector fails a transfer
/// transiently (a dropped NIC packet / cancelled RMA in a real conduit).
/// No bytes have moved and no statistics were charged; the caller may
/// simply retry (the engines do, with bounded exponential backoff).
class TransferError : public std::runtime_error {
 public:
  explicit TransferError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown when a dead rank is confirmed: either by a survivor's
/// Endpoint-level death scan (detector >= 0) or by the driver's stall
/// backstop (detector = -1). Carries enough context for the recovery
/// layer to resurrect the victim, restore its buddy checkpoints, and
/// re-drive the phase; a run without resilience enabled surfaces it as
/// the phase failure.
class RankDeathError : public std::runtime_error {
 public:
  RankDeathError(int dead_rank_, int detector_, double sim_time_)
      : std::runtime_error("rank " + std::to_string(dead_rank_) +
                           " is dead (detected by " +
                           (detector_ < 0 ? std::string("the drive backstop")
                                          : "rank " + std::to_string(detector_)) +
                           " at t=" + std::to_string(sim_time_) + "s)"),
        dead_rank(dead_rank_),
        detector(detector_),
        sim_time(sim_time_) {}
  int dead_rank;
  int detector;    // detecting rank, or -1 for the driver backstop
  double sim_time; // detector's simulated clock at confirmation
};

/// Per-rank communication statistics. The recovery block counts what the
/// self-healing protocol survived; with fault injection off every one of
/// those counters stays 0 except oom_fallbacks (genuine device-share
/// exhaustion also lands there).
struct CommStats {
  std::uint64_t rpcs_sent = 0;
  std::uint64_t rpcs_executed = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t bytes_from_host = 0;    // transfers whose source is host
  std::uint64_t bytes_from_device = 0;  // transfers whose source is device
  std::uint64_t bytes_to_device = 0;    // transfers landing in device mem
  std::uint64_t hd_copies = 0;          // local host<->device copies

  // --- Recovery counters (fault-tolerance protocol) and eager/coalesced
  // transport counters, generated from the X-macro table so the fields,
  // the watchdog dump labels, and the trace event names stay in lockstep
  // (see core/taskrt/counters.def).
#define SYMPACK_RECOVERY_COUNTER(field, label, trace_name) \
  std::uint64_t field = 0;
#define SYMPACK_COMM_COUNTER(field, label, trace_name) \
  std::uint64_t field = 0;
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) \
  std::uint64_t field = 0;
#include "core/taskrt/counters.def"
#undef SYMPACK_RECOVERY_COUNTER
#undef SYMPACK_COMM_COUNTER
#undef SYMPACK_SYMBOLIC_COUNTER

  /// Always 0: there is no buffer pool, every host buffer comes from
  /// Rank::allocate_host. Kept only because the end-to-end benchmark
  /// (bench/e2e) reports them.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;

  [[nodiscard]] std::uint64_t total_bytes() const {
    return bytes_from_host + bytes_from_device;
  }
};

/// Handle to one SPMD participant.
class Rank {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int nranks() const;
  [[nodiscard]] int node() const;
  /// Device this rank is bound to (paper §4.2: p mod d within the node).
  [[nodiscard]] int device() const;
  [[nodiscard]] Runtime& runtime() { return *runtime_; }

  // --- Simulated clock.
  [[nodiscard]] double now() const { return clock_; }
  void advance(double seconds) { clock_ += seconds; }
  /// clock = max(clock, t): merge an externally-imposed availability time.
  void merge_clock(double t) { clock_ = clock_ < t ? t : clock_; }

  // --- Liveness (process-death injection, pgas/fault.hpp kill schedule).
  /// False after the fault injector killed this rank: progress() stops
  /// draining, rpc() to it drops silently, and the engines step it as a
  /// no-op. Locks the inbox mutex (die() flips the flag under it), so
  /// survivors may poll it from their own driving threads.
  [[nodiscard]] bool alive() const {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    return alive_;
  }
  /// Kill this rank: mark it dead and drop all in-flight state (inbox
  /// entries and parked coalescing outboxes). Called from this rank's
  /// own progress() when the injector's kill event fires.
  void die();
  /// Recovery: bring the rank back with its clock merged to
  /// `clock_floor` (the survivors' frontier plus the restart penalty).
  /// In-flight state stays dropped; the caller re-arms the lost work.
  void resurrect(double clock_floor);

  // --- Memory.
  GlobalPtr allocate_host(std::size_t bytes);
  /// Allocate from this rank's share of its device's segment. Every rank
  /// bound to a device owns an equal fraction of it (paper §4.2: "All
  /// processes mapped to a given device allocate an equal portion of
  /// memory on the device"), so one rank can never starve co-located
  /// ranks. On exhaustion of the *per-rank share* returns a null pointer
  /// if `nothrow`, else throws DeviceOom. (Mirrors
  /// upcxx::device_allocator::allocate.)
  GlobalPtr allocate_device(std::size_t bytes, bool nothrow = true);
  /// This rank's equal share of its device's segment, in bytes.
  [[nodiscard]] std::size_t device_share_bytes() const;
  /// Free an allocate_host/allocate_device result. Safe from any thread:
  /// the allocation registry and the device accounting are locked, and
  /// no CommStats are touched.
  void deallocate(GlobalPtr ptr);

  // --- RPC (Fig. 4 step 1): enqueue `fn` for execution on `target`
  // during its next progress(). The callback receives the target rank.
  // `payload_bytes` is the eager-protocol inlined payload size: it adds
  // the per-byte active-message term to the arrival time and is charged
  // to the *receiver's* bytes_from_host when the entry executes (the
  // wire moved those bytes whether or not the consumer keeps them). 0 —
  // every pre-eager call site — reproduces the flat historical cost.
  void rpc(int target, std::function<void(Rank&)> fn,
           std::size_t payload_bytes = 0);

  /// Coalescing variant: buffer `fn` in this rank's per-destination
  /// outbox instead of sending immediately. Outboxes are flushed as one
  /// batched RPC per destination (single rpc_overhead_s for the whole
  /// batch) either by progress() once the outbox has aged
  /// config.coalesce_defer progress calls, or eagerly by
  /// flush_signals() when the engine runs out of other work. Appending
  /// to an already-open outbox counts one coalesced_signals.
  void rpc_coalesced(int target, std::function<void(Rank&)> fn,
                     std::size_t payload_bytes = 0);

  /// Flush every open outbox now (engine idle hook; guarantees no signal
  /// is parked when a rank declares itself done). Returns the number of
  /// batches sent.
  int flush_signals();

  /// True if any signal is parked in a coalescing outbox.
  [[nodiscard]] bool has_unflushed_signals() const;
  /// True if signals to `target` specifically are parked (the next
  /// rpc_coalesced to it will batch — used for trace marks).
  [[nodiscard]] bool has_unflushed_signals_to(int target) const;

  /// Drain the RPC inbox (Fig. 4 step 3), first flushing any coalescing
  /// outbox that has aged past the defer window. Returns the number of
  /// RPCs executed plus batches flushed (both are forward progress).
  int progress();

  /// True if RPCs are waiting in this rank's inbox.
  [[nodiscard]] bool has_pending_rpcs() const;

  /// Number of RPCs waiting in this rank's inbox (diagnostics / the
  /// deadlock-watchdog dump).
  [[nodiscard]] std::size_t pending_rpc_count() const;

  /// Simulated completion time of a one-sided transfer of `bytes`
  /// between this rank and `peer`, honoring memory kinds and NIC channel
  /// serialization (cross-node transfers queue on this rank's NIC).
  /// Does not move data or advance this rank's clock.
  double transfer_completion(std::size_t bytes, int peer, MemKind src_kind,
                             MemKind dst_kind);

  // --- One-sided RMA. Data moves immediately (same address space); the
  // returned value is the simulated completion time of the transfer,
  // which callers feed into dependency ready-times. The issuing rank is
  // only charged the injection overhead (RMA is offloaded to the NIC).
  //
  // Protocol-only runs pass null buffers (a null dst, or a GlobalPtr
  // whose addr is null but whose rank and kind are set): the memcpy is
  // skipped and nothing else is — the injected-failure draw, the charge
  // and the counters are those of the real transfer.
  double rget(const GlobalPtr& src, std::byte* dst, std::size_t bytes,
              MemKind dst_kind);
  /// upcxx::copy() equivalent: src and dst may be any rank/kind pair;
  /// used for pushing large diagonal blocks directly into remote device
  /// memory (paper §4.2). Moves no bytes when either end is null.
  double copy(const GlobalPtr& src, const GlobalPtr& dst, std::size_t bytes);
  /// Local host<->device copy over PCIe; advances this rank's clock
  /// (the solver stages operands synchronously before a kernel).
  void hd_copy(const std::byte* src, std::byte* dst, std::size_t bytes);

  [[nodiscard]] CommStats& stats() { return stats_; }
  [[nodiscard]] const CommStats& stats() const { return stats_; }

 private:
  friend class Runtime;
  struct InboxEntry {
    double arrival;
    /// Earliest simulated time progress() may execute this entry. 0 for
    /// every normally-delivered RPC (always eligible — the historical
    /// merge_clock(arrival) semantics apply unchanged, so zero-fault
    /// schedules are byte-identical by construction); set to the delayed
    /// arrival by delay injection, making progress() defer the entry
    /// until the rank's clock catches up.
    double held_until = 0.0;
    /// Eager-inlined payload size carried by this RPC; charged to the
    /// receiver's bytes_from_host when the entry executes. 0 for every
    /// plain signal.
    std::size_t payload_bytes = 0;
    std::function<void(Rank&)> fn;
  };

  /// Per-destination coalescing buffer. Rank-local single-writer state:
  /// only the thread driving this rank appends (rpc_coalesced) or
  /// flushes (progress / flush_signals), so no mutex is needed.
  struct Outbox {
    std::vector<std::function<void(Rank&)>> fns;
    std::size_t payload_bytes = 0;
    std::uint64_t first_epoch = 0;  // progress_epoch_ at first append
  };

  void flush_outbox(int target);

  int id_ = -1;
  Runtime* runtime_ = nullptr;
  double clock_ = 0.0;
  // Written by this rank's thread under inbox_mutex_ (die/resurrect);
  // this thread reads it unlocked, peers through the locking alive().
  bool alive_ = true;
  CommStats stats_;
  mutable std::mutex inbox_mutex_;
  std::vector<InboxEntry> inbox_;
  std::vector<Outbox> outboxes_;  // sized lazily on first rpc_coalesced
  int open_outboxes_ = 0;         // outboxes with fns non-empty
  std::uint64_t progress_epoch_ = 0;
};

/// Result of one step of a driven loop.
enum class Step {
  kIdle,    // nothing to do right now
  kWorked,  // made progress (executed a task or an RPC)
  kDone,    // this rank has finished the phase
};

class Runtime {
 public:
  struct Config {
    int nranks = 1;
    int ranks_per_node = 1;
    int gpus_per_node = 4;
    /// NICs per node (Perlmutter GPU nodes have 4 Slingshot NICs).
    /// Cross-node transfers serialize on the initiating rank's NIC, so
    /// flood bandwidth saturates at the wire rate instead of being
    /// infinitely parallel.
    int nics_per_node = 4;
    /// Per-device memory. All co-located ranks share it equally
    /// (paper §4.2: "All processes mapped to a given device allocate an
    /// equal portion of memory on the device"); allocate_device enforces
    /// the equal per-rank share.
    std::size_t device_memory_bytes = 512ull << 20;
    bool threaded = false;
    /// Threaded-mode deadlock guard: if no rank reports kWorked/kDone for
    /// this long, drive() aborts the phase and throws with a per-rank
    /// queue/counter dump instead of hanging CI forever. <= 0 disables.
    int threaded_watchdog_ms = 10000;
    /// Deterministic fault injection (pgas/fault.hpp). Disabled by
    /// default; the constructor overlays SYMPACK_FAULT_* environment
    /// variables, so any binary can be chaos-tested without a rebuild.
    FaultConfig faults{};
    MachineModel model{};
    /// Coalescing age window: an open outbox is flushed once it has
    /// survived this many progress() calls on the sending rank (engines
    /// additionally flush_signals() whenever they run out of other
    /// work, which bounds latency and guarantees termination). Only
    /// consulted when rpc_coalesced is used at all.
    int coalesce_defer = 4;
  };

  /// Whether the constructor overlays the SYMPACK_FAULT_* environment
  /// variables on `config`. kSkip takes the config as already resolved,
  /// e.g. another runtime's config() with fault injection turned off (the
  /// autotune pilots, core/autotune.hpp).
  enum class EnvOverlay { kApply, kSkip };

  explicit Runtime(Config config, EnvOverlay env = EnvOverlay::kApply);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] int nranks() const { return config_.nranks; }
  [[nodiscard]] int nodes() const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const MachineModel& model() const { return config_.model; }
  [[nodiscard]] Rank& rank(int r) { return *ranks_.at(r); }

  [[nodiscard]] bool same_node(int a, int b) const;

  /// The attached fault injector, or nullptr when config.faults.enabled
  /// is false (the common case: every injection point takes its original
  /// code path untouched).
  [[nodiscard]] FaultInjector* injector() { return injector_.get(); }
  [[nodiscard]] const FaultInjector* injector() const {
    return injector_.get();
  }
  [[nodiscard]] bool fault_injection_enabled() const {
    return injector_ != nullptr;
  }

  /// Run a phase: call `step` on every rank until all report kDone.
  /// Sequential round-robin when config.threaded is false (deterministic),
  /// one thread per rank otherwise.
  ///
  /// Deadlock guards: sequentially, throws std::runtime_error (with a
  /// per-rank dump and the interleave seed) if every rank is
  /// idle-and-not-done for `stall_limit` consecutive sweeps; threaded, a
  /// watchdog aborts the phase after config.threaded_watchdog_ms of
  /// all-ranks-idle and throws with the same dump. An exception escaping
  /// `step` on a worker thread is captured, the phase is aborted, and the
  /// exception is rethrown on the calling thread.
  ///
  /// `interleave_seed` (sequential mode only): nonzero permutes the rank
  /// stepping order each sweep from a xoshiro256** stream seeded with it,
  /// deterministically — rerunning with the same seed replays the exact
  /// schedule. 0 steps plain round-robin. The engines pass
  /// SolverOptions::interleave_seed, the one place a seed is set.
  void drive(const std::function<Step(Rank&)>& step, int stall_limit = 10000,
             std::uint64_t interleave_seed = 0);

  /// Largest simulated clock across ranks — the phase's parallel time.
  [[nodiscard]] double max_clock() const;
  void reset_clocks();
  /// Aggregate communication statistics over all ranks.
  [[nodiscard]] CommStats total_stats() const;
  void reset_stats();

  /// Drop every RPC entry still parked in rank inboxes/outboxes. Called
  /// internally after a fault-injected drive completes (stale duplicate
  /// hygiene), and by the recovery layer before re-driving a phase after
  /// a rank death: the purged lambdas capture the failed attempt's
  /// engine and must never execute inside the next attempt's progress().
  void purge_inboxes();

  /// Extra per-rank diagnostics appended to the watchdog/stall dump.
  /// Protocol layers (taskrt::Endpoint) register a dumper so a hung
  /// recovery shows ledger/stash/re-request state without a debugger;
  /// remove_state_dumper must be called before the callable dies.
  /// Returns a token for removal.
  using StateDumper = std::function<std::string(int rank)>;
  int add_state_dumper(StateDumper dumper);
  void remove_state_dumper(int token);

  /// Device segment occupancy (bytes in use) for diagnostics/tests.
  [[nodiscard]] std::size_t device_bytes_in_use(int device) const;
  /// Current and peak bytes allocated through the runtime (host +
  /// device). Peak is monotone until reset_peak_memory().
  [[nodiscard]] std::size_t bytes_in_use() const;
  [[nodiscard]] std::size_t peak_bytes() const;
  void reset_peak_memory();
  [[nodiscard]] int num_devices() const {
    return static_cast<int>(device_used_.size());
  }

 private:
  friend class Rank;

  Config config_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  // Attached only when config_.faults.enabled (after env overlay).
  std::unique_ptr<FaultInjector> injector_;
  // NIC channel availability (simulated time), per global NIC id.
  mutable std::mutex nic_mutex_;
  std::vector<double> nic_busy_;
  // Device segments: used bytes per global device id, plus the per-rank
  // equal-share accounting (used bytes per rank; the share itself is
  // device_memory_bytes / #ranks bound to that device).
  mutable std::mutex device_mutex_;
  std::vector<std::size_t> device_used_;
  std::vector<std::size_t> rank_device_used_;
  std::vector<int> ranks_per_device_;
  // Allocation registry for leak detection and kind lookup on free.
  struct Allocation {
    std::size_t bytes;
    MemKind kind;
    int device;
    int rank;  // allocating rank (device-share refund on free)
  };
  mutable std::mutex alloc_mutex_;
  std::unordered_map<std::byte*, Allocation> allocations_;
  std::size_t bytes_in_use_ = 0;
  std::size_t peak_bytes_ = 0;

  void register_allocation(std::byte* addr, Allocation a);
  Allocation unregister_allocation(std::byte* addr);

  void drive_sequential(const std::function<Step(Rank&)>& step,
                        int stall_limit, std::uint64_t seed);
  void drive_threaded(const std::function<Step(Rank&)>& step);
  /// Per-rank state dump for deadlock diagnostics (clock, inbox depth,
  /// comm counters, done flag, registered protocol dumpers).
  [[nodiscard]] std::string dump_rank_states(
      const std::vector<char>& done) const;
  /// If any rank is dead, throw RankDeathError for the first one (the
  /// drive backstop; detector = -1). No-op when all ranks are alive.
  void throw_if_rank_dead() const;

  // Registered diagnostic dumpers (token -> callable; ordered so the
  // dump is deterministic), guarded for the threaded watchdog path.
  mutable std::mutex dumper_mutex_;
  std::map<int, StateDumper> state_dumpers_;
  int next_dumper_token_ = 0;
};

/// A host buffer of `count` doubles allocated on `rank` with
/// allocate_host, freed with Rank::deallocate when the last reference
/// dies (from whichever thread that happens on). This is the eager
/// payload and solve-segment carrier: one producer-side buffer is shared
/// by every recipient's copy of the signal.
std::shared_ptr<double> shared_host_buffer(Rank& rank, std::size_t count);

}  // namespace sympack::pgas
