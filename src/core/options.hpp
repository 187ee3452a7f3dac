// User-facing solver options.
#pragma once

#include <cstdint>
#include <string>

#include "blas/kernels/tiling.hpp"
#include "ordering/ordering.hpp"
#include "support/backoff.hpp"
#include "symbolic/mapping.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::core {

/// RTQ scheduling policy (paper §3.4 leaves this as future work and uses
/// "whichever task is at the top of the queue"; we expose the knob for
/// the scheduling ablation).
///   kFifo / kLifo      queue order
///   kPriority          lowest target supernode first
///   kCriticalPath      deepest supernode first (tasks feeding the
///                      longest elimination-tree chain run first)
///   kAuto              measured per matrix: symbolic_factorize runs
///                      cheap protocol-only pilot factorizations, feeds
///                      the traces through the critical-path analyzer
///                      (core/critpath.hpp), and resolves to the fixed
///                      policy (and supernode split width) with the
///                      shortest measured critical path. Never reaches
///                      the engines unresolved.
enum class Policy { kFifo, kLifo, kPriority, kCriticalPath, kAuto };

Policy parse_policy(const std::string& name);
std::string policy_name(Policy p);

/// What to do when a device allocation fails mid-factorization
/// (paper §4.2 "fallback options").
enum class GpuFallback { kCpu, kThrow };

struct GpuOptions {
  bool enabled = true;
  /// Derive the four thresholds analytically from the machine model at
  /// solver construction (gpu/autotune.hpp, the paper's §6 future-work
  /// framework) instead of using the hand-tuned defaults below.
  bool auto_tune = false;
  /// Per-operation offload thresholds, in *elements* of the operation's
  /// largest buffer. Defaults reflect a brute-force tuning pass like the
  /// paper's (§4.2); each can be overridden by the user.
  std::int64_t potrf_threshold = 96 * 96;
  std::int64_t trsm_threshold = 128 * 128;
  std::int64_t syrk_threshold = 128 * 128;
  std::int64_t gemm_threshold = 96 * 96;
  /// Factor blocks at least this large (elements) are marked "GPU
  /// blocks" and fetched straight into device memory on the consumer
  /// (the paper's direct remote-host-to-device copy optimization).
  std::int64_t device_resident_threshold = 128 * 128;
  GpuFallback fallback = GpuFallback::kCpu;
};

/// Which member of Ashcraft's taxonomy runs the numeric phase (defined
/// with the placement rule it selects, symbolic::TaskGraph::update_rank;
/// both variants run in core::FactorEngine).
using Variant = symbolic::Variant;

Variant parse_variant(const std::string& name);
std::string variant_name(Variant v);

/// Recovery-protocol tuning. Only consulted when the runtime has a fault
/// injector attached (Runtime::fault_injection_enabled()); with faults
/// off the engines never touch these and the schedules are byte-identical
/// to a build without the recovery machinery.
struct FaultToleranceOptions {
  /// Consecutive idle step() calls on a rank before it suspects a lost
  /// signal and broadcasts a pull re-request to every producer. The
  /// threshold doubles after each re-request round (reset on progress),
  /// so a rank that is merely slow does not storm the wire.
  int rerequest_idle_limit = 32;
  /// Hard cap on re-request rounds a rank fires without a new message
  /// arriving (the count restarts each phase and whenever a message the
  /// rank had not seen arrives; replayed duplicates do not restart it).
  /// After this many rounds the rank stops re-requesting and lets the
  /// stall guard / watchdog of Runtime::drive fire — an unrecoverable bug
  /// must still abort instead of re-requesting forever (which would count
  /// as work and defeat the stall detection).
  int max_rerequest_rounds = 1000;
  /// Backoff schedule for transient one-sided transfer failures
  /// (pgas::TransferError from rget/copy).
  support::BackoffPolicy rma_backoff{};
};

/// Rank-death resilience (DESIGN.md §4h): buddy checkpoint replication
/// of completed factor panels plus restart-based re-execution recovery.
/// buddy_replicas = 0 (the default) turns the whole subsystem off — no
/// checkpoint traffic, no death scan, no recovery attempts — so every
/// golden schedule hash is bit-identical to a build without it.
struct ResilienceOptions {
  /// Buddy copies kept of every completed supernode factor panel
  /// (replicated to rank (owner+1) mod nranks as it completes). 0 = off,
  /// 1 = on; nothing else is accepted (single-failure model).
  int buddy_replicas = 0;
  /// Consecutive idle step() calls before a rank scans its peers for a
  /// death (the failure-detection timeout, in units of the rank's own
  /// heartbeat). Confirmation throws pgas::RankDeathError, which the
  /// solver's recovery loop catches.
  int detect_idle = 64;
  /// Simulated seconds charged to the resurrected rank on top of the
  /// survivors' clock frontier (process restart + re-join cost). Kept
  /// small relative to typical phase times so the recovery-overhead gate
  /// (<= 1.5x fault-free) measures the protocol, not this constant.
  double restart_delay_s = 1e-4;
  /// Recovery attempts per phase before the death is surfaced to the
  /// caller as fatal.
  int max_recoveries = 3;
};

/// Overlay SYMPACK_BUDDY_REPLICAS / SYMPACK_DETECT_IDLE /
/// SYMPACK_RESTART_DELAY_S / SYMPACK_MAX_RECOVERIES onto `base` (applied
/// at solver construction).
ResilienceOptions env_resilience_options(ResilienceOptions base);

/// Eager/coalesced signal-transport tuning (DESIGN.md §4e). Both knobs
/// default OFF so the wire protocol — and with it every golden schedule
/// hash — is unchanged unless a run opts in.
struct CommOptions {
  /// Payloads strictly smaller than this many bytes are inlined into the
  /// signal RPC itself (eager protocol), skipping the consumer's pull
  /// rget round trip. 0 disables (pure rendezvous, the paper's Fig. 4
  /// protocol). 4096 is the tuned sweet spot from the bench_comm sweep:
  /// it covers the latency-bound small-panel/aggregate-row traffic while
  /// leaving bandwidth-bound blocks on the RMA path.
  std::int64_t eager_bytes = 0;
  /// Batch signals to the same destination rank into one RPC per
  /// progress quantum (per-destination outboxes in pgas::Rank, flushed
  /// by age or when the sender runs out of work).
  bool coalesce = false;
};

/// Overlay SYMPACK_EAGER_BYTES / SYMPACK_COALESCE onto `base` (same
/// pattern as pgas::env_fault_config; applied at solver construction).
CommOptions env_comm_options(CommOptions base);

/// Blocked multi-RHS solve tuning (DESIGN.md §4f). A solve with nrhs
/// right-hand sides sweeps ceil(nrhs / rhs_panel) RHS *panels*: each
/// sweep carries up to rhs_panel columns, so the per-supernode diagonal
/// solve becomes one TRSM on a width x panel block and every
/// off-diagonal contribution one GEMM panel update — converting the
/// solve hot path from per-vector Level-2 sweeps into the tiled GEMM
/// engine, and amortizing every signal/rget of the solve protocol over
/// the panel width.
struct SolveOptions {
  /// RHS panel width. 0 (default) = unbounded: one forward+backward
  /// sweep pair carries every column of a solve() or drain() (a drain is
  /// one solve() over everything queued), taking 14.7-60x less
  /// simulated time than per-vector sweeps at nrhs >= 16
  /// (BENCH_solve.json). A width > 0 runs the panels' sweep pairs one
  /// after another. A one-column solve runs the paper's per-vector
  /// protocol either way. 1 reproduces the paper's per-vector sweeps
  /// bit-for-bit for any nrhs: one RHS per sweep pair, schedules
  /// identical to the historical solver (pinned by the solve goldens in
  /// tests/test_schedule.cpp).
  int rhs_panel = 0;
  /// SolveServer admission cap: the largest number of columns drain()
  /// will queue before it starts refusing submissions (guards a serving
  /// deployment against unbounded request memory). 0 = unlimited.
  int server_max_queue = 0;
};

/// Columns each sweep pair of an nrhs-column solve carries: rhs_panel,
/// or all nrhs when rhs_panel is 0 (or wider than nrhs). The solve runs
/// ceil(nrhs / width) sweep pairs; SolveServer counts its panels by the
/// same rule.
int rhs_panel_width(const SolveOptions& solve, int nrhs);

/// Overlay SYMPACK_RHS_PANEL / SYMPACK_SOLVE_MAX_QUEUE onto `base`
/// (applied at solver construction).
SolveOptions env_solve_options(SolveOptions base);

/// Tracing detail (DESIGN.md §4g). With `metadata` off (the default) an
/// attached Tracer records exactly the historical event stream — same
/// events, same names — so the golden schedule hashes, which fold every
/// event's rank and name, stay bit-identical. Turning it on adds (a)
/// structured per-event metadata (task kind, supernode, slot indices,
/// dependency-edge hints) and (b) zero-width block-fetch marks on the
/// consumer rank, which together let core::CritPathAnalyzer rebuild the
/// task DAG and split cross-rank gaps into comm vs. wait.
struct TraceOptions {
  bool metadata = false;
};

/// Overlay SYMPACK_TRACE_META onto `base` (applied at solver
/// construction).
TraceOptions env_trace_options(TraceOptions base);

/// Overlay SYMPACK_SYMBOLIC_SHARD onto `base` (applied at solver
/// construction). Sharding changes only where symbolic metadata lives —
/// the factor, schedule, CommStats protocol counters and simulated
/// factor and solve times are unchanged, for fan-out and fan-in alike.
symbolic::SymbolicOptions env_symbolic_options(symbolic::SymbolicOptions base);

struct SolverOptions {
  ordering::Method ordering = ordering::Method::kNestedDissection;
  Variant variant = Variant::kFanOut;
  symbolic::SymbolicOptions symbolic{};
  symbolic::Mapping::Kind mapping = symbolic::Mapping::Kind::k2dBlockCyclic;
  Policy policy = Policy::kFifo;
  GpuOptions gpu{};
  /// Cache-block / panel sizes for the CPU dense kernels the tasks run
  /// on (src/blas/kernels/). Defaults to the process-wide configuration
  /// (environment overrides included), so leaving it untouched is a
  /// no-op; bench_autotune and gpu::sweep_tile_configs() produce tuned
  /// values to plug in here. Applied at solver construction.
  blas::kernels::TileConfig kernel_tiles = blas::kernels::config();
  /// When false, numeric kernels and data movement are skipped while the
  /// full task/communication protocol and the simulated-time accounting
  /// still run. Used by the large strong-scaling sweeps where only the
  /// schedule matters; correctness runs use numeric = true.
  bool numeric = true;
  /// Interleaving-fuzzer seed for the sequential (cooperative) driver:
  /// nonzero permutes the rank stepping order every sweep from a
  /// xoshiro256** stream seeded with this value, exploring adversarial
  /// schedules deterministically. A driver failure logs the seed so the
  /// exact schedule can be replayed. 0 = plain round-robin.
  std::uint64_t interleave_seed = 0;
  /// Self-healing knobs for runs under fault injection (see
  /// FaultToleranceOptions; no-op when the runtime has no injector).
  FaultToleranceOptions fault{};
  /// Rank-death resilience: buddy checkpointing + restart recovery
  /// (default off: zero overhead, schedules bit-identical).
  ResilienceOptions resilience{};
  /// Eager/coalesced signal transport (default off: rendezvous-only,
  /// bit-identical to the historical protocol).
  CommOptions comm{};
  /// Blocked multi-RHS solve + SolveServer tuning (default rhs_panel=0:
  /// one fused sweep pair per solve() or drain(); rhs_panel=1 gives the
  /// paper's per-vector sweeps).
  SolveOptions solve{};
  /// Tracing detail (default off: attached tracers see the historical
  /// event stream byte-for-byte).
  TraceOptions trace{};
};

/// Check every numeric field against its documented range and throw
/// std::invalid_argument naming the first field out of range and its
/// value. The SymPackSolver constructor calls this after the SYMPACK_*
/// overlays, so a bad environment value fails the same way. Two fields
/// are exempt: interleave_seed (any value is a seed) and kernel_tiles,
/// whose contract is to clamp (blas/kernels/tiling.hpp).
void validate_options(const SolverOptions& opts);

}  // namespace sympack::core
