// Execution tracing: records every task's (rank, kind, simulated
// begin/end) and writes a Chrome trace-event JSON (chrome://tracing,
// Perfetto) so schedules can be inspected visually — the kind of
// diagnostics an "intra-node scheduling heuristics" study (paper §6)
// needs. An event is one fixed-size record of fields (DESIGN.md §4g):
// the task kind, its supernode and slot indices, and the dependency-edge
// hints (target supernode/slot) the critical-path analyzer
// (core/critpath.hpp) rebuilds the task DAG from. A task's name ("D 42",
// "F 42:3", "U 42:3:1", ...) is derived from those fields only when
// something prints or hashes it; nothing stores or parses names.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sympack::core {

// Zero-width counter-mark names, one constant per counter in the shared
// table, recorded whenever the protocol bumps the matching CommStats
// counter (rma-retry / re-request / retransmit / oom-fallback ...), so
// names cannot drift between the CommStats fields, the watchdog dump
// and the Chrome trace.
#define SYMPACK_RECOVERY_COUNTER(field, label, trace_name) \
  inline constexpr const char* kTrace_##field = trace_name;
#define SYMPACK_COMM_COUNTER(field, label, trace_name) \
  inline constexpr const char* kTrace_##field = trace_name;
#define SYMPACK_SYMBOLIC_COUNTER(field, label, trace_name) \
  inline constexpr const char* kTrace_##field = trace_name;
#include "core/taskrt/counters.def"
#undef SYMPACK_RECOVERY_COUNTER
#undef SYMPACK_COMM_COUNTER
#undef SYMPACK_SYMBOLIC_COUNTER

/// What a trace event records. A task kind's letter is its name prefix
/// and its Chrome "cat".
enum class TaskTag : char {
  kCounter = 0,        // zero-width counter mark; Event::mark names it
  kDiag = 'D',         // panel diagonal factorization (potrf); "D k"
  kFactor = 'F',       // off-diagonal panel factor (trsm); "F k:slot"
  kUpdate = 'U',       // trailing update (syrk/gemm); "U k:si:ti"
  kSelinv = 'S',       // selected-inversion panel; "S k"
  kSolveFwd = 'Y',     // forward-sweep diagonal solve; "Y k"
  kSolveBwd = 'X',     // backward-sweep diagonal solve; "X k"
  kContribFwd = 'C',   // forward-sweep block contribution; "C k:slot"
  kContribBwd = 'Z',   // backward-sweep block contribution; "Z k:slot"
  kFetch = 'g',        // zero-width mark on the consumer rank: remote
                       // block/segment (k, slot) arrived; "g k:slot"
};

class Tracer {
 public:
  /// One trace record: fields only, no heap data.
  struct Event {
    int rank = 0;
    TaskTag kind = TaskTag::kCounter;
    std::int64_t snode = -1;     // supernode / source panel of the task
    std::int64_t a = -1;         // F, C, Z, g: slot; U: si; D, S, Y, X: 0
    std::int64_t b = -1;         // U: ti; C/Z: operand supernode; D, F,
                                 // S, Y, X: 0; g: -1
    std::int64_t tgt = -1;       // dependency hint: target supernode
    std::int64_t tgt_slot = -1;  // dependency hint: target block slot
    double begin_s = 0.0;        // simulated seconds
    double end_s = 0.0;
    const char* mark = nullptr;  // kCounter: its kTrace_* name

    /// "D k", "F k:a", "U k:a:b", "S k", "Y k", "X k", "C k:a",
    /// "Z k:a", "g k:a", or a counter mark's name. The golden schedule
    /// hashes, the Chrome "name" and the analyzer's segments use it.
    [[nodiscard]] std::string name() const;
  };

  void record(const Event& event);

  /// Snapshot copy. record() may run concurrently from the threaded
  /// drive mode, so readers get a copy taken under the lock rather than
  /// a reference into a vector another thread may reallocate.
  [[nodiscard]] std::vector<Event> events() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Serialize as a Chrome trace-event array ("X" complete events, one
  /// tid per rank, microsecond timestamps). Task events and fetch marks
  /// get a "cat" (the kind letter) and an "args" object with the fields.
  [[nodiscard]] std::string to_chrome_json() const;
  void write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

static_assert(sizeof(Tracer::Event) <= 72, "a trace event fits in 72 bytes");

}  // namespace sympack::core
