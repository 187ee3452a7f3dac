// Trace-driven critical-path profiler (DESIGN.md §4g).
//
// CritPathAnalyzer rebuilds the task DAG from a Tracer's events, reading
// their fields directly: every task span the engines record (D / F / U
// / S for the factorization phases, Y / X / C / Z for the solve sweeps)
// carries its kind, supernode, slot indices and dependency-edge hints,
// and with TraceOptions::metadata on, the trace also holds the
// zero-width block-fetch marks ("g k:slot") left on the consumer rank
// when a remote block or segment finished arriving.
//
// From the DAG it walks the critical path backwards from the event that
// ends at the makespan: at each span the critical predecessor is the
// input (dependency producer or same-rank prior span) with the latest
// completion; any gap between that completion and the span's start is
// attributed to communication (producer end -> fetch mark) and wait
// (fetch mark -> task start) using the fetch marks, or wholly to wait
// when the predecessor ran on the same rank. The result is the path
// length (== makespan), a per-category breakdown of where the critical
// path's time went (potrf / trsm / update / solve / selinv compute,
// comm, wait), the same breakdown over *all* events (aggregate busy
// time), and the top-k longest path segments with rank and supernode
// attribution.
//
// Without fetch marks a cross-rank gap on the path counts wholly as
// communication.
//
// The schedule autotuner that resolves Policy::kAuto lives in
// core/autotune.hpp; it measures pilots by simulated makespan and does
// not trace them, so trace the real factorization to see why a schedule
// won (as sympack-critpath does).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "pgas/runtime.hpp"

namespace sympack::core {

struct CritPathReport {
  /// Seconds per category. `solve` pools the four solve-phase tags
  /// (Y/X/C/Z); `comm` and `wait` only accumulate on the path breakdown
  /// (gaps are a path notion — aggregate idle time is `idle_s`).
  struct Breakdown {
    double potrf = 0.0;
    double trsm = 0.0;
    double update = 0.0;
    double solve = 0.0;
    double selinv = 0.0;
    double other = 0.0;
    double comm = 0.0;
    double wait = 0.0;
    [[nodiscard]] double compute() const {
      return potrf + trsm + update + solve + selinv + other;
    }
  };

  /// One span on the critical path (walk order: latest first).
  struct Segment {
    std::string name;
    char kind = 0;
    int rank = 0;
    std::int64_t snode = -1;
    double begin_s = 0.0;
    double end_s = 0.0;
    double comm_s = 0.0;  // pre-span gap attributed to communication
    double wait_s = 0.0;  // pre-span gap attributed to waiting
    [[nodiscard]] double duration() const { return end_s - begin_s; }
  };

  double makespan_s = 0.0;       // latest event end
  double critical_path_s = 0.0;  // path compute + comm + wait (== makespan)
  int nranks = 0;                // distinct ranks seen in the trace
  std::size_t num_events = 0;    // events analyzed (spans + marks)
  std::size_t num_spans = 0;     // task spans (nonzero-width events)
  int path_tasks = 0;            // spans on the critical path
  bool had_metadata = false;     // the trace carries fetch marks
  Breakdown path;                // where the critical path's time went
  Breakdown total;               // aggregate busy seconds per category
  double busy_s = 0.0;           // sum of all span durations
  double idle_s = 0.0;           // nranks * makespan - busy
  std::vector<Segment> top;      // top-k path segments by duration
  std::vector<Segment> path_segments;  // the full path, latest first
  bool has_comm_stats = false;
  pgas::CommStats comm_stats{};  // optional counters (set_comm_stats)

  /// Render as a JSON object (validated shape; names escaped through
  /// support::json_escape).
  [[nodiscard]] std::string to_json() const;
};

class CritPathAnalyzer {
 public:
  explicit CritPathAnalyzer(std::vector<Tracer::Event> events);

  /// Fold the run's aggregated CommStats counters into the report
  /// (purely informational: the path itself is computed from the trace).
  void set_comm_stats(const pgas::CommStats& stats);

  /// Compute the critical path; `top_k` bounds CritPathReport::top.
  [[nodiscard]] CritPathReport analyze(int top_k = 10) const;

 private:
  std::vector<Tracer::Event> events_;
  bool has_comm_stats_ = false;
  pgas::CommStats comm_stats_{};
};

}  // namespace sympack::core
