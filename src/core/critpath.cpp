#include "core/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "support/json.hpp"

namespace sympack::core {

namespace {

// Gap-matching tolerance: simulated times are exact doubles produced by
// identical arithmetic, but summing order can differ by ulps.
constexpr double kEps = 1e-12;

/// Producer-index key: who produced (kind, snode, slot).
std::uint64_t pkey(TaskTag kind, std::int64_t snode, std::int64_t slot) {
  return (static_cast<std::uint64_t>(static_cast<unsigned char>(kind))
          << 56) |
         ((static_cast<std::uint64_t>(snode) & 0xFFFFFFF) << 28) |
         (static_cast<std::uint64_t>(slot) & 0xFFFFFFF);
}

/// Block key for fetch marks and contribution targets.
std::uint64_t bkey(std::int64_t snode, std::int64_t slot) {
  return ((static_cast<std::uint64_t>(snode) & 0xFFFFFFFF) << 28) |
         (static_cast<std::uint64_t>(slot) & 0xFFFFFFF);
}

void add_category(CritPathReport::Breakdown& bd, TaskTag kind, double dur) {
  switch (kind) {
    case TaskTag::kDiag: bd.potrf += dur; break;
    case TaskTag::kFactor: bd.trsm += dur; break;
    case TaskTag::kUpdate: bd.update += dur; break;
    case TaskTag::kSelinv: bd.selinv += dur; break;
    case TaskTag::kSolveFwd:
    case TaskTag::kSolveBwd:
    case TaskTag::kContribFwd:
    case TaskTag::kContribBwd: bd.solve += dur; break;
    default: bd.other += dur; break;
  }
}

void json_breakdown(std::ostringstream& out, const char* label,
                    const CritPathReport::Breakdown& bd, bool gaps) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"%s\":{\"potrf_s\":%.9g,\"trsm_s\":%.9g,\"update_s\":%.9g,"
                "\"solve_s\":%.9g,\"selinv_s\":%.9g,\"other_s\":%.9g",
                label, bd.potrf, bd.trsm, bd.update, bd.solve, bd.selinv,
                bd.other);
  out << buf;
  if (gaps) {
    std::snprintf(buf, sizeof buf, ",\"comm_s\":%.9g,\"wait_s\":%.9g",
                  bd.comm, bd.wait);
    out << buf;
  }
  out << '}';
}

void json_segment(std::ostringstream& out,
                  const CritPathReport::Segment& seg) {
  char buf[224];
  const char kind[2] = {seg.kind != 0 ? seg.kind : '?', '\0'};
  out << "{\"name\":\"" << support::json_escape(seg.name) << "\",\"kind\":\""
      << support::json_escape(kind) << '"';
  std::snprintf(buf, sizeof buf,
                ",\"rank\":%d,\"snode\":%lld,\"begin_s\":%.9g,"
                "\"end_s\":%.9g,\"dur_s\":%.9g,\"comm_s\":%.9g,"
                "\"wait_s\":%.9g}",
                seg.rank, static_cast<long long>(seg.snode), seg.begin_s,
                seg.end_s, seg.end_s - seg.begin_s, seg.comm_s, seg.wait_s);
  out << buf;
}

}  // namespace

CritPathAnalyzer::CritPathAnalyzer(std::vector<Tracer::Event> events)
    : events_(std::move(events)) {}

void CritPathAnalyzer::set_comm_stats(const pgas::CommStats& stats) {
  has_comm_stats_ = true;
  comm_stats_ = stats;
}

CritPathReport CritPathAnalyzer::analyze(int top_k) const {
  CritPathReport rep;
  rep.num_events = events_.size();
  rep.has_comm_stats = has_comm_stats_;
  rep.comm_stats = comm_stats_;

  // ---- Classify events into task spans and fetch marks; counter marks
  // are neither. A span's id is its index in `spans`.
  std::vector<const Tracer::Event*> spans;
  spans.reserve(events_.size());
  // (snode, slot) -> sorted arrival times of fetch marks.
  std::unordered_map<std::uint64_t, std::vector<double>> fetches;
  int max_rank = -1;
  for (const auto& e : events_) {
    max_rank = std::max(max_rank, e.rank);
    rep.makespan_s = std::max(rep.makespan_s, e.end_s);
    if (e.kind == TaskTag::kFetch) {
      fetches[bkey(e.snode, std::max<std::int64_t>(e.a, 0))].push_back(
          e.end_s);
    } else if (e.kind != TaskTag::kCounter) {
      spans.push_back(&e);
    }
  }
  for (auto& [key, times] : fetches) std::sort(times.begin(), times.end());
  rep.nranks = max_rank + 1;
  rep.num_spans = spans.size();
  rep.had_metadata = !fetches.empty();
  if (spans.empty()) return rep;
  const auto span = [&](int id) -> const Tracer::Event& {
    return *spans[static_cast<std::size_t>(id)];
  };
  const int nspans = static_cast<int>(spans.size());

  // ---- Aggregate totals.
  for (const Tracer::Event* s : spans) {
    const double dur = s->end_s - s->begin_s;
    add_category(rep.total, s->kind, dur);
    rep.busy_s += dur;
  }
  rep.idle_s =
      std::max(0.0, rep.nranks * rep.makespan_s - rep.busy_s);

  // ---- Indices for the dependency walk.
  // Producer spans by (kind, snode, slot): D/F factor blocks, Y/X
  // solution segments, C/Z contributions.
  std::unordered_map<std::uint64_t, std::vector<int>> producers;
  // Update/contribution spans by the (snode, slot) they fold into.
  std::unordered_map<std::uint64_t, std::vector<int>> folds;
  // Per-rank span ids in start order (same-rank serialization edges).
  std::vector<std::vector<int>> by_rank(static_cast<std::size_t>(rep.nranks));
  for (int id = 0; id < nspans; ++id) {
    const Tracer::Event& s = span(id);
    switch (s.kind) {
      case TaskTag::kDiag:
      case TaskTag::kSolveFwd:
      case TaskTag::kSolveBwd:
        producers[pkey(s.kind, s.snode, 0)].push_back(id);
        break;
      case TaskTag::kFactor:
      case TaskTag::kContribFwd:
      case TaskTag::kContribBwd:
        producers[pkey(s.kind, s.snode, std::max<std::int64_t>(s.a, 0))]
            .push_back(id);
        break;
      default:
        break;
    }
    if (s.tgt >= 0) {
      folds[bkey(s.tgt, std::max<std::int64_t>(s.tgt_slot, 0))].push_back(id);
    }
    by_rank[static_cast<std::size_t>(s.rank)].push_back(id);
  }
  std::vector<int> rank_pos(spans.size(), -1);
  for (auto& ids : by_rank) {
    std::sort(ids.begin(), ids.end(), [&](int x, int y) {
      if (span(x).begin_s != span(y).begin_s) {
        return span(x).begin_s < span(y).begin_s;
      }
      return x < y;
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
      rank_pos[static_cast<std::size_t>(ids[i])] = static_cast<int>(i);
    }
  }

  // Latest producer of `key` completing no later than `by`.
  auto latest_producer = [&](std::uint64_t key, double by) -> int {
    const auto it = producers.find(key);
    if (it == producers.end()) return -1;
    int best = -1;
    for (int id : it->second) {
      if (span(id).end_s <= by + kEps &&
          (best < 0 || span(id).end_s > span(best).end_s)) {
        best = id;
      }
    }
    return best;
  };
  // Latest span of `kind` folding into block `key`, completing no later
  // than `by`.
  auto latest_fold = [&](std::uint64_t key, TaskTag kind, double by) -> int {
    const auto it = folds.find(key);
    if (it == folds.end()) return -1;
    int best = -1;
    for (int id : it->second) {
      const Tracer::Event& s = span(id);
      if (s.kind == kind && s.end_s <= by + kEps &&
          (best < 0 || s.end_s > span(best).end_s)) {
        best = id;
      }
    }
    return best;
  };

  // ---- Backward walk from the span that ends at the makespan.
  int cur = 0;
  for (int id = 0; id < nspans; ++id) {
    if (span(id).end_s > span(cur).end_s) cur = id;
  }
  rep.critical_path_s = span(cur).end_s;

  std::size_t guard = spans.size() + 1;
  while (cur >= 0 && guard-- > 0) {
    const Tracer::Event& s = span(cur);
    CritPathReport::Segment seg;
    seg.name = s.name();
    seg.kind = static_cast<char>(s.kind);
    seg.rank = s.rank;
    seg.snode = s.snode;
    seg.begin_s = s.begin_s;
    seg.end_s = s.end_s;
    add_category(rep.path, s.kind, s.end_s - s.begin_s);
    ++rep.path_tasks;

    // Candidate predecessors: the latest-finishing input wins.
    int pred = -1;
    // The (snode, slot) key whose transfer the consumer would have
    // fetch-marked, for splitting a cross-rank gap into comm + wait.
    std::uint64_t fetch_key = 0;
    bool have_fetch_key = false;
    auto consider = [&](int cand, std::uint64_t fk, bool has_fk) {
      if (cand < 0) return;
      if (pred < 0 || span(cand).end_s > span(pred).end_s) {
        pred = cand;
        fetch_key = fk;
        have_fetch_key = has_fk;
      }
    };

    // Same-rank serialization edge.
    const int pos = rank_pos[static_cast<std::size_t>(cur)];
    if (pos > 0) {
      consider(by_rank[static_cast<std::size_t>(s.rank)]
                      [static_cast<std::size_t>(pos - 1)],
               0, false);
    }
    // Dataflow edges.
    const double begin = s.begin_s;
    switch (s.kind) {
      case TaskTag::kDiag:
        consider(latest_fold(bkey(s.snode, 0), TaskTag::kUpdate, begin),
                 bkey(s.snode, 0), true);
        break;
      case TaskTag::kFactor: {
        consider(latest_producer(pkey(TaskTag::kDiag, s.snode, 0), begin),
                 bkey(s.snode, 0), true);
        const std::int64_t slot = std::max<std::int64_t>(s.a, 0);
        consider(latest_fold(bkey(s.snode, slot), TaskTag::kUpdate, begin),
                 bkey(s.snode, slot), true);
        break;
      }
      case TaskTag::kUpdate:
        if (s.a >= 0) {
          consider(
              latest_producer(pkey(TaskTag::kFactor, s.snode, s.a), begin),
              bkey(s.snode, s.a), true);
        }
        if (s.b >= 0) {
          consider(
              latest_producer(pkey(TaskTag::kFactor, s.snode, s.b), begin),
              bkey(s.snode, s.b), true);
        }
        break;
      case TaskTag::kSolveFwd:
        consider(latest_fold(bkey(s.snode, 0), TaskTag::kContribFwd, begin),
                 bkey(s.snode, 0), true);
        break;
      case TaskTag::kSolveBwd:
        consider(latest_fold(bkey(s.snode, 0), TaskTag::kContribBwd, begin),
                 bkey(s.snode, 0), true);
        consider(latest_producer(pkey(TaskTag::kSolveFwd, s.snode, 0), begin),
                 0, false);
        break;
      case TaskTag::kContribFwd:
        if (s.b >= 0) {
          consider(latest_producer(pkey(TaskTag::kSolveFwd, s.b, 0), begin),
                   bkey(s.b, 0), true);
        }
        break;
      case TaskTag::kContribBwd:
        if (s.b >= 0) {
          consider(latest_producer(pkey(TaskTag::kSolveBwd, s.b, 0), begin),
                   bkey(s.b, 0), true);
        }
        break;
      default:
        break;
    }

    if (pred < 0) {
      // Path start: time before the first task is pre-work (assembly,
      // seeding) — count it as wait so the categories still sum to the
      // makespan.
      seg.wait_s = std::max(0.0, s.begin_s);
      rep.path.wait += seg.wait_s;
      rep.path_segments.push_back(std::move(seg));
      break;
    }

    const Tracer::Event& p = span(pred);
    const double gap = std::max(0.0, s.begin_s - p.end_s);
    if (gap > 0.0) {
      if (p.rank == s.rank) {
        seg.wait_s = gap;  // local scheduling delay (RTQ backlog)
      } else {
        // Cross-rank handoff: a fetch mark inside the gap splits it
        // into transfer (producer end -> data arrived) and wait (data
        // arrived -> task started); with no mark (fetch marks off, or a
        // path the engines don't mark) the whole gap is transfer.
        double arrived = s.begin_s;
        bool found = false;
        if (have_fetch_key) {
          const auto it = fetches.find(fetch_key);
          if (it != fetches.end()) {
            const auto& times = it->second;
            auto ub = std::upper_bound(times.begin(), times.end(),
                                       s.begin_s + kEps);
            while (ub != times.begin()) {
              --ub;
              if (*ub >= p.end_s - kEps) {
                arrived = std::max(*ub, p.end_s);
                found = true;
              }
              break;
            }
          }
        }
        if (found) {
          seg.comm_s = arrived - p.end_s;
          seg.wait_s = s.begin_s - arrived;
        } else {
          seg.comm_s = gap;
        }
      }
      rep.path.comm += seg.comm_s;
      rep.path.wait += seg.wait_s;
    }
    rep.path_segments.push_back(std::move(seg));
    cur = pred;
  }
  // ---- Top-k path segments by span duration.
  rep.top = rep.path_segments;
  std::stable_sort(rep.top.begin(), rep.top.end(),
                   [](const CritPathReport::Segment& a,
                      const CritPathReport::Segment& b) {
                     return a.duration() > b.duration();
                   });
  if (top_k >= 0 && rep.top.size() > static_cast<std::size_t>(top_k)) {
    rep.top.resize(static_cast<std::size_t>(top_k));
  }
  return rep;
}

std::string CritPathReport::to_json() const {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"makespan_s\":%.9g,\"critical_path_s\":%.9g,"
                "\"nranks\":%d,\"num_events\":%zu,\"num_spans\":%zu,"
                "\"path_tasks\":%d,\"had_metadata\":%s,\"busy_s\":%.9g,"
                "\"idle_s\":%.9g,",
                makespan_s, critical_path_s, nranks, num_events, num_spans,
                path_tasks, had_metadata ? "true" : "false", busy_s, idle_s);
  out << buf;
  json_breakdown(out, "path", path, /*gaps=*/true);
  out << ',';
  json_breakdown(out, "total", total, /*gaps=*/false);
  if (has_comm_stats) {
    std::snprintf(buf, sizeof buf,
                  ",\"comm\":{\"rpcs_sent\":%llu,\"gets\":%llu,"
                  "\"bytes_from_host\":%llu,\"bytes_from_device\":%llu,"
                  "\"bytes_to_device\":%llu}",
                  static_cast<unsigned long long>(comm_stats.rpcs_sent),
                  static_cast<unsigned long long>(comm_stats.gets),
                  static_cast<unsigned long long>(comm_stats.bytes_from_host),
                  static_cast<unsigned long long>(
                      comm_stats.bytes_from_device),
                  static_cast<unsigned long long>(comm_stats.bytes_to_device));
    out << buf;
  }
  out << ",\"top\":[";
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out << ',';
    json_segment(out, top[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace sympack::core
