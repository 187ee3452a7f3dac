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

/// One analyzable task span (or zero-width mark) with its identity
/// resolved from metadata when present, else parsed from the name.
struct Span {
  int id = -1;
  int rank = 0;
  char kind = 0;  // 'D','F','U','S','Y','X','C','Z','g', 0 = other
  std::int64_t snode = -1;
  std::int64_t a = -1;
  std::int64_t b = -1;
  std::int64_t tgt = -1;
  std::int64_t tgt_slot = -1;
  double begin = 0.0;
  double end = 0.0;
  const std::string* name = nullptr;
};

bool parse_span_name(const std::string& name, Span& s) {
  if (name.size() < 3 || name[1] != ' ') return false;
  const char c = name[0];
  switch (c) {
    case 'D': case 'F': case 'U': case 'S':
    case 'Y': case 'X': case 'C': case 'Z': case 'g':
      break;
    default:
      return false;
  }
  long long k = -1, a = -1, b = -1;
  const int n = std::sscanf(name.c_str() + 2, "%lld:%lld:%lld", &k, &a, &b);
  if (n < 1) return false;
  s.kind = c;
  s.snode = k;
  if (n >= 2) s.a = a;
  if (n >= 3) s.b = b;
  return true;
}

/// Producer-index key: who produced (kind, snode, slot).
std::uint64_t pkey(char kind, std::int64_t snode, std::int64_t slot) {
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

void add_category(CritPathReport::Breakdown& bd, char kind, double dur) {
  switch (kind) {
    case 'D': bd.potrf += dur; break;
    case 'F': bd.trsm += dur; break;
    case 'U': bd.update += dur; break;
    case 'S': bd.selinv += dur; break;
    case 'Y': case 'X': case 'C': case 'Z': bd.solve += dur; break;
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

  // ---- Classify events into task spans and fetch marks.
  std::vector<Span> spans;
  spans.reserve(events_.size());
  // (snode, slot) -> sorted arrival times of fetch marks.
  std::unordered_map<std::uint64_t, std::vector<double>> fetches;
  int max_rank = -1;
  bool meta_seen = false;
  for (const auto& e : events_) {
    max_rank = std::max(max_rank, e.rank);
    rep.makespan_s = std::max(rep.makespan_s, e.end_s);
    Span s;
    s.rank = e.rank;
    s.begin = e.begin_s;
    s.end = e.end_s;
    s.name = &e.name;
    if (e.meta.kind != 0) {
      meta_seen = true;
      s.kind = e.meta.kind;
      s.snode = e.meta.snode;
      s.a = e.meta.a;
      s.b = e.meta.b;
      s.tgt = e.meta.tgt;
      s.tgt_slot = e.meta.tgt_slot;
    } else if (!parse_span_name(e.name, s)) {
      s.kind = 0;  // recovery/pool mark or foreign event
    }
    if (s.kind == 'g') {
      fetches[bkey(s.snode, std::max<std::int64_t>(s.a, 0))].push_back(s.end);
      continue;
    }
    if (e.end_s > e.begin_s || s.kind != 0) {
      s.id = static_cast<int>(spans.size());
      spans.push_back(s);
    }
  }
  for (auto& [key, times] : fetches) std::sort(times.begin(), times.end());
  rep.nranks = max_rank + 1;
  rep.num_spans = spans.size();
  rep.had_metadata = meta_seen;
  if (spans.empty()) return rep;

  // ---- Aggregate totals.
  for (const Span& s : spans) {
    const double dur = s.end - s.begin;
    add_category(rep.total, s.kind, dur);
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
  for (const Span& s : spans) {
    switch (s.kind) {
      case 'D':
        producers[pkey('D', s.snode, 0)].push_back(s.id);
        break;
      case 'F':
        producers[pkey('F', s.snode, std::max<std::int64_t>(s.a, 0))]
            .push_back(s.id);
        break;
      case 'Y':
      case 'X':
        producers[pkey(s.kind, s.snode, 0)].push_back(s.id);
        break;
      case 'C':
      case 'Z':
        producers[pkey(s.kind, s.snode, std::max<std::int64_t>(s.a, 0))]
            .push_back(s.id);
        break;
      default:
        break;
    }
    if (s.tgt >= 0) {
      folds[bkey(s.tgt, std::max<std::int64_t>(s.tgt_slot, 0))]
          .push_back(s.id);
    }
    by_rank[static_cast<std::size_t>(s.rank)].push_back(s.id);
  }
  std::vector<int> rank_pos(spans.size(), -1);
  for (auto& ids : by_rank) {
    std::sort(ids.begin(), ids.end(), [&](int x, int y) {
      if (spans[x].begin != spans[y].begin) {
        return spans[x].begin < spans[y].begin;
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
      if (spans[static_cast<std::size_t>(id)].end <= by + kEps &&
          (best < 0 || spans[static_cast<std::size_t>(id)].end >
                           spans[static_cast<std::size_t>(best)].end)) {
        best = id;
      }
    }
    return best;
  };
  // Latest span folding into block (tgt, slot) of kind in `kinds`,
  // completing no later than `by`.
  auto latest_fold = [&](std::uint64_t key, const char* kinds,
                         double by) -> int {
    const auto it = folds.find(key);
    if (it == folds.end()) return -1;
    int best = -1;
    for (int id : it->second) {
      const Span& s = spans[static_cast<std::size_t>(id)];
      bool match = false;
      for (const char* c = kinds; *c != '\0'; ++c) match |= (s.kind == *c);
      if (match && s.end <= by + kEps &&
          (best < 0 ||
           s.end > spans[static_cast<std::size_t>(best)].end)) {
        best = id;
      }
    }
    return best;
  };

  // ---- Backward walk from the span that ends at the makespan.
  int cur = 0;
  for (const Span& s : spans) {
    if (s.end > spans[static_cast<std::size_t>(cur)].end) cur = s.id;
  }
  rep.critical_path_s = spans[static_cast<std::size_t>(cur)].end;

  std::size_t guard = spans.size() + 1;
  while (cur >= 0 && guard-- > 0) {
    const Span& s = spans[static_cast<std::size_t>(cur)];
    CritPathReport::Segment seg;
    seg.name = *s.name;
    seg.kind = s.kind;
    seg.rank = s.rank;
    seg.snode = s.snode;
    seg.begin_s = s.begin;
    seg.end_s = s.end;
    add_category(rep.path, s.kind, s.end - s.begin);
    ++rep.path_tasks;

    // Candidate predecessors: the latest-finishing input wins.
    int pred = -1;
    // The (snode, slot) key whose transfer the consumer would have
    // fetch-marked, for splitting a cross-rank gap into comm + wait.
    std::uint64_t fetch_key = 0;
    bool have_fetch_key = false;
    auto consider = [&](int cand, std::uint64_t fk, bool has_fk) {
      if (cand < 0) return;
      if (pred < 0 || spans[static_cast<std::size_t>(cand)].end >
                          spans[static_cast<std::size_t>(pred)].end) {
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
    switch (s.kind) {
      case 'D':
        consider(latest_fold(bkey(s.snode, 0), "U", s.begin),
                 bkey(s.snode, 0), true);
        break;
      case 'F': {
        consider(latest_producer(pkey('D', s.snode, 0), s.begin),
                 bkey(s.snode, 0), true);
        const std::int64_t slot = std::max<std::int64_t>(s.a, 0);
        consider(latest_fold(bkey(s.snode, slot), "U", s.begin),
                 bkey(s.snode, slot), true);
        break;
      }
      case 'U':
        if (s.a >= 0) {
          consider(latest_producer(pkey('F', s.snode, s.a), s.begin),
                   bkey(s.snode, s.a), true);
        }
        if (s.b >= 0) {
          consider(latest_producer(pkey('F', s.snode, s.b), s.begin),
                   bkey(s.snode, s.b), true);
        }
        break;
      case 'Y':
        consider(latest_fold(bkey(s.snode, 0), "C", s.begin),
                 bkey(s.snode, 0), true);
        break;
      case 'X':
        consider(latest_fold(bkey(s.snode, 0), "Z", s.begin),
                 bkey(s.snode, 0), true);
        consider(latest_producer(pkey('Y', s.snode, 0), s.begin), 0, false);
        break;
      case 'C':
        if (s.b >= 0) {
          consider(latest_producer(pkey('Y', s.b, 0), s.begin),
                   bkey(s.b, 0), true);
        }
        break;
      case 'Z':
        if (s.b >= 0) {
          consider(latest_producer(pkey('X', s.b, 0), s.begin),
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
      seg.wait_s = std::max(0.0, s.begin);
      rep.path.wait += seg.wait_s;
      rep.path_segments.push_back(std::move(seg));
      break;
    }

    const Span& p = spans[static_cast<std::size_t>(pred)];
    const double gap = std::max(0.0, s.begin - p.end);
    if (gap > 0.0) {
      if (p.rank == s.rank) {
        seg.wait_s = gap;  // local scheduling delay (RTQ backlog)
      } else {
        // Cross-rank handoff: a fetch mark inside the gap splits it
        // into transfer (producer end -> data arrived) and wait (data
        // arrived -> task started); with no mark (metadata off, or a
        // path the engines don't mark) the whole gap is transfer.
        double arrived = s.begin;
        bool found = false;
        if (have_fetch_key) {
          const auto it = fetches.find(fetch_key);
          if (it != fetches.end()) {
            const auto& times = it->second;
            auto ub =
                std::upper_bound(times.begin(), times.end(), s.begin + kEps);
            while (ub != times.begin()) {
              --ub;
              if (*ub >= p.end - kEps) {
                arrived = std::max(*ub, p.end);
                found = true;
              }
              break;
            }
          }
        }
        if (found) {
          seg.comm_s = arrived - p.end;
          seg.wait_s = s.begin - arrived;
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
