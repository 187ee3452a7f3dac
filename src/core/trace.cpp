#include "core/trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"

namespace sympack::core {

std::string Tracer::Event::name() const {
  if (kind == TaskTag::kCounter) return mark != nullptr ? mark : "";
  const char tag = static_cast<char>(kind);
  const auto k = static_cast<long long>(snode);
  char buf[72];
  switch (kind) {
    case TaskTag::kUpdate:
      std::snprintf(buf, sizeof buf, "%c %lld:%lld:%lld", tag, k,
                    static_cast<long long>(a), static_cast<long long>(b));
      break;
    case TaskTag::kFactor:
    case TaskTag::kContribFwd:
    case TaskTag::kContribBwd:
    case TaskTag::kFetch:
      std::snprintf(buf, sizeof buf, "%c %lld:%lld", tag, k,
                    static_cast<long long>(a));
      break;
    default:
      std::snprintf(buf, sizeof buf, "%c %lld", tag, k);
      break;
  }
  return buf;
}

void Tracer::record(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::vector<Tracer::Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

std::string Tracer::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "[";
  bool first = true;
  char num[96];
  for (const auto& e : events_) {
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":")" << support::json_escape(e.name()) << '"';
    std::snprintf(num, sizeof num,
                  R"(,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f)",
                  e.rank, e.begin_s * 1e6, (e.end_s - e.begin_s) * 1e6);
    out << num;
    if (e.kind != TaskTag::kCounter) {
      const char cat = static_cast<char>(e.kind);
      out << R"(,"cat":")" << cat << R"(","args":{"kind":")" << cat
          << R"(","snode":)" << e.snode;
      if (e.a >= 0) out << R"(,"a":)" << e.a;
      if (e.b >= 0) out << R"(,"b":)" << e.b;
      if (e.tgt >= 0) {
        out << R"(,"tgt":)" << e.tgt << R"(,"tgt_slot":)" << e.tgt_slot;
      }
      out << '}';
    }
    out << '}';
  }
  out << "]\n";
  return out.str();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("Tracer: cannot open " + path);
  f << to_chrome_json();
}

}  // namespace sympack::core
