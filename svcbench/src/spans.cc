#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace svcbench {

uint64_t SpanLog::Now() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

int SpanLog::Begin(std::string name, int parent) {
  const uint64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), parent, now, now, {}});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  const uint64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

void SpanLog::Attr(int id, std::string key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].attrs.emplace_back(std::move(key), value);
}

std::map<std::string, SpanLog::Times> SpanLog::TimesByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, Times> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may run concurrently (one per client), so subtract the
    // union of their intervals, clipped to the parent's.
    std::vector<std::pair<uint64_t, uint64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t reach = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    Times& t = out[s.name];
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    ++t.count;
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::map<std::string, Times> times = TimesByName();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"attrs\": {",
                   i, s.name.c_str(), s.parent,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        std::fprintf(f, "%s\"%s\": %.17g", a ? ", " : "",
                     s.attrs[a].first.c_str(), s.attrs[a].second);
      }
      std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
  }
  std::fprintf(f, "],\n\"times_by_name\": {\n");
  size_t k = 0;
  for (const auto& [name, t] : times) {
    std::fprintf(f,
                 "  \"%s\": {\"count\": %zu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}%s\n",
                 name.c_str(), t.count, t.total_ms, t.self_ms,
                 ++k < times.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace svcbench
