#ifndef SVCBENCH_SPANS_H_
#define SVCBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace svcbench {

/// In-memory span log of a traced run: one span per call into a layer,
/// with the program counters read at the same boundary as attributes.
/// Written out once, when the run ends. Thread-safe.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  /// Opens a span under `parent` (-1 = root) and returns its id.
  int Begin(std::string name, int parent);
  void End(int id);
  void Attr(int id, std::string key, double value);

  /// Per span name: total duration and self time (duration minus the part
  /// of its interval that child spans cover), in ms.
  struct Times {
    double total_ms = 0;
    double self_ms = 0;
    size_t count = 0;
  };
  std::map<std::string, Times> TimesByName() const;

  /// Writes every span and the per-name times as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  uint64_t Now() const;

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null log makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->Begin(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void Attr(std::string key, double value) {
    if (log_) log_->Attr(id_, std::move(key), value);
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace svcbench

#endif  // SVCBENCH_SPANS_H_
