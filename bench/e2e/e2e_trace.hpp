// The benchmark's own spans for the traced run.  Spans wrap each public
// call from outside the program — setup steps, one end-to-end pass, its
// served jobs, and the layers of the decomposed pass — and stay in memory
// until the run ends, when they are rendered as Chrome trace events and
// merged with the program's own stage spans (obs::StartTracing).
#ifndef GKGPU_BENCH_E2E_TRACE_HPP
#define GKGPU_BENCH_E2E_TRACE_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "e2e_io.hpp"

namespace gkgpu::e2e {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            // span id of the caller; -1 = a root span
  std::int64_t request = -1;  // job id of a served request; -1 = none
  int lane = 0;               // 0 = the benchmark's main thread
};

class SpanLog {
 public:
  /// Opens a span and returns its id.  Thread-safe.
  int Open(const char* name, int parent, std::int64_t request = -1,
           int lane = 0) {
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, request, lane});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Closes span `id`; returns its duration in seconds.
  double Close(int id) {
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now;
    return static_cast<double>(now - s.start_ns) * 1e-9;
  }

  /// Summed duration of `parent`'s direct children named `name`, seconds.
  double ChildSeconds(int parent, const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t ns = 0;
    for (const SpanRecord& s : spans_) {
      if (s.parent == parent && name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Chrome "X" events, comma-separated, timestamps in microseconds
  /// relative to `epoch_ns`.  Span id, parent and request ride in args.
  std::string RenderEvents(std::int64_t epoch_ns, long pid) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (!out.empty()) out += ",";
      out += "\n{\"name\":\"" + std::string(s.name) + "\",\"cat\":\"e2e\"";
      out += ",\"ph\":\"X\",\"ts\":" + Micros(s.start_ns - epoch_ns);
      out += ",\"dur\":" + Micros(s.end_ns - s.start_ns);
      out += ",\"pid\":" + std::to_string(pid);
      out += ",\"tid\":" + std::to_string(s.lane);
      out += ",\"args\":{\"id\":" + std::to_string(i);
      out += ",\"parent\":" + std::to_string(s.parent);
      out += ",\"request\":" + std::to_string(s.request) + "}}";
    }
    return out;
  }

 private:
  static std::string Micros(std::int64_t ns) {
    return std::to_string(ns / 1000);
  }

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Scoped span on an optional log (null = tracing off, no cost).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent,
             std::int64_t request = -1, int lane = 0)
      : log_(log),
        id_(log != nullptr ? log->Open(name, parent, request, lane) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace gkgpu::e2e

#endif  // GKGPU_BENCH_E2E_TRACE_HPP
